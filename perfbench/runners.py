"""Workload runners: bring the system up, run one campaign, tear down.

Every runner exposes the same three calls, all through the public API:

* ``setup()`` — bring the system up;
* ``run_campaign(campaign)`` — returns a :class:`CampaignRun` whose
  ``seconds`` covers the ``explore``/``submit`` call up to the last record;
* ``close()``.

A runner whose ``warm_up`` is true runs one untimed pass over the
campaign list after ``setup()``; both count as set-up.  ``every_cpu``
says whether the workload's work spreads over several CPUs (threads or a
process pool), so that the host's speed is read on each of them.

The campaign loop is closed: one campaign at a time, from one thread.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from campaigns import COMPILED_PAIRS, Campaign, unique_failure_count

#: Give up on a fabric campaign that has not completed after this long.
FABRIC_CAMPAIGN_TIMEOUT_S = 120.0


@dataclass
class CampaignRun:
    seconds: float
    records: List[Dict]
    unique_failures: int


def _explore(campaign: Campaign, parallelism=None) -> CampaignRun:
    """Time ``build_engine`` + ``explore`` of one spec, as a user runs it:
    enumerating the space (call-site analysis included) is part of it."""
    from repro.distributed import build_engine

    start = time.perf_counter()
    engine, points = build_engine(campaign.spec())
    engine.parallelism = parallelism
    report = engine.explore(points)
    seconds = time.perf_counter() - start
    records = [stored.to_dict() for stored in report.store.results()]
    return CampaignRun(seconds, records, len(report.unique_failures))


class SweepCold:
    """Serial explorations, every cache cleared before each campaign."""

    warm_up = False
    every_cpu = False

    def setup(self) -> None:
        from repro.targets import resolve_target

        for target in sorted({target for target, _ in COMPILED_PAIRS}):
            resolve_target(target).binary()

    def run_campaign(self, campaign: Campaign) -> CampaignRun:
        from repro import clear_artifact_cache, clear_suffix_memo

        clear_artifact_cache()
        clear_suffix_memo()
        return _explore(campaign)

    def close(self) -> None:
        pass


class ServersPool:
    """Structured-fault explorations of the Python-level servers, each on
    a fresh ``processes:2`` pool, as a user passes it to ``explore``."""

    parallelism: Optional[str] = "processes:2"
    warm_up = True
    every_cpu = True

    def setup(self) -> None:
        pass

    def run_campaign(self, campaign: Campaign) -> CampaignRun:
        return _explore(campaign, self.parallelism)

    def close(self) -> None:
        pass


class FabricWarm:
    """A resident coordinator, one client and two workers in this process.

    The workers are driven round-robin from the calling thread with
    ``run_once()``, so no poll sleep enters a measurement.  Every campaign
    gets a fresh store path, so it is a new campaign to the coordinator;
    the warm-up pass fills the boot templates and the suffix memo for the
    timed passes.
    """

    workers = 2
    warm_up = True
    every_cpu = True

    def __init__(self, store_dir: str,
                 on_untimed: Optional[Callable[[bool], None]] = None) -> None:
        self.store_dir = store_dir
        #: Called with False before and True after the benchmark's own
        #: (untimed) fetch of the results, so tracing can skip it.
        self.on_untimed = on_untimed or (lambda _active: None)
        self.coordinator = None
        self.client = None
        self.fleet: List = []
        self._stores = 0

    def setup(self) -> None:
        from repro import clear_artifact_cache, clear_suffix_memo
        from repro.distributed import CampaignClient, CampaignCoordinator, CampaignWorker

        clear_artifact_cache()
        clear_suffix_memo()
        os.makedirs(self.store_dir, exist_ok=True)
        # Stores are flushed but not fsynced: the benchmark measures the
        # program, not the disk under the checkout.
        self.coordinator = CampaignCoordinator(durable_stores=False)
        address = self.coordinator.start()
        self.client = CampaignClient(address)
        self.fleet = [
            CampaignWorker(address, worker_id=f"bench-worker-{number}")
            for number in range(self.workers)
        ]

    def run_campaign(self, campaign: Campaign) -> CampaignRun:
        self._stores += 1
        spec = campaign.spec(
            store_path=os.path.join(self.store_dir, f"campaign-{self._stores}.jsonl")
        )
        start = time.perf_counter()
        campaign_id = self.client.submit(spec)["campaign_id"]
        deadline = start + FABRIC_CAMPAIGN_TIMEOUT_S
        while True:
            progressed = False
            for worker in self.fleet:
                progressed = worker.run_once() or progressed
            if progressed:
                continue
            if self.client.status(campaign_id)["state"] != "running":
                break
            if time.perf_counter() > deadline:
                raise RuntimeError(f"fabric campaign {campaign.name} did not complete")
        seconds = time.perf_counter() - start
        self.on_untimed(False)
        try:
            records = self.client.results(campaign_id)
        finally:
            self.on_untimed(True)
        return CampaignRun(seconds, records, unique_failure_count(records))

    def close(self) -> None:
        for worker in self.fleet:
            worker.close()
        self.fleet = []
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.coordinator is not None:
            self.coordinator.stop()
            self.coordinator = None


__all__ = ["CampaignRun", "FabricWarm", "ServersPool", "SweepCold"]
