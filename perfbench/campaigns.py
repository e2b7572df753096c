"""The campaign lists of the three workloads, and their reference check.

A campaign is one exploration spec.  Its reference is the same spec run
serially, with the suffix memo off and prefix sharing off — the slow path
every fast path must agree with — computed outside any timed region.  A
record of a timed campaign counts as a failed probe when it is missing
from the reference or differs from it in one of ``COMPARED_FIELDS``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

WORKLOADS = ("sweep-cold", "fabric-warm", "servers-pool")

#: Compiled (target, workload) pairs: every workload of both binaries.
COMPILED_PAIRS: Tuple[Tuple[str, str], ...] = tuple(
    [("mini_git", workload) for workload in ("default-tests", "status", "commit", "merge", "gc")]
    + [("mini_bind", workload) for workload in ("default-tests", "queries", "stats", "maintenance")]
)

#: Python-level servers, one representative workload each.  ``pbft`` is
#: left out: its records' stack fingerprints include the frames of whoever
#: called ``PBFTTarget.run`` (the stack walk has no workload boundary), so
#: pooled and serial runs of one spec disagree.  test_perfbench.py keeps
#: that defect visible as a strict expected failure.
SERVER_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("mini_apache", "ab-static"),
    ("mini_mysql", "sysbench-readwrite"),
)

#: Record fields a timed result must share with its reference: the point
#: key, the outcome kind and detail, the stack fingerprint, and the
#: injection log as stored (injection count and fault class/parameters).
COMPARED_FIELDS = ("key", "outcome", "detail", "fingerprint", "injections",
                   "fault_class", "fault_params")


@dataclass(frozen=True)
class Campaign:
    target: str
    workload: str
    strategy: Optional[str]  # None = exhaustive
    fault_classes: Optional[Tuple[str, ...]]
    seed: int

    @property
    def name(self) -> str:
        space = "errno+classes" if self.fault_classes else "errno"
        return f"{self.target}/{self.workload}/{self.strategy or 'exhaustive'}/{space}"

    def spec(self, **overrides):
        from repro.distributed import CampaignSpec

        spec = CampaignSpec(
            target=self.target,
            workload=self.workload,
            strategy=self.strategy,
            seed=self.seed,
            fault_classes=list(self.fault_classes) if self.fault_classes else None,
        )
        return replace(spec, **overrides)


def campaign_list(workload: str, seed: int) -> List[Campaign]:
    """The campaigns one pass of *workload* runs; *seed* sets their seeds."""
    from repro.core.faults import class_names

    rng = random.Random(f"campaigns:{workload}:{seed}")
    every_class = tuple(class_names())
    if workload == "sweep-cold":
        shapes = [(pair, strategy, classes)
                  for pair in COMPILED_PAIRS
                  for strategy, classes in ((None, every_class), ("coverage", None))]
    elif workload == "fabric-warm":
        shapes = [(pair, strategy, None)
                  for pair in COMPILED_PAIRS for strategy in (None, "coverage")]
    elif workload == "servers-pool":
        shapes = [(pair, None, every_class) for pair in SERVER_PAIRS]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return [
        Campaign(target, name, strategy, classes, rng.randrange(1, 2**31))
        for (target, name), strategy, classes in shapes
    ]


def pass_order(campaigns: List[Campaign], rng: random.Random) -> List[Campaign]:
    """One pass's campaign order: every campaign once, shuffled by *rng*."""
    order = list(campaigns)
    rng.shuffle(order)
    return order


# ----------------------------------------------------------------------
# reference check
# ----------------------------------------------------------------------
@dataclass
class Reference:
    """The serial-oracle result of one campaign: each record's compared
    fields by point key, and the deduplicated failure count.  It survives
    a JSON round trip unchanged, so a child process can compute it."""

    records: Dict[str, str]
    unique_failures: int


def project(record: Dict) -> str:
    """The compared fields of *record*, as canonical JSON."""
    return json.dumps([record.get(field) for field in COMPARED_FIELDS], sort_keys=True)


def compute_reference(campaign: Campaign) -> Reference:
    from repro.distributed import build_engine

    engine, points = build_engine(campaign.spec(
        share_prefixes=False, request_options={"memo": False},
    ))
    report = engine.explore(points)
    records = [stored.to_dict() for stored in report.store.results()]
    if report.pending or len(records) != report.selected:
        raise RuntimeError(f"reference run of {campaign.name} did not complete")
    unique = len(report.unique_failures)
    if unique_failure_count(records) != unique:
        raise RuntimeError(f"record-level failure dedup disagrees with {campaign.name}'s report")
    return Reference({record["key"]: project(record) for record in records}, unique)


def failed_probes(reference: Reference, records: Iterable[Dict]) -> int:
    """Probes of one campaign whose record is missing or differs."""
    seen = set()
    failed = 0
    for record in records:
        key = record.get("key")
        expected = reference.records.get(key)
        if expected is None or key in seen or project(record) != expected:
            failed += 1
        seen.add(key)
    return failed + len(set(reference.records) - seen)


def unique_failure_count(records: Iterable[Dict]) -> int:
    """Deduplicated injection-exposed failures, as ``explore()`` counts them."""
    from repro.core.exploration import FailureDeduplicator, StoredResult

    deduplicator = FailureDeduplicator()
    for payload in records:
        stored = StoredResult.from_dict(payload)
        outcome = stored.to_outcome()
        if outcome.is_failure and stored.injections > 0:
            deduplicator.add(
                function=stored.function,
                errno=stored.errno,
                outcome=outcome,
                fingerprint=stored.fingerprint,
                scenario=stored.scenario,
                fault_class=stored.fault_class,
            )
    return len(deduplicator)


__all__ = [
    "COMPARED_FIELDS",
    "Campaign",
    "Reference",
    "WORKLOADS",
    "campaign_list",
    "compute_reference",
    "failed_probes",
    "pass_order",
    "unique_failure_count",
]
