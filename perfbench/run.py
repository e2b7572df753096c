#!/usr/bin/env python3
"""End-to-end campaign benchmark: probes/sec, time to verdict, set-up cost.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 14 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``sweep-cold``   — serial explorations, every cache cleared per campaign;
* ``fabric-warm``  — coordinator + client + 2 workers in this process,
  campaigns resubmitted to a warmed fleet;
* ``servers-pool`` — structured-fault explorations of the Python-level
  servers on a ``processes:2`` pool.

A run sets the system up (``setup_s`` is the median of several set-ups,
one here and the rest in fresh child processes), computes every
campaign's serial reference in a child process, then runs whole passes
over the workload's campaign list, in a seeded order.  The number of
passes is ``--seconds`` over the workload's nominal pass time, so a run
measures for about ``--seconds`` at the reference speed and does the same
work on any host.  Every record is checked against the reference.

Times are reported at a reference host speed.  A fixed pure-Python loop,
independent of the program, is timed before every campaign and between
the steps of every set-up (on each CPU in turn when the workload uses
several).  Each stretch of time is divided by the loop's time around it
over its time at the reference speed (the *slowdown*).  On a shared host
whose CPUs change speed by tens of percent from second to second, this
keeps the host's state out of the figures and leaves the program's in.
The wall-clock figures and the slowdowns go to the ``info`` line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: it times a few untraced passes, installs the
span wrappers (perfbench/spans.py), sets the system up afresh, times the
same number of traced passes, and reports per-pass layer counts and self
times plus the tracing overhead.  Process-pool children are not traced:
on ``servers-pool`` the layers that run inside them come from a traced
serial replay of the same campaigns.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON ``info`` object with sample counts, quartiles and the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

from campaigns import (  # noqa: E402  (HERE is the script directory)
    WORKLOADS,
    Reference,
    campaign_list,
    compute_reference,
    failed_probes,
    pass_order,
)

#: Set-ups per run: this process plus the rest in fresh children.  A
#: sweep-cold set-up is short (about 0.3 s), so it takes more of them.
SETUP_SAMPLES = {"sweep-cold": 9, "fabric-warm": 5, "servers-pool": 5}
#: The host-speed probe: iterations of the calibration loop, and one
#: loop's time at the reference speed (a 2-vCPU x86-64 host in its fast
#: state).
CALIBRATION_ITERATIONS = 20_000
REFERENCE_CALIBRATION_S = 0.003
#: Seconds one pass takes at the reference speed.  ``--seconds`` sets a
#: fixed number of passes from it, so a run does the same work however
#: fast the host is right now (and its peak memory does not depend on it).
NOMINAL_PASS_S = {"sweep-cold": 1.3, "fabric-warm": 1.25, "servers-pool": 1.15}
#: Passes per phase of a traced run.
TRACE_PASSES = 2
#: A child set-up that takes longer than this fails the run.
CHILD_TIMEOUT_S = 150


@dataclass
class Measurement:
    #: campaign -> its timed samples at the reference speed, and the same
    #: samples in wall-clock seconds.
    per_campaign: Dict[object, List[float]] = field(default_factory=dict)
    wall_per_campaign: Dict[object, List[float]] = field(default_factory=dict)
    #: campaign -> the probes one run of it completes.
    probes: Dict[object, int] = field(default_factory=dict)
    #: Per pass: the host slowdown it ran at, and its unique failures.
    slowdowns: List[float] = field(default_factory=list)
    pass_unique: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong_unique: int = 0

    @property
    def samples(self) -> int:
        return sum(len(times) for times in self.per_campaign.values())

    @property
    def probes_per_s(self) -> float:
        """Probes of one pass over the sum of each campaign's median time:
        a slowdown that spans less than half of a campaign's runs does not
        move it."""
        return rate(self.probes, self.per_campaign)

    @property
    def wall_probes_per_s(self) -> float:
        return rate(self.probes, self.wall_per_campaign)

    @property
    def campaign_p50_s(self) -> float:
        """Each campaign's median time, averaged over the campaign list."""
        return statistics.fmean(statistics.median(times) for times in self.per_campaign.values())

    def tail(self) -> tuple:
        """``(percentile, campaign time at it)``.  Every sample is taken
        relative to its own campaign's median, so campaigns of different
        sizes never meet at a percentile; the percentile of those ratios
        scales ``campaign_p50_s``."""
        ratios = [
            seconds / statistics.median(times)
            for times in self.per_campaign.values() for seconds in times
        ]
        pct = tail_percentile(len(ratios))
        spread = percentile(ratios, pct) if len(ratios) > 1 else 1.0
        return pct, self.campaign_p50_s * spread


def rate(probes: Dict[object, int], per_campaign: Dict[object, List[float]]) -> float:
    seconds = sum(statistics.median(times) for times in per_campaign.values())
    return sum(probes.values()) / seconds


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
def calibration_seconds(every_cpu: bool = False) -> float:
    """How fast the host runs interpreter-bound code right now: the time of
    a fixed pure-Python loop that touches nothing of the program.

    On a shared host each CPU has its own speed from moment to moment.  A
    serial workload runs where this process runs, so one loop here reads
    it.  With *every_cpu*, for workloads that spread over several CPUs,
    the loop runs pinned to each CPU of this process in turn and the mean
    is returned.
    """
    cpus = sorted(os.sched_getaffinity(0)) if every_cpu and hasattr(os, "sched_setaffinity") \
        else []
    if len(cpus) < 2:
        return _calibration_loop()
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_calibration_loop())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def _calibration_loop() -> float:
    table: Dict[int, int] = {}
    start = time.perf_counter()
    for number in range(CALIBRATION_ITERATIONS):
        table[number & 1023] = table.get(number & 1023, 0) + number
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def make_runner(workload: str, store_dir: str, tracer=None):
    import runners

    if workload == "sweep-cold":
        return runners.SweepCold()
    if workload == "fabric-warm":
        on_untimed = None
        if tracer is not None:
            def on_untimed(active: bool) -> None:
                tracer.active = active
        return runners.FabricWarm(store_dir, on_untimed)
    return runners.ServersPool()


def bring_up(runner, campaigns, lap=lambda: None) -> None:
    """``runner.setup()`` and its warm-up pass, calling *lap* after each step."""
    runner.setup()
    lap()
    if runner.warm_up:
        for campaign in campaigns:
            runner.run_campaign(campaign)
            lap()


class Stopwatch:
    """Wall time in stretches, each scaled by the host readings taken just
    before and just after it."""

    def __init__(self, every_cpu: bool) -> None:
        self.every_cpu = every_cpu
        self.readings = [calibration_seconds(every_cpu)]
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self._start = time.perf_counter()

    def lap(self) -> None:
        wall = time.perf_counter() - self._start
        self.readings.append(calibration_seconds(self.every_cpu))
        slowdown = (self.readings[-2] + self.readings[-1]) / (2 * REFERENCE_CALIBRATION_S)
        self.wall_s += wall
        self.scaled_s += wall / slowdown
        self._start = time.perf_counter()


def import_program() -> None:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        # Never fall back to an installed copy: measure this checkout.
        raise SystemExit(f"perfbench: no program at {SRC}; run from a checkout's root")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro  # noqa: F401


def timed_setup(workload: str, seed: int, limit: Optional[int], store_dir: str):
    """Import the program and bring *workload* up.

    Returns ``(runner, campaigns, {"setup_s", "wall_s"})``: the set-up
    time at the reference speed (the import, the start and each warm-up
    campaign scaled separately) and in wall-clock seconds.
    """
    runner = make_runner(workload, store_dir)  # a plain object, not yet set up
    watch = Stopwatch(runner.every_cpu)
    import_program()  # import cost is set-up cost
    watch.lap()
    campaigns = campaign_list(workload, seed)[:limit]
    bring_up(runner, campaigns, watch.lap)
    return runner, campaigns, {"setup_s": watch.scaled_s, "wall_s": watch.wall_s}


def child_output(args, mode: str):
    """Run this script in *mode* in a fresh process; its last line, parsed."""
    command = [sys.executable, os.path.abspath(__file__), mode,
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
    if completed.returncode != 0:
        raise RuntimeError(f"child {mode} failed:\n{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def references_of(args, campaigns) -> Dict[object, Reference]:
    """Every campaign's serial reference, computed in a child process so
    that it adds nothing to this process's heap or peak memory."""
    payload = child_output(args, "--references-only")
    return {campaign: Reference(**payload[campaign.name]) for campaign in campaigns}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def measure(runner, campaigns, references, rng, passes: int, tracer=None) -> Measurement:
    """Run *passes* whole passes over *campaigns*, checking every record.

    The host's speed is read before every campaign and after a pass's last
    one; a campaign's time is scaled by the mean of the readings on either
    side of it.
    """
    result = Measurement()
    every_cpu = runner.every_cpu
    for _ in range(passes):
        readings = []
        runs = []
        pass_unique = 0
        for campaign in pass_order(campaigns, rng):
            readings.append(calibration_seconds(every_cpu))
            if tracer is not None:
                tracer.campaign = campaign.name
            run = runner.run_campaign(campaign)
            reference = references[campaign]
            runs.append((campaign, run.seconds))
            result.probes[campaign] = len(run.records)
            result.attempted += len(reference.records)
            result.failed += failed_probes(reference, run.records)
            if run.unique_failures != reference.unique_failures:
                result.wrong_unique += 1
            pass_unique += run.unique_failures
        readings.append(calibration_seconds(every_cpu))
        for index, (campaign, seconds) in enumerate(runs):
            slowdown = (readings[index] + readings[index + 1]) / (2 * REFERENCE_CALIBRATION_S)
            result.wall_per_campaign.setdefault(campaign, []).append(seconds)
            result.per_campaign.setdefault(campaign, []).append(seconds / slowdown)
        result.slowdowns.append(statistics.median(readings) / REFERENCE_CALIBRATION_S)
        result.pass_unique.append(pass_unique)
    return result


def tail_percentile(samples: int) -> int:
    """90, or the highest percentile with ten samples beyond it (at least
    the median)."""
    return max(50, min(90, int(100 * (1 - 10 / samples))))


def percentile(samples: List[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def filesystem_of(path: str) -> str:
    """The mount type holding *path*, from /proc/mounts (or "unknown")."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: Layers that run inside process-pool children on servers-pool.
POOL_CHILD_LAYERS = ("vm.", "libc.", "gate.", "snapshot.", "prefix.", "memo.", "server.")


def layer_metrics(tracer, passes: int) -> Dict[str, float]:
    """Per-pass layer counts and self times from one traced phase."""
    import threading

    aggregates = tracer.aggregates()
    main_thread = tracer.aggregates(thread=threading.main_thread().name)
    counters = tracer.counters()

    def calls(*names):
        return sum(aggregates.get(name, (0, 0.0, 0.0))[0] for name in names) / passes

    def self_s(*names):
        return sum(aggregates.get(name, (0, 0.0, 0.0))[2] for name in names) / passes

    def counted(name):
        return counters.get(name, 0) / passes

    restores = ("snapshot.restore_boot", "snapshot.fork_step", "snapshot.mid_restore",
                "snapshot.world_restore")
    servers = ("server.apache_run", "server.apache_prefix_group", "server.mysql_run")
    lookups = calls("memo.lookup")
    return {
        "analysis.calls": calls("analysis.analyze"),
        "analysis.self_s": self_s("analysis.analyze"),
        "profiler.self_s": self_s("profiler.profile_libraries"),
        "vm.runs": calls("vm.run", "vm.resume"),
        "vm.self_s": self_s("vm.run", "vm.resume"),
        "libc.calls": calls("libc.call"),
        "libc.self_s": self_s("libc.call"),
        "gate.injections": counted("gate.injections"),
        "snapshot.boot_captures": calls("snapshot.boot_capture"),
        "snapshot.boot_self_s": self_s("snapshot.boot_capture"),
        "snapshot.world_captures": calls("snapshot.world_capture"),
        "snapshot.world_self_s": self_s("snapshot.world_capture"),
        "snapshot.restores": calls(*restores),
        "snapshot.restore_self_s": self_s(*restores),
        "prefix.groups": calls("prefix.run_entry_group"),
        "prefix.self_s": self_s("prefix.run_entry_group", "prefix.replicate_result"),
        "prefix.replicas": calls("prefix.replicate_result"),
        "memo.lookups": lookups,
        "memo.hit_ratio": counted("memo.hits") / lookups if lookups else 0.0,
        "memo.self_s": self_s("memo.lookup", "memo.store"),
        "plan.rounds": calls("plan.next_round"),
        "plan.self_s": self_s("plan.next_round"),
        "store.appends": calls("store.record"),
        "store.self_s": self_s("store.record"),
        "store.encode_s": self_s("store.to_dict"),
        "wire.messages": calls("wire.send"),
        "wire.send_s": self_s("wire.send"),
        "wire.recv_wait_s": main_thread.get("wire.recv", (0, 0.0, 0.0))[1] / passes,
        "lease.granted": counted("lease.granted"),
        "lease.expired": counted("lease.expired"),
        "executor.batches": counted("executor.wait.items"),
        "executor.wait_s": self_s("executor.wait"),
        "server.runs": calls(*servers),
        "server.self_s": self_s(*servers),
    }


def traced_run(args, runner, campaigns, references, rng, store_dir, totals: Measurement):
    """The ``--trace 1`` phases; returns ``(metrics, info)``."""
    import runners
    import spans

    passes = 1 if args.smoke else TRACE_PASSES
    untraced = measure(runner, campaigns, references, rng, passes)
    runner.close()
    merge(totals, untraced)

    tracer = spans.Tracer()
    installation = spans.install(tracer)
    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    try:
        runner = make_runner(args.workload, os.path.join(store_dir, "traced"), tracer)
        try:
            bring_up(runner, campaigns)
            tracer.reset()
            traced = measure(runner, campaigns, references, rng, passes, tracer)
        finally:
            runner.close()
        merge(totals, traced)
        metrics = layer_metrics(tracer, passes)
        tracer.write_jsonl(trace_path)
        replay_note = None
        if args.workload == "servers-pool":
            # Pool children do not ship spans back: their layers come from
            # a traced serial replay of the same campaigns.
            tracer.reset()
            replay = runners.ServersPool()
            replay.parallelism = None
            replayed = measure(replay, campaigns, references, rng, 1, tracer)
            merge(totals, replayed)
            child = layer_metrics(tracer, 1)
            for name, value in child.items():
                if name.startswith(POOL_CHILD_LAYERS):
                    metrics[name] = value
            tracer.write_jsonl(trace_path.replace(".jsonl", "-replay.jsonl"))
            replay_note = "pool-child layers from a traced serial replay"
    finally:
        installation.restore()
    metrics["trace.probes_per_s"] = traced.probes_per_s
    metrics["trace.overhead_ratio"] = untraced.probes_per_s / traced.probes_per_s
    info = {
        "untraced_probes_per_s": untraced.probes_per_s,
        "traced_probes_per_s": traced.probes_per_s,
        "pass_slowdown": quartiles(untraced.slowdowns + traced.slowdowns),
        "passes_per_phase": passes,
        "trace_file": os.path.relpath(trace_path, ROOT),
        "pool_children": replay_note,
        "spans_dropped": tracer.dropped,
    }
    return metrics, info


def merge(totals: Measurement, part: Measurement) -> None:
    totals.attempted += part.attempted
    totals.failed += part.failed
    totals.wrong_unique += part.wrong_unique


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tests only: two campaigns, one pass, one set-up")
    # Child-process modes of a run.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--references-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    store_dir = os.path.join(OUT_DIR, "stores", f"{os.getpid()}")
    try:
        return run(args, store_dir)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


def run(args, store_dir: str) -> int:
    limit = 2 if args.smoke else None
    if args.references_only:
        import_program()
        print(json.dumps({
            campaign.name: asdict(compute_reference(campaign))
            for campaign in campaign_list(args.workload, args.seed)[:limit]
        }))
        return 0
    runner, campaigns, setup = timed_setup(args.workload, args.seed, limit, store_dir)
    if args.setup_only:
        runner.close()
        print(json.dumps(setup))
        return 0
    try:
        setups = [setup]
        if args.trace == 0 and not args.smoke:
            setups += [child_output(args, "--setup-only")
                       for _ in range(SETUP_SAMPLES[args.workload] - 1)]
        references = references_of(args, campaigns)
        rng = random.Random(f"order:{args.workload}:{args.seed}")
        totals = Measurement()
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "campaigns_per_pass": len(campaigns),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "store_fs": filesystem_of(OUT_DIR),
            "repro_env": {key: value for key, value in os.environ.items()
                          if key.startswith("REPRO_")},
            "reference_calibration_s": REFERENCE_CALIBRATION_S,
        }
        if args.trace:
            metrics, trace_info = traced_run(
                args, runner, campaigns, references, rng, store_dir, totals
            )
            info["trace"] = trace_info
        else:
            passes = 1 if args.smoke else max(
                1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
            started = time.perf_counter()
            timed = measure(runner, campaigns, references, rng, passes)
            measured_seconds = time.perf_counter() - started
            runner.close()
            merge(totals, timed)
            tail, campaign_tail_s = timed.tail()
            metrics = {
                "probes_per_s": timed.probes_per_s,
                "campaign_p50_s": timed.campaign_p50_s,
                "campaign_p90_s": campaign_tail_s,
                "unique_failures": statistics.median_low(timed.pass_unique),
                "setup_s": statistics.median(sample["setup_s"] for sample in setups),
                # Set-up and timed passes ran here; references did not.
                "peak_rss_mb": peak_rss_mb(),
            }
            info.update({
                "passes": passes,
                "measured_s": measured_seconds,
                "campaigns_timed": timed.samples,
                "campaign_p90_s_percentile": tail,
                "campaign_s": {campaign.name: quartiles(times)
                               for campaign, times in timed.per_campaign.items()},
                "wall_probes_per_s": timed.wall_probes_per_s,
                "pass_slowdown": quartiles(timed.slowdowns),
                "setup_samples": setups,
            })
    except BaseException:
        runner.close()
        raise
    expected_unique = sum(reference.unique_failures for reference in references.values())
    info["reference_unique_failures"] = expected_unique
    correct = totals.failed == 0 and totals.wrong_unique == 0
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
