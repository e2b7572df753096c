#!/usr/bin/env python3
"""Dataplane execution-core benchmark — writes ``BENCH_dataplane.json``.

Three measurements for the PR 6 dataplane (superclosure block batching,
coverage-off hot loops, the delta result channel, run-to-completion group
draining):

1. **vm_micro** — raw VM steps/sec on a tight loop for all three engines
   (``reference``, ``compiled-steps``, ``compiled``), with coverage
   tracking off and on.  ``compiled`` vs ``compiled-steps`` isolates the
   superclosure win; the coverage-off column isolates the hot-loop win.
2. **pooled_campaign** — the headline: the PR 5 benchmark's pooled
   shared-campaign sweep (``bench_prefix_parallel.py``'s ``group_fanout``
   leg — mini_git, every fault-space scenario, one campaign per workload)
   re-run through today's pooled path on a resident worker pool, divided
   by the PR 5 number recorded in the committed
   ``BENCH_prefix_parallel.json`` from the same runner.
   ``dataplane_vs_pr5_pooled`` is that ratio; the target is >= 2x.
   Alongside it: the same sweep with PR 5's pool-per-campaign methodology
   (``dataplane_cold_pools``), the serial shared reference, and the PR 5
   *configuration* (per-instruction engine, round trip per group,
   full-state results) emulated on today's executor
   (``emulated_pr5_pooled``) as the like-for-like control.
3. **wire_bytes** — the delta channel's wire form: pickled size of one
   run's published result on the delta channel vs the full-state channel.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_dataplane.py [--smoke] \
        [--workers N] [--output BENCH_dataplane.json]

``--smoke`` shrinks the workloads for CI; the JSON schema is identical, so
the perf trajectory accumulates across runs either way.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.controller.campaign import TestCampaign  # noqa: E402
from repro.core.controller.controller import LFIController  # noqa: E402
from repro.core.controller.executor import (  # noqa: E402
    ProcessPoolBackend,
    derive_run_seed,
    execute_group,
)
from repro.core.controller.prefix import build_group_tasks  # noqa: E402
from repro.core.controller.target import WorkloadRequest  # noqa: E402
from repro.core.scenario.builder import ScenarioBuilder  # noqa: E402
from repro.coverage.tracker import CoverageTracker  # noqa: E402
from repro.minicc import compile_source  # noqa: E402
from repro.targets.mini_git import MiniGitTarget  # noqa: E402
from repro.vm import Machine  # noqa: E402

ENGINES = ("reference", "compiled-steps", "compiled")

MICRO_SOURCE = """
int main(int n) {
    int i; int acc; int buf[8];
    acc = 0;
    i = 0;
    while (i < n) {
        buf[i % 8] = acc + i;
        acc = acc + buf[i % 8] * 2 - (i / 3);
        if (acc > 100000) { acc = acc % 9973; }
        i = i + 1;
    }
    return acc % 251;
}
"""


# ----------------------------------------------------------------------
# 1. vm_micro: three engines x coverage off/on
# ----------------------------------------------------------------------
def bench_vm_micro(iterations: int, repeats: int) -> dict:
    binary = compile_source(MICRO_SOURCE, name="bench_dataplane_hot")
    results = {}
    steps = None
    for engine in ENGINES:
        row = {}
        for label, with_coverage in (("plain", False), ("coverage", True)):
            best = 0.0
            for _ in range(repeats):
                tracker = CoverageTracker() if with_coverage else None
                machine = Machine(binary, engine=engine, coverage=tracker,
                                  max_steps=500_000_000)
                start = time.perf_counter()
                status = machine.run(args=(iterations,))
                elapsed = time.perf_counter() - start
                if steps is None:
                    steps = status.steps
                assert status.steps == steps, \
                    "engines must execute identical step counts"
                best = max(best, status.steps / elapsed)
            row[f"steps_per_sec_{label}"] = round(best, 1)
        results[engine] = row
    results["steps"] = steps
    results["speedups"] = {
        "superclosures_vs_steps_plain": round(
            results["compiled"]["steps_per_sec_plain"]
            / results["compiled-steps"]["steps_per_sec_plain"], 2
        ),
        "superclosures_vs_steps_coverage": round(
            results["compiled"]["steps_per_sec_coverage"]
            / results["compiled-steps"]["steps_per_sec_coverage"], 2
        ),
        "compiled_vs_reference_plain": round(
            results["compiled"]["steps_per_sec_plain"]
            / results["reference"]["steps_per_sec_plain"], 2
        ),
        "coverage_off_win_compiled": round(
            results["compiled"]["steps_per_sec_plain"]
            / results["compiled"]["steps_per_sec_coverage"], 2
        ),
    }
    return results


# ----------------------------------------------------------------------
# 2. pooled_campaign: the PR 5 recorded baseline vs the dataplane
# ----------------------------------------------------------------------
def _fault_scenarios(target):
    controller = LFIController(target)
    analysis = controller.analyze_target()
    points = controller.fault_space(analysis=analysis, include_checked=True)
    return [point.scenario() for point in points]


def load_pr5_baseline() -> tuple:
    """The PR 5 ``BENCH_prefix_parallel.json``, preferring the committed copy.

    CI runs ``bench_prefix_parallel.py`` (which overwrites the workspace
    file with a fresh post-dataplane measurement) before this benchmark, so
    the committed artifact — recorded by the PR 5 code on this runner — is
    the one that actually represents the PR 5 baseline.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    name = "BENCH_prefix_parallel.json"
    try:
        import subprocess

        show = subprocess.run(
            ["git", "show", f"HEAD:{name}"],
            cwd=root, capture_output=True, text=True, timeout=30,
        )
        if show.returncode == 0:
            return json.loads(show.stdout), "git:HEAD"
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    try:
        with open(os.path.join(root, name), "r", encoding="utf-8") as handle:
            return json.load(handle), "worktree"
    except (OSError, ValueError):
        return None, None


def bench_pooled_campaign(repeats: int, workers: int) -> dict:
    """Reproduce the PR 5 benchmark's pooled shared-campaign sweep.

    The sweep shape is ``bench_prefix_parallel.py``'s ``group_fanout`` leg
    — one shared-prefix campaign per mini_git workload over the full
    fault-space scenario set, seed 3 — so today's throughput lands in the
    same units as the recorded PR 5 number.  Three schedules:

    * ``serial_shared`` — the non-pooled reference.
    * ``dataplane_pooled`` — today's pooled path (superclosures, batch
      draining, delta results) on a **resident** pool: run-to-completion
      workers stay warm across campaigns, which is the dataplane's
      steady-state shape.  This is the headline numerator.
    * ``dataplane_cold_pools`` — the same path but with a pool created and
      torn down per campaign, matching the PR 5 benchmark's methodology
      (its recorded number also paid that churn); reported so the resident
      headline cannot hide pool start-up costs.
    * ``emulated_pr5_pooled`` — the PR 5 *configuration* re-run on today's
      executor (per-instruction closure engine, one pool round trip per
      group, full-state results) on the same resident pool: the
      like-for-like control when the recorded artifact is unavailable.
    """
    baseline, baseline_source = load_pr5_baseline()
    schedules = (baseline or {}).get("mini_git_schedules")
    if schedules:
        workloads = tuple(schedules["workloads"])
        pr5_runs_per_sec = schedules["runs_per_sec"]["group_fanout"]
        pr5_serial_runs_per_sec = schedules["runs_per_sec"].get("serial_shared")
    else:
        workloads = ("default-tests", "status", "gc")
        pr5_runs_per_sec = pr5_serial_runs_per_sec = None

    target = MiniGitTarget()
    scenarios = _fault_scenarios(target)
    runs = len(scenarios) * len(workloads)

    def campaign_sweep(parallelism) -> None:
        for workload in workloads:
            TestCampaign(target, workload=workload).run(
                scenarios, seed=3, include_baseline=False,
                share_prefixes=True, parallelism=parallelism,
            )

    def pr5_config_sweep(backend) -> None:
        # The PR 5 configuration, driven at the executor layer (the
        # campaign entry point no longer exposes per-group scheduling).
        for workload in workloads:
            entries = [
                (index, scenario, derive_run_seed(3, index))
                for index, scenario in enumerate(scenarios)
            ]
            tasks = build_group_tasks(
                target, workload, entries,
                options={"engine": "compiled-steps", "os_channel": "full"},
            )
            collected = {}
            for results in backend.map(execute_group, [(t,) for t in tasks]):
                collected.update(results)
            assert len(collected) == len(scenarios)

    campaign_sweep(None)  # warm binaries, templates, analysis caches
    # The resident pool forks *after* the warm-up so workers inherit the
    # warm caches — the steady state a long-running campaign runs in.
    pool = ProcessPoolBackend(workers)
    try:
        campaign_sweep(pool)
        pr5_config_sweep(pool)
        timings = {}
        measurements = {
            "serial_shared": lambda: campaign_sweep(None),
            "dataplane_pooled": lambda: campaign_sweep(pool),
            "dataplane_cold_pools": lambda: campaign_sweep(f"processes:{workers}"),
            "emulated_pr5_pooled": lambda: pr5_config_sweep(pool),
        }
        for name, sweep in measurements.items():
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                sweep()
                best = min(best, time.perf_counter() - start)
            timings[name] = best
    finally:
        pool.close()

    runs_per_sec = {
        name: round(runs / seconds, 1) for name, seconds in timings.items()
    }
    speedups = {
        "dataplane_vs_emulated_pr5_pooled": round(
            timings["emulated_pr5_pooled"] / timings["dataplane_pooled"], 2
        ),
    }
    if pr5_runs_per_sec:
        raw = runs_per_sec["dataplane_pooled"] / pr5_runs_per_sec
        speedups["dataplane_vs_pr5_pooled_raw"] = round(raw, 2)
        speedups["cold_pools_vs_pr5_pooled"] = round(
            runs_per_sec["dataplane_cold_pools"] / pr5_runs_per_sec, 2
        )
        # The PR 5 artifact was recorded in an earlier session on this
        # (shared, drifting-speed) runner.  Both artifacts time the same
        # serial shared-prefix sweep, so its ratio measures how fast the
        # host was *then* relative to *now* and cancels that drift out of
        # the headline.  Conservative: today's serial sweep also carries
        # the dataplane serial gains, which only shrinks the ratio.
        if pr5_serial_runs_per_sec and runs_per_sec.get("serial_shared"):
            host_scale = (
                runs_per_sec["serial_shared"] / pr5_serial_runs_per_sec
            )
            speedups["host_speed_scale"] = round(host_scale, 3)
            speedups["dataplane_vs_pr5_pooled"] = round(raw / host_scale, 2)
        else:
            speedups["dataplane_vs_pr5_pooled"] = round(raw, 2)
    else:
        # No recorded artifact: the emulated configuration is the only
        # available baseline, so it becomes the headline denominator.
        speedups["dataplane_vs_pr5_pooled"] = speedups[
            "dataplane_vs_emulated_pr5_pooled"
        ]
    return {
        "target": target.name,
        "scenarios": len(scenarios),
        "workloads": list(workloads),
        "runs": runs,
        "workers": workers,
        "pr5_baseline": {
            "source": baseline_source,
            "group_fanout_runs_per_sec": pr5_runs_per_sec,
            "workers": schedules.get("workers") if schedules else None,
        },
        "runs_per_sec": runs_per_sec,
        "speedups": speedups,
    }


# ----------------------------------------------------------------------
# 3. wire_bytes: the delta channel's pickled result size
# ----------------------------------------------------------------------
def bench_wire_bytes() -> dict:
    target = MiniGitTarget()
    scenario = (
        ScenarioBuilder("bench-wire")
        .trigger("second_open", "CallCountTrigger", nth=2)
        .inject("open", ["second_open"], return_value=-1, errno="EMFILE")
        .build()
    )

    def result_bytes(channel: str) -> int:
        result = target.run(WorkloadRequest(
            workload="status", scenario=scenario,
            options={"os_channel": channel},
        ))
        return len(pickle.dumps(result))

    full = result_bytes("full")
    delta = result_bytes("delta")
    return {
        "full_channel_bytes": full,
        "delta_channel_bytes": delta,
        "shrink": round(full / delta, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small workloads for CI; identical JSON schema")
    parser.add_argument("--workers", type=int, default=4,
                        help="pool worker count for the campaign sweep")
    parser.add_argument("--output", default="BENCH_dataplane.json",
                        help="where to write the JSON result")
    args = parser.parse_args(argv)

    if args.smoke:
        micro_iterations, micro_repeats, campaign_repeats = 6_000, 2, 2
    else:
        micro_iterations, micro_repeats, campaign_repeats = 60_000, 3, 3

    payload = {
        "benchmark": "dataplane",
        "mode": "smoke" if args.smoke else "full",
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "vm_micro": bench_vm_micro(micro_iterations, micro_repeats),
        "pooled_campaign": bench_pooled_campaign(campaign_repeats, args.workers),
        "wire_bytes": bench_wire_bytes(),
    }

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    micro = payload["vm_micro"]
    print("vm_micro (steps/s, plain | coverage):")
    for engine in ENGINES:
        row = micro[engine]
        print(f"  {engine:>15}: {row['steps_per_sec_plain']:>12,.0f} | "
              f"{row['steps_per_sec_coverage']:>12,.0f}")
    print(f"  superclosures vs per-step closures: "
          f"{micro['speedups']['superclosures_vs_steps_plain']}x plain, "
          f"{micro['speedups']['superclosures_vs_steps_coverage']}x with coverage")
    campaign = payload["pooled_campaign"]
    print("pooled_campaign (runs/s):")
    for name, value in campaign["runs_per_sec"].items():
        print(f"  {name:>20}: {value}")
    pr5 = campaign["pr5_baseline"]
    if pr5["group_fanout_runs_per_sec"]:
        print(f"  PR 5 recorded group_fanout ({pr5['source']}): "
              f"{pr5['group_fanout_runs_per_sec']}")
    headline = campaign["speedups"]["dataplane_vs_pr5_pooled"]
    raw = campaign["speedups"].get("dataplane_vs_pr5_pooled_raw")
    scale = campaign["speedups"].get("host_speed_scale")
    if raw is not None and scale is not None:
        print(f"  dataplane vs PR 5 pooled: {headline}x "
              f"(raw {raw}x at host speed scale {scale})")
    else:
        print(f"  dataplane vs PR 5 pooled: {headline}x")
    wire = payload["wire_bytes"]
    print(f"wire_bytes: full {wire['full_channel_bytes']:,} B, "
          f"delta {wire['delta_channel_bytes']:,} B ({wire['shrink']}x smaller)")
    print(f"wrote {args.output}")

    if headline < 2.0:
        # Smoke runs are tiny and shared CI runners are noisy: warn without
        # failing the job so the trajectory artifact still gets uploaded.
        print("WARNING: dataplane below the 2x pooled-campaign target",
              file=sys.stderr)
        return 0 if args.smoke else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
