"""Tests of the benchmark itself: smoke runs, names, the reference check,
and the per-layer predictions that must hold on every run."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]
PER_LAYER = [metric["name"] for metric in BENCHMARK["per_layer"]]

#: Span names (spans.LAYER_POINTS) each workload's traced smoke run must
#: see called at least once.  Every wrapper appears under some workload.
PREDICTED_SPANS = {
    "sweep-cold": {
        "analysis.analyze", "profiler.profile_libraries", "vm.run", "vm.resume",
        "libc.call", "gate.log_record", "snapshot.boot_capture", "snapshot.restore_boot",
        "snapshot.fork_step", "snapshot.mid_restore", "prefix.run_entry_group",
        "prefix.replicate_result",
        "memo.lookup", "memo.store", "plan.next_round", "store.record", "store.to_dict",
    },
    "fabric-warm": {
        "analysis.analyze", "memo.lookup", "plan.next_round", "store.record",
        "store.to_dict", "wire.send", "wire.recv",
    },
    # Parent side of the pooled passes; the children's layers are checked
    # on the serial replay below.
    "servers-pool": {"executor.wait", "plan.next_round", "store.record", "store.to_dict"},
    "servers-pool-replay": {
        "server.apache_run", "server.apache_prefix_group", "server.mysql_run",
        "snapshot.world_capture",
        "snapshot.world_restore", "gate.log_record", "prefix.run_entry_group",
        "memo.lookup",
    },
}


def run_benchmark(workload: str, trace: int, cwd: str = ROOT, script: str = RUN):
    completed = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return completed


def parse(completed):
    assert completed.returncode == 0, completed.stderr[-3000:]
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def span_summary(path: str):
    with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
        last = handle.read().strip().splitlines()[-1]
    return json.loads(last)


# ----------------------------------------------------------------------
def test_declared_names_are_valid_and_emitted():
    import run
    import spans

    for name in END_TO_END + PER_LAYER:
        assert NAME.match(name), name
    assert len(set(END_TO_END + PER_LAYER)) == len(END_TO_END + PER_LAYER)
    emitted = set(run.layer_metrics(spans.Tracer(), 1)) | {
        "trace.probes_per_s", "trace.overhead_ratio",
    }
    assert emitted == set(PER_LAYER)


def test_every_wrapper_has_a_predicted_workload():
    import spans

    predicted = set().union(*PREDICTED_SPANS.values())
    wrapped = {span for _module, _cls, _attr, span, _hook in spans.LAYER_POINTS}
    assert wrapped == predicted


@pytest.mark.parametrize("workload", ["sweep-cold", "fabric-warm", "servers-pool"])
def test_smoke_end_to_end(workload):
    info, result = parse(run_benchmark(workload, trace=0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == END_TO_END
    for name, metric in result["metrics"].items():
        assert NAME.match(name)
        assert metric["value"] > 0, name
    assert result["metrics"]["unique_failures"]["value"] == info["reference_unique_failures"]
    assert info["nproc"] and info["python"] and info["store_fs"]
    assert info["wall_probes_per_s"] > 0 and info["pass_slowdown"]["median"] > 0
    assert all(sample["setup_s"] > 0 and sample["wall_s"] > 0 for sample in info["setup_samples"])


def test_campaign_times_come_from_per_campaign_statistics():
    import run

    # Two campaigns a factor of ten apart, eleven samples each.  Pooled,
    # their median would fall in the gap between them.
    measurement = run.Measurement()
    measurement.per_campaign = {
        "small": [0.1 * (1 + step / 100) for step in range(11)],
        "large": [1.0 * (1 + step / 100) for step in range(11)],
    }
    measurement.probes = {"small": 10, "large": 100}
    assert measurement.campaign_p50_s == pytest.approx((0.105 + 1.05) / 2)
    assert measurement.probes_per_s == pytest.approx(110 / (0.105 + 1.05))
    pct, tail = measurement.tail()
    assert pct == 54  # 22 samples: the highest percentile with ten beyond it
    assert measurement.campaign_p50_s < tail < 1.01 * measurement.campaign_p50_s


@pytest.mark.parametrize("workload", ["sweep-cold", "fabric-warm", "servers-pool"])
def test_traced_smoke_matches_predictions(workload):
    info, result = parse(run_benchmark(workload, trace=1))
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == PER_LAYER
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}

    summary = span_summary(info["trace"]["trace_file"])
    for span in PREDICTED_SPANS[workload]:
        assert summary["summary"].get(span, {}).get("calls", 0) > 0, span
    if workload == "servers-pool":
        replay = span_summary(info["trace"]["trace_file"].replace(".jsonl", "-replay.jsonl"))
        for span in PREDICTED_SPANS["servers-pool-replay"]:
            assert replay["summary"].get(span, {}).get("calls", 0) > 0, span
        assert metrics["executor.batches"] > 0 and metrics["server.runs"] > 0
        assert metrics["vm.runs"] == 0
    if workload == "sweep-cold":
        assert metrics["memo.lookups"] > 0 and metrics["memo.hit_ratio"] == 0
        assert metrics["gate.injections"] > 0 and metrics["snapshot.boot_captures"] > 0
    if workload == "fabric-warm":
        assert metrics["memo.hit_ratio"] > 0.5
        assert metrics["lease.granted"] > 0 and metrics["lease.expired"] == 0
    else:
        assert metrics["wire.messages"] == 0


def test_altered_record_is_a_failed_probe():
    import campaigns
    import runners

    campaign = campaigns.Campaign("mini_git", "gc", "coverage", None, 7)
    reference = campaigns.compute_reference(campaign)
    records = runners.SweepCold().run_campaign(campaign).records
    assert campaigns.failed_probes(reference, records) == 0

    altered = [dict(record) for record in records]
    altered[0]["outcome"] = "crash" if altered[0]["outcome"] != "crash" else "normal"
    assert campaigns.failed_probes(reference, altered) == 1
    altered = [dict(record) for record in records]
    altered[-1]["fingerprint"] = "00000000"
    assert campaigns.failed_probes(reference, altered) == 1
    assert campaigns.failed_probes(reference, records[1:]) == 1
    assert campaigns.failed_probes(reference, records + records[:1]) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_benchmark("sweep-cold", trace=0, cwd=str(tmp_path),
                              script=str(tmp_path / "perfbench" / "run.py"))
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


@pytest.mark.xfail(strict=True, reason=(
    "PBFTTarget.run does not bound the stack walk, so fingerprints of its "
    "records depend on the caller: pooled and serial runs disagree"))
def test_pbft_fingerprint_depends_on_caller():
    import campaigns
    import runners

    campaign = campaigns.Campaign("pbft", "simple", None, ("partial_write",), 7)
    reference = campaigns.compute_reference(campaign)
    records = runners.ServersPool([]).run_campaign(campaign).records
    assert campaigns.failed_probes(reference, records) == 0
