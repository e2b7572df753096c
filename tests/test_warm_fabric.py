"""Tests for the warm fabric path and the fixed costs on it.

* Workers key their engine cache on the *execution* identity of a spec
  (:func:`repro.distributed.spec.execution_key`), so a campaign
  resubmitted under a fresh store runs on the engine that already served
  it — with records identical to a serial ``explore()``.
* ``StoredResult.to_dict`` builds its dict field by field; a Hypothesis
  differential test keeps the old ``dataclasses.asdict`` encoding as the
  oracle for its bytes.
* ``CallSiteAnalyzer.analyze`` scans the image once and groups call sites
  by callee; its report must equal the per-function scan's.
* ``ResultStore.record`` indexes a record only after it is on disk: a
  failed append leaves the key incomplete, so a redelivery is stored.
"""

import dataclasses
import errno
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis.classifier import classify_call_sites
from repro.core.controller.controller import LFIController
from repro.core.exploration.store import ResultStore, StoredResult
from repro.distributed.campaignd import CampaignCoordinator
from repro.distributed.client import CampaignClient
from repro.distributed.spec import (
    COORDINATOR_FIELDS,
    CampaignSpec,
    build_engine,
    execution_key,
    spec_fingerprint,
)
from repro.distributed import worker as worker_module
from repro.distributed.worker import CampaignWorker
from repro.targets import CompiledTarget, resolve_target, target_names

GIT_SPEC_KWARGS = dict(
    target="mini_git", workload="status", seed=7, functions=["close", "malloc"],
)


def _canonical(records):
    """Records as canonical JSON lines, ordered by key."""
    return sorted(json.dumps(record.to_dict(), sort_keys=True) for record in records)


def _serial_records(spec):
    engine, points = build_engine(spec, store=ResultStore())
    engine.explore(points)
    return _canonical(engine.store.results())


# ----------------------------------------------------------------------
# execution key
# ----------------------------------------------------------------------
class TestExecutionKey:
    def test_ignores_coordinator_fields_only(self):
        base = CampaignSpec(**GIT_SPEC_KWARGS)
        relocated = CampaignSpec(store_path="/elsewhere.jsonl", shard_size=3, **GIT_SPEC_KWARGS)
        assert execution_key(relocated) == execution_key(base)
        # Submission dedup still tells the two apart.
        assert spec_fingerprint(relocated) != spec_fingerprint(base)

    @pytest.mark.parametrize(
        "name",
        [
            field.name
            for field in dataclasses.fields(CampaignSpec)
            if field.name not in COORDINATOR_FIELDS
        ],
    )
    def test_every_other_field_changes_the_key(self, name):
        """A field added to the spec affects execution unless it is listed
        as coordinator-local; this fails if such a field is ignored."""
        base = CampaignSpec(**GIT_SPEC_KWARGS)
        changed = dataclasses.replace(base, **{name: _different(getattr(base, name))})
        assert execution_key(changed) != execution_key(base)


def _different(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "-other"
    if isinstance(value, dict):
        return {**value, "memo": False}
    if isinstance(value, list):
        return value + ["other"]
    return 1 if value is None else None


# ----------------------------------------------------------------------
# worker engine cache
# ----------------------------------------------------------------------
@pytest.fixture
def counted_builds(monkeypatch):
    """Count the engines the worker module builds."""
    built = []
    real = worker_module.build_engine

    def counting(spec, store=None):
        built.append(spec)
        return real(spec, store=store)

    monkeypatch.setattr(worker_module, "build_engine", counting)
    return built


class TestWorkerEngineCache:
    def _worker(self):
        # Never dialed: these tests call the cache directly.
        return CampaignWorker(("127.0.0.1", 9))

    def test_coordinator_fields_share_one_engine(self, counted_builds):
        worker = self._worker()
        first = worker._engine_for(CampaignSpec(store_path="a.jsonl", **GIT_SPEC_KWARGS))
        second = worker._engine_for(
            CampaignSpec(store_path="b.jsonl", shard_size=2, **GIT_SPEC_KWARGS)
        )
        assert second is first
        assert len(counted_builds) == 1

    @pytest.mark.parametrize(
        "override", [{"seed": 8}, {"request_options": {"memo": False}}]
    )
    def test_execution_fields_get_their_own_engine(self, counted_builds, override):
        worker = self._worker()
        base = worker._engine_for(CampaignSpec(**GIT_SPEC_KWARGS))
        other = worker._engine_for(CampaignSpec(**{**GIT_SPEC_KWARGS, **override}))
        assert other is not base
        assert other[0] is not base[0]
        assert len(counted_builds) == 2 and len(worker._engines) == 2

    def test_least_recently_used_engine_is_evicted(self, counted_builds, monkeypatch):
        monkeypatch.setattr(worker_module, "MAX_CACHED_ENGINES", 2)
        worker = self._worker()
        specs = [CampaignSpec(**{**GIT_SPEC_KWARGS, "seed": seed}) for seed in (1, 2, 3)]
        worker._engine_for(specs[0])
        worker._engine_for(specs[1])
        worker._engine_for(specs[0])  # now the most recently used
        worker._engine_for(specs[2])  # evicts seed 2
        assert set(worker._engines) == {execution_key(specs[0]), execution_key(specs[2])}
        worker._engine_for(specs[0])
        assert len(counted_builds) == 3
        worker._engine_for(specs[1])
        assert len(counted_builds) == 4


class TestResubmittedCampaign:
    def test_second_store_is_served_by_the_warm_engine(self, tmp_path, counted_builds):
        coordinator = CampaignCoordinator(port=0, shard_size=3, lease_timeout=10.0)
        address = coordinator.start()
        client = CampaignClient(address)
        worker = CampaignWorker(address, worker_id="w0")
        try:
            paths = [str(tmp_path / "first.jsonl"), str(tmp_path / "second.jsonl")]
            for path in paths:
                reply = client.submit(CampaignSpec(store_path=path, **GIT_SPEC_KWARGS))
                assert reply["resubmitted"] is False
                while worker.run_once():
                    pass
                assert client.wait(reply["campaign_id"], timeout=60)["state"] == "complete"
        finally:
            worker.close()
            client.close()
            coordinator.stop()

        assert len(worker._engines) == 1 and len(counted_builds) == 1
        serial = _serial_records(CampaignSpec(**GIT_SPEC_KWARGS))
        for path in paths:
            assert _canonical(ResultStore(path).results()) == serial


# ----------------------------------------------------------------------
# record encoder
# ----------------------------------------------------------------------
def _asdict_encoding(result):
    """The encoder ``to_dict`` replaced, kept as the oracle for its bytes."""
    payload = dataclasses.asdict(result)
    if not payload.get("recovery_lines"):
        payload.pop("recovery_lines", None)
    return json.dumps(payload, sort_keys=True)


_text = st.text(max_size=12)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _text
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_text, children, max_size=3),
    max_leaves=8,
)
_stored_results = st.builds(
    StoredResult,
    key=_text,
    index=st.integers(min_value=0),
    scenario=_text,
    function=_text,
    return_value=st.integers(),
    errno=st.none() | st.integers(min_value=0, max_value=200),
    category=st.sampled_from(["checked", "partial", "unchecked"]),
    workload=_text,
    outcome=st.sampled_from(["normal", "crash", "error_exit", "hang"]),
    detail=_text,
    exit_code=st.integers(),
    location=_text,
    injections=st.integers(min_value=0),
    fingerprint=_text,
    run_seed=st.none() | st.integers(),
    fault_class=st.sampled_from(["errno", "partial_io", "clock_skew"]),
    fault_params=st.dictionaries(_text, _json_values, max_size=4),
    calls=st.dictionaries(_text, st.integers(min_value=0), max_size=4),
    recovery_lines=st.lists(_text, max_size=4),
    extra=st.dictionaries(_text, _json_values, max_size=3),
)


class TestStoredResultEncoder:
    @settings(max_examples=200, deadline=None)
    @given(_stored_results)
    def test_bytes_equal_the_asdict_encoding(self, result):
        assert json.dumps(result.to_dict(), sort_keys=True) == _asdict_encoding(result)

    @settings(max_examples=100, deadline=None)
    @given(_stored_results)
    def test_mutating_the_dict_leaves_the_record_unchanged(self, result):
        before = _asdict_encoding(result)
        payload = result.to_dict()
        for name in ("fault_params", "calls", "extra"):
            payload[name]["mutated"] = 1
        payload.setdefault("recovery_lines", []).append("mutated:1")
        payload["key"] = "mutated"
        assert _asdict_encoding(result) == before

    def test_every_field_is_encoded(self):
        result = StoredResult(
            key="k", index=0, scenario="s", function="read", return_value=-1,
            errno=5, category="unchecked", workload="w", outcome="normal",
            recovery_lines=["a.c:1"],
        )
        assert set(result.to_dict()) == {f.name for f in dataclasses.fields(StoredResult)}
        assert "recovery_lines" not in dataclasses.replace(result, recovery_lines=[]).to_dict()


# ----------------------------------------------------------------------
# call-site analysis
# ----------------------------------------------------------------------
COMPILED_TARGETS = [
    name for name in target_names() if isinstance(resolve_target(name), CompiledTarget)
]


def _per_function_report(controller, binary):
    """The scan-per-function analysis ``analyze`` replaced (the oracle)."""
    analyzer = controller._call_site_analyzer()
    classifications = {}
    for function in sorted(binary.called_imports()):
        function_profile = analyzer.profile.function(function)
        if function_profile is None or not function_profile.error_returns:
            continue
        classification = classify_call_sites(
            binary,
            function,
            function_profile.error_values(),
            max_instructions=analyzer.max_instructions,
            sites=None,
        )
        if classification.site_count():
            classifications[function] = classification
    return classifications


def _describe(classifications):
    return {
        function: [
            (
                site.site, site.category, sorted(site.checks.chk_eq),
                sorted(site.checks.chk_ineq), sorted(site.checks.copies_seen),
                site.checks.check_sites, site.checks.iterations,
            )
            for site in classification.all_sites()
        ]
        for function, classification in classifications.items()
    }


class TestGroupedAnalysis:
    def test_compiled_targets_are_covered(self):
        assert {"mini_git", "mini_bind"} <= set(COMPILED_TARGETS)

    @pytest.mark.parametrize("name", COMPILED_TARGETS)
    def test_single_scan_report_equals_per_function_scan(self, name):
        target = resolve_target(name)
        controller = LFIController(target)
        binary = target.binary()
        oracle = _per_function_report(controller, binary)
        report = controller.analyze_target()
        assert list(report.classifications) == list(oracle)
        assert _describe(report.classifications) == _describe(oracle)
        assert report.call_sites_analyzed == sum(c.site_count() for c in oracle.values())

        # The fault space every workload's campaign enumerates is unchanged.
        oracle_report = dataclasses.replace(report, classifications=oracle)
        oracle_keys = [p.key for p in controller.fault_space(analysis=oracle_report)]
        for workload in target.workloads():
            _engine, points = build_engine(CampaignSpec(target=name, workload=workload))
            assert [point.key for point in points] == oracle_keys


# ----------------------------------------------------------------------
# store: a failed append loses nothing
# ----------------------------------------------------------------------
def _stored(key, index=0):
    return StoredResult(
        key=key, index=index, scenario=f"s-{key}", function="read",
        return_value=-1, errno=5, category="unchecked", workload="w",
        outcome="normal",
    )


class _FailingHandle:
    """Wraps the store's append handle; the chosen step raises ENOSPC once.

    A failing ``write`` first lets ``partial`` bytes through, as a short
    write on a filling disk would."""

    def __init__(self, real, step, partial=0):
        self._real = real
        self._step = step
        self._partial = partial

    def _fail(self):
        self._step = None
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, data):
        if self._step == "write":
            self._real.write(data[: self._partial])
            self._real.flush()
            self._fail()
        return self._real.write(data)

    def flush(self):
        if self._step == "flush":
            self._fail()
        return self._real.flush()

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestFailedAppend:
    @pytest.mark.parametrize(
        "step, partial",
        [("write", 0), ("write", 17), ("flush", 0), ("fsync", 0)],
    )
    def test_redelivered_record_survives_reopen(self, tmp_path, monkeypatch, step, partial):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path, durable=True)
        store.record(_stored("a"))
        if step == "fsync":
            real_fsync = os.fsync
            failures = [OSError(errno.EIO, os.strerror(errno.EIO))]

            def fsync(fd):
                if failures:
                    raise failures.pop()
                return real_fsync(fd)

            monkeypatch.setattr(os, "fsync", fsync)
        else:
            store._handle = _FailingHandle(store._handle, step, partial)

        with pytest.raises(OSError):
            store.record(_stored("b", index=1))
        assert "b" not in store and store.completed_keys() == {"a"}

        store.record(_stored("b", index=1))  # the redelivery
        assert store.completed_keys() == {"a", "b"}
        store.record(_stored("c", index=2))
        store.close()

        reopened = ResultStore(path)
        assert [r.key for r in reopened.results()] == ["a", "b", "c"]
        assert not reopened.has_torn_tail
        with open(path, "rb") as handle:
            assert len(handle.read().splitlines()) == 3
