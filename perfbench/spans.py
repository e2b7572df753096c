"""In-memory span tracing for the benchmark's traced run.

The benchmark times layers from the outside: :func:`install` replaces the
public class methods and module functions named in ``LAYER_POINTS`` with
wrappers that record one span per call, and :meth:`Installation.restore`
puts the originals back.  Nothing in ``src/`` knows about it.

Each thread keeps its own span stack and aggregates, so the hot path takes
no lock.  A span's *self* time is its duration minus the durations of the
spans nested inside it on the same thread (children cannot overlap there).
Raw spans are kept in memory up to a cap and written out as JSON lines at
the end; the aggregates always cover every call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Raw spans kept for the JSON-lines dump; aggregates count every call.
MAX_KEPT_SPANS = 200_000

#: Imported before wrapping, so that every module holding one of the
#: wrapped functions under its own name is loaded when the scan runs.
PRELOAD = (
    "repro",
    "repro.distributed",
    "repro.targets.base",
    "repro.targets.mini_bind.target",
    "repro.targets.mini_git.target",
)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[List[float]] = []  # [span id, child seconds]
        self.registered = False


class Tracer:
    """Collects spans and per-name aggregates from every thread."""

    def __init__(self) -> None:
        self.active = True
        #: Label copied into every span: the campaign being run.
        self.campaign = ""
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._threads: List[Tuple[str, Dict[str, List[float]], Dict[str, int]]] = []
        self._spans: List[tuple] = []
        self._ids = itertools.count(1)
        self.dropped = 0

    # ------------------------------------------------------------------
    def _thread_tables(self):
        local = self._local
        if not local.registered:
            local.aggregates = defaultdict(lambda: [0, 0.0, 0.0])
            local.counters = defaultdict(int)
            with self._lock:
                self._threads.append(
                    (threading.current_thread().name, local.aggregates, local.counters)
                )
            local.registered = True
        return local

    def reset(self) -> None:
        """Forget every span and aggregate (between phases of a run)."""
        with self._lock:
            for _name, aggregates, counters in self._threads:
                aggregates.clear()
                counters.clear()
            self._spans = []
            self.dropped = 0

    def count(self, name: str) -> None:
        self._thread_tables().counters[name] += 1

    def begin(self) -> List[float]:
        local = self._thread_tables()
        frame = [next(self._ids), 0.0, time.perf_counter()]
        local.stack.append(frame)
        return frame

    def end(self, name: str, frame: List[float]) -> None:
        end = time.perf_counter()
        local = self._local
        local.stack.pop()
        duration = end - frame[2]
        parent = local.stack[-1] if local.stack else None
        if parent is not None:
            parent[1] += duration
        entry = local.aggregates[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        if len(self._spans) < MAX_KEPT_SPANS:
            self._spans.append((
                frame[0], parent[0] if parent is not None else 0, name,
                threading.current_thread().name, frame[2], end, self.campaign,
            ))
        else:
            self.dropped += 1

    # ------------------------------------------------------------------
    def aggregates(self, thread: Optional[str] = None) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)``, summed over
        threads (or for the one thread named *thread*)."""
        merged: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        with self._lock:
            tables = list(self._threads)
        for thread_name, aggregates, _counters in tables:
            if thread is not None and thread_name != thread:
                continue
            for name, (calls, total, self_s) in list(aggregates.items()):
                entry = merged[name]
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
        return {name: tuple(entry) for name, entry in merged.items()}

    def counters(self) -> Dict[str, int]:
        merged: Dict[str, int] = defaultdict(int)
        with self._lock:
            tables = list(self._threads)
        for _thread_name, _aggregates, counters in tables:
            for name, value in list(counters.items()):
                merged[name] += value
        return dict(merged)

    def write_jsonl(self, path: str) -> None:
        """Dump the kept spans, one JSON object a line, then a summary."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, thread, start, end, campaign in self._spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name, "thread": thread,
                    "start": start, "end": end, "campaign": campaign,
                }) + "\n")
            handle.write(json.dumps({
                "summary": {
                    name: {"calls": calls, "total_s": total, "self_s": self_s}
                    for name, (calls, total, self_s) in sorted(self.aggregates().items())
                },
                "counters": self.counters(),
                "kept": len(self._spans),
                "dropped": self.dropped,
            }) + "\n")


# ----------------------------------------------------------------------
# wrappers: each factory takes (tracer, span name, original) and returns
# the replacement.
# ----------------------------------------------------------------------
def span(tracer: Tracer, name: str, fn: Callable,
         on_result: Optional[Callable[[Tracer, tuple, dict, Any], None]] = None) -> Callable:
    """One span per call; *on_result* may count something about the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = tracer.begin()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(name, frame)
        if on_result is not None:
            on_result(tracer, args, kwargs, result)
        return result

    return wrapper


def counting(on_result: Callable[[Tracer, tuple, dict, Any], None]) -> Callable:
    """A :func:`span` factory that also calls *on_result* after each call."""
    return functools.partial(span, on_result=on_result)


def build_span(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """For ``cached_boot_template(owner, key, build, context)``: *build*
    only runs on a miss, so its span is exactly one boot capture."""

    @functools.wraps(fn)
    def wrapper(owner, key, build, context=None):
        if not tracer.active:
            return fn(owner, key, build, context)
        return fn(owner, key, span(tracer, name, build), context)

    return wrapper


def iterator_span(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Time each ``next()`` of a generator: the caller's wait per item."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def timed():
            try:
                while True:
                    frame = tracer.begin() if tracer.active else None
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        if frame is not None:
                            tracer.end(name, frame)
                    if frame is not None:
                        tracer.count(name + ".items")
                    yield item
            finally:
                inner.close()

        return timed()

    return wrapper


def _injected(tracer: Tracer, args: tuple, kwargs: dict, _result: Any) -> None:
    # InjectionLog.record(self, function, args, injected, ...)
    if kwargs.get("injected", args[3] if len(args) > 3 else False):
        tracer.count("gate.injections")


def _memo_hit(tracer: Tracer, _args: tuple, _kwargs: dict, result: Any) -> None:
    if result is not None:
        tracer.count("memo.hits")


def _wire_reply(tracer: Tracer, _args: tuple, _kwargs: dict, message: Any) -> None:
    kind = message.get("type") if isinstance(message, dict) else None
    if kind == "shard":
        tracer.count("lease.granted")
    elif kind == "stale_lease":
        tracer.count("lease.expired")


# (module, class or None, attribute, span name, wrapper factory)
LAYER_POINTS: Tuple[Tuple[str, Optional[str], str, str, Callable], ...] = (
    ("repro.core.analysis.analyzer", "CallSiteAnalyzer", "analyze", "analysis.analyze", span),
    ("repro.core.controller.controller", "LFIController", "profile_libraries",
     "profiler.profile_libraries", span),
    ("repro.vm.machine", "Machine", "run", "vm.run", span),
    ("repro.vm.machine", "Machine", "resume", "vm.resume", span),
    ("repro.oslib.libc", "SimLibc", "call", "libc.call", span),
    # The gate itself is not wrapped: a Python-level target's stack
    # fingerprint includes every frame between the program and the gate.
    # The log is written after the stack was taken.
    ("repro.core.injection.log", "InjectionLog", "record", "gate.log_record",
     counting(_injected)),
    ("repro.core.profiler.cache", None, "cached_boot_template", "snapshot.boot_capture",
     build_span),
    ("repro.vm.snapshot", "BootTemplate", "restore_boot", "snapshot.restore_boot", span),
    ("repro.vm.snapshot", "BootTemplate", "fork_step", "snapshot.fork_step", span),
    ("repro.vm.snapshot", "MidRunCapture", "restore", "snapshot.mid_restore", span),
    ("repro.targets.mini_apache.target", "MiniApacheTarget", "_capture_world",
     "snapshot.world_capture", span),
    ("repro.targets.mini_apache.target", "MiniApacheTarget", "_restore_world",
     "snapshot.world_restore", span),
    ("repro.core.controller.prefix", None, "run_entry_group", "prefix.run_entry_group", span),
    ("repro.core.controller.prefix", None, "replicate_result", "prefix.replicate_result", span),
    ("repro.core.controller.memo", "SuffixMemo", "lookup", "memo.lookup", counting(_memo_hit)),
    ("repro.core.controller.memo", "SuffixMemo", "store", "memo.store", span),
    ("repro.core.exploration.engine", "RoundPlanner", "next_round", "plan.next_round", span),
    ("repro.core.exploration.store", "ResultStore", "record", "store.record", span),
    ("repro.core.exploration.store", "StoredResult", "to_dict", "store.to_dict", span),
    ("repro.distributed.protocol", "MessageStream", "send", "wire.send", span),
    ("repro.distributed.protocol", "MessageStream", "recv", "wire.recv",
     counting(_wire_reply)),
    ("repro.core.controller.executor", "ProcessPoolBackend", "_pair_iter",
     "executor.wait", iterator_span),
    ("repro.targets.mini_apache.target", "MiniApacheTarget", "run", "server.apache_run", span),
    ("repro.targets.mini_apache.target", "MiniApacheTarget", "run_prefix_group",
     "server.apache_prefix_group", span),
    ("repro.targets.mini_mysql.target", "MiniMySQLTarget", "run", "server.mysql_run", span),
)


class Installation:
    """The wrappers :func:`install` put in place, and how to undo them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(tracer: Tracer) -> Installation:
    """Wrap every point of ``LAYER_POINTS``.

    A module function is replaced in *every* loaded module that holds it,
    so ``from module import name`` bindings made at import time are traced
    too.  Call before the first target is built: objects built earlier may
    have captured the originals.
    """
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    installation = Installation(tracer)
    try:
        for module_name, class_name, attribute, name, factory in LAYER_POINTS:
            module = importlib.import_module(module_name)
            if class_name is not None:
                _wrap_method(installation, getattr(module, class_name), attribute,
                             factory, name)
            else:
                _wrap_function(installation, getattr(module, attribute), factory, name)
    except BaseException:
        installation.restore()
        raise
    return installation


def _wrap_method(installation, cls, attribute: str, factory, name: str) -> None:
    tracer = installation.tracer
    owner = next(klass for klass in cls.__mro__ if attribute in klass.__dict__)
    raw = owner.__dict__[attribute]
    if isinstance(raw, staticmethod):
        replacement = staticmethod(factory(tracer, name, raw.__func__))
    else:
        replacement = factory(tracer, name, raw)
    setattr(cls, attribute, replacement)
    if owner is cls:
        installation._undo.append(lambda: setattr(cls, attribute, raw))
    else:
        # Inherited: wrapping shadowed it on *cls*; unwrapping un-shadows.
        installation._undo.append(lambda: delattr(cls, attribute))


def _wrap_function(installation, original: Callable, factory, name: str) -> None:
    wrapper = factory(installation.tracer, name, original)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for binding, value in list(namespace.items()):
            if value is original:
                namespace[binding] = wrapper
                installation._undo.append(
                    lambda namespace=namespace, binding=binding:
                        namespace.__setitem__(binding, original)
                )


__all__ = ["Installation", "LAYER_POINTS", "Tracer", "install"]
