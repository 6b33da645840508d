"""Tracing shim: spans around each layer's public entry points, applied
from outside the program.

:func:`install` (called by ``child.py --trace`` after ``import
repro.cli``) replaces every entry point in :data:`SPANS` with a wrapper
that records, per thread, the call count, the span's duration (busy
time) and its self time: the duration minus the time covered by nested
wrapped spans.  A module that imported a wrapped function by name gets
the wrapper too.  Spans stay in memory; :meth:`Tracer.dump` writes the
merged tables when the traced call returns, and ``SIGUSR1`` writes a
numbered snapshot (``<path>.<n>``) so a daemon's tables can be
differenced over a phase.

:func:`layer_metrics` turns a table (or the difference of two) into the
per-layer metrics; :data:`LAYER_METRICS` lists them with unit and
direction for ``BENCHMARK.json``.  Importing this module imports
nothing from ``repro``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import signal
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import percentile

#: (module, attribute or Class.attribute, span name).  ``Collector.add``
#: (135k calls in a cold run) is left out on purpose: wrapping it would
#: cost more than the layer does.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.pipeline", "run_pipeline", "experiments.pipeline.run_pipeline"),
    ("repro.experiments.pipeline", "write_artifacts", "experiments.pipeline.write_artifacts"),
    ("repro.experiments.registry", "ExperimentEntry.run", "experiments.registry.run"),
    ("repro.supervise.journal", "Journal.append", "supervise.journal.append"),
    ("repro.core.runcache", "RunCache.put", "core.runcache.put"),
    ("repro.core.study", "Study.run", "core.study.run"),
    ("repro.core.study", "Study.run_pair", "core.study.run_pair"),
    ("repro.core.runcache", "study_fingerprint", "core.study.study_fingerprint"),
    ("repro.machine.spec", "MachineSpec.fingerprint", "machine.spec.fingerprint"),
    ("repro.machine.registry", "resolve_machine", "machine.registry.resolve_machine"),
    ("repro.workload.spec", "WorkloadSpec.fingerprint", "workload.spec.fingerprint"),
    ("repro.workload.registry", "resolve_workload", "workload.registry.resolve_workload"),
    ("repro.sim.engine", "Engine.run", "sim.engine.run"),
    ("repro.sim.resolver", "FixedPointResolver.prework", "sim.resolver.prework"),
    ("repro.sim.resolver", "FixedPointResolver.resolve", "sim.resolver.resolve"),
    ("repro.mem.bus", "BusModel.resolve_lite", "mem.bus.resolve_lite"),
    ("repro.mem.bus", "resolve_lite_lanes", "mem.bus.resolve_lite_lanes"),
    ("repro.mem.bus", "compute_snoop_lanes", "mem.bus.compute_snoop_lanes"),
    ("repro.mem.hierarchy", "HierarchyModel.evaluate", "mem.hierarchy.evaluate"),
    ("repro.cpu.pipeline", "PipelineModel.breakdown", "cpu.pipeline.breakdown"),
    ("repro.sim.advance", "TimeAccountant.accumulate", "sim.advance.accumulate"),
    ("repro.counters.collector", "Collector.add_many", "counters.collector.add_many"),
    ("repro.sim.batch", "run_batched_single", "sim.batch.run_batched_single"),
    ("repro.sim.batch", "BatchedFixedPointResolver.resolve_classes", "sim.batch.resolve_classes"),
    ("repro.sim.batch", "prefetch_study_runs", "sim.batch.prefetch_study_runs"),
    ("repro.sim.structural", "StructuralCoSimulator.measure", "sim.structural.measure"),
    ("repro.serve.schema", "parse_job", "serve.schema.parse_job"),
    ("repro.serve.schema", "job_key", "serve.schema.job_key"),
    ("repro.serve.scheduler", "Scheduler.submit", "serve.scheduler.submit"),
    ("repro.serve.scheduler", "Scheduler.stats", "serve.scheduler.stats"),
    ("repro.serve.runner", "JobRunner.probe", "serve.runner.probe"),
    ("repro.serve.runner", "JobRunner.__call__", "serve.runner.call"),
    ("repro.serve.store", "JobJournal.append", "serve.store.append"),
    ("repro.serve.store", "JobStore.transition", "serve.store.transition"),
)

#: Spans wrapped by hand in :func:`install` (classified or timed from a
#: point inside the wrapped call).
SPECIAL_SPANS = (
    "core.runcache.get.memory", "core.runcache.get.disk",
    "core.runcache.get.miss", "serve.http.post", "serve.http.get",
)
#: Spans that also report ``.busy_s`` (their inclusive time).
BUSY_SPANS = ("experiments.pipeline.run_pipeline", "experiments.pipeline.write_artifacts")

EXPERIMENT_IDS = (
    "sec3-lmbench", "fig2", "fig3", "table2", "fig4", "fig5", "ablations",
    "validation", "omp-overheads", "tuning", "efficiency", "class-scaling",
    "energy", "sensitivity", "scaling-curves", "groups", "nextgen",
)

_FAILED = object()
_BATCH_FIELDS = ("batched_machines", "scalar_fallbacks", "deduplicated_machines")


def _span_names() -> List[str]:
    names = [name for _, _, name in SPANS] + list(SPECIAL_SPANS)
    return sorted(names)


def _metric_catalogue() -> List[Tuple[str, str, str]]:
    out: List[Tuple[str, str, str]] = [("cli.import_s", "s", "lower")]
    for name in _span_names():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if name in BUSY_SPANS:
            out.append((f"{name}.busy_s", "s", "lower"))
    out += [(f"experiments.{i}.busy_s", "s", "lower") for i in EXPERIMENT_IDS]
    out += [
        ("core.runcache.hit_ratio", "ratio", "higher"),
        ("sim.batch.batched_machines", "count", "higher"),
        ("sim.batch.scalar_fallbacks", "count", "lower"),
        ("sim.batch.deduplicated_machines", "count", "higher"),
        ("sim.batch.lane_ratio", "ratio", "higher"),
        ("serve.scheduler.queue_wait_p50_ms", "ms", "lower"),
        ("serve.scheduler.queue_wait_p99_ms", "ms", "lower"),
        ("serve.scheduler.source.cache", "count", "higher"),
        ("serve.scheduler.source.dedup", "count", "higher"),
        ("serve.scheduler.source.executed", "count", "lower"),
        ("serve.scheduler.coalesce_ratio", "ratio", "higher"),
        ("serve.runner.probe_hit_ratio", "ratio", "higher"),
        ("gen.late_p99_ms", "ms", "lower"),
        ("gen.polls_per_job", "count", "lower"),
        ("gen.ceiling_rps", "1/s", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.unattributed_frac", "ratio", "lower"),
    ]
    return out


#: Every per-layer metric: (name, unit, better).
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = tuple(_metric_catalogue())


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------


class _ThreadState:
    __slots__ = ("stack", "spans", "root_busy", "root_self", "request_start")

    def __init__(self) -> None:
        #: Time covered by nested spans, one entry per open span.
        self.stack: List[float] = []
        #: span name -> [calls, busy_s, self_s]
        self.spans: Dict[str, List[float]] = {}
        self.root_busy = 0.0
        self.root_self = 0.0
        self.request_start: Optional[float] = None


class Tracer:
    """Per-thread span tables plus shared counters and samples."""

    def __init__(self, snapshot_path: str) -> None:
        self._path = snapshot_path
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._counters: Dict[str, float] = {}
        self._samples: Dict[str, List[float]] = {}
        self._snapshots = 0
        self.extra_counters: Callable[[], Dict[str, float]] = dict

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    @staticmethod
    def _close(state: _ThreadState, name: str, start: float, end: float) -> None:
        busy = end - start
        own = busy - state.stack.pop()
        if state.stack:
            state.stack[-1] += busy
        else:
            state.root_busy += busy
            state.root_self += own
        rec = state.spans.get(name)
        if rec is None:
            rec = state.spans[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += busy
        rec[2] += own

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self._samples.setdefault(name, []).append(value)

    def wrap(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable[[tuple], Any]] = None,
        after: Optional[Callable[[Any, tuple, Any, float], Optional[str]]] = None,
    ) -> Callable:
        """``fn`` inside a span.  ``after(token, args, result, busy)``
        sees ``before(args)``'s token and may return the span's name."""
        state_of = self._state
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            token = before(args) if before is not None else None
            state.stack.append(0.0)
            start = perf_counter()
            result = _FAILED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                span = name
                if after is not None:
                    span = after(token, args, result, end - start) or name
                close(state, span, start, end)

        return wrapper

    def wrap_request(self, handle: Callable) -> Callable:
        """``handle_one_request`` as a span from the parsed request line
        to the flushed response (keep-alive idle time excluded), named
        by the HTTP method."""
        state_of = self._state
        close = self._close

        @functools.wraps(handle)
        def wrapper(handler):
            state = state_of()
            state.request_start = None
            state.stack.append(0.0)
            try:
                return handle(handler)
            finally:
                end = perf_counter()
                if state.request_start is None:
                    state.stack.pop()
                else:
                    method = (handler.command or "other").lower()
                    close(state, f"serve.http.{method}", state.request_start, end)

        return wrapper

    def mark_request(self, parse: Callable) -> Callable:
        state_of = self._state

        @functools.wraps(parse)
        def wrapper(handler):
            state_of().request_start = perf_counter()
            return parse(handler)

        return wrapper

    def root(self, fn: Callable, *args):
        """Call ``fn`` as the root span."""
        return self.wrap(fn, "root")(*args)

    # ------------------------------------------------------------------
    def table(self) -> Dict[str, Any]:
        """The merged tables (safe to call while other threads record)."""
        spans: Dict[str, List[float]] = {}
        root = [0.0, 0.0]
        with self._lock:
            states = list(self._states)
            counters = dict(self._counters)
            samples = {k: list(v) for k, v in self._samples.items()}
        for state in states:
            for name, rec in list(state.spans.items()):
                total = spans.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    total[i] += rec[i]
            root[0] += state.root_busy
            root[1] += state.root_self
        for name, value in self.extra_counters().items():
            counters[name] = counters.get(name, 0.0) + value
        return {"spans": spans, "counters": counters, "samples": samples, "root": root}

    def dump(self, path: str) -> None:
        with open(f"{path}.tmp", "w") as fh:
            json.dump(self.table(), fh)
        os.replace(f"{path}.tmp", path)

    def _snapshot(self, signum, frame) -> None:
        self._snapshots += 1
        self.dump(f"{self._path}.{self._snapshots}")


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------


def _rebind(original: Callable, wrapped: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``wrapped`` (modules that did ``from X import f``)."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _patch(tracer: Tracer, module_name: str, path: str, name: str, **hooks) -> None:
    module = importlib.import_module(module_name)
    if "." not in path:
        original = getattr(module, path)
        _rebind(original, tracer.wrap(original, name, **hooks))
        return
    cls_name, attr = path.split(".")
    cls = getattr(module, cls_name)
    raw = cls.__dict__[attr]
    if isinstance(raw, property):
        new: Any = property(tracer.wrap(raw.fget, name, **hooks), raw.fset, raw.fdel, raw.__doc__)
    else:
        new = tracer.wrap(raw, name, **hooks)
    setattr(cls, attr, new)


def install(snapshot_path: str) -> Tracer:
    """Wrap every layer entry point; ``SIGUSR1`` snapshots to
    ``<snapshot_path>.<n>``."""
    tracer = Tracer(snapshot_path)
    hooks: Dict[str, Dict[str, Callable]] = {}

    def experiment_done(token, args, result, busy):
        tracer.count(f"experiments.{args[0].id}.busy_s", busy)

    def job_sourced(token, args, job, busy):
        if job is not _FAILED:
            tracer.count(f"serve.scheduler.source.{job.source}")

    def probed(token, args, result, busy):
        tracer.count("serve.runner.probe.calls")
        if result is not _FAILED and result is not None:
            tracer.count("serve.runner.probe.hits")

    def transitioned(token, args, result, busy):
        job, state = args[1], args[2]
        if state == "running" and job.source == "executed" and job.started_at is not None:
            tracer.sample("queue_wait_ms", (job.started_at - job.submitted_at) * 1e3)

    hooks["experiments.registry.run"] = {"after": experiment_done}
    hooks["serve.scheduler.submit"] = {"after": job_sourced}
    hooks["serve.runner.probe"] = {"after": probed}
    hooks["serve.store.transition"] = {"after": transitioned}

    for module_name, path, name in SPANS:
        _patch(tracer, module_name, path, name, **hooks.get(name, {}))

    def cache_before(args):
        stats = args[0].stats
        return stats.memory_hits, stats.disk_hits

    def cache_after(token, args, result, busy):
        stats = args[0].stats
        if stats.memory_hits != token[0]:
            return "core.runcache.get.memory"
        if stats.disk_hits != token[1]:
            return "core.runcache.get.disk"
        return "core.runcache.get.miss"

    _patch(tracer, "repro.core.runcache", "RunCache.get", "core.runcache.get.miss",
           before=cache_before, after=cache_after)

    from repro.serve import app

    handler = app._Handler
    handler.handle_one_request = tracer.wrap_request(handler.handle_one_request)
    handler.parse_request = tracer.mark_request(handler.parse_request)

    # The pipeline drains the batch counters after every experiment with
    # take_stats(); total what it takes, plus what is still pending.
    from repro.sim import batch

    def took(token, args, stats, busy):
        if stats is not _FAILED:
            for field in _BATCH_FIELDS:
                tracer.count(f"sim.batch.{field}", getattr(stats, field))

    original_take = batch.take_stats
    _rebind(original_take, tracer.wrap(original_take, "sim.batch.take_stats", after=took))

    def pending_batch() -> Dict[str, float]:
        stats = batch.peek_stats()
        return {f"sim.batch.{f}": getattr(stats, f) for f in _BATCH_FIELDS}

    tracer.extra_counters = pending_batch
    signal.signal(signal.SIGUSR1, tracer._snapshot)
    return tracer


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def difference(later: Dict[str, Any], earlier: Dict[str, Any]) -> Dict[str, Any]:
    """What a traced process recorded between two snapshots."""
    spans = {}
    for name, rec in later["spans"].items():
        base = earlier["spans"].get(name, [0, 0.0, 0.0])
        spans[name] = [rec[i] - base[i] for i in range(3)]
    counters = {
        k: v - earlier["counters"].get(k, 0.0) for k, v in later["counters"].items()
    }
    samples = {
        k: v[len(earlier["samples"].get(k, [])):] for k, v in later["samples"].items()
    }
    root = [later["root"][i] - earlier["root"][i] for i in range(2)]
    return {"spans": spans, "counters": counters, "samples": samples, "root": root}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(table: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer values from one table; the ``cli``, ``gen`` and
    ``trace`` entries are the caller's to fill."""
    spans = table["spans"]
    counters = table["counters"]
    out: Dict[str, float] = {}
    for name in _span_names():
        calls, busy, own = spans.get(name, [0, 0.0, 0.0])
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = own
        if name in BUSY_SPANS:
            out[f"{name}.busy_s"] = busy
    for exp in EXPERIMENT_IDS:
        out[f"experiments.{exp}.busy_s"] = counters.get(f"experiments.{exp}.busy_s", 0.0)

    def calls(name: str) -> float:
        return spans.get(name, [0])[0]

    hits = calls("core.runcache.get.memory") + calls("core.runcache.get.disk")
    out["core.runcache.hit_ratio"] = _ratio(hits, hits + calls("core.runcache.get.miss"))
    batched = counters.get("sim.batch.batched_machines", 0.0)
    fallbacks = counters.get("sim.batch.scalar_fallbacks", 0.0)
    out["sim.batch.batched_machines"] = batched
    out["sim.batch.scalar_fallbacks"] = fallbacks
    out["sim.batch.deduplicated_machines"] = counters.get("sim.batch.deduplicated_machines", 0.0)
    out["sim.batch.lane_ratio"] = _ratio(batched, batched + fallbacks)
    waits = table["samples"].get("queue_wait_ms", [])
    out["serve.scheduler.queue_wait_p50_ms"] = percentile(waits, 50) if waits else 0.0
    out["serve.scheduler.queue_wait_p99_ms"] = percentile(waits, 99) if waits else 0.0
    sources = {s: counters.get(f"serve.scheduler.source.{s}", 0.0)
               for s in ("cache", "dedup", "executed")}
    for source, n in sources.items():
        out[f"serve.scheduler.source.{source}"] = n
    out["serve.scheduler.coalesce_ratio"] = _ratio(
        sources["cache"] + sources["dedup"], sum(sources.values())
    )
    out["serve.runner.probe_hit_ratio"] = _ratio(
        counters.get("serve.runner.probe.hits", 0.0), counters.get("serve.runner.probe.calls", 0.0)
    )
    root_busy, root_self = table["root"]
    out["trace.unattributed_frac"] = _ratio(root_self, root_busy)
    return out
