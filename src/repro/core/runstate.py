"""Scoped run state: one context variable for a run's switches and counters.

Everything that used to be a process-global switch — the invariant
auditor flag, the fault plan, the batch mode, the wall-time budget, the
default sweep parallelism and the supervision frame — plus the
per-run accounting (batch and audit counters, the study run-key
recorder) lives in one immutable :class:`RunState`, held by one
:class:`contextvars.ContextVar`.

The var is only ever changed by :func:`scope` and :func:`run`, which
reset it on exit, so nothing outlives its ``with`` block.  Each thread
starts from the idle state (every switch ``None``, meaning "use the
environment default", and no accounting), which is what isolates
concurrent ``repro serve`` jobs from each other and from the CLI.
Fork-started pool workers inherit the forking thread's state.

This module imports nothing from ``repro``: the owning modules
(:mod:`repro.verify`, :mod:`repro.testing.faults`,
:mod:`repro.sim.batch`, :mod:`repro.sim.parallel`,
:mod:`repro.supervise`, :mod:`repro.core.study`) read their field
through :func:`current` and keep the public accessors.
"""

from __future__ import annotations

import contextvars
import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

__all__ = ["AuditStats", "BatchStats", "RunState", "current", "run", "scope"]


@dataclass
class _Counters:
    """Integer counters with copy/diff/drain helpers."""

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def snapshot(self):
        return dataclasses.replace(self)

    def since(self, before):
        return type(self)(**{
            k: v - getattr(before, k) for k, v in self.as_dict().items()
        })

    def take(self):
        """Return a copy and zero these counters in place."""
        out = self.snapshot()
        for f in dataclasses.fields(self):
            setattr(self, f.name, 0)
        return out


@dataclass
class BatchStats(_Counters):
    """How a sweep's machines were executed (surfaced in the run-all
    manifest and summary)."""

    #: Machines whose runs came from the batched engine.
    batched_machines: int = 0
    #: Machines that ran (or will run) through the scalar path while
    #: batching was enabled — structural fallbacks and recording lanes.
    scalar_fallbacks: int = 0
    #: Machines skipped because another lane had an identical
    #: fingerprint (degenerate sweep grids).
    deduplicated_machines: int = 0


@dataclass
class AuditStats(_Counters):
    """Counters of audited work, monotonically increasing within a run."""

    runs: int = 0
    steps: int = 0
    phases: int = 0
    checks: int = 0
    violations: int = 0


@dataclass(frozen=True)
class RunState:
    """One run's switches and accounting.  ``None`` switches defer to
    the environment defaults of the module that reads them."""

    #: Invariant auditor on/off (:mod:`repro.verify`).
    verify: Optional[bool] = None
    #: Explicit :class:`~repro.testing.faults.FaultPlan`.
    faults: Any = None
    #: Batch mode ``"auto"`` | ``"on"`` | ``"off"`` (:mod:`repro.sim.batch`).
    batch: Optional[str] = None
    #: Wall-time :class:`~repro.supervise.budget.Budget`.
    budget: Any = None
    #: Default worker count for sweeps (:mod:`repro.sim.parallel`).
    jobs: Optional[int] = None
    #: Innermost supervision frame (:func:`repro.supervise.scope`).
    frame: Any = None
    #: Called with ``(study, key)`` on every cached-run lookup
    #: (:func:`repro.sim.batch.record_run_keys`).
    recorder: Optional[Callable[[Any, Tuple[str, ...]], None]] = None
    #: The run's counters; ``None`` outside any :func:`run`, where
    #: counts are dropped.
    batch_stats: Optional[BatchStats] = None
    audit_stats: Optional[AuditStats] = None


_STATE: contextvars.ContextVar[RunState] = contextvars.ContextVar(
    "repro_run_state", default=RunState()
)


def current() -> RunState:
    """The run state in force on this thread."""
    return _STATE.get()


@contextmanager
def scope(**changes: Any) -> Iterator[RunState]:
    """Replace the given fields for the enclosed block."""
    state = dataclasses.replace(_STATE.get(), **changes)
    token = _STATE.set(state)
    try:
        yield state
    finally:
        _STATE.reset(token)


def run(**changes: Any):
    """A :func:`scope` that is a run: it opens fresh accounting unless
    an enclosing run already has, so the outermost run owns the
    counters and nested runs add to them."""
    if _STATE.get().batch_stats is None:
        changes.update(batch_stats=BatchStats(), audit_stats=AuditStats())
    return scope(**changes)
