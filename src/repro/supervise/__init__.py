"""Supervised execution: deadlines, cancellation, journaling, backoff.

The execution stack below this package is fault-*isolating* (PR 4):
one experiment's exception never costs another's result.  This package
adds the supervision a long-running service needs on top of isolation:

* **Deadlines** — :class:`~repro.supervise.budget.Budget` bounds a
  campaign and each experiment in wall time, enforced cooperatively at
  engine step/phase boundaries (:class:`SupervisionObserver`) and at
  pipeline task boundaries, and preemptively by the pool watchdog in
  :func:`repro.sim.parallel.parallel_map`.
* **Cancellation** — a :class:`~repro.supervise.cancel.CancelToken`
  that SIGINT/SIGTERM (and the run budget) trip; the pipeline drains
  in-flight work, persists partial state, and exits with a valid,
  resumable manifest.
* **Crash-safe journaling** — an fsync'd write-ahead journal
  (:mod:`repro.supervise.journal`) so even a SIGKILLed campaign is
  resumable without a completed manifest.
* **Backoff & circuit breakers** — bounded, deterministic retry for
  the transient failure classes, with structural degradation (memory-
  only cache, serial map) after repeated trips
  (:mod:`repro.supervise.backoff`).

Like the fault (:mod:`repro.testing.faults`) and verification
(:mod:`repro.verify`) switches, the active budget and the supervision
frame (an experiment's or a serve job's deadline and token) are part of
the scoped run state (:mod:`repro.core.runstate`): a ``RunContext`` the
pipeline enters sets the budget, each pipeline task and each serve job
enters its own frame, and every block leaves the state as it found it.
Only what signals touch is process-wide: the cancel token SIGINT and
SIGTERM trip, whether handlers are armed, and the circuit breakers.
"""

from __future__ import annotations

import contextlib
import time
from typing import Iterator, NamedTuple, Optional

from repro.core import runstate
from repro.supervise.backoff import (  # noqa: F401  (re-exports)
    BackoffPolicy,
    CircuitBreaker,
    breaker,
    breaker_states,
    reset_breakers,
)
from repro.supervise.budget import (  # noqa: F401
    EXPERIMENT_TIMEOUT_ENV,
    TIMEOUT_ENV,
    Budget,
    BudgetError,
    DeadlineExceeded,
    budget_from_env,
)
from repro.supervise.cancel import (  # noqa: F401
    CancelToken,
    CancelledRun,
    install_signal_handlers,
)
from repro.supervise.journal import (  # noqa: F401
    JOURNAL_ENV,
    JOURNAL_NAME,
    JOURNAL_SCHEMA,
    Journal,
    JournalError,
    JournalSchemaError,
    JournalState,
    load_journal,
)
from repro.supervise.observer import SupervisionObserver  # noqa: F401

__all__ = [
    "BackoffPolicy",
    "Budget",
    "BudgetError",
    "CancelToken",
    "CancelledRun",
    "CircuitBreaker",
    "DeadlineExceeded",
    "EXPERIMENT_TIMEOUT_ENV",
    "JOURNAL_ENV",
    "JOURNAL_NAME",
    "JOURNAL_SCHEMA",
    "Journal",
    "JournalError",
    "JournalSchemaError",
    "JournalState",
    "SupervisionObserver",
    "TIMEOUT_ENV",
    "active",
    "breaker",
    "breaker_states",
    "budget_from_env",
    "check",
    "current_budget",
    "default_watchdog_s",
    "install_signals",
    "load_journal",
    "reset",
    "reset_breakers",
    "scope",
    "task",
    "token",
]

# ----------------------------------------------------------------------
# Process-wide: what signals touch.

_token = CancelToken()
#: True while signal handlers route into the token (the CLI's run-all).
_signals_armed = False


def current_budget() -> Optional[Budget]:
    """The budget of the enclosing run, if any."""
    return runstate.current().budget


def token() -> CancelToken:
    """The process-wide cancellation token."""
    return _token


def install_signals():
    """Route SIGINT/SIGTERM into the process token; returns a restore
    callable that also disarms supervision's signal bookkeeping.

    Arming starts a fresh supervised run, so a token left tripped by a
    previous run in the same process (an embedder calling run-all twice,
    a cancelled run followed by ``--resume``) is cleared first.
    """
    global _signals_armed
    _token.reset()
    restore = install_signal_handlers(_token)
    _signals_armed = True

    def _restore() -> None:
        global _signals_armed
        _signals_armed = False
        restore()

    return _restore


# ----------------------------------------------------------------------
# Supervision frames.  A pipeline task (one experiment under the run's
# budget) and a serve job (its own token and deadline, so one client
# cancelling their job cannot cancel anyone else's) are the same kind
# of frame on the run state; the innermost one is in force.


class _Frame(NamedTuple):
    """One supervised unit of work: a deadline and an optional token."""

    #: ``"experiment"`` or ``"job"`` — the word deadline messages use.
    kind: str
    task_id: str
    token: Optional[CancelToken]
    timeout_s: Optional[float]
    deadline: Optional[float]


@contextlib.contextmanager
def scope(
    task_id: str,
    token: Optional[CancelToken] = None,
    timeout_s: Optional[float] = None,
) -> Iterator[CancelToken]:
    """Supervise the enclosed work (a serve job) with its own token and
    deadline.

    Yields the frame's :class:`CancelToken` (a fresh one when none is
    given).  While active, :func:`check` raises :class:`CancelledRun`
    when the token trips and :class:`DeadlineExceeded` once
    ``timeout_s`` elapses, and :func:`active` is True so engines attach
    their :class:`SupervisionObserver` — the run budget and the process
    token keep applying on top.
    """
    token = token if token is not None else CancelToken()
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    with runstate.scope(
        frame=_Frame("job", task_id, token, timeout_s, deadline)
    ):
        yield token


@contextlib.contextmanager
def task(task_id: str, now: Optional[float] = None) -> Iterator[None]:
    """Run the enclosed work as one pipeline experiment: its deadline
    comes from the run's armed budget (none when unbudgeted)."""
    budget = current_budget()
    deadline = timeout_s = None
    if budget is not None and budget.armed:
        deadline = budget.experiment_deadline(
            time.monotonic() if now is None else now
        )
        timeout_s = budget.experiment_timeout_s or budget.run_timeout_s
    with runstate.scope(
        frame=_Frame("experiment", task_id, None, timeout_s, deadline)
    ):
        yield


# ----------------------------------------------------------------------
def active() -> bool:
    """Should engines attach a :class:`SupervisionObserver`?

    True whenever a check could actually fire: a frame carries a token
    or a deadline, a bounded budget is in force, or signal handlers are
    armed (cancellation could arrive at any step).  Plain library and
    test use stays observer-free — and byte-identical — by default.
    """
    state = runstate.current()
    frame, budget = state.frame, state.budget
    return (
        (frame is not None
         and (frame.token is not None or frame.deadline is not None))
        or _signals_armed
        or _token.cancelled
        or (budget is not None and budget.bounded)
    )


def check(where: str = "") -> None:
    """The cooperative checkpoint: raise if cancelled or overdue.

    :class:`CancelledRun` reports the token's reason;
    :class:`DeadlineExceeded` names what timed out (job, experiment or
    run) and by how much, so the failure record is self-explanatory.
    """
    state = runstate.current()
    frame, budget = state.frame, state.budget
    if frame is not None and frame.token is not None:
        frame.token.raise_if_cancelled()
    _token.raise_if_cancelled()
    deadline = None if frame is None else frame.deadline
    if deadline is None and budget is None:
        return
    now = time.monotonic()
    if deadline is not None and now > deadline:
        raise DeadlineExceeded(
            f"{frame.kind} {frame.task_id} exceeded its wall-time budget "
            f"({frame.timeout_s}s, {now - deadline:.2f}s over"
            + (f", at {where}" if where else "") + ")"
        )
    if budget is not None and budget.run_overdrawn(now):
        raise DeadlineExceeded(
            f"run exceeded its wall-time budget "
            f"({budget.run_timeout_s}s"
            + (f", at {where}" if where else "") + ")"
        )


def default_watchdog_s() -> Optional[float]:
    """The pool watchdog timeout implied by the armed budget.

    ``parallel_map`` consults this when no explicit ``task_timeout_s``
    is given, so ``--experiment-timeout`` automatically covers hung
    workers in *every* fan-out — pipeline waves and in-experiment
    sweeps alike.  Cooperative checks fire first on healthy workers;
    the watchdog only reaps ones that stopped making progress.
    """
    budget = current_budget()
    if budget is not None and budget.armed:
        return budget.experiment_timeout_s
    return None


def reset() -> None:
    """Clear the process-wide supervision state (tests, embedders): the
    cancel token, the signal flag and the circuit breakers."""
    global _signals_armed
    _token.reset()
    _signals_armed = False
    reset_breakers()
