"""Runtime verification: the simulator's physics as an enforced contract.

Every run of the :class:`~repro.sim.engine.Engine` obeys conservation
laws the paper's counter arithmetic rests on — hits + misses close,
stall cycles never exceed total cycles, simulated time only advances,
the bus never carries more than its capacity, the contention fixed
point actually converged.  The byte-identity goldens catch *drift* from
those laws but not latent wrongness shared with the golden; this
package checks the laws themselves, at runtime, on every audited run.

The auditor is an ordinary :class:`~repro.sim.observer.SimObserver`
(:class:`InvariantAuditor`), attached automatically by the engine when
verification is enabled.  The switch is part of the scoped run state
(:mod:`repro.core.runstate`), like the fault plan
(:mod:`repro.testing.faults`), and is decided, first match wins, by:

* the enclosing scope — the :func:`verification` context manager, or a
  ``RunContext(verify=True/False)`` the pipeline has entered (each
  pool task enters its own copy);
* the environment — ``REPRO_VERIFY=1`` / ``REPRO_VERIFY=0`` (what the
  CI drill uses; pool workers inherit it);
* the default **under pytest** — when neither decides, the auditor is
  on whenever pytest is driving (``PYTEST_CURRENT_TEST`` is set), so
  the whole test suite doubles as a physics audit at negligible cost.

A violated invariant raises :class:`InvariantViolation` with full
provenance — check name, step index, phase, program, hardware context,
and the offending values — so a broken resolver is caught at the first
incoherent step, not as a mysteriously wrong artifact.

``repro verify`` runs the auditor over the full experiment matrix (see
:mod:`repro.cli`); ``docs/TESTING.md`` documents the taxonomy.
"""

from __future__ import annotations

import os
from typing import ContextManager

from repro.core import runstate
from repro.verify.auditor import (  # noqa: F401  (re-exports)
    AuditStats,
    InvariantAuditor,
    InvariantViolation,
    reset_stats,
    stats,
)

__all__ = [
    "VERIFY_ENV",
    "AuditStats",
    "InvariantAuditor",
    "InvariantViolation",
    "enabled",
    "stats",
    "reset_stats",
    "verification",
]

VERIFY_ENV = "REPRO_VERIFY"

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off"}


def enabled() -> bool:
    """Is the invariant auditor attached to engine runs right now?"""
    flag = runstate.current().verify
    if flag is not None:
        return flag
    env = os.environ.get(VERIFY_ENV, "").strip().lower()
    if env in _TRUTHY:
        return True
    if env in _FALSY:
        return False
    # Default: audit whenever pytest is driving the process.
    return "PYTEST_CURRENT_TEST" in os.environ


def verification(on: bool = True) -> ContextManager[object]:
    """Force verification on (or off) for the duration of a block."""
    return runstate.scope(verify=on)


# :class:`AuditStats` and the run's :func:`stats` / :func:`reset_stats`
# accounting live in :mod:`repro.verify.auditor` (the auditor increments
# them at check time) and are re-exported here.
