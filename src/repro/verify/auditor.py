"""The :class:`InvariantAuditor`: conservation laws checked per step.

The auditor is a :class:`~repro.sim.observer.SimObserver` that rides
along with the engine's step loop and checks, as the simulation runs:

* **time** — simulated time is non-negative, monotonically advancing,
  and the run's total equals the last step boundary;
* **progress** — step fractions lie in ``[0, 1]`` and sum to exactly
  one phase per phase-complete event;
* **resolver coherence** — per-context rates are physical (all rates
  non-negative, miss rates and mispredict rates in ``[0, 1]``, the
  L1→L2 access chain closes), CPI terms are non-negative with
  ``cpi_eff`` at least the breakdown CPI, and the contention fixed
  point actually converged (residual bound);
* **bus** — per-context occupancy of the binding bottleneck stays
  within capacity (plus the fixed point's convergence slack);
* **counters** — at run completion, the accumulated PMU counters close:
  hits + misses equal accesses at every level, stall cycles never
  exceed total cycles, retired instructions equal the workloads'
  instruction volumes, and bus transactions never exceed L2 misses.

Checks are O(contexts) per step and O(1) per counter — the auditor adds
single-digit percent overhead to a simulation (enforced by the CI
overhead gate).  A failed check raises :class:`InvariantViolation`
carrying full provenance: the check name, step index, phase, program,
hardware context, and the offending values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.core import runstate
from repro.core.runstate import AuditStats
from repro.counters.events import Event
from repro.mem.bus import PREFETCH_WASTE
from repro.sim.observer import (
    PhaseEvent,
    ResolveEvent,
    SimObserver,
    StepEvent,
)

__all__ = [
    "AuditStats",
    "InvariantAuditor",
    "InvariantViolation",
    "stats",
    "reset_stats",
]

#: Relative slack on conservation sums (float accumulation order).
_REL_TOL = 1e-6
#: Absolute slack for comparisons of near-zero quantities.
_ABS_TOL = 1e-9
#: Upper bound on the resolver's converged fixed-point residual.  The
#: damped loop targets 1e-4; saturated-bus runs legitimately exit at the
#: iteration cap with residuals up to ~2e-2 (the bandwidth-sharing knee
#: converges slowly), so the auditor flags only genuine non-convergence.
_MAX_RESIDUAL = 5e-2
#: Bus occupancy bound: converged utilization may overshoot 1.0 by the
#: fixed point's slack while the bandwidth-sharing term dilates time.
_MAX_BUS_OCCUPANCY = 1.0 + 5e-2


class InvariantViolation(AssertionError):
    """A simulation invariant failed, with step/phase provenance.

    Attributes:
        check: short identifier of the violated law (``"l2-closure"``).
        step: engine step index at the point of failure (``None`` for
            run-level checks).
        phase: phase name being executed, when known.
        program_id: program whose state failed the check, when known.
        context: hardware-context label, when known.
        values: the numbers that failed, keyed by name.
    """

    def __init__(
        self,
        check: str,
        message: str,
        step: Optional[int] = None,
        phase: Optional[str] = None,
        program_id: Optional[int] = None,
        context: Optional[str] = None,
        values: Optional[Mapping[str, Any]] = None,
    ):
        self.check = check
        self.step = step
        self.phase = phase
        self.program_id = program_id
        self.context = context
        self.values = dict(values or {})
        where = []
        if step is not None:
            where.append(f"step {step}")
        if phase is not None:
            where.append(f"phase {phase!r}")
        if program_id is not None:
            where.append(f"program {program_id}")
        if context is not None:
            where.append(f"context {context!r}")
        shown = ", ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in self.values.items()
        )
        parts = [f"invariant {check!r} violated"]
        if where:
            parts.append(f"at {', '.join(where)}")
        text = " ".join(parts) + f": {message}"
        if shown:
            text += f" [{shown}]"
        super().__init__(text)


# ----------------------------------------------------------------------
# Audit accounting: the counters belong to the enclosing run
# (:func:`repro.core.runstate.run`); outside any run they are dropped.


def stats() -> AuditStats:
    """The enclosing run's audit counters (a throwaway zero set when no
    run is open)."""
    counters = runstate.current().audit_stats
    return AuditStats() if counters is None else counters


def reset_stats() -> None:
    """Zero the enclosing run's audit counters."""
    stats().take()


# ----------------------------------------------------------------------

@dataclass
class _ProgramLedger:
    """Per-program audit state for one run."""

    expected_instructions: float = 0.0
    #: Step fractions accumulated toward the current phase.
    phase_fraction: float = 0.0


class InvariantAuditor(SimObserver):
    """Checks the engine's conservation laws as the simulation runs.

    Args:
        resolver: the engine's contention resolver; when it exposes a
            ``last_residual`` (the default
            :class:`~repro.sim.resolver.FixedPointResolver` does), the
            auditor bounds the fixed point's convergence residual.
        max_residual: largest acceptable fixed-point residual.
        max_bus_occupancy: largest acceptable bus utilization at the
            converged execution rates.
    """

    def __init__(
        self,
        resolver: Any = None,
        max_residual: float = _MAX_RESIDUAL,
        max_bus_occupancy: float = _MAX_BUS_OCCUPANCY,
    ):
        self.resolver = resolver
        self.max_residual = max_residual
        self.max_bus_occupancy = max_bus_occupancy
        self._programs: Dict[int, _ProgramLedger] = {}
        self._step = 0
        #: Frontier: simulated time at the start of the current engine
        #: step.  Concurrent programs share the step's interval, so the
        #: frontier only commits at step boundaries (``on_resolve``).
        self._frontier = 0.0
        self._step_end = 0.0
        self._stats = stats()

    # ------------------------------------------------------------------
    def _fail(
        self, check: str, message: str, **kwargs: Any
    ) -> None:
        self._stats.violations += 1
        raise InvariantViolation(check, message, **kwargs)

    def _check(self, ok: bool, check: str, message: str, **kwargs) -> None:
        self._stats.checks += 1
        if not ok:
            self._fail(check, message, **kwargs)

    def _require(self, ok: bool, check: str, message: str, **kwargs) -> None:
        """Like :meth:`_check` but without counting: used on slow
        (failure) paths whose checks were already counted in bulk."""
        if not ok:
            self._fail(check, message, **kwargs)

    # ------------------------------------------------------------------
    # run lifecycle
    # ------------------------------------------------------------------
    def on_run_start(self, specs: Sequence) -> None:
        self._stats.runs += 1
        self._programs = {
            s.program_id: _ProgramLedger(
                expected_instructions=s.workload.total_instructions
            )
            for s in specs
        }
        self._step = 0
        self._frontier = 0.0
        self._step_end = 0.0

    # ------------------------------------------------------------------
    def on_resolve(self, event: ResolveEvent) -> None:
        # Hot path: one fused comparison per context; the per-check
        # provenance dicts are only built in ``_audit_context_slow``
        # once something is already known to be wrong.  The auditor
        # rides every engine step, so this is what keeps full
        # verification within the documented 5 % overhead budget.
        self._step = step = event.step
        if self._step_end > self._frontier:
            self._frontier = self._step_end
        checks = 0
        residual = getattr(self.resolver, "last_residual", None)
        if residual is not None:
            checks += 1
            if residual > self.max_residual:
                self._stats.checks += checks
                self._fail(
                    "resolver-residual",
                    "contention fixed point did not converge",
                    step=step,
                    values={
                        "residual": residual, "bound": self.max_residual,
                    },
                )
        max_occ = self.max_bus_occupancy
        for label, r in event.resolved.items():
            rates = r.rates
            bd = r.cpi
            implied = rates.l2_accesses_per_instr * rates.l2_miss_rate
            checks += 16
            ok = (
                0.0 <= rates.tc_miss_rate <= 1.0
                and 0.0 <= rates.l1_miss_rate <= 1.0
                and 0.0 <= rates.l2_miss_rate <= 1.0
                and 0.0 <= rates.itlb_miss_rate <= 1.0
                and 0.0 <= rates.dtlb_miss_rate <= 1.0
                and 0.0 <= r.mispredict_rate <= 1.0
                and rates.tc_accesses_per_instr >= 0.0
                and rates.l1_accesses_per_instr >= 0.0
                and rates.l2_accesses_per_instr >= 0.0
                and rates.itlb_accesses_per_instr >= 0.0
                and rates.dtlb_accesses_per_instr >= 0.0
                and r.coherence_per_instr >= 0.0
                and abs(rates.l2_misses_per_instr - implied)
                <= _ABS_TOL + _REL_TOL * max(implied, 1e-12)
                and bd.cpi_exec > 0.0
                and bd.smt_slowdown >= 1.0
                and bd.stall_l2_hit >= 0.0
                and bd.stall_memory >= 0.0
                and bd.stall_trace_cache >= 0.0
                and bd.stall_itlb >= 0.0
                and bd.stall_dtlb >= 0.0
                and bd.stall_branch >= 0.0
                and bd.stall_moclear >= 0.0
                and bd.stall_coherence >= 0.0
                and r.cpi_eff >= bd.cpi * (1.0 - _REL_TOL)
            )
            if ok and rates.extra_levels:
                # Per-level closure beyond the L2: bounded local rates,
                # accesses equal to the inner level's misses, and
                # misses = accesses * local rate.
                prev = rates.l2_misses_per_instr
                for lvl in rates.extra_levels:
                    checks += 4
                    lvl_implied = lvl.accesses_per_instr * lvl.miss_rate
                    ok = (
                        0.0 <= lvl.miss_rate <= 1.0
                        and lvl.accesses_per_instr >= 0.0
                        and abs(lvl.misses_per_instr - lvl_implied)
                        <= _ABS_TOL + _REL_TOL * max(lvl_implied, 1e-12)
                        and abs(lvl.accesses_per_instr - prev)
                        <= _ABS_TOL + _REL_TOL * max(prev, 1e-12)
                    )
                    if not ok:
                        break
                    prev = lvl.misses_per_instr
            if ok and r.bus is not None:
                checks += 2
                ok = (
                    0.0 <= r.bus.utilization <= max_occ
                    and 0.0 <= r.bus.prefetch_coverage <= 1.0
                    and r.bus.latency_multiplier >= 1.0
                )
            if not ok:
                self._stats.checks += checks
                self._audit_context_slow(step, label, r)
                raise AssertionError(
                    "auditor fast path flagged a context the detailed "
                    "checks accept"
                )
        self._stats.checks += checks

    def _audit_context_slow(self, step: int, label: str, r: Any) -> None:
        """Failure path of :meth:`on_resolve`: re-run the per-context
        checks one by one with full provenance, raising on the first
        (known-present) violation."""
        where = dict(
            step=step,
            phase=r.active.phase.name,
            program_id=r.active.spec.program_id,
            context=label,
        )
        rates = r.rates
        for name, rate in (
            ("tc_miss_rate", rates.tc_miss_rate),
            ("l1_miss_rate", rates.l1_miss_rate),
            ("l2_miss_rate", rates.l2_miss_rate),
            ("itlb_miss_rate", rates.itlb_miss_rate),
            ("dtlb_miss_rate", rates.dtlb_miss_rate),
            ("mispredict_rate", r.mispredict_rate),
        ):
            self._require(
                0.0 <= rate <= 1.0,
                "rate-bounds",
                f"{name} outside [0, 1]",
                values={name: rate},
                **where,
            )
        for name, per_instr in (
            ("tc_accesses_per_instr", rates.tc_accesses_per_instr),
            ("l1_accesses_per_instr", rates.l1_accesses_per_instr),
            ("l2_accesses_per_instr", rates.l2_accesses_per_instr),
            ("itlb_accesses_per_instr", rates.itlb_accesses_per_instr),
            ("dtlb_accesses_per_instr", rates.dtlb_accesses_per_instr),
            ("coherence_per_instr", r.coherence_per_instr),
        ):
            self._require(
                per_instr >= 0.0,
                "rate-bounds",
                f"{name} negative",
                values={name: per_instr},
                **where,
            )
        # The L1 -> L2 access chain closes: global L2 misses per uop
        # equal L2 accesses (= L1 misses) times the local miss rate.
        implied = rates.l2_accesses_per_instr * rates.l2_miss_rate
        self._require(
            abs(rates.l2_misses_per_instr - implied)
            <= _ABS_TOL + _REL_TOL * max(implied, 1e-12),
            "l2-closure",
            "l2_misses_per_instr != l2_accesses * l2_miss_rate",
            values={
                "l2_misses_per_instr": rates.l2_misses_per_instr,
                "implied": implied,
            },
            **where,
        )
        prev = rates.l2_misses_per_instr
        for lvl in rates.extra_levels:
            lvl_implied = lvl.accesses_per_instr * lvl.miss_rate
            self._require(
                0.0 <= lvl.miss_rate <= 1.0,
                "rate-bounds",
                f"{lvl.name}_miss_rate outside [0, 1]",
                values={f"{lvl.name}_miss_rate": lvl.miss_rate},
                **where,
            )
            self._require(
                lvl.accesses_per_instr >= 0.0,
                "rate-bounds",
                f"{lvl.name}_accesses_per_instr negative",
                values={
                    f"{lvl.name}_accesses_per_instr":
                        lvl.accesses_per_instr,
                },
                **where,
            )
            self._require(
                abs(lvl.misses_per_instr - lvl_implied)
                <= _ABS_TOL + _REL_TOL * max(lvl_implied, 1e-12),
                f"{lvl.name}-closure",
                f"{lvl.name}_misses_per_instr != accesses * miss_rate",
                values={
                    f"{lvl.name}_misses_per_instr": lvl.misses_per_instr,
                    "implied": lvl_implied,
                },
                **where,
            )
            self._require(
                abs(lvl.accesses_per_instr - prev)
                <= _ABS_TOL + _REL_TOL * max(prev, 1e-12),
                f"{lvl.name}-chain",
                f"{lvl.name} accesses differ from the inner level's "
                "misses",
                values={
                    f"{lvl.name}_accesses_per_instr":
                        lvl.accesses_per_instr,
                    "inner_misses_per_instr": prev,
                },
                **where,
            )
            prev = lvl.misses_per_instr
        bd = r.cpi
        self._require(
            bd.cpi_exec > 0.0 and bd.smt_slowdown >= 1.0,
            "cpi-exec",
            "execution CPI must be positive with SMT slowdown >= 1",
            values={
                "cpi_exec": bd.cpi_exec,
                "smt_slowdown": bd.smt_slowdown,
            },
            **where,
        )
        self._require(
            min(
                bd.stall_l2_hit, bd.stall_memory, bd.stall_trace_cache,
                bd.stall_itlb, bd.stall_dtlb, bd.stall_branch,
                bd.stall_moclear, bd.stall_coherence,
            ) >= 0.0,
            "stall-sign",
            "negative stall component in CPI breakdown",
            values={"stall_per_instr": bd.stall_per_instr},
            **where,
        )
        # The effective CPI (with bandwidth sharing) can only add
        # time on top of the converged breakdown.
        self._require(
            r.cpi_eff >= bd.cpi * (1.0 - _REL_TOL),
            "cpi-eff",
            "effective CPI below the breakdown CPI",
            values={"cpi_eff": r.cpi_eff, "cpi": bd.cpi},
            **where,
        )
        if r.bus is not None:
            self._require(
                0.0 <= r.bus.utilization <= self.max_bus_occupancy,
                "bus-occupancy",
                "bus occupancy exceeds capacity",
                values={
                    "utilization": r.bus.utilization,
                    "bound": self.max_bus_occupancy,
                },
                **where,
            )
            self._require(
                0.0 <= r.bus.prefetch_coverage <= 1.0
                and r.bus.latency_multiplier >= 1.0,
                "bus-outcome",
                "prefetch coverage outside [0, 1] or latency "
                "multiplier below 1",
                values={
                    "prefetch_coverage": r.bus.prefetch_coverage,
                    "latency_multiplier": r.bus.latency_multiplier,
                },
                **where,
            )

    # ------------------------------------------------------------------
    def on_step(self, event: StepEvent) -> None:
        # Hot path: fused comparison, diagnostics only on failure.
        self._stats.steps += 1
        self._stats.checks += 4
        t_start, t_end = event.t_start, event.t_end
        ok = (
            t_start >= self._frontier - _ABS_TOL
            and t_end >= t_start
            and -_ABS_TOL <= event.fraction <= 1.0 + _REL_TOL
            and event.instructions >= 0.0
            and event.cpi > 0.0
        )
        if not ok:
            self._audit_step_slow(event)
            raise AssertionError(
                "auditor fast path flagged a step the detailed checks "
                "accept"
            )
        if t_end > self._step_end:
            self._step_end = t_end
        ledger = self._programs.get(event.program_id)
        if ledger is not None:
            ledger.phase_fraction += event.fraction

    def _audit_step_slow(self, event: StepEvent) -> None:
        """Failure path of :meth:`on_step` (same checks, full
        provenance)."""
        where = dict(
            step=self._step,
            phase=event.phase_name,
            program_id=event.program_id,
        )
        self._require(
            event.t_start >= self._frontier - _ABS_TOL,
            "time-monotonic",
            "step starts before the frontier of simulated time",
            values={"t_start": event.t_start, "frontier": self._frontier},
            **where,
        )
        self._require(
            event.t_end >= event.t_start,
            "time-monotonic",
            "step ends before it starts",
            values={"t_start": event.t_start, "t_end": event.t_end},
            **where,
        )
        self._require(
            -_ABS_TOL <= event.fraction <= 1.0 + _REL_TOL,
            "fraction-bounds",
            "phase fraction outside [0, 1]",
            values={"fraction": event.fraction},
            **where,
        )
        self._require(
            event.instructions >= 0.0 and event.cpi > 0.0,
            "step-work",
            "negative instruction count or non-positive CPI",
            values={
                "instructions": event.instructions, "cpi": event.cpi,
            },
            **where,
        )

    # ------------------------------------------------------------------
    def on_phase_complete(self, event: PhaseEvent) -> None:
        self._stats.phases += 1
        ledger = self._programs.get(event.program_id)
        self._stats.checks += 1 if ledger is None else 2
        ok = event.wall_seconds >= 0.0 and event.mean_cpi > 0.0
        if ok and ledger is not None:
            ok = abs(ledger.phase_fraction - 1.0) <= 1e-6
        if not ok:
            where = dict(
                step=self._step,
                phase=event.phase_name,
                program_id=event.program_id,
            )
            self._require(
                event.wall_seconds >= 0.0 and event.mean_cpi > 0.0,
                "phase-summary",
                "negative phase wall time or non-positive mean CPI",
                values={
                    "wall_seconds": event.wall_seconds,
                    "mean_cpi": event.mean_cpi,
                },
                **where,
            )
            self._require(
                ledger is None
                or abs(ledger.phase_fraction - 1.0) <= 1e-6,
                "fraction-conservation",
                "step fractions do not sum to one full phase",
                values={
                    "fraction_sum":
                        ledger.phase_fraction if ledger else None,
                },
                **where,
            )
        if ledger is not None:
            ledger.phase_fraction = 0.0

    # ------------------------------------------------------------------
    def on_run_complete(self, total_time: float) -> None:
        frontier = max(self._frontier, self._step_end)
        self._check(
            total_time >= frontier - _ABS_TOL - _REL_TOL * frontier,
            "time-total",
            "total simulated time below the last step boundary",
            values={"total_time": total_time, "frontier": frontier},
        )

    # ------------------------------------------------------------------
    def on_result(self, result: Any) -> None:
        cs = result.collector.total()

        def get(event: Event) -> float:
            return cs[event]

        for event in Event:
            self._check(
                get(event) >= 0.0,
                "counter-sign",
                f"negative accumulated counter {event.name}",
                values={event.name: get(event)},
            )

        closures = (
            ("tc", Event.TC_MISS, Event.TC_DELIVER),
            ("l1d", Event.L1D_MISS, Event.L1D_ACCESS),
            ("l2", Event.L2_MISS, Event.L2_ACCESS),
            ("l3", Event.L3_MISS, Event.L3_ACCESS),
            ("l4", Event.L4_MISS, Event.L4_ACCESS),
            ("itlb", Event.ITLB_MISS, Event.ITLB_ACCESS),
            ("dtlb", Event.DTLB_MISS, Event.DTLB_ACCESS),
            ("branch", Event.BRANCH_MISPRED, Event.BRANCH_RETIRED),
        )
        for name, miss, access in closures:
            m, a = get(miss), get(access)
            self._check(
                m <= a * (1.0 + _REL_TOL) + _ABS_TOL,
                "hit-miss-closure",
                f"{name} misses exceed accesses",
                values={miss.name: m, access.name: a},
            )
        # Every L1 data miss is an L2 access — the chain closes exactly.
        l1m, l2a = get(Event.L1D_MISS), get(Event.L2_ACCESS)
        self._check(
            abs(l2a - l1m) <= _ABS_TOL + _REL_TOL * max(l1m, 1.0),
            "l1-l2-chain",
            "L2 accesses differ from L1 data misses",
            values={"L1D_MISS": l1m, "L2_ACCESS": l2a},
        )
        # The same hand-off closes at every declared level beyond the
        # L2 (vacuous on two-level machines, where the outer access
        # counters are never emitted).
        for check, inner_miss, outer_access in (
            ("l2-l3-chain", Event.L2_MISS, Event.L3_ACCESS),
            ("l3-l4-chain", Event.L3_MISS, Event.L4_ACCESS),
        ):
            oa = get(outer_access)
            if oa <= 0.0:
                continue
            im = get(inner_miss)
            self._check(
                abs(oa - im) <= _ABS_TOL + _REL_TOL * max(im, 1.0),
                check,
                f"{outer_access.name} differs from {inner_miss.name}",
                values={inner_miss.name: im, outer_access.name: oa},
            )
        self._check(
            get(Event.STALL_CYCLES)
            <= get(Event.CYCLES) * (1.0 + _REL_TOL) + _ABS_TOL,
            "cycle-accounting",
            "stall cycles exceed total cycles",
            values={
                "STALL_CYCLES": get(Event.STALL_CYCLES),
                "CYCLES": get(Event.CYCLES),
            },
        )
        # Demand bus transactions are the uncovered *last-level* miss
        # stream; prefetch transactions cover the rest plus bounded
        # waste.  The binding level is the deepest one with traffic.
        llc_miss = get(Event.L2_MISS)
        if get(Event.L4_ACCESS) > 0.0:
            llc_miss = get(Event.L4_MISS)
        elif get(Event.L3_ACCESS) > 0.0:
            llc_miss = get(Event.L3_MISS)
        demand = get(Event.BUS_TRANS_DEMAND)
        prefetch = get(Event.BUS_TRANS_PREFETCH)
        self._check(
            demand <= llc_miss * (1.0 + _REL_TOL) + _ABS_TOL,
            "bus-conservation",
            "demand bus transactions exceed last-level misses",
            values={"BUS_TRANS_DEMAND": demand, "LLC_MISS": llc_miss},
        )
        self._check(
            demand + prefetch / (1.0 + PREFETCH_WASTE)
            <= llc_miss * (1.0 + _REL_TOL) + _ABS_TOL,
            "bus-conservation",
            "useful bus transactions exceed last-level misses",
            values={
                "BUS_TRANS_DEMAND": demand,
                "BUS_TRANS_PREFETCH": prefetch,
                "LLC_MISS": llc_miss,
            },
        )

        for prog in result.programs:
            pid = prog.spec.program_id
            ledger = self._programs.get(pid)
            retired = result.collector.for_program(pid)[Event.INSTR_RETIRED]
            if ledger is not None:
                self._check(
                    abs(retired - ledger.expected_instructions)
                    <= _ABS_TOL
                    + _REL_TOL * max(ledger.expected_instructions, 1.0),
                    "instruction-conservation",
                    "retired instructions differ from the workload's "
                    "instruction volume",
                    program_id=pid,
                    values={
                        "retired": retired,
                        "expected": ledger.expected_instructions,
                    },
                )
            self._check(
                prog.runtime_seconds > 0.0,
                "runtime-positive",
                "program finished in non-positive time",
                program_id=pid,
                values={"runtime_seconds": prog.runtime_seconds},
            )
