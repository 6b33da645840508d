"""Sweep batching: whole sweeps as one tensor computation.

A parameter sweep runs the *same* workloads on n near-identical machines
(`SpecOverride` grids, class scaling, sensitivity perturbations).  The
scalar path resolves each machine's contention fixed point serially,
one step at a time; this module batches two axes instead:

* **The machine axis.**  :class:`BatchedFixedPointResolver` performs one
  damped fixed-point resolve over a ``[n_rows, n_classes]`` batch —
  hierarchy rates, branch pollution and SMT terms come from the scalar
  :meth:`~repro.sim.resolver.FixedPointResolver.prework` (restricted to
  one representative per contention-equivalence class), while the bus
  queueing/prefetch inner loop and the outer CPI damping run as
  vectorized kernels over stacked machine parameters
  (:func:`~repro.machine.packing.pack_machines`,
  :func:`~repro.mem.bus.resolve_lite_lanes`).

* **The step axis.**  A single-program, non-oversubscribed run advances
  exactly one phase per step, and a step's solve reads only the
  machine, the config, the placement and that phase — never an earlier
  step's state.  Every (lane, run key, phase) *row* of a sweep is
  therefore independent, and rows with equal step structure share one
  fixed point.  Each row carries its own convergence mask, so each row
  is bit-identical to its scalar step.

The batched engine runs in three stages: *plan* (:func:`_plan`: gates,
placements, team checks, each phase's step structure), *solve*
(:func:`_solve`: one :meth:`~BatchedFixedPointResolver.resolve_classes`
call per distinct step structure) and *replay* (:func:`_replay`: per
phase wall time and PMU counters as one ``[n_machines, n_contexts,
n_events]`` array).  Unpacked :class:`RunResult` objects are
**byte-identical** to the scalar path: every float is produced by the
same IEEE-754 operation sequence the scalar engine executes (explicit
left folds, identical damping/convergence masking, identical counter
insertion order).

* :func:`run_batched_single` is the one-run-key case.
* :func:`prefetch_study_runs` is the ``BatchPlan`` layer: it collects a
  sweep's lane studies, deduplicates identical machine fingerprints,
  skips runs already in the run cache, plans every remaining key,
  solves them all at once, replays each key and preloads each lane's
  results so subsequent scalar-API calls (``Study.run`` et al.) hit
  them transparently.

Scalar fallback is always safe and automatic: runs with observers, the
invariant auditor (``repro.verify``), an active fault plan, multiprogram
or oversubscribed shapes, or mismatched placements/phase structures are
simply left to the unmodified scalar path.  The ``batch`` knob
(``auto`` | ``on`` | ``off``) is exposed on
:class:`~repro.core.context.RunContext` and the ``REPRO_BATCH``
environment variable.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core import runstate
from repro.core.runstate import BatchStats
from repro.counters.collector import Collector, CounterSet
from repro.counters.timeline import Timeline, TimelineSample
from repro.cpu.pipeline import _COVERED_EXPOSURE
from repro.machine.packing import pack_machines
from repro.mem.bus import (
    PREFETCH_WASTE,
    LaneLiteStructure,
    compute_snoop_lanes,
    resolve_lite_lanes,
)
from repro.openmp.loops import partition_imbalance
from repro.openmp.sync import barrier_cycles, fork_join_cycles
from repro.osmodel.process import Placement, ProgramSpec, ThreadPlacement
from repro.sim.advance import EXTRA_LEVEL_EVENTS, STEP_EVENTS, Progress
from repro.sim.engine import Engine
from repro.sim.resolver import (
    _DAMPING,
    _FIXED_POINT_ITERS,
    ActiveContext,
    FixedPointResolver,
)
from repro.sim.results import PhaseRecord, ProgramResult, RunResult
from repro.testing import faults
from repro.trace.phase import Workload

from repro import verify as _verify

__all__ = [
    "BatchStats",
    "BatchedFixedPointResolver",
    "batch_mode",
    "batching_allowed",
    "get_mode",
    "note_scalar_fallback",
    "prefetch_study_runs",
    "record_run_keys",
    "run_batched_single",
    "runtime_forces_scalar",
    "take_stats",
]

# ----------------------------------------------------------------------
# The batch knob: "auto" | "on" | "off"
# ----------------------------------------------------------------------

#: Environment override for the batch mode (lowest precedence).
BATCH_ENV = "REPRO_BATCH"
_VALID_MODES = ("auto", "on", "off")


def get_mode() -> str:
    """Effective batch mode: scoped > ``REPRO_BATCH`` env > ``auto``."""
    mode = runstate.current().batch
    if mode is not None:
        return mode
    env = os.environ.get(BATCH_ENV, "").strip().lower()
    return env if env in _VALID_MODES else "auto"


def batch_mode(mode: Optional[str]) -> ContextManager[object]:
    """Pin the batch mode for a block (``None``: env/default)."""
    if mode is not None and mode not in _VALID_MODES:
        raise ValueError(
            f"batch mode must be one of {_VALID_MODES}, got {mode!r}"
        )
    return runstate.scope(batch=mode)


def batching_allowed(n_lanes: int) -> bool:
    """Does the current mode admit a batch of ``n_lanes`` machines?

    ``auto`` requires at least two lanes (a single machine gains nothing
    from the batched layout); ``on`` forces the batched engine even for
    one lane (the equivalence tests rely on this); ``off`` never
    batches.
    """
    mode = get_mode()
    if mode == "off":
        return False
    if mode == "on":
        return n_lanes >= 1
    return n_lanes >= 2


def runtime_forces_scalar() -> bool:
    """Run state that demands per-machine scalar runs: the invariant
    auditor observes each scalar resolve, and fault-injection plans
    hook the scalar resolver output."""
    return _verify.enabled() or faults.active_plan() is not None


# ----------------------------------------------------------------------
# Accounting: batched vs. fallen-back machines, in the enclosing run
# (:func:`repro.core.runstate.run`); outside any run they are dropped.
# ----------------------------------------------------------------------


def _run_stats() -> BatchStats:
    """The enclosing run's counters, or a throwaway set outside any run."""
    stats = runstate.current().batch_stats
    return BatchStats() if stats is None else stats


def note_batched(n: int = 1) -> None:
    _run_stats().batched_machines += n


def note_scalar_fallback(n: int = 1) -> None:
    """Record machines the batched path declined (ran scalar)."""
    _run_stats().scalar_fallbacks += n


def note_deduplicated(n: int = 1) -> None:
    _run_stats().deduplicated_machines += n


def take_stats() -> BatchStats:
    """Return the run's accumulated stats and reset them (the run-all
    pipeline brackets each experiment with this)."""
    return _run_stats().take()


def peek_stats() -> BatchStats:
    return _run_stats().snapshot()


# ----------------------------------------------------------------------
# Contention-equivalence classes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _StepStructure:
    """Lane-independent shape of one step's active set.

    Contexts whose full contention inputs are symmetric collapse into
    one *class*; the fixed point then runs over ``[n_machines,
    n_classes]`` instead of ``[n_machines, n_contexts]``.  For the
    paper's single-program runs every parallel phase collapses to one
    class (all team members are interchangeable) and serial phases have
    a single active context.
    """

    labels: Tuple[str, ...]
    class_of: Tuple[int, ...]
    #: Active-list index of each class's representative (first member).
    reps: Tuple[int, ...]
    #: Labels whose prework must be computed: class representatives plus
    #: their HT siblings (sibling terms read the sibling's rates/utils).
    needed_labels: frozenset
    lite: LaneLiteStructure


def _classify(active: Sequence[ActiveContext]) -> _StepStructure:
    """Partition ``active`` into contention-equivalence classes.

    Two contexts are equivalent when (a) their own and their HT
    sibling's phase/team/core/L2-sharing signatures match and (b) their
    chips carry identical ordered signature sequences — which makes
    their demand, chip-port utilization and hence their entire
    fixed-point trajectories identical in *every* lane (the classifier
    only looks at placement structure and workload identity, never at
    machine parameters).
    """
    labels = tuple(a.placement.context.label for a in active)
    by_core: Dict[Tuple[int, int], List[int]] = {}
    by_chip: Dict[int, List[int]] = {}
    by_socket: Dict[int, List[int]] = {}
    for i, a in enumerate(active):
        by_core.setdefault(a.placement.context.core_key, []).append(i)
        by_chip.setdefault(a.placement.context.chip, []).append(i)
        by_socket.setdefault(a.placement.context.socket, []).append(i)
    chips = sorted(by_chip)
    chip_index = {c: j for j, c in enumerate(chips)}

    base: List[Tuple] = []
    sib_of: List[Optional[int]] = []
    for i, a in enumerate(active):
        mates = by_core[a.placement.context.core_key]
        sib = next((j for j in mates if labels[j] != labels[i]), None)
        sib_of.append(sib)
        chipmates = by_chip[a.placement.context.chip]
        socketmates = by_socket[a.placement.context.socket]
        base.append((
            a.spec.program_id,
            a.spec.workload.name,
            a.n_work,
            len(mates),
            sib is not None,
            sib is not None
            and active[sib].spec.program_id == a.spec.program_id,
            sib is not None
            and active[sib].spec.workload.name == a.spec.workload.name,
            len(chipmates),
            all(
                active[j].spec.program_id == a.spec.program_id
                for j in chipmates
            ),
            # Socket-scope sharing signature: on single-chip sockets
            # (every legacy machine) this duplicates the chip entries,
            # so legacy class partitions are unchanged.
            len(socketmates),
            all(
                active[j].spec.program_id == a.spec.program_id
                for j in socketmates
            ),
        ))
    # Pair signature: own + sibling base (sibling terms read both sides);
    # chip signature: the ordered pair signatures sharing my FSB port.
    pair = [
        (base[i], base[sib_of[i]] if sib_of[i] is not None else None)
        for i in range(len(active))
    ]
    chip_sig = {c: tuple(pair[i] for i in by_chip[c]) for c in chips}

    classes: Dict[Tuple, int] = {}
    class_of: List[int] = []
    reps: List[int] = []
    for i, a in enumerate(active):
        sig = (pair[i], chip_sig[a.placement.context.chip])
        k = classes.get(sig)
        if k is None:
            k = len(reps)
            classes[sig] = k
            reps.append(i)
        class_of.append(k)

    needed: Set[str] = set()
    for i in reps:
        needed.add(labels[i])
        if sib_of[i] is not None:
            needed.add(labels[sib_of[i]])

    return _StepStructure(
        labels=labels,
        class_of=tuple(class_of),
        reps=tuple(reps),
        needed_labels=frozenset(needed),
        lite=LaneLiteStructure(
            n_classes=len(reps),
            chip_members=tuple(
                tuple(class_of[i] for i in by_chip[c]) for c in chips
            ),
            class_chip=tuple(
                chip_index[active[i].placement.context.chip] for i in reps
            ),
        ),
    )


# ----------------------------------------------------------------------
# The batched resolver
# ----------------------------------------------------------------------

#: Hierarchy-rate fields the counter replay reads, in the order of
#: :data:`~repro.sim.advance.STEP_EVENTS` slots 3..12, then the
#: last-level miss stream that feeds the bus counters.
_RATE_FIELDS = (
    "tc_accesses_per_instr",
    "tc_misses_per_instr",
    "l1_accesses_per_instr",
    "l1_misses_per_instr",
    "l2_accesses_per_instr",
    "l2_misses_per_instr",
    "itlb_accesses_per_instr",
    "itlb_misses_per_instr",
    "dtlb_accesses_per_instr",
    "dtlb_misses_per_instr",
    "llc_misses_per_instr",
)


@dataclass
class StepSolution:
    """Converged contention state of a stack of step rows.

    A row is one lane's step; rows may come from different lanes, run
    keys and phases as long as they share one step structure.  Arrays
    are ``[row, class]`` views of what the scalar resolver returns per
    context; the replay fans values back out through
    ``struct.class_of``.
    """

    #: Effective CPI / non-execution cycles per uop.
    cpi_eff: np.ndarray
    stall_eff: np.ndarray
    #: Converged bus state (frozen at each row's own convergence
    #: iteration, like the scalar loop's break).
    util: np.ndarray
    cov: np.ndarray
    misp: np.ndarray
    coh: np.ndarray
    #: ``[row]`` final fixed-point residual (``last_residual``).
    residual: np.ndarray
    #: ``[row, class, field]`` hierarchy rates in :data:`_RATE_FIELDS`
    #: order, then one (accesses, misses) pair per extra level.
    rates: np.ndarray


class BatchedFixedPointResolver:
    """One damped fixed point over a ``[n_rows, n_classes]`` batch.

    Wraps one scalar :class:`FixedPointResolver` per row (for prework
    and the final breakdown materialization) around the vectorized bus
    kernel; every row's numbers are bit-identical to what its scalar
    resolver would have produced alone.  A resolver may appear in
    several rows (one per phase of its run).
    """

    def __init__(self, resolvers: Sequence[FixedPointResolver]):
        self.resolvers = list(resolvers)
        if not self.resolvers:
            raise ValueError("need at least one row resolver")
        self.packed = pack_machines([r.params for r in self.resolvers])

    # ------------------------------------------------------------------
    def resolve_classes(
        self,
        actives: Sequence[Sequence[ActiveContext]],
        struct: _StepStructure,
    ) -> StepSolution:
        """Resolve one step per row, all rows at once.

        Every ``actives[r]`` must have the step structure ``struct``;
        only phase *values* and machine parameters may differ between
        rows.
        """
        packed = self.packed
        L = len(actives)
        K = struct.lite.n_classes
        reps = struct.reps
        rep_labels = [struct.labels[i] for i in reps]
        needed = set(struct.needed_labels)

        # Each row's Prework is reduced to the fixed-point inputs and the
        # breakdown arguments as soon as it is built, so no Prework
        # outlives its row.
        inputs: List[List[Tuple[float, ...]]] = []
        bd_args: List[List[Dict[str, object]]] = []
        mig_rows: List[float] = []
        for l in range(L):
            pw = self.resolvers[l].prework(actives[l], labels=needed)
            in_row = []
            arg_row = []
            for lab in rep_labels:
                bd = pw.breakdowns[lab]
                in_row.append((
                    pw.cpi_est[lab],
                    *pw.fast[lab],
                    pw.coh_mpi[lab],
                    pw.misp[lab],
                    bd.stall_l2_hit,
                    bd.stall_trace_cache,
                    bd.stall_itlb,
                    bd.stall_dtlb,
                    bd.stall_branch,
                    bd.stall_moclear,
                    bd.stall_coherence,
                ))
                arg_row.append(dict(
                    rates=pw.rates[lab],
                    mispredict_rate=pw.misp[lab],
                    sibling_utilization=pw.sibling_util[lab],
                    self_utilization=pw.utils[lab],
                    core_sharers=pw.sharers_of[lab],
                    smt_capacity=pw.pair_capacity[lab],
                    coherence_stall_per_instr=pw.coh_stall[lab],
                    sibling_miss_ratio=pw.sibling_missiness[lab],
                    memory_latency_scale=pw.mem_scale[lab],
                ))
            inputs.append(in_row)
            bd_args.append(arg_row)
            mig_rows.append(pw.mig_misses_per_sec)
        (
            cpi_est, exec_term, l2mpi, mlp, coh, misp,
            s_l2hit, s_tc, s_itlb, s_dtlb, s_br, s_mo, s_coh,
        ) = np.ascontiguousarray(
            np.array(inputs, dtype=np.float64).transpose(2, 0, 1)
        )
        mig = np.array(mig_rows, dtype=np.float64)

        rfrac = np.array(
            [[0.5 + 0.5 * actives[l][i].phase.load_fraction for i in reps]
             for l in range(L)],
            dtype=np.float64,
        )
        max_cov = packed.bus_prefetch_max_coverage[:, None] * np.array(
            [[actives[l][i].phase.prefetchability for i in reps]
             for l in range(L)],
            dtype=np.float64,
        )

        clock = packed.clock_hz[:, None]
        line = packed.llc_line_bytes[:, None]
        mem_lat_cycles = packed.memory_latency_cycles[:, None]
        llc_lat = packed.llc_latency_cycles[:, None]

        # --- the outer damped fixed point, all rows at once -----------
        # Rows converge at different iterations; each row's state is
        # committed through its mask and frozen thereafter, so its final
        # values come from exactly the iteration the scalar loop would
        # have broken out of.
        cov = np.zeros((L, K))
        frozen_mult = np.ones((L, K))
        frozen_util = np.zeros((L, K))
        residual = np.zeros(L)
        outer = np.ones(L, dtype=bool)

        # The snoop census depends only on demand *signs*, which cannot
        # change across iterations (demand is a sum of non-negative
        # terms times a positive rate) — compute it once and reuse.
        snoop = None
        for _ in range(_FIXED_POINT_ITERS):
            rate = clock / cpi_est
            miss_rate_eff = (l2mpi + coh) + mig[:, None] / rate
            demand = miss_rate_eff * rate * line
            if snoop is None:
                snoop = compute_snoop_lanes(packed, struct.lite, demand)
            mult, new_cov, util = resolve_lite_lanes(
                packed, struct.lite, demand, rfrac, max_cov, cov, outer,
                snoop=snoop,
            )
            cov = np.where(outer[:, None], new_cov, cov)
            mem_lat = mem_lat_cycles * mult
            uncovered = l2mpi * (1.0 - cov)
            covered = l2mpi * cov
            stall_memory = (
                uncovered * mem_lat / mlp
                + covered * llc_lat * _COVERED_EXPOSURE
            )
            stall = s_l2hit + stall_memory
            stall = stall + s_tc
            stall = stall + s_itlb
            stall = stall + s_dtlb
            stall = stall + s_br
            stall = stall + s_mo
            stall = stall + s_coh
            cpi = exec_term + stall
            cpi_bw = cpi_est * util
            target = np.where(util > 1.0, np.maximum(cpi, cpi_bw), cpi)
            new_cpi = _DAMPING * cpi_est + (1 - _DAMPING) * target
            delta = np.max(np.abs(new_cpi - cpi_est) / cpi_est, axis=1)

            frozen_mult = np.where(outer[:, None], mult, frozen_mult)
            frozen_util = np.where(outer[:, None], util, frozen_util)
            cpi_est = np.where(outer[:, None], new_cpi, cpi_est)
            residual = np.where(outer, delta, residual)
            outer = outer & (delta >= 1e-4)
            if not outer.any():
                break

        # --- materialize converged breakdowns per row/class -----------
        cpi_rows = cpi_est.tolist()
        mult_rows = frozen_mult.tolist()
        cov_rows = cov.tolist()
        cpi_eff = np.empty((L, K))
        stall_eff = np.empty((L, K))
        rate_rows: List[List[List[float]]] = []
        for l in range(L):
            res = self.resolvers[l]
            ht = res.config.ht
            rate_row = []
            for k in range(K):
                args = bd_args[l][k]
                bd = res.pipeline.breakdown(
                    actives[l][reps[k]].phase,
                    bus_latency_multiplier=mult_rows[l][k],
                    prefetch_coverage=cov_rows[l][k],
                    ht_enabled=ht,
                    **args,
                )
                ce = max(cpi_rows[l][k], bd.cpi)
                cpi_eff[l, k] = ce
                stall_eff[l, k] = max(ce - bd.cpi_exec * bd.smt_slowdown, 0.0)
                rates = args["rates"]
                values = [getattr(rates, name) for name in _RATE_FIELDS]
                for lvl in rates.extra_levels:
                    values.append(lvl.accesses_per_instr)
                    values.append(lvl.misses_per_instr)
                rate_row.append(values)
            rate_rows.append(rate_row)

        return StepSolution(
            cpi_eff=cpi_eff,
            stall_eff=stall_eff,
            util=frozen_util,
            cov=cov,
            misp=misp,
            coh=coh,
            residual=residual,
            rates=np.array(rate_rows, dtype=np.float64),
        )


# ----------------------------------------------------------------------
# The batched engine: plan, solve, replay
# ----------------------------------------------------------------------


def _lockstep_ok(
    engines: Sequence[Engine], workloads: Sequence[Workload]
) -> bool:
    """Structural gate for the batched single-program driver; anything
    false here means per-machine scalar fallback."""
    if runtime_forces_scalar():
        return False
    e0 = engines[0]
    for e in engines:
        if e.observers:
            return False
        if type(e.resolver) is not FixedPointResolver:
            return False
        if e.config.name != e0.config.name:
            return False
        # Heterogeneous core mixes and NUMA tiers carry per-context
        # clocks/latency scales the packed lane layout does not model;
        # mixed hierarchy depths would need ragged event axes.
        if not e.params.uniform:
            return False
        if len(e.params.extra_levels) != len(e0.params.extra_levels):
            return False
    w0 = workloads[0]
    for w in workloads:
        if len(w.phases) != len(w0.phases):
            return False
        for p, p0 in zip(w.phases, w0.phases):
            if p.parallel != p0.parallel or p.name != p0.name:
                return False
    return True


@dataclass
class _RunPlan:
    """One run key over its lanes, gated and placed (the *plan*)."""

    engines: Sequence[Engine]
    specs: List[ProgramSpec]
    placements: List[Placement]
    #: Per lane: the program's threads in thread order.
    teams: List[List[ThreadPlacement]]
    #: Step structure of each phase (shared by every lane).
    structs: List[_StepStructure]
    #: Per phase: the solution holding this run's rows and the index of
    #: its first row (filled by :func:`_solve`).
    rows: List[Optional[Tuple[StepSolution, int]]]

    @property
    def depth(self) -> int:
        return len(self.engines[0].params.extra_levels)


def _plan(
    engines: Sequence[Engine], workloads: Sequence[Workload]
) -> Optional[_RunPlan]:
    """Gate, place and classify one run key; ``None`` declines it."""
    if not engines or len(engines) != len(workloads):
        raise ValueError("need one workload per engine")
    if not _lockstep_ok(engines, workloads):
        return None

    threads0 = engines[0].omp.resolve_threads(engines[0].config.n_threads)
    specs: List[ProgramSpec] = []
    placements: List[Placement] = []
    teams: List[List[ThreadPlacement]] = []
    for e, w in zip(engines, workloads):
        threads = e.omp.resolve_threads(e.config.n_threads)
        if threads != threads0 or threads > e.topology.n_contexts:
            return None  # mismatched teams / oversubscription
        spec = ProgramSpec(workload=w, n_threads=threads, program_id=0)
        placement = e.scheduler.place([spec], e.topology)
        placement.validate(e.topology)
        specs.append(spec)
        placements.append(placement)
        teams.append(placement.program_threads(0))
    team0 = tuple(t.context.label for t in teams[0])
    for team in teams[1:]:
        if tuple(t.context.label for t in team) != team0:
            return None  # heterogeneous placements

    n_phases = len(workloads[0].phases)
    structs = [
        _classify(
            engines[0].active_contexts(
                [Progress(spec=specs[0], phase_idx=p)], placements[0]
            )
        )
        for p in range(n_phases)
    ]
    return _RunPlan(
        engines=engines,
        specs=specs,
        placements=placements,
        teams=teams,
        structs=structs,
        rows=[None] * n_phases,
    )


def _solve(plans: Sequence[_RunPlan]) -> None:
    """One batched fixed point per distinct step structure.

    A single-program run advances exactly one phase per step, and a
    step's solve reads only the machine, the config, the placement and
    that phase — never an earlier step's state.  Every (lane, run,
    phase) row is therefore independent, and rows sharing a step
    structure (and hierarchy depth, for the rate axis) stack into one
    :meth:`BatchedFixedPointResolver.resolve_classes` call.
    """
    groups: Dict[Tuple[_StepStructure, int], List[Tuple[_RunPlan, int]]] = {}
    for plan in plans:
        for p, struct in enumerate(plan.structs):
            groups.setdefault((struct, plan.depth), []).append((plan, p))
    for (struct, _depth), blocks in groups.items():
        resolvers: List[FixedPointResolver] = []
        actives: List[List[ActiveContext]] = []
        for plan, p in blocks:
            for e, spec, placement in zip(
                plan.engines, plan.specs, plan.placements
            ):
                resolvers.append(e.resolver)
                actives.append(e.active_contexts(
                    [Progress(spec=spec, phase_idx=p)], placement
                ))
        sol = BatchedFixedPointResolver(resolvers).resolve_classes(
            actives, struct
        )
        start = 0
        for plan, p in blocks:
            plan.rows[p] = (sol, start)
            start += len(plan.engines)


def _replay(plan: _RunPlan) -> Optional[List[RunResult]]:
    """Walk a solved run's phases: wall times, PMU counters, results.

    ``None`` when a phase is degenerate (the scalar loop handles it).
    """
    engines = plan.engines
    L = len(engines)
    # The event axis: the legacy 19 slots, plus one (access, miss) pair
    # per declared extra hierarchy level (depth is lane-uniform, gated
    # by _lockstep_ok; two-level machines keep exactly STEP_EVENTS).
    event_list: List = list(STEP_EVENTS)
    for d in range(plan.depth):
        event_list.extend(EXTRA_LEVEL_EVENTS[d])
    E = len(event_list)
    clocks = [e.params.core.clock_hz for e in engines]
    schedules = [e.omp.schedule for e in engines]

    progress = [Progress(spec=s) for s in plan.specs]
    timelines = [Timeline() for _ in range(L)]
    phase_logs: List[List[PhaseRecord]] = [[] for _ in range(L)]
    global_t = [0.0] * L
    #: label -> row in ``totals``, in first-appearance (= scalar
    #: collector insertion) order.
    label_slots: Dict[str, int] = {}
    totals = np.zeros((L, len(plan.teams[0]), E))

    for p in range(len(plan.structs)):
        sol, start = plan.rows[p]
        rows = slice(start, start + L)
        struct = plan.structs[p]
        n_ctx = len(struct.labels)
        cpi_rows = sol.cpi_eff[rows].tolist()
        util_rows = sol.util[rows].tolist()

        # --- wall time / summaries: python floats, scalar op order ----
        instrs: List[float] = []
        fulls: List[float] = []
        dts: List[float] = []
        means: List[float] = []
        peaks: List[float] = []
        for l in range(L):
            prog = progress[l]
            phase = prog.phase
            n_work = prog.spec.n_threads if phase.parallel else 1
            instr_per_thread = phase.instructions / n_work
            instrs.append(instr_per_thread)
            cpis = [cpi_rows[l][struct.class_of[i]] for i in range(n_ctx)]
            times = [instr_per_thread * c / clocks[l] for c in cpis]
            slowest = max(times)
            imb = partition_imbalance(schedules[l], phase.imbalance, n_work)
            slowest *= 1.0 + imb
            team = plan.teams[l][:n_work]
            span_cores = len({t.context.core_key for t in team})
            span_chips = len({t.context.chip for t in team})
            sync_cycles = 0.0
            if phase.parallel and n_work > 1:
                sync_cycles = (
                    phase.iterations
                    * phase.barriers
                    * barrier_cycles(n_work, span_cores, span_chips)
                    + fork_join_cycles(n_work, span_cores, span_chips)
                    * max(phase.iterations // 4, 1)
                )
            full = slowest + sync_cycles / clocks[l]
            if full <= 0.0:
                return None  # degenerate phase; scalar loop handles it
            fulls.append(full)
            # One step per phase: dt = full * frac_remaining with
            # frac_remaining == 1.0, so the step fraction is exactly 1.
            dts.append(full * prog.frac_remaining)
            means.append(sum(cpis) / len(cpis))
            peaks.append(
                max(util_rows[l][struct.class_of[i]] for i in range(n_ctx))
            )

        # --- PMU counters, vectorized over lanes ----------------------
        instr = np.array(instrs)[:, None]
        bpi = np.array(
            [progress[l].phase.branches_per_instr for l in range(L)]
        )[:, None]
        mo = np.array(
            [progress[l].phase.moclears_per_kinstr for l in range(L)]
        )[:, None]

        rates = sol.rates[rows]
        misp = sol.misp[rows]
        cov = sol.cov[rows]
        # Bus transactions carry the *last-level* miss stream; on
        # two-level machines llc_misses_per_instr reads the same field
        # as l2_misses_per_instr, so llcm is l2m's bit-identical twin.
        llcm = instr * rates[:, :, 10]
        ev = np.empty((L, struct.lite.n_classes, E))
        ev[:, :, 0] = instr  # INSTR_RETIRED
        ev[:, :, 1] = instr * sol.cpi_eff[rows]  # CYCLES
        ev[:, :, 2] = instr * sol.stall_eff[rows]  # STALL_CYCLES
        ev[:, :, 3:13] = instr[:, :, None] * rates[:, :, :10]  # TC..DTLB
        ev[:, :, 13] = instr * bpi  # BRANCH_RETIRED
        ev[:, :, 14] = instr * bpi * misp  # BRANCH_MISPRED
        ev[:, :, 15] = llcm * (1.0 - cov)  # BUS_TRANS_DEMAND
        ev[:, :, 16] = llcm * cov * (1.0 + PREFETCH_WASTE)
        ev[:, :, 17] = instr * mo / 1000.0  # MACHINE_CLEAR
        ev[:, :, 18] = instr * sol.coh[rows]  # COHERENCE_TRANSFER
        ev[:, :, 19:] = instr[:, :, None] * rates[:, :, 11:]  # L3/L4
        for i in range(n_ctx):
            slot = label_slots.setdefault(
                struct.labels[i], len(label_slots)
            )
            totals[:, slot, :] += ev[:, struct.class_of[i], :]

        # --- advance every lane across the shared phase boundary ------
        residual = sol.residual[rows].tolist()
        for l in range(L):
            prog = progress[l]
            timelines[l].add(
                TimelineSample(
                    program_id=0,
                    t_start=global_t[l],
                    t_end=global_t[l] + dts[l],
                    phase_name=prog.phase.name,
                    instructions=prog.phase.instructions * 1.0,
                    cpi=means[l],
                    bus_utilization=peaks[l],
                )
            )
            phase_logs[l].append(
                PhaseRecord(
                    program_id=0,
                    phase_name=prog.phase.name,
                    wall_seconds=fulls[l],
                    mean_cpi=means[l],
                    bus_utilization=peaks[l],
                )
            )
            prog.elapsed += dts[l]
            global_t[l] += dts[l]
            prog.advance_phase()
            engines[l].resolver.last_residual = residual[l]

    # --- unpack per-lane results (scalar-identical construction) ------
    results: List[RunResult] = []
    for l in range(L):
        lane_totals = totals[l].tolist()
        collector = Collector()
        for lab, slot in label_slots.items():
            collector._sets[(0, lab)] = CounterSet(
                dict(zip(event_list, lane_totals[slot]))
            )
        merged: Dict = {}
        for e in range(E):
            acc = 0.0
            for slot in label_slots.values():
                acc = acc + lane_totals[slot][e]
            merged[event_list[e]] = acc
        results.append(
            RunResult(
                config=engines[l].config,
                programs=[
                    ProgramResult(
                        spec=plan.specs[l],
                        runtime_seconds=progress[l].elapsed,
                        counters=CounterSet(merged),
                    )
                ],
                collector=collector,
                phase_log=phase_logs[l],
                timeline=timelines[l],
            )
        )
    return results


def run_batched_single(
    engines: Sequence[Engine], workloads: Sequence[Workload]
) -> Optional[List[RunResult]]:
    """Run ``workloads[l]`` on ``engines[l]`` for all lanes at once.

    Every phase of every lane is solved in one fixed point per step
    structure, then replayed phase by phase.  Returns one
    :class:`RunResult` per lane, byte-identical to
    ``engines[l].run_single(workloads[l])`` (each lane's resolver ends
    with the final phase's ``last_residual``), or ``None`` when the
    shape does not admit batching (the caller falls back to scalar
    runs).
    """
    plan = _plan(engines, workloads)
    if plan is None:
        return None
    _solve([plan])
    return _replay(plan)


# ----------------------------------------------------------------------
# BatchPlan: collect a sweep's machines, dedupe, prefetch
# ----------------------------------------------------------------------


@contextmanager
def record_run_keys() -> Iterator[List[Tuple[str, ...]]]:
    """Record every ``Study`` run key requested inside the block (in
    first-request order, deduplicated) — the sweep drivers evaluate one
    recording lane scalar, then prefetch the same keys for every other
    lane through the batched engine."""
    keys: List[Tuple[str, ...]] = []
    seen: Set[Tuple[str, ...]] = set()

    def hook(study, key: Tuple[str, ...]) -> None:
        if key not in seen:
            seen.add(key)
            keys.append(key)

    with runstate.scope(recorder=hook):
        yield keys


def prefetch_study_runs(studies: Sequence, keys: Sequence[Tuple[str, ...]]) -> None:
    """The ``BatchPlan``: run ``keys`` for every lane study through the
    batched engine and preload the results.

    Lanes with identical machine fingerprints are deduplicated (the
    representative's results are preloaded into every twin); keys
    already satisfied by the run cache are skipped, so lane subsets may
    differ per key.  Every remaining key is planned first, then all of
    their phases are solved together (one fixed point per step
    structure across the whole sweep), then each key is replayed and
    preloaded.  Keys or shapes the batched driver declines are left to
    lazy scalar computation and counted as fallbacks.
    """
    from repro.core.runcache import get_cache

    if not studies or not keys:
        return
    if runtime_forces_scalar() or not batching_allowed(len(studies)):
        note_scalar_fallback(len(studies))
        return

    by_fp: Dict[str, List] = {}
    for st in studies:
        by_fp.setdefault(st.fingerprint, []).append(st)
    lanes = [group[0] for group in by_fp.values()]
    if len(studies) > len(lanes):
        note_deduplicated(len(studies) - len(lanes))

    cache = get_cache()
    batched_fps: Set[str] = set()
    fallback_fps: Set[str] = set()
    planned: List[Tuple[Tuple[str, ...], List, _RunPlan]] = []
    for key in keys:
        if key[0] != "single":
            # Multiprogram (pair) runs are scalar-only.
            fallback_fps.update(st.fingerprint for st in lanes)
            continue
        bench, config = key[1], key[2]
        todo = [
            st
            for st in lanes
            if cache.is_miss(cache.get(st.fingerprint, key))
            and key not in st._preloaded
        ]
        if not todo:
            continue
        plan = _plan(
            [st.engine(config) for st in todo],
            [st.workload(bench) for st in todo],
        )
        if plan is None:
            fallback_fps.update(st.fingerprint for st in todo)
            continue
        planned.append((key, todo, plan))

    _solve([plan for _, _, plan in planned])
    # Replay in key order, releasing each plan (engines, placements and
    # its share of the solutions) once its results are preloaded.
    while planned:
        key, todo, plan = planned.pop(0)
        lane_results = _replay(plan)
        if lane_results is None:
            fallback_fps.update(st.fingerprint for st in todo)
            continue
        for st, res in zip(todo, lane_results):
            st.preload(key, res)
            for twin in by_fp[st.fingerprint][1:]:
                twin.preload(key, res)
            batched_fps.add(st.fingerprint)
    note_batched(len(batched_fps))
    note_scalar_fallback(len(fallback_fps - batched_fps))
