"""Self-tuning loop scheduler (Zhang & Voss, IPDPS'05).

Hyper-Threaded SMPs change the trade-off between static and
self-scheduled loops: static partitions expose intrinsic imbalance and
SMT-induced speed asymmetry, while dynamic/guided pay per-chunk dispatch
overhead.  The empirical answer is workload- and configuration-specific,
so the tuner *measures*: it runs trial iterations of the target workload
under each schedule on the simulated configuration and commits to the
fastest — exactly what the runtime-empirical selector of the paper's
reference does with real trial timesteps.

Trials are ordinary :class:`~repro.core.study.Study` runs (one study per
schedule, a ``scale`` key field per trial slice), so they land in the
run cache and a repeated tuning session simulates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.core.context import RunContext, as_context
from repro.core.study import Study
from repro.machine.params import MachineParams
from repro.openmp.env import OMPEnvironment, ScheduleKind
from repro.trace.phase import Workload

#: Fraction of the workload used for each trial run.
TRIAL_FRACTION = 0.02


@dataclass
class LoopTuneResult:
    """Outcome of a schedule-tuning session."""

    workload: str
    config: str
    chosen: ScheduleKind
    trial_seconds: Dict[ScheduleKind, float] = field(default_factory=dict)

    @property
    def gain_over_static(self) -> float:
        """Fractional runtime saved versus always-static."""
        static = self.trial_seconds[ScheduleKind.STATIC]
        best = self.trial_seconds[self.chosen]
        return 1.0 - best / static


def tune_loop_schedule(
    workload: Workload,
    config_name: str,
    params: Optional[MachineParams] = None,
    trial_fraction: float = TRIAL_FRACTION,
    ctx: Union[RunContext, Study, None] = None,
) -> LoopTuneResult:
    """Trial every schedule kind and commit to the fastest.

    Args:
        workload: the benchmark to tune.
        config_name: machine configuration to tune on.
        params: machine-parameter overrides (default: the context's
            machine).
        trial_fraction: fraction of the full workload each trial runs
            (trials are cheap slices, as in the runtime selector).
        ctx: the campaign whose machine, scheduler and run cache the
            trials use (default: a fresh default context).  Each
            schedule's trial is ``ctx.study(omp=...).run(workload,
            config_name, scale=trial_fraction)``.

    Returns:
        The chosen schedule and the trial timings.
    """
    if not 0 < trial_fraction <= 1:
        raise ValueError("trial_fraction must be in (0, 1]")
    ctx = as_context(ctx)
    machine = {} if params is None else {"params": params}
    timings: Dict[ScheduleKind, float] = {}
    for kind in ScheduleKind:
        study = ctx.study(
            problem_class=workload.problem_class,
            omp=OMPEnvironment(schedule=kind),
            **machine,
        )
        timings[kind] = study.run(
            workload, config_name, scale=trial_fraction
        ).runtime_seconds
    chosen = min(timings, key=timings.get)
    return LoopTuneResult(
        workload=workload.name,
        config=config_name,
        chosen=chosen,
        trial_seconds=timings,
    )
