"""The named workload registry: specs under ``workloads/`` plus built-ins.

The registry rules — spec files in ``REPRO_WORKLOADS_DIR`` (default
``workloads/`` at the repository root) joining the code-defined
producers, ``base`` inheritance across files and built-ins, and how a
``--workload`` token resolves — are the ones every spec kind shares; see
:class:`repro.core.specs.SpecRegistry` and ``docs/EXTENDING.md``.

This module adds the workload-specific parts: the producers (the eight
NAS benchmarks plus the :mod:`repro.workload.families` kernels) and
problem-class parameterization.  Built-ins are produced at the requested
class, each class keeping its own cached listing; file specs pin their
own class, except those derived from a built-in via ``base``, which
re-derive at the listing's class.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.core.specs import SpecRegistry, UnknownSpecError
from repro.npb.common import ProblemClass
from repro.trace.phase import Workload
from repro.workload.spec import WorkloadSpec

__all__ = [
    "WORKLOADS_DIR_ENV",
    "UnknownWorkloadError",
    "build_workload",
    "builtin_producers",
    "list_workloads",
    "resolve_workload",
    "workloads_dir",
]

WORKLOADS_DIR_ENV = "REPRO_WORKLOADS_DIR"


class UnknownWorkloadError(UnknownSpecError):
    """An unregistered workload name (the CLI maps this to exit 2)."""

    kind = "workload"


def builtin_producers() -> Dict[str, Callable[[ProblemClass], WorkloadSpec]]:
    """Code-defined producers, available without any spec files on disk."""
    # Imported lazily: the NAS modules themselves use the spec layer, so
    # a module-level import here would be circular.
    from repro.npb import suite
    from repro.workload.families import minigmg, rzbench

    out: Dict[str, Callable[[ProblemClass], WorkloadSpec]] = {
        bench: functools.partial(suite.benchmark_spec, bench)
        for bench in suite.ALL_BENCHMARKS
    }
    out[minigmg.NAME] = minigmg.spec
    out["triad"] = rzbench.triad_spec
    out["strided-load"] = rzbench.strided_load_spec
    return out


def _builtins(problem_class: ProblemClass) -> Dict[str, WorkloadSpec]:
    return {
        name: producer(problem_class)
        for name, producer in builtin_producers().items()
    }


_REGISTRY = SpecRegistry(
    WorkloadSpec,
    UnknownWorkloadError,
    WORKLOADS_DIR_ENV,
    # Resolved once: resolving ``__file__`` is too slow for the per-call
    # signature check.
    Path(__file__).resolve().parents[3] / "workloads",
    _builtins,
    WorkloadSpec.from_dict,
)


def workloads_dir() -> Optional[Path]:
    """The spec-file directory, or ``None`` when absent."""
    return _REGISTRY.directory()


def list_workloads(
    problem_class: Union[ProblemClass, str] = ProblemClass.B,
) -> Dict[str, WorkloadSpec]:
    """Every registered workload at ``problem_class``, keyed by name."""
    return _REGISTRY.listing(ProblemClass.from_str(problem_class))


def resolve_workload(
    token: Union[str, Path, WorkloadSpec],
    problem_class: Union[ProblemClass, str] = ProblemClass.B,
) -> WorkloadSpec:
    """Resolve a ``--workload`` token (spec, path, name or fingerprint)."""
    return _REGISTRY.resolve(token, ProblemClass.from_str(problem_class))


def build_workload(
    token: Union[str, Path, WorkloadSpec],
    problem_class: Union[ProblemClass, str] = ProblemClass.B,
) -> Workload:
    """Build any registered workload (NAS or otherwise) by token."""
    return resolve_workload(token, problem_class).build()
