"""The named machine registry: specs under ``machines/`` plus built-ins.

The registry rules — spec files in ``REPRO_MACHINES_DIR`` (default
``machines/`` at the repository root) joining the code-defined
built-ins, and how a ``--machine`` token resolves — are the ones every
spec kind shares; see :class:`repro.core.specs.SpecRegistry` and
``docs/EXTENDING.md``.  This module adds the machine-specific parts:
the compiled-in Paxville built-in (available even in an installed
package without the repository checkout), and :func:`default_params`,
the single place the rest of the codebase gets "the platform" from.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.specs import SpecRegistry, UnknownSpecError
from repro.machine.params import MachineParams, paxville_params
from repro.machine.spec import MachineSpec

__all__ = [
    "DEFAULT_MACHINE",
    "MACHINES_DIR_ENV",
    "UnknownMachineError",
    "builtin_specs",
    "default_params",
    "list_machines",
    "machines_dir",
    "resolve_machine",
]

MACHINES_DIR_ENV = "REPRO_MACHINES_DIR"
DEFAULT_MACHINE = "paxville"


class UnknownMachineError(UnknownSpecError):
    """An unregistered machine name (the CLI maps this to exit 2)."""

    kind = "machine"


def builtin_specs() -> Dict[str, MachineSpec]:
    """Code-defined specs, available without any spec files on disk."""
    return {
        DEFAULT_MACHINE: MachineSpec.from_params(
            DEFAULT_MACHINE,
            paxville_params(),
            description=(
                "Dual dual-core HT Xeon (Paxville) of the paper's "
                "Dell PowerEdge 2850"
            ),
        ),
    }


_REGISTRY = SpecRegistry(
    MachineSpec,
    UnknownMachineError,
    MACHINES_DIR_ENV,
    # Resolved once: resolving ``__file__`` walks the whole path through
    # realpath, too slow for the per-call signature check.
    Path(__file__).resolve().parents[3] / "machines",
    lambda variant: builtin_specs(),
    lambda data, source, resolve: MachineSpec.from_dict(data, source),
)


def machines_dir() -> Optional[Path]:
    """The spec-file directory, or ``None`` when absent."""
    return _REGISTRY.directory()


def list_machines() -> Dict[str, MachineSpec]:
    """Every registered machine, keyed by spec name."""
    return _REGISTRY.listing()


def resolve_machine(
    token: Union[str, Path, MachineSpec]
) -> MachineSpec:
    """Resolve a ``--machine`` token (spec, path, name or fingerprint)."""
    return _REGISTRY.resolve(token)


_default_params: Optional[MachineParams] = None


def default_params() -> MachineParams:
    """Parameters of the registry's default machine (memoized).

    This is what "no machine specified" means everywhere: the stock
    Paxville platform, loaded through the spec layer so the file under
    ``machines/`` stays the single source of truth (the code built-in
    guarantees the same contents when the checkout is absent).
    """
    global _default_params
    if _default_params is None:
        _default_params = resolve_machine(DEFAULT_MACHINE).to_params()
    return _default_params
