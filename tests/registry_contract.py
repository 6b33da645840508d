"""The registry contract every spec kind (machine, workload) must meet.

Machines and workloads share one registry implementation
(:class:`repro.core.specs.SpecRegistry`), so they share its tests: each
kind's suite subclasses :class:`ResolutionContract` and
:class:`DirectoryContract` with ``kind`` set to :data:`MACHINE` or
:data:`WORKLOAD`, and every contract test runs once per kind.
"""

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict

import pytest

from repro.core.specs import SpecError
from repro.machine.params import paxville_params
from repro.machine.registry import (
    MACHINES_DIR_ENV,
    UnknownMachineError,
    list_machines,
    resolve_machine,
)
from repro.machine.spec import MachineSpec
from repro.workload.registry import (
    WORKLOADS_DIR_ENV,
    UnknownWorkloadError,
    list_workloads,
    resolve_workload,
)


def write_workload_spec(path, name, base=None, scale=None, description=""):
    """A minimal one-phase workload spec file (or a ``base`` delta)."""
    tree = {"schema": 1, "name": name, "description": description}
    if base is not None:
        tree["base"] = base
        if scale is not None:
            tree["workload"] = {"scale": scale}
    else:
        tree["workload"] = {
            "problem_class": "B",
            "phases": [{
                "name": "only",
                "openmp": "parallel",
                "instructions": 1e9,
                "mem_ops_per_instr": 0.4,
                "access_mix": [{
                    "kind": "streaming",
                    "weight": 1.0,
                    "footprint_bytes": 2 ** 24,
                }],
                "code_footprint_uops": 5000.0,
                "code_footprint_bytes": 12000.0,
                "branches_per_instr": 0.1,
                "branch_misp_intrinsic": 0.01,
                "branch_sites": 40,
                "ilp": 1.5,
            }],
        }
    path.write_text(json.dumps(tree))
    return path


def _write_machine_spec(path, name):
    return MachineSpec.from_params(name, paxville_params()).save(path)


def _edit_json(path, edit):
    tree = json.loads(path.read_text())
    edit(tree)
    path.write_text(json.dumps(tree))
    # Force a visible mtime change even on coarse filesystems.
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))


@dataclass(frozen=True)
class SpecKind:
    """How the contract drives one kind's registry."""

    name: str
    env_var: str
    unknown: type
    resolve: Callable[[Any], Any]
    listing: Callable[[], Dict[str, Any]]
    #: Write a minimal valid spec file registering ``name``.
    write: Callable[[Path, str], Path]
    #: Change a written spec's contents in place.
    edit: Callable[[Path], None]
    #: A built-in name, and a misspelling whose suggestion is ``builtin``.
    builtin: str
    typo: str


MACHINE = SpecKind(
    name="machine",
    env_var=MACHINES_DIR_ENV,
    unknown=UnknownMachineError,
    resolve=resolve_machine,
    listing=list_machines,
    write=_write_machine_spec,
    edit=lambda path: _edit_json(
        path, lambda t: t["machine"].update(memory_latency_ns=200.0)
    ),
    builtin="paxville",
    typo="paxvile",
)

WORKLOAD = SpecKind(
    name="workload",
    env_var=WORKLOADS_DIR_ENV,
    unknown=UnknownWorkloadError,
    resolve=resolve_workload,
    listing=list_workloads,
    write=write_workload_spec,
    edit=lambda path: _edit_json(
        path,
        lambda t: t["workload"]["phases"][0].update(instructions=2e9),
    ),
    builtin="triad",
    typo="triadd",
)


class ResolutionContract:
    """Token resolution: paths, names, fingerprints, suggestions."""

    kind: SpecKind

    def test_path_tokens_load_files(self, tmp_path):
        path = self.kind.write(tmp_path / "custom.json", "custom")
        assert self.kind.resolve(path).name == "custom"
        spec = self.kind.resolve(str(path))
        assert spec.name == "custom" and spec.source == path

    def test_unknown_name_suggests(self):
        with pytest.raises(self.kind.unknown) as info:
            self.kind.resolve(self.kind.typo)
        message = str(info.value)
        assert message.startswith(f"unknown {self.kind.name} ")
        assert self.kind.typo in message and "valid choices" in message
        assert self.kind.builtin in message
        assert f"did you mean {self.kind.builtin!r}" in message
        assert self.kind.builtin in info.value.valid

    def test_case_folded_names(self):
        spec = self.kind.resolve(self.kind.builtin)
        assert self.kind.resolve(self.kind.builtin.upper()) is spec

    def test_fingerprint_tokens(self):
        spec = self.kind.resolve(self.kind.builtin)
        assert self.kind.resolve(spec.fingerprint) is spec
        assert self.kind.resolve(spec.short_fingerprint) is spec


class DirectoryContract:
    """The spec directory: shadowing, duplicates, edit invalidation."""

    kind: SpecKind

    def test_file_shadows_builtin(self, tmp_path, monkeypatch):
        name = self.kind.builtin
        path = self.kind.write(tmp_path / f"{name}.json", name)
        monkeypatch.setenv(self.kind.env_var, str(tmp_path))
        assert self.kind.resolve(name).source == path
        assert self.kind.listing()[name].source == path

    def test_duplicate_names_across_files_rejected(
        self, tmp_path, monkeypatch
    ):
        self.kind.write(tmp_path / "a.json", "dup")
        self.kind.write(tmp_path / "b.json", "dup")
        monkeypatch.setenv(self.kind.env_var, str(tmp_path))
        with pytest.raises(
            SpecError, match=f"duplicate {self.kind.name} name"
        ):
            self.kind.listing()

    def test_edits_invalidate_the_cache(self, tmp_path, monkeypatch):
        path = self.kind.write(tmp_path / "custom.json", "custom")
        monkeypatch.setenv(self.kind.env_var, str(tmp_path))
        before = self.kind.resolve("custom").fingerprint
        self.kind.edit(path)
        assert self.kind.resolve("custom").fingerprint != before
