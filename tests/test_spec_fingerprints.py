"""Fingerprint pins for every registered machine and workload.

Run-cache keys and serve job keys embed spec fingerprints, so a refactor
of the spec layer must leave every one of them byte-identical.
``goldens/spec_fingerprints.json`` holds the full SHA-256 of each
registered machine, and of each registered workload at classes S and B;
the short-fingerprint tables in ``machines/README.md`` and
``workloads/README.md`` must agree with it.
"""

import json
import re
from pathlib import Path

import pytest

from repro.machine.registry import list_machines
from repro.workload.registry import list_workloads

_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads(
    (Path(__file__).parent / "goldens" / "spec_fingerprints.json").read_text()
)

#: A README registry row: | `name` | `short-fingerprint` | ...
_ROW = re.compile(r"^\| `([^`]+)` \| `([0-9a-f]{12})` \|", re.MULTILINE)


@pytest.fixture(autouse=True)
def _checked_in_dirs(monkeypatch):
    monkeypatch.delenv("REPRO_MACHINES_DIR", raising=False)
    monkeypatch.delenv("REPRO_WORKLOADS_DIR", raising=False)


def _readme_rows(directory):
    text = (_ROOT / directory / "README.md").read_text(encoding="utf-8")
    return dict(_ROW.findall(text))


def test_machine_fingerprints_pinned():
    got = {name: s.fingerprint for name, s in list_machines().items()}
    assert got == GOLDEN["machines"]


@pytest.mark.parametrize("letter", ["S", "B"])
def test_workload_fingerprints_pinned(letter):
    got = {name: s.fingerprint for name, s in list_workloads(letter).items()}
    assert got == GOLDEN["workloads"][letter]


@pytest.mark.parametrize(
    "directory,pinned",
    [("machines", GOLDEN["machines"]), ("workloads", GOLDEN["workloads"]["B"])],
    ids=["machines", "workloads"],
)
def test_readme_tables_match_goldens(directory, pinned):
    rows = _readme_rows(directory)
    assert rows, f"no registry table found in {directory}/README.md"
    for name, short in rows.items():
        assert pinned[name][:12] == short, name
