"""Guard: no new process-global state in ``src/repro``.

Per-run switches and counters live in the scoped run state
(:mod:`repro.core.runstate`).  This test scans the package for
``global`` statements and ``threading.local()`` calls and fails on any
outside the short allowlist below, each entry with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: (module path under src/repro, global name) -> why it stays process-wide.
ALLOWED = {
    ("core/runcache.py", "_global_cache"):
        "the run cache is shared on purpose: concurrent serve jobs and "
        "the pipeline reuse one memory tier",
    ("machine/registry.py", "_default_params"):
        "memo of the immutable default machine parameters",
    ("supervise/__init__.py", "_signals_armed"):
        "signal handlers are process-wide, so is whether they are armed",
    ("testing/faults.py", "_env_cache"):
        "memo of the parsed REPRO_FAULTS spec",
}


def _is_threading_local(func: ast.expr) -> bool:
    if isinstance(func, ast.Attribute):
        return (func.attr == "local" and isinstance(func.value, ast.Name)
                and func.value.id == "threading")
    return isinstance(func, ast.Name) and func.id == "local"


def findings(source: str, module: str):
    """``(module, name, line)`` for every ``global`` name and
    ``threading.local()`` call in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Global):
            for name in node.names:
                yield module, name, node.lineno
        elif isinstance(node, ast.Call) and _is_threading_local(node.func):
            yield module, "threading.local()", node.lineno


def _package_findings():
    for path in sorted(SRC.rglob("*.py")):
        yield from findings(
            path.read_text(), path.relative_to(SRC).as_posix()
        )


def test_scanner_sees_globals_and_thread_locals():
    source = (
        "import threading\n"
        "from threading import local\n"
        "def f():\n    global a, b\n"
        "x = threading.local()\n"
        "y = local()\n"
    )
    assert list(findings(source, "m.py")) == [
        ("m.py", "a", 4), ("m.py", "b", 4),
        ("m.py", "threading.local()", 5), ("m.py", "threading.local()", 6),
    ]


def test_no_process_globals_outside_allowlist():
    found = list(_package_findings())
    unexpected = [f for f in found if f[:2] not in ALLOWED]
    assert not unexpected, (
        "new process-global state; put it in repro.core.runstate, or "
        f"allowlist it here with a reason: {unexpected}"
    )
    # A stale entry would silently allow the name to come back.
    assert set(ALLOWED) <= {f[:2] for f in found}
