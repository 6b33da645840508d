"""Plumbing shared by the workloads: paths, child environment, child
processes reaped with ``os.wait4``, and order statistics."""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = ROOT / "results"
CHILD = BENCH_DIR / "child.py"


def _hygienic(name: str) -> bool:
    return not (name.startswith("REPRO_") or name == "PYTEST_CURRENT_TEST")


def stripped_vars() -> List[str]:
    """Names removed from the children's environment: every ``REPRO_*``
    knob and ``PYTEST_CURRENT_TEST`` (which turns the invariant auditor
    on)."""
    return sorted(k for k in os.environ if not _hygienic(k))


def child_env() -> Dict[str, str]:
    """The environment every program process runs with."""
    env = {k: v for k, v in os.environ.items() if _hygienic(k)}
    env["PYTHONPATH"] = str(SRC)
    return env


def scrub_own_env() -> None:
    """Apply the same hygiene to this process before it imports
    ``repro`` for reference results."""
    for name in stripped_vars():
        del os.environ[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, int(-(-p * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class Exit:
    """How a program process ended."""

    code: int
    peak_rss_mb: float
    cpu_s: float


@dataclass
class Child:
    """One program process started through ``child.py``.

    ``launched`` is the ``time.monotonic()`` stamp taken just before the
    process was created; the child writes its own monotonic stamps into
    ``report``, and CLOCK_MONOTONIC is system-wide, so the two compare.
    """

    argv: List[str]
    report: Path
    log: Path
    trace: Optional[Path] = None
    launched: float = 0.0
    proc: Optional[subprocess.Popen] = field(default=None, repr=False)

    def start(self) -> "Child":
        cmd = [sys.executable, str(CHILD), str(self.report)]
        if self.trace is not None:
            cmd += ["--trace", str(self.trace)]
        cmd += ["--", *self.argv]
        with open(self.log, "wb") as log:
            self.launched = time.monotonic()
            self.proc = subprocess.Popen(
                cmd, cwd=str(ROOT), env=child_env(), stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            )
        return self

    def send_signal(self, signum: int) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.send_signal(signum)

    def reap(self, timeout_s: float) -> Exit:
        """Wait for exit (killing it after ``timeout_s``) via ``wait4``,
        which also yields the process's peak RSS and CPU time."""
        assert self.proc is not None
        deadline = time.monotonic() + timeout_s
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = code
        return Exit(
            code=code,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            cpu_s=usage.ru_utime + usage.ru_stime,
        )

    def kill(self) -> None:
        """Last-resort cleanup for an error path."""
        if self.proc is not None and self.proc.returncode is None:
            self.proc.send_signal(signal.SIGKILL)
            self.reap(10.0)

    def read_report(self) -> Dict[str, float]:
        return json.loads(self.report.read_text())

    def log_tail(self, lines: int = 20) -> str:
        text = self.log.read_text(errors="replace") if self.log.exists() else ""
        return "\n".join(text.splitlines()[-lines:])


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)
