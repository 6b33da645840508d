"""Repository benchmark: cold and warm ``run-all`` plus a ``repro serve``
traffic mix, measured from outside the program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload matrix-cold --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25          # every workload
    python3 perfbench/run.py --workload serve-mix --trace 1       # per-layer run
    python3 perfbench/run.py --workload matrix-warm --repeat 5    # steadiness report

Prints a provenance line, each metric by name and unit, then, as the
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Exits 1 when any output check failed, and
2 without a result when the program's sources or ``results/`` are
missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import trace_shim  # noqa: E402
from common import ROOT, RESULTS, SRC, Outcome, quartiles, scrub_own_env, stripped_vars  # noqa: E402

WORKLOADS = ("matrix-cold", "matrix-warm", "serve-mix")
WORK_ROOT = ROOT / ".perfbench-work"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=str(ROOT), capture_output=True, text=True, check=True
    ).stdout.strip()


def provenance() -> Dict:
    """Host, toolchain and source identity for every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            commit = _git("rev-parse", "HEAD")
            dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "git_dirty": dirty,
        "child_env": {"removed": stripped_vars(), "PYTHONPATH": str(SRC.relative_to(ROOT))},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        if workload == "serve-mix":
            import serve_mix

            return serve_mix.run(seed, seconds, trace, work)
        import matrix

        return matrix.run(workload, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _metrics(outcome: Outcome, trace: bool) -> Dict[str, Dict]:
    if trace:
        return {
            name: {"value": outcome.layers.get(name, 0.0), "unit": unit}
            for name, unit, _ in trace_shim.LAYER_METRICS
        }
    return {name: {"value": v, "unit": u} for name, (v, u) in outcome.metrics.items()}


def _print_outcome(workload: str, outcome: Outcome, metrics: Dict[str, Dict]) -> None:
    for note in outcome.notes:
        print(f"[{workload}] {note}")
    for problem in outcome.problems:
        print(f"[{workload}] FAILED: {problem}")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"[{workload}] failed_frac {frac:.6g} ratio ({outcome.failed}/{outcome.attempted})")
    for name, m in metrics.items():
        print(f"[{workload}] {name} {m['value']:.6g} {m['unit']}")


def _steadiness(workload: str, seed: int, seconds: float, trace: bool, repeat: int) -> int:
    values: Dict[str, List[float]] = {}
    failed = 0
    for i in range(repeat):
        outcome = run_workload(workload, seed + i, seconds, trace)
        failed += outcome.failed
        metrics = _metrics(outcome, trace)
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])
        shown = "" if trace else "; " + ", ".join(
            f"{n} {m['value']:.4g}" for n, m in metrics.items()
        )
        print(f"[{workload}] repetition {i + 1}/{repeat} (seed {seed + i}): "
              f"{outcome.failed} failed{shown}", flush=True)
    report = {}
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/median':>10s}  n")
    for name, vals in values.items():
        q1, q2, q3 = quartiles(vals)
        spread = (q3 - q1) / q2 if q2 else 0.0
        report[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread, "n": len(vals)}
        print(f"{name:40s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:10.4f}  {len(vals)}")
    print(json.dumps({"workload": workload, "repeat": repeat, "failed": failed,
                      "steadiness": report}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run the workload N times (seeds SEED..SEED+N-1) and print "
                             "each metric's median, quartiles and IQR spread")
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "repro" / "cli.py", RESULTS / "fig3.txt") if not p.exists()]
    if missing:
        print("perfbench: missing " + ", ".join(str(p) for p in missing), file=sys.stderr)
        return 2
    print("provenance " + json.dumps(provenance(), sort_keys=True), flush=True)
    scrub_own_env()
    trace = bool(args.trace)
    if args.repeat:
        if args.workload == "all":
            parser.error("--repeat takes a single workload")
        return _steadiness(args.workload, args.seed, args.seconds, trace, args.repeat)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: Dict[str, Dict] = {}
    for workload in workloads:
        outcome = run_workload(workload, args.seed, args.seconds, trace)
        own = _metrics(outcome, trace)
        _print_outcome(workload, outcome, own)
        attempted += outcome.attempted
        failed += outcome.failed
        prefix = f"{workload}." if len(workloads) > 1 else ""
        metrics.update({prefix + name: m for name, m in own.items()})
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
