"""The ``matrix-cold`` and ``matrix-warm`` workloads.

Each repetition runs ``repro.cli.main(["run-all", "--out", DIR])`` in a
fresh child with the program's defaults (serial, batch ``auto``, auditor
off, journal on) and checks all 34 ``<id>.txt``/``<id>.json`` artifacts
byte for byte against ``results/``.  ``matrix-cold`` starts from an
empty directory; ``matrix-warm`` from an untimed copy of a directory
that one cold run filled (artifacts plus ``.cache``).

The inputs are the fixed paper matrix, so the seed does not change them.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List

import trace_shim
from common import RESULTS, Child, Outcome

EXPERIMENT_IDS = trace_shim.EXPERIMENT_IDS
#: Repetitions per run at least, whatever ``--seconds`` says (medians of
#: fewer would be single samples).
MIN_REPS = 3
REP_TIMEOUT_S = 120.0


def _expected() -> Dict[str, bytes]:
    return {
        f"{exp}.{ext}": (RESULTS / f"{exp}.{ext}").read_bytes()
        for exp in EXPERIMENT_IDS
        for ext in ("txt", "json")
    }


def _check(out: Path, expected: Dict[str, bytes], outcome: Outcome) -> None:
    """Check one run-all directory; each experiment is one attempt."""
    outcome.attempted += len(EXPERIMENT_IDS)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        outcome.fail(f"{out.name}: no manifest.json", len(EXPERIMENT_IDS))
        return
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("batch_mode") != "auto":
        outcome.fail(f"{out.name}: batch_mode is {manifest.get('batch_mode')!r}, not 'auto'")
    bad = set(manifest.get("failures", {}))
    for exp in EXPERIMENT_IDS:
        for ext in ("txt", "json"):
            path = out / f"{exp}.{ext}"
            if not path.exists() or path.read_bytes() != expected[f"{exp}.{ext}"]:
                bad.add(exp)
    for exp in sorted(bad):
        outcome.fail(f"{out.name}: experiment {exp} failed or its artifacts differ from results/")


def _rep(work: Path, out: Path, traced: bool, expected, outcome: Outcome) -> Dict:
    child = Child(
        ["run-all", "--out", str(out)],
        report=work / "report.json",
        log=work / "child.log",
        trace=work / "trace.json" if traced else None,
    ).start()
    ended = child.reap(REP_TIMEOUT_S)
    if ended.code != 0:
        outcome.fail(f"run-all exited {ended.code}:\n{child.log_tail()}")
    _check(out, expected, outcome)
    if ended.code != 0:
        return {}
    report = child.read_report()
    sample = {
        "wall_s": report["wall_s"],
        "setup_s": report["ready_at"] - child.launched,
        "job_s": report["call_start"] + report["wall_s"] - child.launched,
        "import_s": report["import_s"],
        "cpu_s": ended.cpu_s,
        "peak_rss_mb": ended.peak_rss_mb,
    }
    if traced:
        sample["trace"] = json.loads((work / "trace.json").read_text())
    return sample


def run(workload: str, seconds: float, trace: bool, work: Path) -> Outcome:
    outcome = Outcome()
    expected = _expected()
    source = None
    if workload == "matrix-warm":
        source = work / "filled"
        _rep(work, source, False, expected, outcome)
    plain: List[Dict] = []
    traced: List[Dict] = []
    started = time.monotonic()
    rep = 0
    while rep < MIN_REPS or time.monotonic() - started < seconds:
        out = work / f"out-{rep}"
        if source is not None:
            shutil.copytree(source, out)
        is_traced = trace and rep % 2 == 1
        sample = _rep(work, out, is_traced, expected, outcome)
        if sample:
            (traced if is_traced else plain).append(sample)
        shutil.rmtree(out, ignore_errors=True)
        rep += 1
    if not plain or (trace and not traced):
        outcome.fail("no repetition completed")
        return outcome

    def med(key: str, samples: List[Dict] = plain) -> float:
        return statistics.median(s[key] for s in samples)

    outcome.metrics = {
        "wall_s": (med("wall_s"), "s"),
        "setup_s": (med("setup_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MiB"),
        "cpu_ms_per_job": (med("cpu_s") * 1e3, "ms"),
        "job_p50_ms": (med("job_s") * 1e3, "ms"),
    }
    outcome.notes.append(
        f"{len(plain)} untraced repetition(s); wall_s samples "
        + ", ".join(f"{s['wall_s']:.3f}" for s in plain)
    )
    if trace:
        outcome.layers = _layers(plain, traced)
    return outcome


def _layers(plain: List[Dict], traced: List[Dict]) -> Dict[str, float]:
    """Per-layer medians over the traced repetitions."""
    per_rep = [trace_shim.layer_metrics(s["trace"]) for s in traced]
    layers = {name: statistics.median(rep[name] for rep in per_rep) for name in per_rep[0]}
    layers["cli.import_s"] = statistics.median(s["import_s"] for s in plain + traced)
    layers["trace.overhead_frac"] = (
        statistics.median(s["wall_s"] for s in traced)
        / statistics.median(s["wall_s"] for s in plain) - 1.0
    )
    for name in ("gen.late_p99_ms", "gen.polls_per_job", "gen.ceiling_rps"):
        layers[name] = 0.0
    return layers
