"""``BENCHMARK.json`` agrees with what the benchmark emits.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import trace_shim  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_per_layer_matches_the_shim_catalogue():
    declared = [(m["name"], m["unit"], m["better"]) for m in _bench()["per_layer"]]
    assert declared == list(trace_shim.LAYER_METRICS)
    assert len(declared) <= 128


def test_names_are_unique_and_well_formed():
    bench = _bench()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)


def test_layer_metrics_cover_the_catalogue():
    empty = {"spans": {}, "counters": {}, "samples": {}, "root": [0.0, 0.0]}
    emitted = set(trace_shim.layer_metrics(empty))
    filled_by_workloads = {"cli.import_s", "gen.late_p99_ms", "gen.polls_per_job",
                           "gen.ceiling_rps", "trace.overhead_frac"}
    assert emitted | filled_by_workloads == {n for n, _, _ in trace_shim.LAYER_METRICS}
