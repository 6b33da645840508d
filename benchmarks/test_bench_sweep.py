"""Benchmark: the batched sweeps, scalar vs batched.

Each benchmark's two parameterized cases run the *same* cold-cache
sweep; the only difference is the ``REPRO_BATCH`` mode.  The
sensitivity sweep is a wide batch (12 knobs x 2 scales, two findings);
the class-scaling sweep is a narrow one (three batched classes), where
the step axis, not the machine axis, carries the batch.
``tools/bench_compare.py --speedup`` gates both ratios in CI::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_sweep.py \
        --benchmark-only --benchmark-json=/tmp/bench_sweep.json
    python tools/bench_compare.py --speedup /tmp/bench_sweep.json \
        "test_bench_sensitivity_sweep[scalar]" \
        "test_bench_sensitivity_sweep[batched]" --threshold 6.2
    python tools/bench_compare.py --speedup /tmp/bench_sweep.json \
        "test_bench_class_scaling_sweep[scalar]" \
        "test_bench_class_scaling_sweep[batched]" --threshold 1.5

All cases disable the run cache and the invariant auditor and pin
``jobs=1``: the comparison is single-process engine work, not cache hits
or pool scheduling (the auditor would force the batched path scalar).
"""

import pytest

from repro import verify
from repro.core.context import RunContext
from repro.core.runcache import configure
from repro.experiments import class_scaling, sensitivity_study
from repro.sim import batch

pytestmark = pytest.mark.smoke


@pytest.mark.parametrize("mode", ["scalar", "batched"])
def test_bench_sensitivity_sweep(benchmark, mode):
    batch_mode = {"scalar": "off", "batched": "on"}[mode]

    def sweep():
        configure(reset=True, enabled=False)
        with verify.verification(False), batch.batch_mode(batch_mode):
            return sensitivity_study.run(jobs=1)

    try:
        with RunContext(jobs=1).runtime():
            result = benchmark.pedantic(sweep, rounds=2, iterations=1)
    finally:
        configure(reset=True, enabled=True)
    print()
    print(sensitivity_study.report(result))
    assert len(result.f1.rows) == 24
    assert len(result.f2.rows) == 24


@pytest.mark.parametrize("mode", ["scalar", "batched"])
def test_bench_class_scaling_sweep(benchmark, mode):
    batch_mode = {"scalar": "off", "batched": "on"}[mode]

    def sweep():
        configure(reset=True, enabled=False)
        with verify.verification(False), batch.batch_mode(batch_mode):
            return class_scaling.run(jobs=1)

    try:
        with RunContext(jobs=1).runtime():
            result = benchmark.pedantic(sweep, rounds=2, iterations=1)
    finally:
        configure(reset=True, enabled=True)
    print()
    print(class_scaling.report(result))
    assert result.classes == ["W", "A", "B", "C"]
