"""A warm ``run-all`` simulates nothing, and the context's machine
reaches every experiment.

Every engine run of the tuning, scaling-curves and efficiency drivers
goes through :class:`~repro.core.study.Study` run keys, and validation's
structural replays are cached by content, so a second campaign into the
same output directory is pure cache reads.
"""

from pathlib import Path

import pytest

from repro.core.context import RunContext
from repro.core.runcache import configure
from repro.experiments import scaling_curves, tuning_study, validation
from repro.experiments.pipeline import run_pipeline, write_artifacts
from repro.machine.registry import resolve_machine
from repro.sim.batch import BatchedFixedPointResolver
from repro.sim.engine import Engine
from repro.sim.resolver import FixedPointResolver
from repro.sim.structural import SharingScenario, StructuralCoSimulator
from repro.tuning import tune_loop_schedule, tune_placement

WARM_ONLY = ["tuning", "scaling-curves", "validation", "efficiency", "fig3"]

#: (owner, method) pairs that do simulation work.
SIMULATING = [
    (Engine, "run"),
    (FixedPointResolver, "resolve"),
    (BatchedFixedPointResolver, "resolve_classes"),
    (StructuralCoSimulator, "measure"),
]


@pytest.fixture(autouse=True)
def fresh_global_cache(monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    configure(reset=True)
    yield
    configure(reset=True)


def _run_all(out):
    """``run-all`` of :data:`WARM_ONLY` at class S into ``out``, in a
    fresh cache process as far as the memory tier goes."""
    configure(reset=True)
    ctx = RunContext(problem_class="S", cache_dir=out / ".cache")
    pipeline = run_pipeline(ctx, only=WARM_ONLY)
    write_artifacts(pipeline, out)
    return pipeline


def _spy(monkeypatch):
    calls = {f"{owner.__name__}.{name}": 0 for owner, name in SIMULATING}
    for owner, name in SIMULATING:
        real = getattr(owner, name)
        label = f"{owner.__name__}.{name}"

        def counted(*args, _real=real, _label=label, **kwargs):
            calls[_label] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_warm_run_all_computes_nothing(tmp_path, monkeypatch):
    cold = _run_all(tmp_path)
    assert cold.exit_code == 0
    artifacts = {
        p.name: p.read_bytes()
        for p in tmp_path.iterdir()
        if p.is_file() and p.name != "manifest.json"
    }
    assert len(artifacts) == 2 * len(WARM_ONLY)

    calls = _spy(monkeypatch)
    warm = _run_all(tmp_path)
    assert warm.exit_code == 0
    assert calls == dict.fromkeys(calls, 0)
    for exp, row in warm.manifest["experiments"].items():
        assert row["cache"]["misses"] == 0, exp
    assert warm.manifest["cache"]["totals"]["disk_hits"] > 0
    for name, data in artifacts.items():
        assert (tmp_path / name).read_bytes() == data, name


RESULTS = Path(__file__).resolve().parents[1] / "results"


def test_default_machine_artifacts_unchanged(tmp_path):
    """The routed drivers reproduce the checked-in class-B artifacts
    byte for byte on the default machine."""
    routed = ["scaling-curves", "tuning", "validation", "efficiency"]
    pipeline = run_pipeline(RunContext(), only=routed)
    write_artifacts(pipeline, tmp_path)
    for exp in routed:
        for ext in ("txt", "json"):
            name = f"{exp}.{ext}"
            assert (tmp_path / name).read_bytes() == (
                RESULTS / name
            ).read_bytes(), name


NEXTGEN = "nextgen-shared-l2"


@pytest.fixture(scope="module")
def nextgen_params():
    return resolve_machine(NEXTGEN).to_params()


class TestContextMachine:
    """``--machine`` reaches scaling-curves, tuning and validation."""

    def test_one_thread_speedup_is_one_on_another_machine(self):
        ctx = RunContext(machine=NEXTGEN)
        result = scaling_curves.run(ctx, benchmarks=["CG", "MG"])
        # The curve and its serial baseline run on the same machine; on
        # stock Paxville's curve CG read 0.94 against a nextgen baseline.
        assert f"{result.curves['CG']['ht_off_4_2'][0]:.2f}" == "1.00"
        study = ctx.study()
        for bench in ("CG", "MG"):
            for cfg, counts in result.thread_counts.items():
                assert result.curves[bench][cfg] == [
                    study.serial_runtime(bench)
                    / study.run(bench, cfg, n_threads=t).runtime_seconds
                    for t in counts
                ]

    def test_tuning_uses_the_context_machine(self, nextgen_params):
        ctx = RunContext(machine=NEXTGEN, problem_class="S")
        result = tuning_study.run(
            ctx, benchmarks=["LU"], loop_configs=["ht_off_4_2"],
            pairs=[("CG", "FT")],
        )
        study = ctx.study()
        (loop,) = result.loop_rows
        explicit = tune_loop_schedule(
            study.workload("LU"), "ht_off_4_2", params=nextgen_params
        )
        assert loop.trial_seconds == explicit.trial_seconds
        assert loop.chosen is explicit.chosen
        default = tune_loop_schedule(study.workload("LU"), "ht_off_4_2")
        assert loop.trial_seconds != default.trial_seconds

        (placement,) = result.placement_rows
        explicit = tune_placement(
            study.workload("CG"), study.workload("FT"), "ht_on_8_2",
            params=nextgen_params,
        )
        assert placement.trial_scores == explicit.trial_scores
        assert placement.full_makespans == explicit.full_makespans

    def test_validation_uses_the_context_machine(self, nextgen_params):
        ctx = RunContext(machine=NEXTGEN, problem_class="S")
        result = validation.run(ctx, benchmarks=["CG"], samples=4000)
        sim = StructuralCoSimulator(params=nextgen_params, samples=4000)
        phase = ctx.study().workload("CG").phases[-1]
        solo = sim.measure(SharingScenario(phase=phase, n_threads=4))
        analytic = sim.analytic_for(SharingScenario(phase=phase, n_threads=4))
        row = result.rows[0]
        assert row.scenario == "solo"
        assert row.structural_l1 == solo.l1_miss_rate
        assert row.structural_l2_local == solo.l2_miss_rate
        assert row.analytic_l2_local == analytic.l2_miss_rate
        # Pooling Paxville's L2 leaves a core's miss rates as they were;
        # a machine with other cache geometry moves every row.
        stock, other = (
            validation.run(
                RunContext(machine=machine, problem_class="S"),
                benchmarks=["CG"], samples=4000,
            )
            for machine in (None, "broadwell-shared-l3")
        )
        assert stock.rows == result.rows
        assert all(a != b for a, b in zip(stock.rows, other.rows))


class TestStructuralCache:
    def _scenario(self, **changes):
        from repro.core.study import Study

        phase = Study("S").workload("CG").phases[-1]
        return SharingScenario(**{"phase": phase, "n_threads": 4, **changes})

    def test_replay_cached_by_content(self, monkeypatch):
        sim = StructuralCoSimulator(samples=2000)
        first = sim.cached_measure(self._scenario())
        calls = _spy(monkeypatch)
        again = StructuralCoSimulator(samples=2000).cached_measure(
            self._scenario()
        )
        assert again == first
        assert calls["StructuralCoSimulator.measure"] == 0

    def test_fingerprint_covers_every_input(self, nextgen_params):
        base = StructuralCoSimulator(samples=2000)
        fp = base.scenario_fingerprint(self._scenario())
        variants = [
            base.scenario_fingerprint(self._scenario(n_threads=2)),
            base.scenario_fingerprint(
                self._scenario(co_phase=self._scenario().phase)
            ),
            base.scenario_fingerprint(self._scenario(same_data=False)),
            StructuralCoSimulator(samples=3000).scenario_fingerprint(
                self._scenario()
            ),
            StructuralCoSimulator(samples=2000, seed=1).scenario_fingerprint(
                self._scenario()
            ),
            StructuralCoSimulator(
                samples=2000, warmup_fraction=0.5
            ).scenario_fingerprint(self._scenario()),
            StructuralCoSimulator(
                params=nextgen_params, samples=2000
            ).scenario_fingerprint(self._scenario()),
        ]
        assert fp not in variants
        assert len(set(variants)) == len(variants)
        assert StructuralCoSimulator(
            samples=2000, vectorized=False
        ).scenario_fingerprint(self._scenario()) == fp
