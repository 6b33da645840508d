"""Tests for the NAS workload models."""

import math

import pytest

from repro.npb import cg, ep, ft, is_, lu, mg, sp, bt
from repro.npb.common import ProblemClass
from repro.npb.suite import (
    ALL_BENCHMARKS,
    PAPER_BENCHMARKS,
    benchmark_info,
    build_workload,
    resolve_benchmark,
)

MODULES = {"CG": cg, "MG": mg, "FT": ft, "EP": ep, "IS": is_, "SP": sp,
           "LU": lu, "BT": bt}


class TestSuiteRegistry:
    def test_all_eight_benchmarks(self):
        assert ALL_BENCHMARKS == ["BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"]

    def test_paper_set(self):
        assert PAPER_BENCHMARKS == ["CG", "MG", "SP", "FT", "LU", "EP"]

    def test_build_case_insensitive(self):
        assert build_workload("cg", "B").name == "CG"

    def test_build_with_class_letter(self):
        w = build_workload("EP", "S")
        assert w.problem_class == "S"

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError, match="available"):
            build_workload("XX", "B")

    def test_unknown_benchmark_suggests_case_insensitively(self):
        with pytest.raises(KeyError, match="did you mean 'CG'"):
            resolve_benchmark("cgg")

    def test_unknown_class(self):
        with pytest.raises(ValueError, match="problem class"):
            build_workload("CG", "Z")

    def test_info(self):
        info = benchmark_info("CG")
        assert info.name == "CG"
        assert info.memory_bound_score > benchmark_info("EP").memory_bound_score


class TestAllBenchmarksBuild:
    @pytest.mark.parametrize("bench", ALL_BENCHMARKS)
    @pytest.mark.parametrize("cls", list(ProblemClass))
    def test_builds_for_every_class(self, bench, cls):
        w = build_workload(bench, cls)
        assert w.total_instructions > 0
        assert 0 < w.parallel_fraction <= 1.0
        for phase in w.phases:
            assert phase.access_mix.footprint_bytes(1) > 0

    @pytest.mark.parametrize("bench", ALL_BENCHMARKS)
    def test_class_b_bigger_than_class_s(self, bench):
        s = build_workload(bench, "S").total_instructions
        b = build_workload(bench, "B").total_instructions
        assert b > 10 * s

    @pytest.mark.parametrize("bench", ALL_BENCHMARKS)
    def test_instructions_monotone_in_class(self, bench):
        sizes = [
            build_workload(bench, c).total_instructions
            for c in ("S", "W", "A", "B", "C")
        ]
        assert sizes == sorted(sizes)


class TestCG:
    def test_dims_class_b(self):
        n, nonzer, niter, shift = cg.dims(ProblemClass.B)
        assert (n, nonzer, niter, shift) == (75000, 13, 75, 60.0)

    def test_nnz_formula(self):
        assert cg.nnz(ProblemClass.B) == pytest.approx(75000 * 14 * 14)

    def test_flop_count_magnitude(self):
        # Class B is ~55 Gop in NPB reports.
        assert cg.total_flops(ProblemClass.B) == pytest.approx(
            55e9, rel=0.15
        )

    def test_memory_bound(self):
        w = cg.build(ProblemClass.B)
        assert w.mem_intensity > 0.35

    def test_serial_setup_phase(self):
        w = cg.build(ProblemClass.B)
        assert not w.phases[0].parallel
        assert w.phases[1].parallel

    def test_gather_history_sensitivity(self):
        w = cg.build(ProblemClass.B)
        assert w.phases[1].branch_history_sensitivity > 0.8


class TestEP:
    def test_tiny_footprint(self):
        w = ep.build(ProblemClass.B)
        assert w.phases[0].access_mix.footprint_bytes(1) < 16 * 1024

    def test_saturating_smt_capacity(self):
        w = ep.build(ProblemClass.B)
        assert w.phases[0].smt_capacity < 1.0

    def test_barely_any_memory(self):
        assert ep.build(ProblemClass.B).mem_intensity < 0.15


class TestMG:
    def test_trace_cache_overflow(self):
        """MG's stencil routines overflow the 12 K-uop trace cache (the
        paper's Figure-2 trace-cache outlier)."""
        w = mg.build(ProblemClass.B)
        assert w.phases[0].code_footprint_uops > 12 * 1024

    def test_grid_footprint_scales_with_class(self):
        b = mg.build(ProblemClass.B).phases[0].access_mix.footprint_bytes(1)
        c = mg.build(ProblemClass.C).phases[0].access_mix.footprint_bytes(1)
        assert c > 6 * b  # 512^3 vs 256^3


class TestSP:
    def test_trip_division(self):
        """SP partitions along the sweep dimension, shortening inner
        loops (the paper's 8-thread branch-prediction outlier)."""
        w = sp.build(ProblemClass.B)
        assert w.phases[0].trip_divides
        assert w.phases[0].inner_trip_count == 102

    def test_highly_prefetchable(self):
        assert sp.build(ProblemClass.B).phases[0].prefetchability > 0.85


class TestLU:
    def test_wavefront_synchronization(self):
        w = lu.build(ProblemClass.B)
        sweeps = [p for p in w.phases if "lts" in p.name or "uts" in p.name]
        assert len(sweeps) == 2
        for sweep in sweeps:
            assert sweep.barriers >= 102  # per-plane flag waits
            assert sweep.imbalance > 0.1


class TestFT:
    def test_compute_bound(self):
        w = ft.build(ProblemClass.B)
        assert w.mem_intensity < 0.45
        assert w.phases[0].ilp > 1.3

    def test_flop_formula_uses_nlogn(self):
        n = 512 * 256 * 256
        per_fft = 5.0 * n * math.log2(n)
        assert ft.total_flops(ProblemClass.B) > per_fft * 20


class TestIS:
    def test_integer_scatter(self):
        w = is_.build(ProblemClass.B)
        assert w.phases[0].moclears_per_kinstr > 0
