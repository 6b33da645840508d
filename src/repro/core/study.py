"""The :class:`Study` facade: configure once, run and compare anywhere.

A ``Study`` owns a problem class, optional machine-parameter overrides and
a scheduler policy; runs are memoized in the process-wide content-addressed
cache of :mod:`repro.core.runcache`, so *any* two studies configured
identically — even in different experiments, or across processes when the
disk tier is enabled — share results instead of re-simulating.

A study is also the run cache's *workload binder*: disk entries name each
program's workload by its run-key token (:meth:`Study.workload_ref`), and
decoding re-binds the token to the study's memoized workload
(:meth:`Study.bind_workload`) instead of unpickling a copy of the graph.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.speedup import SpeedupTable, speedup_table
from repro.core import runstate
from repro.core.runcache import RunCache, get_cache, study_fingerprint
from repro.machine.configurations import (
    MachineConfig,
    get_config,
    multithreaded_configs,
)
from repro.machine.params import MachineParams
from repro.npb.common import ProblemClass
from repro.npb.suite import (
    PAPER_BENCHMARKS,
    UnknownBenchmarkError,
    build_workload,
    resolve_benchmark,
)
from repro.openmp.env import OMPEnvironment
from repro.osmodel.scheduler import make_scheduler
from repro.sim.engine import Engine
from repro.sim.results import RunResult
from repro.trace.phase import Workload


class Study:
    """A reproducible measurement campaign on the simulated platform.

    Args:
        problem_class: NAS class letter or :class:`ProblemClass`.
        params: machine-parameter overrides (default: Paxville).
        scheduler: placement policy name (default ``"linux_default"``).
        omp: OpenMP runtime environment.
    """

    def __init__(
        self,
        problem_class: Union[str, ProblemClass] = "B",
        params: Optional[MachineParams] = None,
        scheduler: str = "linux_default",
        omp: Optional[OMPEnvironment] = None,
    ):
        self.problem_class = ProblemClass.from_str(problem_class)
        self.params = params
        self.scheduler_name = scheduler
        self.omp = omp
        #: Memoized workload resolutions: input token -> (run-key token,
        #: workload).  Registry workloads are additionally memoized under
        #: their run-key token so batched prefetch lanes, which replay
        #: recorded keys, resolve them without a registry round trip.
        self._workloads: Dict[str, Tuple[str, Workload]] = {}
        #: Memoized trial slices: (token, scale) -> scaled workload.
        self._scaled: Dict[Tuple[str, float], Workload] = {}
        #: id of every memoized workload -> its :meth:`bind_workload`
        #: arguments (the run cache's by-reference encoding).
        self._refs: Dict[int, Tuple] = {}
        self._fingerprint = study_fingerprint(
            self.problem_class, params, scheduler, omp
        )
        #: Results installed by the batched prefetch path; consulted on
        #: cache miss so batching works even with the cache disabled.
        self._preloaded: Dict[Tuple[str, ...], RunResult] = {}

    @property
    def fingerprint(self) -> str:
        """Content hash of everything that determines this study's runs."""
        return self._fingerprint

    @property
    def _cache(self) -> RunCache:
        return get_cache()

    def _cached_run(self, key: Tuple[str, ...], compute) -> RunResult:
        recorder = runstate.current().recorder
        if recorder is not None:
            recorder(self, key)
        value = self.lookup(key)
        if value is None:
            value = compute()
            self._cache.put(self._fingerprint, key, value, binder=self)
        return value

    def lookup(self, key: Tuple[str, ...]) -> Optional[RunResult]:
        """The cached or preloaded result for a run key, or None —
        never simulates."""
        value = self._cache.get(self._fingerprint, key, binder=self)
        if self._cache.is_miss(value):
            return self._preloaded.get(key)
        return value

    def preload(self, key: Tuple[str, ...], result: RunResult) -> None:
        """Install a precomputed run for ``key`` (the batched prefetch
        path); also published to the run cache so other studies with the
        same fingerprint share it."""
        self._preloaded[key] = result
        self._cache.put(self._fingerprint, key, result, binder=self)

    # ------------------------------------------------------------------
    def _workload_entry(
        self, benchmark: Union[str, Workload]
    ) -> Tuple[str, Workload]:
        """Resolve a workload token to its (run-key token, workload).

        NAS names resolve first and keep their historical run-cache keys
        (the upper-cased benchmark name), so every pre-registry cache
        entry stays valid.  Anything else goes through the workload
        registry at this study's problem class; its run-key token is
        ``name@short_fingerprint`` — content-addressed, so editing a
        spec file can never serve a stale cached result.  A
        :class:`Workload` object is adopted (see :meth:`_adopt`).
        """
        if isinstance(benchmark, Workload):
            return self._adopt(benchmark)
        entry = self._workloads.get(benchmark)
        if entry is not None:
            return entry
        try:
            token = resolve_benchmark(benchmark)
            wl = build_workload(token, self.problem_class)
        except UnknownBenchmarkError:
            from repro.workload.registry import resolve_workload

            name, _, expected = benchmark.rpartition("@")
            if not name:
                name, expected = benchmark, ""
            spec = resolve_workload(name, self.problem_class)
            if expected and spec.short_fingerprint != expected:
                raise RuntimeError(
                    f"workload {name!r} changed while its runs were in "
                    f"flight: recorded fingerprint {expected}, registry "
                    f"now has {spec.short_fingerprint}"
                ) from None
            token = f"{spec.name}@{spec.short_fingerprint}"
            wl = spec.build()
        entry = self._workloads.setdefault(token, (token, wl))
        self._workloads[benchmark] = entry
        self._refs[id(entry[1])] = (token,)
        return entry

    def _adopt(self, wl: Workload) -> Tuple[str, Workload]:
        """The entry for a workload object a caller built itself.

        An object equal to what its name resolves to at this study's
        class shares that token (and that entry's cached runs); any
        other object gets the token ``name#<content digest>``, which
        the registry never resolves, so it can only address runs of
        exactly this content.
        """
        try:
            entry: Optional[Tuple[str, Workload]] = self._workload_entry(
                wl.name
            )
        except (LookupError, ValueError, RuntimeError):
            entry = None
        if entry is None or entry[1] != wl:
            digest = hashlib.sha256(repr(wl).encode()).hexdigest()[:12]
            token = f"{wl.name}#{digest}"
            entry = self._workloads.setdefault(token, (token, wl))
            self._refs[id(entry[1])] = (token,)
        return entry

    def workload_ref(self, workload: Workload) -> Optional[Tuple]:
        """How the run cache names ``workload`` on disk: the
        :meth:`bind_workload` arguments of a workload this study
        memoizes, or None (the cache then pickles it by value)."""
        return self._refs.get(id(workload))

    def bind_workload(self, token: str, scale: float = 1.0) -> Workload:
        """The memoized workload for a run-key token, optionally scaled
        to a trial slice (memoized too) — what a decoded cache entry's
        programs are re-bound to."""
        wl = self._workload_entry(token)[1]
        if scale == 1.0:
            return wl
        scaled = self._scaled.get((token, scale))
        if scaled is None:
            # setdefault: of two racing threads' slices, only the stored
            # one may be named in ``_refs`` (the other's id is reused).
            scaled = self._scaled.setdefault((token, scale), wl.scaled(scale))
            self._refs[id(scaled)] = (token, scale)
        return scaled

    def workload(self, benchmark: str) -> Workload:
        """Workload model for a benchmark or registry token (memoized)."""
        return self._workload_entry(benchmark)[1]

    def workload_key(self, benchmark: str) -> str:
        """The run-cache key token a workload token resolves to."""
        return self._workload_entry(benchmark)[0]

    def engine(self, config: Union[str, MachineConfig]) -> Engine:
        """Fresh engine for a configuration."""
        cfg = get_config(config) if isinstance(config, str) else config
        return Engine(
            cfg,
            params=self.params,
            scheduler=make_scheduler(self.scheduler_name),
            omp=self.omp,
        )

    # ------------------------------------------------------------------
    def run_key(
        self,
        benchmark: Union[str, Workload],
        config: str = "serial",
        n_threads: Optional[int] = None,
        scale: float = 1.0,
    ) -> Tuple[str, ...]:
        """The run-cache key :meth:`run` stores this run under.

        Exposed so content-addressed layers above the study — the serve
        scheduler's dedup keys, cache probes answering warm submissions
        without an engine run — address *exactly* the entries
        :meth:`run` writes, spelled however the caller spelled the
        workload (name, path, or fingerprint token).
        """
        token, _ = self._workload_entry(benchmark)
        return ("single", token, config) + _key_fields(
            config, n_threads, scale
        )

    def cached_result(
        self, benchmark: str, config: str = "serial"
    ) -> Optional[RunResult]:
        """The cached result for a run, or None — never simulates."""
        return self.lookup(self.run_key(benchmark, config))

    def run(
        self,
        benchmark: Union[str, Workload],
        config: str = "serial",
        n_threads: Optional[int] = None,
        scale: float = 1.0,
    ) -> RunResult:
        """Run one benchmark under one configuration (cached).

        Args:
            benchmark: NAS name, registry token, or a :class:`Workload`
                object (adopted by content, see :meth:`_adopt`).
            config: Table-1 configuration name.
            n_threads: OpenMP team size (default: the configuration's
                thread count).  More threads than the configuration has
                contexts is the oversubscribed regime.
            scale: fraction of the workload's instruction volume to run
                (the tuners' trial slices).

        Each (``n_threads``, ``scale``) is its own run-cache entry; at
        their defaults the key is the plain ``("single", token,
        config)``, so entries written before these fields existed stay
        valid.
        """
        key = self.run_key(benchmark, config, n_threads, scale)
        return self._cached_run(key, lambda: self.engine(config).run_single(
            self.bind_workload(key[1], scale), n_threads=n_threads
        ))

    def run_pair(
        self,
        bench_a: Union[str, Workload],
        bench_b: Union[str, Workload],
        config: str,
        scale: float = 1.0,
    ) -> RunResult:
        """Run two benchmarks concurrently (threads split evenly), each
        scaled to ``scale`` of its instruction volume."""
        token_a, _ = self._workload_entry(bench_a)
        token_b, _ = self._workload_entry(bench_b)
        key = ("pair", token_a, token_b, config) + _key_fields(
            config, scale=scale
        )
        return self._cached_run(key, lambda: self.engine(config).run_pair(
            self.bind_workload(token_a, scale),
            self.bind_workload(token_b, scale),
        ))

    # ------------------------------------------------------------------
    def serial_runtime(self, benchmark: str) -> float:
        """Serial-baseline wall-clock seconds for a benchmark."""
        return self.run(benchmark, "serial").runtime_seconds

    def speedup(self, benchmark: str, config: str) -> float:
        """Single-program speedup of a configuration over serial."""
        return self.serial_runtime(benchmark) / self.run(
            benchmark, config
        ).runtime_seconds

    def pair_speedups(
        self, bench_a: str, bench_b: str, config: str
    ) -> Tuple[float, float]:
        """Per-program speedups over serial for a concurrent pair."""
        r = self.run_pair(bench_a, bench_b, config)
        return (
            self.serial_runtime(bench_a) / r.program(0).runtime_seconds,
            self.serial_runtime(bench_b) / r.program(1).runtime_seconds,
        )

    def speedup_table(
        self,
        benchmarks: Optional[Sequence[str]] = None,
        configs: Optional[Sequence[str]] = None,
    ) -> SpeedupTable:
        """Speedups of every benchmark under every configuration."""
        benches = list(benchmarks or PAPER_BENCHMARKS)
        cfgs = list(configs or [c.name for c in multithreaded_configs()])
        serial = {b: self.serial_runtime(b) for b in benches}
        runtimes = {
            b: {c: self.run(b, c).runtime_seconds for c in cfgs}
            for b in benches
        }
        return speedup_table(serial, runtimes)

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, str]:
        """Manifest-friendly summary of what determines this study's
        results (the fingerprint hashes the full parameter contents)."""
        return {
            "problem_class": self.problem_class.value,
            "scheduler": self.scheduler_name,
            "params": "default" if self.params is None else "custom",
            "omp": "default" if self.omp is None else "custom",
            "fingerprint": self._fingerprint,
        }

    # ------------------------------------------------------------------
    @staticmethod
    def paper_configs() -> List[str]:
        """The seven multithreaded configurations of Table 1, in order."""
        return [c.name for c in multithreaded_configs()]

    @staticmethod
    def paper_benchmarks() -> List[str]:
        """The six class-B benchmarks of the paper's study."""
        return list(PAPER_BENCHMARKS)


def _key_fields(
    config: str, n_threads: Optional[int] = None, scale: float = 1.0
) -> Tuple[str, ...]:
    """Run-key fields after the configuration, each omitted at its
    default: a thread count equal to the configuration's, and the full
    workload (``scale`` 1)."""
    fields: Tuple[str, ...] = ()
    if n_threads is not None and n_threads != get_config(config).n_threads:
        fields += (f"threads={int(n_threads)}",)
    if scale != 1.0:
        if not scale > 0:
            raise ValueError(f"workload scale must be positive, got {scale}")
        fields += (f"scale={float(scale)!r}",)
    return fields
