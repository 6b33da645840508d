"""The ``serve-mix`` workload: an open-loop job mix against ``repro serve``.

One benchmark process generates the load with two threads, each with
at most one open connection: a sender that POSTs each job at its due time,
and a poller that GETs every non-terminal job every
:data:`POLL_INTERVAL_S`.  Latencies count from the due time, so a
stalled sender shows up as latency (and as generator lateness).

* **Phase A** — a ``repro serve --workers 2 --state-dir DIR`` daemon is
  booted, its warm set primed, then :func:`schedule.build_schedule`
  runs open loop at :data:`PHASE_A_RPS` for ``--seconds`` (at least
  :data:`MIN_PHASE_A_SUBMISSIONS` submissions).  The gated metrics
  come from this phase.
* **Phase B** — a fresh daemon, primed the same way, is searched for
  ``max_rps``: a geometric bisection over [:data:`SEARCH_LO`,
  :data:`SEARCH_HI`] in :data:`SEARCH_STEPS` steps of
  :data:`STEP_S` seconds.  A step passes when its submit p99 and the
  sender's lateness at its end are both at most :data:`LIMIT_MS`.

Every job's result is compared with the same job computed in-process
with :class:`repro.core.study.Study`, outside the timed window, and
``/stats`` must close.  The traced run replaces phase B with a second,
traced phase A and reports the per-layer tables the daemon recorded
between the phase's start and end.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import trace_shim
from common import BENCH_DIR, Child, Outcome, percentile
from schedule import PRIME_SET, WARM_SET, Submission, build_schedule, cold_count

PHASE_A_RPS = 150.0
MIN_PHASE_A_SUBMISSIONS = 1000
#: Longer phases would run out of distinct cold jobs (672 in the pool).
MAX_PHASE_A_S = 40.0
SEARCH_LO, SEARCH_HI = 80.0, 640.0
SEARCH_STEPS = 5  # resolution (SEARCH_HI / SEARCH_LO) ** (1 / 2**5): 6.7%
STEP_S = 2.0
LIMIT_MS = 50.0
POLL_INTERVAL_S = 0.005
#: Every job must be terminal this long after the last due time.
DEADLINE_S = 10.0
#: max_rps within this share of the generator's ceiling is flagged.
GENERATOR_MARGIN = 0.8
CEILING_S = 1.0
BOOT_TIMEOUT_S = 60.0
TERMINAL = ("done", "failed", "cancelled")
_BANNER = re.compile(r"serving on http://([0-9.]+):(\d+)")


class Client:
    """HTTP calls to one server, a fresh connection each.

    A reused keep-alive connection stalls ~40 ms per response: the
    stdlib handler writes headers and body as two segments without
    TCP_NODELAY, and the second waits for the client's delayed ACK.
    Per-request connections are also what ``urllib`` clients do.
    Transport errors read as status 0.
    """

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port

    def call(self, method: str, path: str, payload=None) -> Tuple[int, Optional[dict]]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        body = None if payload is None else json.dumps(payload)
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException):
            return 0, None
        finally:
            conn.close()
        return resp.status, json.loads(data) if data else None


def _wait_banner(log: Path, proc: subprocess.Popen, deadline: float) -> Tuple[str, int]:
    while time.monotonic() < deadline:
        match = _BANNER.search(log.read_text(errors="replace")) if log.exists() else None
        if match:
            return match.group(1), int(match.group(2))
        if proc.poll() is not None:
            break
        time.sleep(0.002)
    raise RuntimeError(f"no 'serving on' banner in {log}")


class Daemon:
    """A ``repro serve`` child and how long it took to become ready."""

    def __init__(self, work: Path, name: str, traced: bool = False):
        self.trace = work / f"{name}.trace.json" if traced else None
        self.child = Child(
            ["serve", "--port", "0", "--workers", "2", "--state-dir", str(work / f"{name}-state")],
            report=work / f"{name}.report.json",
            log=work / f"{name}.log",
            trace=self.trace,
        )
        self.snapshots = 0

    def boot(self) -> float:
        """Start the daemon; returns launch → first 200 from /healthz."""
        self.child.start()
        deadline = self.child.launched + BOOT_TIMEOUT_S
        host, port = _wait_banner(self.child.log, self.child.proc, deadline)
        self.client = Client(host, port)
        while time.monotonic() < deadline:
            status, _ = self.client.call("GET", "/healthz")
            if status == 200:
                return time.monotonic() - self.child.launched
            time.sleep(0.002)
        raise RuntimeError("daemon never answered /healthz")

    def cpu_s(self) -> float:
        """User plus system CPU time so far, from /proc/<pid>/stat."""
        with open(f"/proc/{self.child.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def snapshot(self) -> Dict:
        """Ask the traced daemon for its span tables (SIGUSR1)."""
        self.snapshots += 1
        path = Path(f"{self.trace}.{self.snapshots}")
        self.child.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10.0
        while not path.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced daemon wrote no snapshot")
            time.sleep(0.005)
        return json.loads(path.read_text())

    def stop(self):
        self.child.send_signal(signal.SIGTERM)
        return self.child.reap(60.0)


# ----------------------------------------------------------------------
# Reference results
# ----------------------------------------------------------------------


class References:
    """Expected result payloads, computed in-process with ``Study``."""

    def __init__(self) -> None:
        self._studies: Dict[Tuple[str, str], object] = {}
        self._done: Dict[str, dict] = {}

    @staticmethod
    def key(payload: Dict[str, str]) -> str:
        return json.dumps(payload, sort_keys=True)

    def expected(self, payload: Dict[str, str]) -> dict:
        key = self.key(payload)
        if key not in self._done:
            self._done[key] = self._compute(payload)
        return self._done[key]

    def _compute(self, payload: Dict[str, str]) -> dict:
        from repro.core.study import Study
        from repro.machine.registry import resolve_machine
        from repro.npb.suite import resolve_benchmark

        cls = payload["problem_class"]
        study = self._studies.get((payload["machine"], cls))
        if study is None:
            params = resolve_machine(payload["machine"]).to_params()
            study = self._studies[(payload["machine"], cls)] = Study(cls, params=params)
        workload, config = resolve_benchmark(payload["workload"]), payload["config"]
        timed = study.run(workload, config)
        if payload["kind"] == "run":
            return {"kind": "run", "workload": workload, "config": config,
                    "runtime_seconds": timed.runtime_seconds}
        serial = study.run(workload, "serial")
        return {"kind": "speedup", "workload": workload, "config": config,
                "speedup": serial.runtime_seconds / timed.runtime_seconds,
                "serial_runtime_s": serial.runtime_seconds,
                "runtime_s": timed.runtime_seconds}


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------


@dataclass
class Sent:
    """One submission and what the client saw of it."""

    sub: Submission
    due: float
    sent: float = 0.0
    answered: float = 0.0
    status: int = 0
    job: Optional[str] = None
    state: Optional[str] = None
    done: Optional[float] = None
    polls: int = 0

    @property
    def submit_ms(self) -> float:
        return (self.answered - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1e3


def drive(daemon: Daemon, schedule: List[Submission]) -> List[Sent]:
    """Send ``schedule`` open loop and poll every job to a terminal state
    (or until :data:`DEADLINE_S` past the last due time)."""
    t0 = time.monotonic() + 0.02
    records = [Sent(s, t0 + s.offset_s) for s in schedule]
    give_up = records[-1].due + DEADLINE_S
    pending: Dict[str, Sent] = {}
    lock = threading.Lock()
    sending = threading.Event()
    sending.set()

    def poll_loop() -> None:
        tick = time.monotonic()
        while time.monotonic() < give_up:
            with lock:
                batch = list(pending.values())
            if not batch and not sending.is_set():
                return
            for rec in batch:
                status, body = daemon.client.call("GET", f"/jobs/{rec.job}")
                rec.polls += 1
                if status != 200 or body.get("state") in TERMINAL:
                    rec.done = time.monotonic()
                    rec.state = body.get("state") if status == 200 else f"http {status}"
                    with lock:
                        del pending[rec.job]
            tick = max(tick + POLL_INTERVAL_S, time.monotonic())
            time.sleep(max(0.0, tick - time.monotonic()))

    poller = threading.Thread(target=poll_loop, name="perfbench-poller")
    poller.start()
    try:
        for rec in records:
            delay = rec.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            rec.sent = time.monotonic()
            rec.status, body = daemon.client.call("POST", "/jobs", rec.sub.payload)
            rec.answered = time.monotonic()
            if rec.status != 202:
                continue
            rec.job, rec.state = body["id"], body["state"]
            if rec.state in TERMINAL:
                rec.done = rec.answered
            else:
                with lock:
                    pending[rec.job] = rec
    finally:
        sending.clear()
        poller.join()
    return records


def check(daemon: Daemon, records: List[Sent], refs: References, outcome: Outcome, label: str) -> None:
    """Every job accepted, terminal, done, and equal to its reference."""
    outcome.attempted += len(records)
    for rec in records:
        if rec.status != 202:
            outcome.fail(f"{label}: POST /jobs answered {rec.status} for {rec.sub.payload}")
        elif rec.done is None:
            outcome.fail(f"{label}: job {rec.job} not terminal {DEADLINE_S}s after the last due time")
        elif rec.state != "done":
            outcome.fail(f"{label}: job {rec.job} ended {rec.state}")
        else:
            status, body = daemon.client.call("GET", f"/jobs/{rec.job}/result")
            if status != 200:
                outcome.fail(f"{label}: GET result of {rec.job} answered {status}")
            elif body.get("result") != refs.expected(rec.sub.payload):
                outcome.fail(f"{label}: job {rec.job} result {body.get('result')} differs from "
                             f"the in-process reference for {rec.sub.payload}")


def check_stats(daemon: Daemon, outcome: Outcome, label: str) -> None:
    outcome.attempted += 1
    status, stats = daemon.client.call("GET", "/stats")
    if status != 200:
        outcome.fail(f"{label}: GET /stats answered {status}")
        return
    c = stats["counters"]
    if c["submitted"] != c["engine_calls"] + c["dedup_hits"] + c["cache_hits"]:
        outcome.fail(f"{label}: /stats does not close: {c}")


def prime(daemon: Daemon, refs: References, outcome: Outcome) -> None:
    """Put every run of the warm set into the daemon's run cache."""
    records = drive(daemon, [Submission(0.0, "prime", p) for p in PRIME_SET])
    check(daemon, records, refs, outcome, "priming")


def generator_ceiling(work: Path) -> float:
    """Closed-loop request rate against the canned stub server."""
    with open(work / "stub.log", "wb") as log:
        stub = subprocess.Popen([sys.executable, str(BENCH_DIR / "stub_server.py")],
                                stdout=log, stderr=subprocess.STDOUT)
    try:
        host, port = _wait_banner(work / "stub.log", stub, time.monotonic() + BOOT_TIMEOUT_S)
        client = Client(host, port)
        payload = WARM_SET[0]
        sent = 0
        start = time.monotonic()
        while time.monotonic() - start < CEILING_S:
            client.call("POST", "/jobs", payload)
            sent += 1
        elapsed = time.monotonic() - start
    finally:
        stub.terminate()
        stub.wait(30)
    return sent / elapsed


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


@dataclass
class PhaseA:
    records: List[Sent]
    cpu_ms_per_job: float
    table: Optional[Dict] = None

    def submit_ms(self) -> List[float]:
        return [r.submit_ms for r in self.records]

    def job_ms(self) -> List[float]:
        return [(r.done - r.due) * 1e3 for r in self.records if r.done is not None]


def run_phase_a(daemon: Daemon, schedule, refs: References, outcome: Outcome) -> PhaseA:
    prime(daemon, refs, outcome)
    for sub in schedule:
        refs.expected(sub.payload)
    before = daemon.snapshot() if daemon.trace else None
    cpu = daemon.cpu_s()
    records = drive(daemon, schedule)
    cpu = daemon.cpu_s() - cpu
    table = trace_shim.difference(daemon.snapshot(), before) if daemon.trace else None
    check(daemon, records, refs, outcome, "phase A")
    check_stats(daemon, outcome, "phase A")
    completed = sum(1 for r in records if r.done is not None) or 1
    late = [r.late_ms for r in records]
    outcome.notes.append(
        f"phase A: {len(records)} submissions at {PHASE_A_RPS:g}/s, lateness p99 "
        f"{percentile(late, 99):.2f} ms, final {late[-1]:.2f} ms"
    )
    return PhaseA(records, cpu * 1e3 / completed, table)


def search_max_rps(daemon: Daemon, seed: int, refs: References, outcome: Outcome) -> float:
    lo, hi = SEARCH_LO, SEARCH_HI
    cold_used = 0
    for _ in range(SEARCH_STEPS):
        rate = math.sqrt(lo * hi)
        schedule = build_schedule(seed, rate, STEP_S, cold_start=cold_used)
        cold_used += cold_count(schedule)
        for sub in schedule:
            refs.expected(sub.payload)
        records = drive(daemon, schedule)
        check(daemon, records, refs, outcome, f"phase B at {rate:.1f}/s")
        p99 = percentile([r.submit_ms for r in records], 99)
        late = [r.late_ms for r in records]
        ok = p99 <= LIMIT_MS and late[-1] <= LIMIT_MS
        outcome.notes.append(
            f"phase B step {rate:.1f}/s: submit p99 {p99:.2f} ms, lateness p99 "
            f"{percentile(late, 99):.2f} ms, final {late[-1]:.2f} ms -> {'pass' if ok else 'fail'}"
        )
        lo, hi = (rate, hi) if ok else (lo, rate)
    check_stats(daemon, outcome, "phase B")
    return lo


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    outcome = Outcome()
    refs = References()
    for payload in WARM_SET:
        refs.expected(payload)
    phase_a_s = min(MAX_PHASE_A_S, max(MIN_PHASE_A_SUBMISSIONS / PHASE_A_RPS, seconds))
    schedule = build_schedule(seed, PHASE_A_RPS, phase_a_s)

    ceiling = generator_ceiling(work)
    setups: List[float] = []
    daemons: List[Daemon] = []

    def boot(name: str, traced: bool = False) -> Daemon:
        daemon = Daemon(work, name, traced)
        daemons.append(daemon)
        setups.append(daemon.boot())
        return daemon

    def stop(daemon: Daemon, label: str):
        ended = daemon.stop()
        if ended.code != 0:
            outcome.fail(f"{label} daemon exited {ended.code}:\n{daemon.child.log_tail()}")
        return ended

    try:
        stop(boot("boot"), "boot-only")
        daemon = boot("phase-a")
        phase_a = run_phase_a(daemon, schedule, refs, outcome)
        ended_a = stop(daemon, "phase A")
        if trace:
            traced = boot("traced", traced=True)
            traced_a = run_phase_a(traced, schedule, refs, outcome)
            stop(traced, "traced")
        else:
            daemon = boot("phase-b")
            prime(daemon, refs, outcome)
            max_rps = search_max_rps(daemon, seed, refs, outcome)
            stop(daemon, "phase B")
            outcome.notes.append(f"max_rps (not gated) {max_rps:.1f} 1/s")
            if max_rps >= GENERATOR_MARGIN * ceiling:
                outcome.notes.append(
                    f"max_rps {max_rps:.1f}/s is generator-bound: within "
                    f"{1 - GENERATOR_MARGIN:.0%} of the generator ceiling {ceiling:.1f}/s"
                )
    finally:
        for daemon in daemons:
            daemon.child.kill()

    submit_ms, job_ms = phase_a.submit_ms(), phase_a.job_ms()
    first_due = phase_a.records[0].due
    outcome.metrics = {
        "wall_s": (max(r.done or r.answered for r in phase_a.records) - first_due, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (ended_a.peak_rss_mb, "MiB"),
        "cpu_ms_per_job": (phase_a.cpu_ms_per_job, "ms"),
        "job_p50_ms": (percentile(job_ms, 50), "ms"),
    }
    outcome.notes.append(
        f"phase A (not gated): submit_p50_ms {percentile(submit_ms, 50):.4g}, "
        f"submit_p99_ms {percentile(submit_ms, 99):.4g}, job_p99_ms {percentile(job_ms, 99):.4g}"
    )
    outcome.notes.append(f"generator ceiling {ceiling:.1f}/s against the stub server")
    if not trace:
        return outcome

    layers = trace_shim.layer_metrics(traced_a.table)
    records = traced_a.records
    layers["cli.import_s"] = traced.child.read_report()["import_s"]
    layers["gen.late_p99_ms"] = percentile([r.late_ms for r in records], 99)
    layers["gen.polls_per_job"] = sum(r.polls for r in records) / len(records)
    layers["gen.ceiling_rps"] = ceiling
    layers["trace.overhead_frac"] = traced_a.cpu_ms_per_job / phase_a.cpu_ms_per_job - 1.0
    outcome.layers = layers
    return outcome
