"""Per-run switches and accounting stay inside the run that set them.

Two regressions pin the contract: a run-key recorder belongs to the
thread (and block) that opened it, and ``run_pipeline`` hands its
caller back the switches it found.
"""

import threading

from repro import supervise, verify
from repro.core.context import RunContext
from repro.core.runcache import configure
from repro.core.study import Study
from repro.experiments.pipeline import run_pipeline
from repro.sim import batch
from repro.supervise import Budget
from repro.testing import faults
from repro.testing.faults import FaultPlan

KEY_A = ("single", "CG", "serial")
KEY_B = ("single", "EP", "serial")


def test_record_run_keys_is_per_thread_and_block():
    """Two threads nest ``record_run_keys`` and leave out of order:
    each records only its own key, and nothing stays installed."""
    study = Study("S")
    a_in, b_in, a_ran, a_out = (threading.Event() for _ in range(4))
    recorded = {}
    errors = []

    def thread_a():
        try:
            with batch.record_run_keys() as keys:
                recorded["a"] = keys
                a_in.set()
                b_in.wait(10)
                study.run("cg", "serial")
                a_ran.set()
            a_out.set()
        except BaseException as exc:  # surfaced below
            errors.append(exc)
            a_ran.set()
            a_out.set()

    def thread_b():
        try:
            a_in.wait(10)
            with batch.record_run_keys() as keys:
                recorded["b"] = keys
                b_in.set()
                a_ran.wait(10)
                study.run("ep", "serial")
                a_out.wait(10)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=t) for t in (thread_a, thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not errors, errors
    assert recorded["a"] == [KEY_A]
    assert recorded["b"] == [KEY_B]

    # Neither recorder outlives its block: a later run is seen by none.
    study.run("cg", "serial")
    assert recorded["a"] == [KEY_A]
    assert recorded["b"] == [KEY_B]


def test_run_pipeline_leaves_caller_switches_unchanged(monkeypatch):
    # Without the pytest default the caller's auditor is off, so the
    # run's verify=True would show if it leaked.
    monkeypatch.setenv(verify.VERIFY_ENV, "0")

    def switches():
        return (
            verify.enabled(),
            batch.get_mode(),
            supervise.current_budget(),
            supervise.active(),
            faults.active_plan(),
        )

    before = switches()
    ctx = RunContext(
        problem_class="S",
        verify=True,
        batch="off",
        budget=Budget(run_timeout_s=3600).arm(),
        faults=FaultPlan(),
        cache_enabled=False,
    )
    try:
        result = run_pipeline(ctx, only=["sec3-lmbench"])
    finally:
        configure(reset=True, enabled=True)
    assert result.ok
    assert switches() == before
