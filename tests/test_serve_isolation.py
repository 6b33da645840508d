"""Concurrent ``repro serve`` jobs do not see each other's run state.

Four experiment jobs — two of them batched sweeps that record run keys
and count batch lanes — run at once on four worker threads alongside
plain run jobs.  Each payload must equal a serial run of the same
experiment, and no job may find (or leave behind) another job's
switches, recorder or supervision frame.
"""

from repro.core import runstate
from repro.core.context import RunContext
from repro.core.runcache import configure
from repro.experiments import registry
from repro.serve import Scheduler
from repro.serve.runner import JobRunner
from repro.serve.store import DONE

EXPERIMENTS = ["class-scaling", "sensitivity", "fig3", "table2"]
RUNS = [
    ("cg", "ht_on_4_1"), ("ep", "serial"), ("ft", "ht_off_4_2"),
    ("cg", "serial"),
]


def test_concurrent_experiment_jobs_match_serial_runs(monkeypatch):
    # The auditor forces every sweep scalar; switch it off so the
    # batched path (run-key recorder, batch counters) is exercised.
    monkeypatch.setenv("REPRO_VERIFY", "0")
    configure(reset=True, enabled=False)
    try:
        serial = {}
        for exp_id in EXPERIMENTS:
            entry = registry.get(exp_id)
            serial[exp_id] = entry.json_payload(
                entry.run(RunContext(problem_class="S"))
            )
    finally:
        configure(reset=True, enabled=True)  # serve jobs start cold

    # What each job finds on its thread, and what each thread is left
    # with once the scheduler stops it.
    at_start, at_exit = [], []
    real_loop = Scheduler._worker_loop

    def worker_loop(self):
        real_loop(self)
        at_exit.append(runstate.current())

    monkeypatch.setattr(Scheduler, "_worker_loop", worker_loop)
    runner = JobRunner()

    def observed(spec):
        at_start.append(runstate.current())
        return runner(spec)

    observed.probe = runner.probe
    scheduler = Scheduler(workers=4, runner=observed)
    try:
        experiments, runs = {}, []
        for exp_id, (workload, config) in zip(EXPERIMENTS, RUNS):
            experiments[exp_id] = scheduler.submit({
                "kind": "experiment", "experiment": exp_id,
                "problem_class": "S",
            })
            runs.append(scheduler.submit({
                "kind": "run", "workload": workload, "config": config,
                "problem_class": "S",
            }))
        scheduler.drain(timeout_s=None)
        for exp_id, job in experiments.items():
            assert job.state == DONE, (exp_id, job.error)
            assert scheduler.result(job.id) == serial[exp_id], exp_id
        assert all(job.state == DONE for job in runs)
    finally:
        scheduler.shutdown()

    idle = runstate.RunState()
    # Run jobs the cache already answers never reach a worker.
    assert len(at_start) == scheduler.engine_calls >= len(EXPERIMENTS)
    for state in at_start:
        assert state.frame.kind == "job"
        assert state.frame.task_id.startswith("job:")
        assert state.recorder is None
        assert state == runstate.RunState(frame=state.frame)
    assert at_exit == [idle] * 4
