"""Pin the on-disk formats of both write-ahead journals.

``tests/goldens/journals/`` holds a campaign journal
(``manifest.wal.jsonl``) and a serve journal (``jobs.wal.jsonl``)
written by :func:`write_campaign_journal` and :func:`write_serve_journal`.
Two checks keep the formats from moving:

* each golden replays to a pinned recovery state, so journals left
  behind by older builds still recover;
* a journal written now by the same scenario matches the golden line
  for line, apart from the writer's ``pid``.

Regenerate the goldens only on a deliberate format change (and bump the
journal schema with it)::

    PYTHONPATH=src python tests/test_journal_format.py tests/goldens/journals
"""

import json
import re
import sys
import threading
import time
import traceback
from pathlib import Path

from repro.serve import store as jobstore
from repro.serve.scheduler import Scheduler
from repro.supervise.journal import JOURNAL_NAME, Journal, load_journal

GOLDEN_DIR = Path(__file__).parent / "goldens" / "journals"

RUN = {"kind": "run", "workload": "cg", "config": "ht_on_4_1",
       "problem_class": "S"}
QUEUED_RUN = {**RUN, "config": "serial"}
FAILING_RUN = {**RUN, "config": "ht_off_2_1"}
WARM_CLASS = "W"

#: A previous server's journal: one job that never finished.
PREVIOUS_SERVE_JOURNAL = "\n".join(json.dumps(record) for record in (
    {"event": "server-started", "schema": 1, "pid": 1},
    {"event": "submitted", "job": "j000001", "key": "k", "source": "executed",
     "spec": {"kind": "run", "machine": "paxville", "problem_class": "W",
              "scheduler": "linux_default", "workload": "CG",
              "config": "serial"}},
    {"event": "state", "job": "j000001", "state": "running",
     "source": "executed"},
)) + "\n"


def write_campaign_journal(out_dir: Path) -> Path:
    """Every campaign record kind, as ``run-all`` writes them."""
    journal = Journal.open(out_dir, selected=["fig2", "fig3", "table2",
                                              "fig4", "fig5"], jobs=2)
    journal.task_started("fig2", wave=0)
    journal.task_started("fig3", wave=0)
    journal.task_finished("fig2", wave=0, meta={
        "status": "ok", "wave": 0, "artifacts": ["fig2.txt", "fig2.json"],
    })
    journal.task_failed("fig3", wave=0, failure={
        "error_type": "ValueError", "message": "boom",
    })
    journal.wave_committed(0)
    journal.task_skipped("table2", blocked_by=["fig3"])
    journal.task_started("fig4", wave=1)
    journal.task_cancelled("fig5", reason="signal:SIGINT")
    journal.close()
    return out_dir / JOURNAL_NAME


class _ScriptedRunner:
    """Warm for class ``W``; blocks until released; fails one config."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def probe(self, spec):
        return {"cached": True} if spec.problem_class == WARM_CLASS else None

    def __call__(self, spec):
        if spec.config == FAILING_RUN["config"]:
            raise RuntimeError("scripted failure")
        self.started.set()
        assert self.release.wait(10.0)
        return {"ok": True}


def _settle(scheduler, job):
    deadline = time.monotonic() + 10.0
    while not scheduler.get(job.id).terminal:
        assert time.monotonic() < deadline, f"job {job.id} never settled"
        time.sleep(0.002)


def write_serve_journal(state_dir: Path) -> Path:
    """Every serve record kind, in a deterministic order: recovery,
    execution, dedup, cancellation, failure, cache hit, shutdown."""
    state_dir.mkdir(parents=True, exist_ok=True)
    path = state_dir / jobstore.JOBS_JOURNAL_NAME
    path.write_text(PREVIOUS_SERVE_JOURNAL)
    previous = jobstore.load_jobs_journal(path)
    runner = _ScriptedRunner()
    scheduler = Scheduler(workers=1, runner=runner, state_dir=state_dir)
    format_exc = traceback.format_exc
    traceback.format_exc = lambda: "Traceback: scripted"
    try:
        scheduler.recover(previous)
        owner = scheduler.submit(dict(RUN))
        assert runner.started.wait(10.0)
        scheduler.cancel(scheduler.submit(dict(RUN)).id)
        scheduler.cancel(scheduler.submit(dict(QUEUED_RUN)).id)
        runner.release.set()
        _settle(scheduler, owner)
        _settle(scheduler, scheduler.submit(dict(FAILING_RUN)))
        scheduler.submit(dict(RUN))
    finally:
        traceback.format_exc = format_exc
        scheduler.shutdown(timeout_s=5.0)
    return path


def _without_pid(text):
    return re.sub(r'"pid": \d+', '"pid": 0', text).splitlines()


def test_campaign_golden_replays_to_pinned_state():
    state = load_journal(GOLDEN_DIR / JOURNAL_NAME)
    assert state.header["schema"] == 1
    assert state.header["selected"] == ["fig2", "fig3", "table2", "fig4",
                                        "fig5"]
    assert state.header["jobs"] == 2
    assert state.finished == {"fig2": {
        "status": "ok", "wave": 0, "artifacts": ["fig2.txt", "fig2.json"],
    }}
    assert state.failed == {"fig3": {"error_type": "ValueError",
                                     "message": "boom"}}
    assert state.skipped == {"table2": ["fig3"]}
    assert state.cancelled == {"fig5": "signal:SIGINT"}
    assert state.in_flight == ["fig4"]
    assert state.committed_waves == [0]
    assert state.run_finished is None
    assert not state.torn


def test_serve_golden_replays_to_pinned_state():
    state = jobstore.load_jobs_journal(GOLDEN_DIR / jobstore.JOBS_JOURNAL_NAME)
    summary = {
        job_id: (job.state, job.source, job.spec["config"], job.reason,
                 (job.error or {}).get("error_type"))
        for job_id, job in state.jobs.items()
    }
    assert summary == {
        "j000001": ("done", "cache", "serial", None, None),
        "j000002": ("done", "executed", "ht_on_4_1", None, None),
        "j000003": ("cancelled", "dedup", "ht_on_4_1", "client-cancel", None),
        "j000004": ("cancelled", "executed", "serial", "client-cancel", None),
        "j000005": ("failed", "executed", "ht_off_2_1", None, "RuntimeError"),
        "j000006": ("done", "cache", "ht_on_4_1", None, None),
    }
    assert state.jobs["j000005"].error["message"] == "scripted failure"
    assert state.clean_shutdown
    assert state.drain_cancelled == 0
    assert state.resumable == []


def test_fresh_campaign_journal_matches_golden(tmp_path):
    fresh = write_campaign_journal(tmp_path)
    golden = GOLDEN_DIR / JOURNAL_NAME
    assert _without_pid(fresh.read_text()) == _without_pid(golden.read_text())


def test_fresh_serve_journal_matches_golden(tmp_path):
    fresh = write_serve_journal(tmp_path)
    golden = GOLDEN_DIR / jobstore.JOBS_JOURNAL_NAME
    assert _without_pid(fresh.read_text()) == _without_pid(golden.read_text())


if __name__ == "__main__":
    target = Path(sys.argv[1])
    write_campaign_journal(target)
    write_serve_journal(target)
    print(f"wrote {target / JOURNAL_NAME} and "
          f"{target / jobstore.JOBS_JOURNAL_NAME}")
