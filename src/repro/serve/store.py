"""Job records, the thread-safe job store, and the serve journal format.

The store is the daemon's source of truth for job *state*; results live
on the executions (and in the content-addressed run cache underneath).
Every state transition can be journaled to ``jobs.wal.jsonl`` in the
server's state directory.  The file is written and read by the shared
write-ahead journal (:mod:`repro.supervise.journal`, the same writer
and torn-line rule as ``run-all``'s campaign journal); this module owns
only the serve records:

* ``server-started`` — header: journal schema and pid;
* ``submitted`` — a new job with its key, spec and source;
* ``state`` — a transition, with any error payload or reason;
* ``recovered`` — how many jobs a boot resubmitted from the last
  server's journal;
* ``shutdown`` — the drain finished (clean or not, how many cancelled).

A SIGKILLed server leaves a journal from which
:func:`load_jobs_journal` reconstructs every job's last known state,
and the scheduler resubmits the non-terminal ones on the next boot.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.supervise.journal import Journal, read_journal

__all__ = [
    "JOBS_JOURNAL_NAME",
    "JOBS_JOURNAL_SCHEMA",
    "Job",
    "JobJournal",
    "JobStore",
    "JobsJournalState",
    "TERMINAL_STATES",
    "load_jobs_journal",
    "open_jobs_journal",
]

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

JOBS_JOURNAL_NAME = "jobs.wal.jsonl"

#: Bumped on incompatible record-layout changes; a journal stamped
#: with a higher schema is refused loudly on recovery.
JOBS_JOURNAL_SCHEMA = 1


@dataclass
class Job:
    """One client submission (several may share one execution)."""

    id: str
    key: str
    spec: Dict[str, Any]
    state: str = QUEUED
    #: How the job was (or will be) satisfied: ``executed`` (it owns
    #: the engine run), ``dedup`` (coalesced onto an in-flight
    #: execution), ``cache`` (answered from the run cache / result memo
    #: without entering the worker pool), ``recovered`` (resubmitted
    #: from a previous server's journal).
    source: str = "executed"
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Failure payload (``error_type``/``message``/``traceback``) —
    #: the same shape as the pipeline's ``ExperimentFailure``.
    error: Optional[Dict[str, Any]] = None
    #: Supervision provenance: why a cancelled job was cancelled.
    reason: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def latency_s(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def describe(self) -> Dict[str, Any]:
        """The wire form returned by ``GET /jobs/<id>``."""
        out: Dict[str, Any] = {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "source": self.source,
            "spec": dict(self.spec),
        }
        if self.latency_s is not None:
            out["latency_s"] = round(self.latency_s, 6)
        if self.error is not None:
            out["error"] = dict(self.error)
        if self.reason is not None:
            out["reason"] = self.reason
        return out


#: The serve journal is the shared write-ahead journal.
JobJournal = Journal


def open_jobs_journal(state_dir: Path) -> Journal:
    """Start a fresh serve journal in ``state_dir`` (truncating the
    previous server's, which must be loaded first)."""
    return Journal(
        Path(state_dir) / JOBS_JOURNAL_NAME, JOBS_JOURNAL_SCHEMA,
        event="server-started", pid=os.getpid(),
    )


@dataclass
class JobsJournalState:
    """What a serve journal says happened, for recovery and tests."""

    #: Last known state per job id.
    jobs: Dict[str, Job]
    #: Was a ``shutdown`` record written (the drain completed)?
    clean_shutdown: bool = False
    #: Jobs force-cancelled by the shutdown drain.
    drain_cancelled: int = 0

    @property
    def resumable(self) -> List[Job]:
        """Jobs that never reached a terminal state (resubmit these),
        oldest first."""
        return [j for j in self.jobs.values() if not j.terminal]


def load_jobs_journal(path: Path) -> Optional[JobsJournalState]:
    """Reconstruct job states from a serve journal (None if absent).

    Raises :class:`~repro.supervise.journal.JournalError` on a corrupt
    journal and its :class:`~repro.supervise.journal.JournalSchemaError`
    subclass on one written by a newer schema.
    """
    path = Path(path)
    if not path.exists():
        return None
    state = JobsJournalState(jobs={})
    for record in read_journal(path, JOBS_JOURNAL_SCHEMA)[0]:
        event = record.get("event")
        if event == "submitted":
            job_id = record["job"]
            state.jobs[job_id] = Job(
                id=job_id, key=record.get("key", ""),
                spec=record.get("spec", {}),
                state=QUEUED, source=record.get("source", "executed"),
            )
        elif event == "state":
            job = state.jobs.get(record.get("job", ""))
            if job is not None:
                job.state = record.get("state", job.state)
                job.source = record.get("source", job.source)
                job.error = record.get("error", job.error)
                job.reason = record.get("reason", job.reason)
        elif event == "shutdown":
            state.clean_shutdown = True
            state.drain_cancelled = record.get("cancelled", 0)
    return state


class JobStore:
    """Thread-safe job registry with optional journaling."""

    def __init__(self, journal: Optional[Journal] = None):
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.journal = journal

    # ------------------------------------------------------------------
    def new_job(
        self, key: str, spec: Dict[str, Any], source: str = "executed"
    ) -> Job:
        with self._lock:
            job_id = f"j{next(self._ids):06d}"
            job = Job(id=job_id, key=key, spec=spec, source=source)
            self._jobs[job_id] = job
        if self.journal is not None:
            self.journal.append({
                "event": "submitted", "job": job.id, "key": key,
                "spec": spec, "source": source,
            })
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def transition(
        self,
        job: Job,
        state: str,
        source: Optional[str] = None,
        error: Optional[Dict[str, Any]] = None,
        reason: Optional[str] = None,
    ) -> None:
        """Move a job to ``state`` (journaled).  Caller must hold the
        scheduler lock for compound transitions; the store itself only
        guarantees each transition is internally consistent."""
        job.state = state
        if source is not None:
            job.source = source
        if error is not None:
            job.error = error
        if reason is not None:
            job.reason = reason
        if state == RUNNING and job.started_at is None:
            job.started_at = time.monotonic()
        if state in TERMINAL_STATES and job.finished_at is None:
            job.finished_at = time.monotonic()
        if self.journal is not None:
            record: Dict[str, Any] = {
                "event": "state", "job": job.id, "state": state,
                "source": job.source,
            }
            if error is not None:
                record["error"] = error
            if reason is not None:
                record["reason"] = reason
            self.journal.append(record)

    def recovered(self, jobs: int) -> None:
        """Journal that this boot resubmitted ``jobs`` recovered jobs."""
        if self.journal is not None:
            self.journal.append({"event": "recovered", "jobs": jobs})

    def shut_down(self, clean: bool, cancelled: int) -> None:
        """Journal the drain's outcome and close the journal."""
        if self.journal is not None:
            self.journal.append({
                "event": "shutdown", "clean": clean, "cancelled": cancelled,
            })
            self.journal.close()

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Jobs per state (one consistent snapshot)."""
        with self._lock:
            out: Dict[str, int] = {
                QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0, CANCELLED: 0,
            }
            for job in self._jobs.values():
                out[job.state] = out.get(job.state, 0) + 1
            out["submitted"] = len(self._jobs)
            return out

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())
