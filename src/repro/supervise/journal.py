"""Crash-safe write-ahead journals: the one writer and the one reader.

Both write-ahead logs go through this module: ``run-all``'s campaign
journal (``manifest.wal.jsonl``, records keyed by ``type``, folded by
:func:`load_journal`) and ``repro serve``'s job journal
(``jobs.wal.jsonl``, keyed by ``event``, folded by
:func:`repro.serve.store.load_jobs_journal`).  :class:`Journal` writes
a header carrying ``schema``, then one fsync'd JSON line per record.
:func:`read_journal` reads either file under one rule:

* a record counts once its newline is on disk.  Bytes after the last
  newline are the write a crash interrupted: dropped, reported ``torn``;
* a complete line that is not a JSON object is corruption no crash
  produces: :class:`JournalError`, never a guess past it;
* the first record is the header; a ``schema`` that is not an int or is
  newer than the reader knows raises :class:`JournalSchemaError`.

The campaign records, appended as the campaign progresses:

* ``run-started`` — header: journal schema, package version, pid, the
  selected experiment ids;
* ``task-started`` / ``task-finished`` / ``task-failed`` /
  ``task-skipped`` / ``task-cancelled`` — one per experiment outcome;
  ``task-finished`` carries the experiment's full manifest row, and is
  appended only *after* its ``<id>.txt`` / ``<id>.json`` artifacts are
  durably on disk, so a finished record always has artifacts to match;
* ``wave-committed`` — a wave's outcomes are all journaled;
* ``run-finished`` — terminal status (after this the manifest exists
  and the journal is deleted).

``load_resume_state`` uses :func:`load_journal` to resume a killed
campaign with no completed manifest at all — finished experiments are
recovered verbatim from their journaled rows + artifacts, in-flight
ones re-run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "JOURNAL_ENV",
    "JOURNAL_NAME",
    "JOURNAL_SCHEMA",
    "Journal",
    "JournalError",
    "JournalSchemaError",
    "JournalState",
    "load_journal",
    "read_journal",
]

#: Journal file name, next to ``manifest.json`` in the output directory.
JOURNAL_NAME = "manifest.wal.jsonl"

#: Set to ``0`` to disable write-ahead journaling in ``run-all`` (the
#: escape hatch for filesystems where per-record fsync is punitive, and
#: for A/B-measuring journal overhead).
JOURNAL_ENV = "REPRO_JOURNAL"

#: Bumped on incompatible record-layout changes.  A journal stamped
#: with a *higher* schema than the running package understands is
#: refused loudly (:class:`JournalSchemaError`) — silently misreading
#: someone else's WAL is how resumes corrupt campaigns.
JOURNAL_SCHEMA = 1


class JournalError(RuntimeError):
    """The journal is unreadable or structurally invalid."""


class JournalSchemaError(JournalError):
    """The journal was written by a newer schema than this package."""


class Journal:
    """Append-only writer; every record is flushed and fsync'd.

    Opening truncates ``path`` (a new run supersedes what an earlier
    crash left; recover from it first) and writes the header: the
    ``header`` fields plus ``schema``.  A lock serialises appends from
    the daemon's threads; appends after :meth:`close` are dropped.
    """

    def __init__(self, path: Path, schema: int, **header: Any):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fh: Optional[Any] = open(self.path, "w", encoding="utf-8")
        self.append({**header, "schema": schema})

    @classmethod
    def open(
        cls,
        out_dir: Path,
        selected: Optional[List[str]] = None,
        jobs: Optional[int] = None,
    ) -> "Journal":
        """Start a fresh campaign journal in ``out_dir``."""
        import repro

        return cls(
            Path(out_dir) / JOURNAL_NAME, JOURNAL_SCHEMA,
            type="run-started",
            package_version=repro.__version__,
            pid=os.getpid(),
            selected=list(selected or []),
            jobs=jobs,
        )

    # ------------------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (no-op after :meth:`close`)."""
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            if self._fh is None:
                return
            self._fh.write(line)
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def task_started(self, exp_id: str, wave: int) -> None:
        self.append({"type": "task-started", "id": exp_id, "wave": wave})

    def task_finished(
        self, exp_id: str, wave: int, meta: Dict[str, Any]
    ) -> None:
        """Record a completed experiment *after* its artifacts landed."""
        self.append({
            "type": "task-finished", "id": exp_id, "wave": wave,
            "meta": meta,
        })

    def task_failed(
        self, exp_id: str, wave: int, failure: Dict[str, Any]
    ) -> None:
        self.append({
            "type": "task-failed", "id": exp_id, "wave": wave,
            "failure": failure,
        })

    def task_skipped(self, exp_id: str, blocked_by: List[str]) -> None:
        self.append({
            "type": "task-skipped", "id": exp_id, "blocked_by": blocked_by,
        })

    def task_cancelled(self, exp_id: str, reason: str) -> None:
        self.append({
            "type": "task-cancelled", "id": exp_id, "reason": reason,
        })

    def wave_committed(self, wave: int) -> None:
        self.append({"type": "wave-committed", "wave": wave})

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def finalize(self, status: str) -> None:
        """Terminal success path: the manifest is durably written, so
        the WAL has nothing left to say — record the outcome, then
        remove the file.  (A crash between the manifest write and the
        unlink leaves both; the loader prefers the manifest.)"""
        self.append({"type": "run-finished", "status": status})
        self.close()
        try:
            self.path.unlink()
        except OSError:  # pragma: no cover - nothing useful to do
            pass

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_journal(
    path: Path, schema: int
) -> Tuple[List[Dict[str, Any]], bool]:
    """A journal's complete records, and whether its tail was torn.

    Applies the module's torn-line and schema rule; ``schema`` is the
    newest header schema the caller understands.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from None
    *lines, tail = text.split("\n")
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            raise JournalError(
                f"journal {path} is corrupt at line {number} "
                f"(a complete line that is not valid JSON)"
            ) from None
        if not isinstance(record, dict):
            raise JournalError(
                f"journal {path} line {number} is not a record object"
            )
        records.append(record)
    if records:
        found = records[0].get("schema")
        if not isinstance(found, int) or found > schema:
            raise JournalSchemaError(
                f"journal {path} has header schema {found!r}; this "
                f"package reads int schemas <= {schema} and refuses a "
                f"newer or unknown one rather than misread it — upgrade "
                f"the package or start afresh"
            )
    return records, bool(tail)


# ----------------------------------------------------------------------
@dataclasses.dataclass
class JournalState:
    """Everything recoverable from a (possibly torn) campaign journal."""

    path: Path
    header: Optional[Dict[str, Any]] = None
    #: experiment id -> journaled manifest row (``task-finished``).
    finished: Dict[str, Dict[str, Any]] = dataclasses.field(
        default_factory=dict
    )
    failed: Dict[str, Dict[str, Any]] = dataclasses.field(
        default_factory=dict
    )
    skipped: Dict[str, List[str]] = dataclasses.field(default_factory=dict)
    cancelled: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: ids with a ``task-started`` but no terminal record: in flight at
    #: the crash — exactly the work a resume must re-run.
    in_flight: List[str] = dataclasses.field(default_factory=list)
    committed_waves: List[int] = dataclasses.field(default_factory=list)
    run_finished: Optional[str] = None
    #: True when the final line was torn (the interrupted write).
    torn: bool = False

    @property
    def empty(self) -> bool:
        """No per-task records survived (e.g. killed right at startup)."""
        return not (
            self.finished or self.failed or self.skipped
            or self.cancelled or self.in_flight
        )


def load_journal(path: Path) -> JournalState:
    """Replay a campaign journal into a :class:`JournalState`."""
    records, torn = read_journal(path, JOURNAL_SCHEMA)
    state = JournalState(path=Path(path), torn=torn)
    started: List[str] = []
    done: set = set()
    for record in records:
        rtype = record.get("type")
        if rtype == "run-started":
            state.header = record
        elif rtype == "task-started":
            started.append(record["id"])
        elif rtype == "task-finished":
            state.finished[record["id"]] = record.get("meta", {})
            done.add(record["id"])
        elif rtype == "task-failed":
            state.failed[record["id"]] = record.get("failure", {})
            done.add(record["id"])
        elif rtype == "task-skipped":
            state.skipped[record["id"]] = list(record.get("blocked_by", []))
            done.add(record["id"])
        elif rtype == "task-cancelled":
            state.cancelled[record["id"]] = record.get("reason", "")
            done.add(record["id"])
        elif rtype == "wave-committed":
            state.committed_waves.append(record["wave"])
        elif rtype == "run-finished":
            state.run_finished = record.get("status")
        # Unknown record types from an *older-or-equal* schema are
        # skipped: additive records must not break old readers.
    state.in_flight = [i for i in started if i not in done]
    return state
