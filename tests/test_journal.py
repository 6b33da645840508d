"""Tests for the write-ahead journal: lifecycle, replay, crash tears."""

import json
import re

import pytest

from repro.serve import store as jobstore
from repro.supervise.journal import (
    JOURNAL_NAME,
    JOURNAL_SCHEMA,
    Journal,
    JournalError,
    JournalSchemaError,
    load_journal,
    read_journal,
)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


class TestJournalWriter:
    def test_open_writes_header(self, tmp_path):
        j = Journal.open(tmp_path, selected=["fig2", "fig3"], jobs=2)
        j.close()
        state = load_journal(j.path)
        assert state.header["schema"] == JOURNAL_SCHEMA
        assert state.header["selected"] == ["fig2", "fig3"]
        assert state.header["jobs"] == 2
        assert state.empty

    def test_open_truncates_previous_journal(self, tmp_path):
        j1 = Journal.open(tmp_path)
        j1.task_started("old", wave=0)
        j1.close()
        j2 = Journal.open(tmp_path)
        j2.close()
        assert load_journal(j2.path).in_flight == []

    def test_lifecycle_records_replay(self, tmp_path):
        j = Journal.open(tmp_path, selected=["a", "b", "c", "d"])
        j.task_started("a", wave=0)
        j.task_started("b", wave=0)
        j.task_finished("a", wave=0, meta={"status": "ok", "wave": 0})
        j.task_failed("b", wave=0, failure={"error_type": "ValueError"})
        j.task_skipped("c", blocked_by=["b"])
        j.task_cancelled("d", reason="signal:SIGINT")
        j.wave_committed(0)
        j.close()

        state = load_journal(j.path)
        assert state.finished == {"a": {"status": "ok", "wave": 0}}
        assert state.failed["b"]["error_type"] == "ValueError"
        assert state.skipped == {"c": ["b"]}
        assert state.cancelled == {"d": "signal:SIGINT"}
        assert state.in_flight == []
        assert state.committed_waves == [0]
        assert not state.torn
        assert not state.empty

    def test_in_flight_is_started_minus_terminal(self, tmp_path):
        j = Journal.open(tmp_path)
        j.task_started("a", wave=0)
        j.task_started("b", wave=0)
        j.task_finished("a", wave=0, meta={})
        j.close()
        assert load_journal(j.path).in_flight == ["b"]

    def test_finalize_removes_the_file(self, tmp_path):
        j = Journal.open(tmp_path)
        j.finalize("complete")
        assert not j.path.exists()

    def test_append_after_close_is_noop(self, tmp_path):
        j = Journal.open(tmp_path)
        j.close()
        j.task_started("late", wave=0)  # must not raise or resurrect
        assert load_journal(j.path).in_flight == []

    def test_context_manager_closes(self, tmp_path):
        with Journal.open(tmp_path) as j:
            j.task_started("a", wave=0)
        assert j._fh is None


class TestLoadJournalEdgeCases:
    def test_empty_file(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_text("")
        state = load_journal(path)
        assert state.empty
        assert state.header is None
        assert not state.torn

    def test_torn_final_record_is_tolerated(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_lines(path, [
            json.dumps({"type": "run-started", "schema": JOURNAL_SCHEMA}),
            json.dumps({"type": "task-started", "id": "a", "wave": 0}),
            json.dumps({"type": "task-finished", "id": "a", "wave": 0,
                        "meta": {"status": "ok"}}),
        ])
        # Simulate the write a SIGKILL interrupted: half a JSON record.
        with open(path, "a") as fh:
            fh.write('{"type": "task-fini')
        state = load_journal(path)
        assert state.torn
        assert state.finished == {"a": {"status": "ok"}}

    def test_torn_middle_record_is_refused(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_lines(path, [
            json.dumps({"type": "run-started", "schema": JOURNAL_SCHEMA}),
            "not json at all",
            json.dumps({"type": "task-started", "id": "a", "wave": 0}),
        ])
        with pytest.raises(JournalError, match="line 2"):
            load_journal(path)

    def test_non_object_record_is_refused(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_lines(path, ["[1, 2, 3]", json.dumps({"type": "x"})])
        with pytest.raises(JournalError, match="not a record"):
            load_journal(path)

    def test_newer_schema_is_refused_loudly(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_lines(path, [
            json.dumps({
                "type": "run-started", "schema": JOURNAL_SCHEMA + 1,
            }),
        ])
        with pytest.raises(JournalSchemaError, match="newer"):
            load_journal(path)

    def test_unknown_record_types_are_skipped(self, tmp_path):
        # Additive records from an older-or-equal schema must not break
        # this reader.
        path = tmp_path / JOURNAL_NAME
        write_lines(path, [
            json.dumps({"type": "run-started", "schema": JOURNAL_SCHEMA}),
            json.dumps({"type": "heartbeat", "t": 12.5}),
            json.dumps({"type": "task-finished", "id": "a", "wave": 0,
                        "meta": {"status": "ok"}}),
        ])
        state = load_journal(path)
        assert state.finished == {"a": {"status": "ok"}}

    def test_missing_file_raises_journal_error(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            load_journal(tmp_path / JOURNAL_NAME)

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_lines(path, [
            json.dumps({"type": "run-started", "schema": JOURNAL_SCHEMA}),
            "",
            json.dumps({"type": "run-finished", "status": "complete"}),
        ])
        state = load_journal(path)
        assert state.run_finished == "complete"


# ----------------------------------------------------------------------
# One torn-line and schema rule for both journal kinds

#: kind -> (file name, header, one record of unfinished work, loader,
#: the unfinished work a loaded state reports, what that record adds)
KINDS = {
    "campaign": (
        JOURNAL_NAME,
        {"type": "run-started", "schema": JOURNAL_SCHEMA},
        {"type": "task-started", "id": "a", "wave": 0},
        load_journal,
        lambda state: state.in_flight,
        ["a"],
    ),
    "serve": (
        jobstore.JOBS_JOURNAL_NAME,
        {"event": "server-started", "schema": jobstore.JOBS_JOURNAL_SCHEMA},
        {"event": "submitted", "job": "j000001", "key": "k", "spec": {}},
        jobstore.load_jobs_journal,
        lambda state: [(job.id, job.state) for job in state.resumable],
        [("j000001", jobstore.QUEUED)],
    ),
}


def _line(record):
    return json.dumps(record) + "\n"


#: case -> (journal text from (header, record), expected outcome):
#: an exception type, or (complete records, torn, record survived).
CASES = {
    "empty-file": (lambda h, r: "", (0, False, False)),
    "header-only": (lambda h, r: _line(h), (1, False, False)),
    "torn-final-line": (
        lambda h, r: _line(h) + _line(r) + _line(r)[:9], (2, True, True),
    ),
    "torn-middle-line": (
        lambda h, r: _line(h) + _line(r)[:9] + "\n" + _line(r),
        JournalError,
    ),
    "non-object-record": (lambda h, r: _line(h) + "[1]\n", JournalError),
    "newer-schema": (
        lambda h, r: _line({**h, "schema": h["schema"] + 1}),
        JournalSchemaError,
    ),
    "non-int-schema": (
        lambda h, r: _line({**h, "schema": "2"}), JournalSchemaError,
    ),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("case", list(CASES))
def test_corruption_table(tmp_path, kind, case):
    name, header, record, loader, unfinished, from_record = KINDS[kind]
    build, expected = CASES[case]
    path = tmp_path / name
    path.write_text(build(header, record))
    if isinstance(expected, type):
        with pytest.raises(expected, match=re.escape(str(path))):
            loader(path)
        return
    count, torn, survived = expected
    records, was_torn = read_journal(path, schema=1)
    assert (len(records), was_torn) == (count, torn)
    assert unfinished(loader(path)) == (from_record if survived else [])


def _write_sample(kind, out_dir):
    """A real journal of ``kind`` with a few records after the header."""
    if kind == "campaign":
        journal = Journal.open(out_dir, selected=["a", "b"], jobs=1)
        journal.task_started("a", wave=0)
        journal.task_finished("a", wave=0, meta={"status": "ok"})
        journal.task_skipped("b", blocked_by=["a"])
        journal.close()
        return journal.path
    store = jobstore.JobStore(journal=jobstore.open_jobs_journal(out_dir))
    job = store.new_job("k", {"kind": "run"})
    store.transition(job, jobstore.RUNNING)
    store.transition(job, jobstore.DONE)
    store.shut_down(clean=True, cancelled=0)
    return store.journal.path


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_truncation_reads_exactly_the_complete_lines(tmp_path, kind):
    """A crash can cut the file at any byte: the reader must return the
    lines whose newline landed, and report a tear exactly when the cut
    fell inside a line."""
    data = _write_sample(kind, tmp_path).read_bytes()
    cut_path = tmp_path / "cut.wal.jsonl"
    for offset in range(len(data) + 1):
        prefix = data[:offset]
        cut_path.write_bytes(prefix)
        complete = prefix[:prefix.rfind(b"\n") + 1]
        records, torn = read_journal(cut_path, schema=1)
        assert records == [
            json.loads(line) for line in complete.decode().splitlines()
        ], offset
        assert torn == (prefix != complete), offset
