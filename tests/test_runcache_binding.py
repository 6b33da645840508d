"""Disk-tier round trips of schema-2 run-cache entries.

A schema-2 entry names each program's workload by its run-key token and
the reading :class:`Study` re-binds it to its own memoized workload.
Every run shape a study can cache is written by one study, then read
back from disk by a fresh study of the same fingerprint (a new process,
as far as the cache can tell).
"""

import dataclasses
import hashlib
import pickle

import pytest

from repro.core import runcache
from repro.core.runcache import QUARANTINE_DIR, RunCache, configure
from repro.core.study import Study
from repro.sim.engine import Engine


@pytest.fixture(autouse=True)
def fresh_global_cache(monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    configure(reset=True)
    yield
    configure(reset=True)


def _reopen(tmp_path) -> None:
    """Drop the memory tier: the next read comes from disk."""
    configure(reset=True, disk_dir=tmp_path)


@pytest.fixture
def engine_runs(monkeypatch):
    """Counts :meth:`Engine.run` calls."""
    calls = []
    real = Engine.run

    def counted(self, specs):
        calls.append(specs)
        return real(self, specs)

    monkeypatch.setattr(Engine, "run", counted)
    return calls


# (label, run) pairs; each run takes a study and returns its result.
RUNS = [
    ("single", lambda st: st.run("CG", "ht_off_4_2")),
    ("pair", lambda st: st.run_pair("CG", "FT", "ht_on_8_2")),
    ("same-pair", lambda st: st.run_pair("MG", "MG", "ht_on_8_2")),
    ("oversubscribed", lambda st: st.run("EP", "ht_off_2_1", n_threads=5)),
    ("registry", lambda st: st.run("triad", "ht_on_4_1")),
    ("scaled-trial", lambda st: st.run("LU", "ht_off_4_2", scale=0.02)),
    ("scaled-pair", lambda st: st.run_pair("CG", "SP", "ht_on_8_2",
                                           scale=0.02)),
    ("threads", lambda st: st.run("SP", "ht_on_8_2", n_threads=4)),
]


class TestRoundTrip:
    @pytest.mark.parametrize("label,run", RUNS, ids=[r[0] for r in RUNS])
    def test_decoded_equals_computed(self, tmp_path, engine_runs, label, run):
        configure(disk_dir=tmp_path)
        computed = run(Study("S"))
        simulated = len(engine_runs)
        assert simulated
        _reopen(tmp_path)
        reader = Study("S")
        decoded = run(reader)
        assert len(engine_runs) == simulated, "the disk entry was not served"
        assert runcache.get_cache().stats.disk_hits == 1
        assert decoded == computed
        assert decoded is not computed

    @pytest.mark.parametrize("label,run", RUNS, ids=[r[0] for r in RUNS])
    def test_programs_rebound_to_study_workloads(self, tmp_path, label, run):
        configure(disk_dir=tmp_path)
        run(Study("S"))
        _reopen(tmp_path)
        reader = Study("S")
        decoded = run(reader)
        for prog in decoded.programs:
            wl = prog.spec.workload
            if label == "oversubscribed":
                # The time-shared virtual workload is no study's object:
                # it travels by value.
                assert reader.workload_ref(wl) is None
                continue
            token, *scale = reader.workload_ref(wl)
            assert wl is reader.bind_workload(token, *scale)

    def test_by_reference_entries_are_smaller(self):
        study = Study("S")
        result = study.run("CG", "ht_off_4_2")
        by_value = runcache._encode(result, None)
        by_ref = runcache._encode(result, study)
        assert len(by_ref) < 0.6 * len(by_value)
        assert b"access_mix" in by_value and b"access_mix" not in by_ref

    def test_reference_without_binder_is_quarantined(self, tmp_path):
        """A by-reference entry read without a study cannot name its
        workloads: a miss (quarantined), never a crash."""
        study = Study("S")
        writer = RunCache(disk_dir=tmp_path)
        writer.put(study.fingerprint, ("k",), study.run("EP", "serial"),
                   binder=study)
        reader = RunCache(disk_dir=tmp_path)
        assert reader.is_miss(reader.get(study.fingerprint, ("k",)))
        assert reader.stats.quarantined == 1


class TestRunKeys:
    def test_default_fields_keep_plain_keys(self):
        study = Study("S")
        plain = ("single", "CG", "ht_on_8_2")
        assert study.run_key("CG", "ht_on_8_2") == plain
        assert study.run_key("CG", "ht_on_8_2", n_threads=8) == plain
        assert study.run_key("CG", "ht_on_8_2", scale=1.0) == plain

    def test_fields_spelled_after_config(self):
        study = Study("S")
        assert study.run_key("CG", "ht_on_8_2", n_threads=4) == (
            "single", "CG", "ht_on_8_2", "threads=4"
        )
        assert study.run_key("CG", "ht_on_8_2", 2, 0.5) == (
            "single", "CG", "ht_on_8_2", "threads=2", "scale=0.5"
        )

    def test_default_thread_count_shares_the_plain_entry(self, engine_runs):
        study = Study("S")
        assert study.run("EP", "ht_off_4_2", n_threads=4) is study.run(
            "EP", "ht_off_4_2"
        )
        assert len(engine_runs) == 1

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ValueError):
            Study("S").run_key("CG", "serial", scale=0.0)

    def test_adopted_workload_shares_its_token(self):
        study = Study("S")
        copy = dataclasses.replace(study.workload("CG"))
        assert copy is not study.workload("CG")
        assert study.run_key(copy, "serial") == ("single", "CG", "serial")

    def test_foreign_workload_gets_content_token(self):
        study = Study("S")
        other = Study("B").workload("CG")
        token = study.run_key(other, "serial")[1]
        assert token.startswith("CG#") and token != "CG"
        assert study.run(other, "serial").programs[0].spec.workload is other


def _schema1_put(cache_dir, study_fp, key, value) -> None:
    """Write an entry exactly as the schema-1 encoder did: the whole
    value, workloads included, pickled by value."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = {
        "magic": "repro-runcache",
        "schema": 1,
        "package_version": runcache._package_version(),
        "payload": payload,
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    entry = RunCache()._entry_key(study_fp, key)
    (cache_dir / f"{entry}.pkl").write_bytes(
        pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    )


class TestSchemaOneEntries:
    def test_quarantined_as_stale_and_recomputed(
        self, tmp_path, monkeypatch, engine_runs
    ):
        study = Study("S")
        computed = study.run("CG", "ht_on_4_1")
        key = study.run_key("CG", "ht_on_4_1")
        _schema1_put(tmp_path, study.fingerprint, key, computed)
        reasons = []
        real = RunCache._quarantine

        def noted(self, path, reason):
            reasons.append(reason)
            return real(self, path, reason)

        monkeypatch.setattr(RunCache, "_quarantine", noted)
        _reopen(tmp_path)
        engine_runs.clear()
        recomputed = Study("S").run("CG", "ht_on_4_1")
        assert reasons == ["entry-schema mismatch"]
        assert len(list((tmp_path / QUARANTINE_DIR).glob("*.pkl"))) == 1
        assert len(engine_runs) == 1
        assert recomputed == computed
        # The recomputed run replaced it with a schema-2 entry.
        _reopen(tmp_path)
        assert Study("S").run("CG", "ht_on_4_1") == computed
        assert len(engine_runs) == 1
