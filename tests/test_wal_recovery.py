"""WAL semantics and crash recovery of the tuple store and catalog."""

import os
import shutil

import pytest

from repro import faults, obs
from repro.db.catalog import Database
from repro.errors import SimulatedCrash, StorageError, WalError
from repro.storage import wal as walmod
from repro.storage.pages import PageFile
from repro.storage.tuplestore import TupleStore
from repro.storage.wal import Wal
from repro.temporal.mapping import MovingPoint

SCHEMA = [("name", "string"), ("track", "mpoint")]


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.disarm()
    faults.reset_fired()
    yield
    faults.disarm()
    faults.reset_fired()


def track(a: float) -> MovingPoint:
    return MovingPoint.from_waypoints(
        [(0, (a, a)), (5, (a + 3, a + 4)), (9, (a, a))]
    )


def make_store(wal: Wal, pf=None):
    pf = pf if pf is not None else PageFile(page_size=256)
    store = TupleStore(
        SCHEMA, pf, buffer_capacity=8, inline_threshold=32,
        wal=wal, wal_scope="rel:t",
    )
    return store, pf


def rows_of(store):
    return [(r[0].value, len(r[1].units)) for r in store.scan()]


class TestWalFraming:
    def test_append_buffers_sync_persists(self):
        wal = Wal()
        wal.append(walmod.BEGIN, scope="rel:t")
        wal.append(walmod.TUPLE, b"abc", scope="rel:t")
        assert wal.pending_records == 2
        assert wal.durable_bytes == 0
        assert list(wal.records()) == []
        wal.sync()
        assert wal.pending_records == 0
        recs = list(wal.records())
        assert [r.type_name for r in recs] == ["BEGIN", "TUPLE"]
        assert recs[1].payload == b"abc"
        assert recs[1].scope == "rel:t"

    def test_crash_loses_exactly_the_unsynced_suffix(self):
        wal = Wal()
        wal.append(walmod.BEGIN)
        wal.sync()
        wal.append(walmod.COMMIT)
        wal.crash()
        assert [r.type_name for r in wal.records()] == ["BEGIN"]

    def test_unknown_record_type_rejected(self):
        with pytest.raises(WalError):
            Wal().append(99)

    def test_torn_tail_terminates_replay(self):
        wal = Wal()
        wal.append(walmod.BEGIN)
        wal.sync()
        wal.append(walmod.TUPLE, b"x" * 50)
        wal.append(walmod.COMMIT)
        with faults.injected("wal.torn_tail"):
            with pytest.raises(SimulatedCrash):
                wal.sync()
        # The intact prefix survives; the torn batch is discarded whole
        # (its COMMIT was cut, so nothing of the transaction is visible).
        assert [r.type_name for r in wal.records()] == ["BEGIN"]

    def test_torn_tail_is_counted(self):
        wal = Wal()
        wal.append(walmod.TUPLE, b"y" * 80)
        with faults.injected("wal.torn_tail"):
            with pytest.raises(SimulatedCrash):
                wal.sync()
        obs.reset()
        obs.enable()
        try:
            list(wal.records())
            assert obs.counters.get("wal.truncated_tails") == 1
        finally:
            obs.disable()

    def test_file_backed_reopen_appends_after_valid_prefix(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with Wal(path) as wal:
            wal.append(walmod.BEGIN, scope="rel:t")
            wal.sync()
        # Simulate a torn tail on disk: garbage after the valid prefix.
        with open(path, "ab") as f:
            f.write(b"\x07garbage")
        with Wal(path) as wal:
            assert [r.type_name for r in wal.records()] == ["BEGIN"]
            wal.append(walmod.COMMIT, scope="rel:t")
            wal.sync()
            assert [r.type_name for r in wal.records()] == ["BEGIN", "COMMIT"]


class TestTupleStoreRecovery:
    def test_committed_tuples_survive(self):
        wal = Wal()
        store, pf = make_store(wal)
        store.append(["a", track(0.0)])
        store.append(["b", track(10.0)])
        recovered = TupleStore.recover(
            SCHEMA, pf, wal, wal_scope="rel:t", inline_threshold=32
        )
        assert rows_of(recovered) == rows_of(store)

    def test_recovery_rebuilds_pages_from_redo_images(self):
        # Even a *fresh* page file recovers: every committed FLOB page
        # was logged as a physical image.
        wal = Wal()
        store, _pf = make_store(wal)
        store.append(["a", track(0.0)])
        fresh = PageFile(page_size=256)
        recovered = TupleStore.recover(
            SCHEMA, fresh, wal, wal_scope="rel:t", inline_threshold=32
        )
        assert rows_of(recovered) == rows_of(store)
        fresh.verify_all()

    def test_checkpoint_plus_redo(self):
        wal = Wal()
        store, pf = make_store(wal)
        store.append(["a", track(0.0)])
        store.checkpoint()
        store.append(["b", track(10.0)])
        recovered = TupleStore.recover(
            SCHEMA, pf, wal, wal_scope="rel:t", inline_threshold=32
        )
        assert rows_of(recovered) == [("a", 2), ("b", 2)]

    def test_uncommitted_transaction_invisible(self):
        wal = Wal()
        store, pf = make_store(wal)
        store.append(["a", track(0.0)])
        with faults.injected("wal.sync_crash"):
            with pytest.raises(SimulatedCrash):
                store.append(["doomed", track(20.0)])
        wal.crash()
        recovered = TupleStore.recover(
            SCHEMA, pf, wal, wal_scope="rel:t", inline_threshold=32
        )
        assert rows_of(recovered) == [("a", 2)]

    def test_scopes_do_not_cross_contaminate(self):
        wal = Wal()
        store_a, pf_a = make_store(wal)
        pf_b = PageFile(page_size=256)
        store_b = TupleStore(
            SCHEMA, pf_b, buffer_capacity=8, inline_threshold=32,
            wal=wal, wal_scope="rel:other",
        )
        store_a.append(["a", track(0.0)])
        store_b.append(["b", track(10.0)])
        rec_a = TupleStore.recover(
            SCHEMA, pf_a, wal, wal_scope="rel:t", inline_threshold=32
        )
        rec_b = TupleStore.recover(
            SCHEMA, pf_b, wal, wal_scope="rel:other", inline_threshold=32
        )
        assert rows_of(rec_a) == [("a", 2)]
        assert rows_of(rec_b) == [("b", 2)]

    def test_recovery_counted(self):
        wal = Wal()
        store, pf = make_store(wal)
        store.append(["a", track(0.0)])
        obs.reset()
        obs.enable()
        try:
            TupleStore.recover(
                SCHEMA, pf, wal, wal_scope="rel:t", inline_threshold=32
            )
            assert obs.counters.get("wal.recovered") == 1
        finally:
            obs.disable()

    def test_checkpoint_without_wal_rejected(self):
        store = TupleStore(SCHEMA, PageFile(page_size=256))
        with pytest.raises(StorageError):
            store.checkpoint()


class TestQuarantine:
    def _store_with_bad_tuple(self):
        wal = Wal()
        store, _pf = make_store(wal)
        store.append(["good", track(0.0)])
        store.append(["bad", track(10.0)])
        store.append(["fine", track(20.0)])
        # Rot the middle tuple's directory bytes: cut its FLOB reference
        # short, which the bounds-checked fetch must detect.
        store._tuples[1] = store._tuples[1][:-4]
        return store

    def test_strict_scan_raises(self):
        store = self._store_with_bad_tuple()
        with pytest.raises(StorageError):
            list(store.scan())

    def test_non_strict_scan_quarantines_and_counts(self):
        store = self._store_with_bad_tuple()
        obs.reset()
        obs.enable()
        try:
            rows = [(r[0].value, len(r[1].units))
                    for r in store.scan(strict=False)]
            assert rows == [("good", 2), ("fine", 2)]
            assert obs.counters.get("storage.quarantined") == 1
        finally:
            obs.disable()

    def test_exhausted_transient_retries_quarantine_non_strict(self):
        wal = Wal()
        store, _pf = make_store(wal)
        store.append(["a", track(0.0)])
        store.buffer_pool.flush()
        # Drop the cached frames so the scan performs physical reads;
        # every:1 makes every retry attempt fail, exhausting the budget.
        store.buffer_pool._frames.clear()
        faults.arm("pagefile.read_transient", "every:1")
        obs.reset()
        obs.enable()
        try:
            assert list(store.scan(strict=False)) == []
            assert obs.counters.get("storage.quarantined") == 1
            assert obs.counters.get("buffer.retries") >= 1
        finally:
            obs.disable()
            faults.disarm()
        faults.arm("pagefile.read_transient", "every:1")
        try:
            with pytest.raises(StorageError):
                list(store.scan())
        finally:
            faults.disarm()


class TestDatabaseRecovery:
    def test_catalog_and_data_recovered(self):
        wal = Wal()
        db = Database(wal=wal)
        db.create_relation("ships", SCHEMA, materialized=True,
                           inline_threshold=32)
        db.create_relation("transient", SCHEMA)
        db.relation("ships").insert(["a", track(0.0)])
        db.drop_relation("transient")
        recovered = Database.recover(wal)
        assert recovered.relation_names() == ["ships"]
        rows = recovered.relation("ships").rows()
        assert len(rows) == 1 and rows[0]["name"].value == "a"

    def test_create_crash_is_atomic(self):
        wal = Wal()
        db = Database(wal=wal)
        db.create_relation("kept", SCHEMA, materialized=True,
                           inline_threshold=32)
        with faults.injected("catalog.create_crash"):
            with pytest.raises(SimulatedCrash):
                db.create_relation("doomed", SCHEMA)
        wal.crash()
        recovered = Database.recover(wal)
        assert "doomed" not in recovered
        assert "kept" in recovered

    def test_query_strict_flag_threads_to_scan(self):
        wal = Wal()
        db = Database(wal=wal)
        db.create_relation("ships", SCHEMA, materialized=True,
                           inline_threshold=32)
        rel = db.relation("ships")
        rel.insert(["good", track(0.0)])
        rel.insert(["bad", track(10.0)])
        rel.store._tuples[1] = rel.store._tuples[1][:-4]
        with pytest.raises(StorageError):
            db.query("SELECT name FROM ships")
        rows = db.query("SELECT name FROM ships", strict=False)
        assert [r["name"].value for r in rows] == ["good"]


PARENT_WAL = os.path.join(os.path.dirname(__file__), "data", "wal_colstore_parent")


def parent_track(i: int) -> MovingPoint:
    return MovingPoint.from_waypoints(
        [(0.0, (float(i), 0.0)), (10.0, (float(i), 5.0)), (20.0, (i + 1.0, 5.0))]
    )


def test_replay_crosses_a_colstore_record(tmp_path, monkeypatch):
    """``data/wal_colstore_parent/wal.log`` was written by a version that
    still checkpointed relation columns: relation ``ships`` created,
    ``s0``–``s3`` inserted, a column checkpoint to the relative root
    ``cols`` logged as a COLSTORE record, then ``s4``–``s6`` inserted.
    Replay skips the record, keeps every tuple committed after it and
    writes no column store."""
    shutil.copytree(PARENT_WAL, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    obs.enable()
    obs.reset()
    try:
        with Wal("wal.log") as wal:
            assert walmod.COLSTORE in {r.rec_type for r in wal.records()}
            rows = Database.recover(wal).relation("ships").rows()
        assert obs.snapshot()["counters"].get("wal.truncated_tails", 0) == 0
    finally:
        obs.reset()
        obs.disable()
    assert [r["name"].value for r in rows] == [f"s{i}" for i in range(7)]
    assert [r["track"] for r in rows] == [parent_track(i) for i in range(7)]
    assert not os.path.exists("cols")
