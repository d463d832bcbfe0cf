"""The fault-matrix acceptance property and degradation regressions."""

import pytest

from repro import faultmatrix, faults, obs
from repro.errors import InvalidValue, ReproError, StorageError
from repro.faultmatrix import SCENARIOS, Scenario, format_matrix, run_matrix
from repro.spatial.bbox import Rect
from repro.storage.buffer import BufferPool
from repro.storage.pages import PageFile
from repro.temporal.mapping import MovingPoint


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.disarm()
    faults.reset_fired()
    yield
    faults.disarm()
    faults.reset_fired()


class TestCrashMatrix:
    @pytest.mark.parametrize("row", SCENARIOS, ids=lambda row: row.label)
    def test_scenario_survives(self, row):
        # One id per table row, quick scale; each row is looked up in the
        # view that has it (the failpoint-less overload row is live-only).
        entries = run_matrix(
            seed=2000, only=row.label, live_only=row.failpoint is None
        )
        assert [e.label for e in entries] == [row.label]
        assert entries[0].fired and entries[0].ok, format_matrix(entries)

    def test_matrix_covers_the_whole_registry(self):
        # One row per failpoint, no failpoint twice; the only row without
        # one is the overload row.
        covered = [row.failpoint for row in SCENARIOS if row.failpoint]
        assert sorted(covered) == sorted(faults.FAILPOINT_NAMES)
        assert [row.label for row in SCENARIOS if not row.failpoint] == [
            "server.overload"
        ]
        assert sorted(row.label for row in SCENARIOS if row.live) == [
            "ingest.dup_send", "parallel.worker_kill", "server.conn_drop",
            "server.overload", "server.slow_client", "shard.evict_during_query",
        ]

    def test_seed_variation(self):
        entries = run_matrix(seed=77, only="pagefile.torn_write")
        assert len(entries) == 1 and entries[0].ok, format_matrix(entries)

    def test_armed_state_restored(self):
        faults.arm("wal.sync_crash", "every:100")
        run_matrix(seed=2000, only="flob.write_crash")
        assert faults.armed() == {"wal.sync_crash": "every:100"}

    def test_unknown_only_raises_nothing_runs(self):
        with pytest.raises(InvalidValue, match="wal.torn_tail"):
            run_matrix(seed=2000, only="not.a.failpoint")
        # A label of the other view is as unknown as a typo.
        with pytest.raises(InvalidValue, match="server.overload"):
            run_matrix(seed=2000, only="wal.torn_tail", live_only=True)
        assert faults.fired("wal.torn_tail") == 0

    def test_missing_scenario_detected(self, monkeypatch):
        monkeypatch.setattr(
            faults, "FAILPOINT_NAMES",
            faults.FAILPOINT_NAMES | {"phantom.site"},
        )
        with pytest.raises(ReproError, match="phantom.site"):
            run_matrix(seed=2000)
        # ... and the other way: a row whose failpoint left the registry.
        monkeypatch.setattr(
            faults, "FAILPOINT_NAMES",
            faults.FAILPOINT_NAMES - {"phantom.site", "wal.torn_tail"},
        )
        with pytest.raises(ReproError, match="wal.torn_tail"):
            run_matrix(seed=2000)

    def test_fired_is_judged_per_scenario_not_per_process(self, monkeypatch):
        # faults.fired() never goes down: one firing anywhere earlier in
        # the process must not vouch for a row whose body never reaches
        # its site.
        faults.arm("flob.write_crash")
        assert faults.should_fire("flob.write_crash")
        idle = Scenario("flob.write_crash", "flob.write_crash", "once", False,
                        lambda run: "did nothing")
        monkeypatch.setattr(faultmatrix, "SCENARIOS", tuple(
            idle if row.label == idle.label else row for row in SCENARIOS
        ))
        (entry,) = run_matrix(only="flob.write_crash")
        assert (entry.fired, entry.ok) == (False, False)
        assert entry.detail == "failpoint never fired"


class TestBufferRetry:
    def test_transient_read_retried(self):
        pf = PageFile(page_size=256)
        pool = BufferPool(pf, capacity=2)
        n = pool.new_page()
        pf.write_page(n, b"payload")
        faults.arm("pagefile.read_transient", "once")
        obs.reset()
        obs.enable()
        try:
            data = pool.pin(n)
            assert bytes(data).startswith(b"payload")
            assert obs.counters.get("buffer.retries") == 1
        finally:
            obs.disable()
            pool.unpin(n)

    def test_retry_budget_exhausts(self):
        pf = PageFile(page_size=256)
        pool = BufferPool(pf, capacity=2)
        n = pool.new_page()
        faults.arm("pagefile.read_transient", "every:1")
        with pytest.raises(StorageError):
            pool.pin(n)
        # The failed read must leave no frame behind: a later pin with
        # the fault gone reads the real page.
        faults.disarm()
        assert pool.resident_pages == 0
        pool.pin(n)
        pool.unpin(n)

    def test_eviction_during_faulted_pin_writes_back_dirty_page(self):
        # Regression: pin of page B at capacity first evicts dirty page
        # A (write-back), then reads B with a transient fault in the
        # middle.  The retry must not lose A's write-back nor leave a
        # half-filled frame for B.
        pf = PageFile(page_size=256)
        pool = BufferPool(pf, capacity=1)
        a = pool.new_page()
        frame = pool.pin(a)
        frame[:5] = b"dirty"
        pool.unpin(a, dirty=True)
        b = pool.new_page()
        pf.write_page(b, b"bee")
        faults.arm("pagefile.read_transient", "once")
        data = pool.pin(b)
        assert bytes(data).startswith(b"bee")
        pool.unpin(b)
        assert pf.read_page(a).startswith(b"dirty")
        assert pool.resident_pages == 1


class TestWindowQuarantine:
    def _engine(self):
        from repro.ops.window import WindowQueryEngine

        engine = WindowQueryEngine()
        good = MovingPoint.from_waypoints([(0, (1, 1)), (10, (2, 2))])
        rotten = MovingPoint.from_waypoints([(0, (1, 2)), (10, (2, 1))])
        engine.add("good", good)
        calls = {"n": 0}

        def loader():
            calls["n"] += 1
            if calls["n"] > 1:  # indexes fine, rots before refinement
                raise StorageError("simulated on-disk rot")
            return rotten

        engine.add_lazy("rotten", loader)
        return engine

    def test_strict_query_propagates(self):
        engine = self._engine()
        with pytest.raises(StorageError):
            engine.query(Rect(0, 0, 5, 5), 0.0, 10.0)

    def test_non_strict_query_quarantines(self):
        engine = self._engine()
        obs.reset()
        obs.enable()
        try:
            results = engine.query(Rect(0, 0, 5, 5), 0.0, 10.0, strict=False)
            assert [k for k, _ in results] == ["good"]
            assert obs.counters.get("storage.quarantined") == 1
        finally:
            obs.disable()

    def test_lazy_objects_count_and_resolve(self):
        from repro.ops.window import WindowQueryEngine

        engine = WindowQueryEngine()
        mp = MovingPoint.from_waypoints([(0, (1, 1)), (10, (2, 2))])
        engine.add_lazy("k", lambda: mp)
        assert len(engine) == 1
        results = engine.query_naive(Rect(0, 0, 5, 5), 0.0, 10.0)
        assert [k for k, _ in results] == ["k"]
