"""Parallel execution layer: shared-memory chunking, cache, DB wiring.

Everything here asserts *equivalence first*: the parallel backend must
return bit-identical results to the vector and scalar backends on every
path (fleet helpers, window engine, SQL batch predicates), with the
counted fallbacks engaging exactly when dispatch is not worthwhile.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro import config, obs
from repro.db import Database
from repro.parallel import (
    attach,
    chunk_bounds,
    effective_workers,
    pack,
    parallel_atinstant,
    parallel_bbox_filter,
    parallel_count_inside,
    parallel_present,
    parallel_window_intervals,
    set_workers,
)
from repro.errors import InvalidValue
from repro.ops.window import (
    WindowQueryEngine, group_intervals, mpoint_within_rect_times,
)
from repro.ranges.interval import Interval
from repro.ranges.rangeset import RangeSet
from repro.spatial.bbox import Cube, Rect
from repro.temporal.mapping import MovingPoint
from repro.vector.cache import Fleet, column_for
from repro.vector.columns import BBoxColumn, UPointColumn
from repro.vector.fleet import (
    fleet_atinstant,
    fleet_bbox_filter,
    fleet_count_inside,
    set_backend,
)
from repro.vector.kernels import (
    atinstant_batch,
    bbox_filter_batch,
    window_intervals_batch,
)
from repro.workloads.regions import regular_polygon
from repro.workloads.trajectories import random_flights


@pytest.fixture(autouse=True)
def _clean_state():
    """Scalar default, no worker override, empty column cache."""
    set_backend("scalar")
    set_workers(None)
    yield
    set_backend("scalar")
    set_workers(None)


@pytest.fixture
def small_min_objects(monkeypatch):
    """Let tiny test fleets qualify for pool dispatch."""
    monkeypatch.setattr(config, "PARALLEL_MIN_OBJECTS", 2)


def make_fleet(n=40, seed=7):
    return random_flights(n, seed=seed)


# ---------------------------------------------------------------------------
# Fleet and the columns it keeps
# ---------------------------------------------------------------------------


class TestFleetCache:
    def test_version_bumps_on_mutation(self):
        fleet = Fleet(make_fleet(3))
        v0 = fleet.version
        fleet.append(MovingPoint([]))
        assert fleet.version > v0
        v1 = fleet.version
        fleet[0] = MovingPoint([])
        assert fleet.version > v1
        v2 = fleet.version
        del fleet[0]
        assert fleet.version > v2
        v3 = fleet.version
        fleet.invalidate()
        assert fleet.version > v3

    def test_hit_miss_invalidation_counters(self):
        fleet = Fleet(make_fleet(5))
        obs.reset()
        obs.enable()
        try:
            c1 = column_for(fleet, "upoint")
            c2 = column_for(fleet, "upoint")
            assert c1 is c2  # cached instance reused
            fleet.append(MovingPoint([]))
            c3 = column_for(fleet, "upoint")
            assert c3 is not c1
            fleet[:] = list(fleet)[:4]
            c4 = column_for(fleet, "upoint")
            assert c4 is not c3
        finally:
            obs.disable()
        # Every mutation makes the next read an invalidation and a
        # rebuild, a tail append included.
        assert obs.get("colcache.misses") == 3
        assert obs.get("colcache.hits") == 1
        assert obs.get("colcache.invalidations") == 2

    def test_kinds_cached_independently(self):
        fleet = Fleet(make_fleet(4))
        obs.reset()
        obs.enable()
        try:
            column_for(fleet, "upoint")
            column_for(fleet, "bbox")
            column_for(fleet, "upoint")
            column_for(fleet, "bbox")
        finally:
            obs.disable()
        # One miss per kind; the bbox build reads the upoint entry (a
        # hit) besides the two repeated reads.
        assert obs.get("colcache.misses") == 2
        assert obs.get("colcache.hits") == 3

    def test_bbox_derives_from_the_cached_upoint_column(self):
        members = make_fleet(12)
        fleet = Fleet(members)
        obs.reset()
        obs.enable()
        try:
            box = column_for(fleet, "bbox")
            col = column_for(fleet, "upoint")
        finally:
            obs.disable()
        # The bbox miss built the unit column and kept it: the second
        # read is a hit, and no unit was transcribed twice.
        assert obs.get("colcache.misses") == 2
        assert obs.get("colcache.hits") == 1
        ref = BBoxColumn.from_cubes(
            [(k, m.bounding_cube()) for k, m in enumerate(members)]
        )
        for a, b in zip([box.keys, *box.arrays()], [ref.keys, *ref.arrays()]):
            assert a.tobytes() == b.tobytes()
        assert col.n_objects == len(members)

    def test_plain_sequences_bypass_cache(self):
        fleet = make_fleet(4)
        obs.reset()
        obs.enable()
        try:
            a = column_for(fleet, "upoint")
            b = column_for(fleet, "upoint")
        finally:
            obs.disable()
        assert a is not b
        assert obs.get("colcache.hits") == 0
        assert obs.get("colcache.misses") == 0

    def test_cached_column_equals_fresh(self):
        mappings = make_fleet(6)
        fleet = Fleet(mappings)
        cached = column_for(fleet, "upoint")
        fresh = UPointColumn.from_mappings(mappings)
        assert np.array_equal(cached.offsets, fresh.offsets)
        assert np.array_equal(cached.starts, fresh.starts)
        assert np.array_equal(cached.x0, fresh.x0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidValue):
            column_for(Fleet(), "matrix")


# ---------------------------------------------------------------------------
# Shared-memory pack/attach + chunking
# ---------------------------------------------------------------------------


def roundtrip_fields(col, fields):
    """Pack ``col``, attach it back, return owned copies of ``fields``.

    The attached column's arrays are views over the segment, so they
    must be dropped before the segment can close — hence the copies.
    """
    descriptor, shm = pack(col)
    try:
        attached = attach(descriptor)
        copies = {
            f: np.array(getattr(attached.column, f)) for f in fields
        }
        attached.column = None  # release the views over the segment
        attached.close()
        return copies
    finally:
        shm.close()
        shm.unlink()


class TestSharedMemory:
    def test_upoint_round_trip(self):
        col = UPointColumn.from_mappings(make_fleet(10))
        fields = ("offsets", "starts", "ends", "lc", "rc",
                  "x0", "x1", "y0", "y1")
        back = roundtrip_fields(col, fields)
        for f in fields:
            assert np.array_equal(back[f], getattr(col, f)), f

    def test_bbox_round_trip(self):
        col = BBoxColumn.from_mappings(make_fleet(10))
        fields = ("xmin", "ymin", "tmin", "xmax", "ymax", "tmax")
        back = roundtrip_fields(col, fields)
        for f in fields:
            assert np.array_equal(back[f], getattr(col, f)), f

    def test_chunk_bounds_cover_exactly(self):
        col = UPointColumn.from_mappings(make_fleet(23))
        for chunks in (1, 2, 3, 7, 50):
            bounds = chunk_bounds(col.offsets, col.n_objects, chunks)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == col.n_objects
            for (_, a_hi), (b_lo, _) in zip(bounds, bounds[1:]):
                assert a_hi == b_lo
            assert all(hi > lo for lo, hi in bounds)

    def test_chunk_bounds_empty(self):
        assert chunk_bounds(None, 0, 4) == []

    def test_region_pickle_round_trip(self):
        # Regions ride the task queue to pool workers; the immutable
        # Cycle/Face/Region classes must survive pickling despite their
        # __setattr__ guards.
        import pickle

        region = regular_polygon((3.0, -2.0), 10.0, 7)
        back = pickle.loads(pickle.dumps(region))
        assert back == region
        assert back.contains_point((3.0, -2.0))
        assert not back.contains_point((50.0, 50.0))


# ---------------------------------------------------------------------------
# Parallel kernel equivalence (2 workers, tiny dispatch threshold)
# ---------------------------------------------------------------------------


class TestParallelEquivalence:
    def test_atinstant(self, small_min_objects):
        fleet = make_fleet(30)
        col = UPointColumn.from_mappings(fleet)
        t = 40.0
        xs, ys, defined = parallel_atinstant(col, t, workers=2)
        ex, ey, ed = atinstant_batch(col, t)
        assert np.array_equal(defined, ed)
        assert np.array_equal(xs[defined], ex[ed])
        assert np.array_equal(ys[defined], ey[ed])

    def test_present(self, small_min_objects):
        fleet = make_fleet(30)
        col = UPointColumn.from_mappings(fleet)
        got = parallel_present(col, 40.0, workers=2)
        expected = np.array(
            [m.value_at(40.0) is not None for m in fleet]
        )
        assert np.array_equal(got, expected)

    def test_bbox_filter(self, small_min_objects):
        fleet = make_fleet(30)
        col = BBoxColumn.from_mappings(fleet)
        cube = Cube(-500, -500, 0, 500, 500, 80)
        got = parallel_bbox_filter(col, cube, workers=2)
        assert np.array_equal(got, bbox_filter_batch(col, cube))

    def test_window_intervals(self, small_min_objects):
        fleet = make_fleet(30)
        col = UPointColumn.from_mappings(fleet)
        rect = Rect(-800, -800, 800, 800)
        t0, t1 = 10.0, 60.0
        got = parallel_window_intervals(col, rect, t0, t1, workers=2)
        expected = window_intervals_batch(col, rect, t0, t1)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)

    def test_count_inside(self, small_min_objects):
        fleet = make_fleet(30)
        col = UPointColumn.from_mappings(fleet)
        region = regular_polygon((0.0, 0.0), 600.0, 12)
        got = parallel_count_inside(col, region, 40.0, workers=2)
        x, y, defined = atinstant_batch(col, 40.0)
        from repro.vector.kernels import inside_prefilter

        pts = np.column_stack([x[defined], y[defined]])
        assert got == int(np.count_nonzero(inside_prefilter(pts, region)))

    def test_chunks_counter(self, small_min_objects):
        col = UPointColumn.from_mappings(make_fleet(30))
        obs.reset()
        obs.enable()
        try:
            parallel_atinstant(col, 40.0, workers=2)
        finally:
            obs.disable()
        assert obs.get("parallel.chunks") == 2
        assert obs.get("parallel.fallback") == 0


def test_v5_smoke_parallel_equivalence(small_min_objects):
    """2 workers, a fleet big enough to chunk: an instant and a window
    scan answer exactly as the single-process kernels, chunked dispatch
    engaged and nothing degraded."""
    col = UPointColumn.from_mappings(make_fleet(400, seed=5))
    rect, t, (t0, t1) = Rect(-800, -800, 800, 800), 40.0, (10.0, 60.0)
    with obs.capture() as counted:
        at = parallel_atinstant(col, t, workers=2)
        window = parallel_window_intervals(col, rect, t0, t1, workers=2)
    for got, want in zip(at, atinstant_batch(col, t)):
        assert np.array_equal(got, want, equal_nan=True)
    assert at[2].any()
    for got, want in zip(window, window_intervals_batch(col, rect, t0, t1)):
        assert np.array_equal(got, want)
    assert len(window[0]) > 0
    assert counted.get("parallel.chunks") >= 2
    assert counted.get("parallel.fallback") == 0


class TestFallbacks:
    def test_single_worker_falls_back(self, small_min_objects):
        col = UPointColumn.from_mappings(make_fleet(10))
        obs.reset()
        obs.enable()
        try:
            xs, ys, defined = parallel_atinstant(col, 40.0, workers=1)
        finally:
            obs.disable()
        ex, ey, ed = atinstant_batch(col, 40.0)
        assert np.array_equal(defined, ed)
        assert obs.get("parallel.fallback") == 1
        assert obs.get("parallel.fallback.workers") == 1
        assert obs.get("parallel.chunks") == 0

    def test_small_fleet_falls_back(self):
        # Default PARALLEL_MIN_OBJECTS is far above 10 objects.
        col = UPointColumn.from_mappings(make_fleet(10))
        obs.reset()
        obs.enable()
        try:
            parallel_atinstant(col, 40.0, workers=2)
        finally:
            obs.disable()
        assert obs.get("parallel.fallback.small_fleet") == 1

    def test_workers_validation(self):
        with pytest.raises(InvalidValue):
            set_workers(-1)

    def test_effective_workers_resolution(self):
        assert effective_workers(3) == 3
        set_workers(2)
        assert effective_workers(None) == 2
        set_workers(None)
        assert effective_workers(0) >= 1  # one per core, at least one


# ---------------------------------------------------------------------------
# Fleet helpers and the window engine across backends
# ---------------------------------------------------------------------------


class TestBackendParity:
    def test_fleet_helpers(self, small_min_objects):
        fleet = make_fleet(25)
        region = regular_polygon((0.0, 0.0), 700.0, 10)
        cube = Cube(-600, -600, 0, 600, 600, 90)
        t = 35.0
        scalar = fleet_atinstant(fleet, t, backend="scalar")
        par = fleet_atinstant(fleet, t, backend="parallel", workers=2)
        assert par == scalar
        assert fleet_bbox_filter(
            fleet, cube, backend="parallel", workers=2
        ) == fleet_bbox_filter(fleet, cube, backend="scalar")
        assert fleet_count_inside(
            fleet, t, region, backend="parallel", workers=2
        ) == fleet_count_inside(fleet, t, region, backend="scalar")

    def test_window_engine(self, small_min_objects):
        engine = WindowQueryEngine()
        for i, mp in enumerate(make_fleet(25)):
            engine.add(f"f{i}", mp)
        rect = Rect(-800, -800, 800, 800)
        scalar = engine.query(rect, 10.0, 60.0, backend="scalar")
        vector = engine.query(rect, 10.0, 60.0, backend="vector")
        par = engine.query(rect, 10.0, 60.0, backend="parallel", workers=2)
        naive = engine.query_naive(rect, 10.0, 60.0)
        assert par == scalar == vector == naive

    def test_window_engine_add_fleet(self, small_min_objects):
        items = [(f"f{i}", mp) for i, mp in enumerate(make_fleet(20))]
        bulk = WindowQueryEngine()
        bulk.add_fleet(items)
        incremental = WindowQueryEngine()
        for key, mp in items:
            incremental.add(key, mp)
        rect = Rect(-500, -500, 500, 500)
        for backend in ("scalar", "vector", "parallel"):
            assert bulk.query(rect, 0.0, 80.0, backend=backend, workers=2) \
                == incremental.query(rect, 0.0, 80.0, backend=backend,
                                     workers=2)

    def test_group_intervals_matches_scalar(self, small_min_objects):
        fleet = make_fleet(25)
        col = UPointColumn.from_mappings(fleet)
        rect = Rect(-800, -800, 800, 800)
        t0, t1 = 10.0, 60.0
        rows = parallel_window_intervals(col, rect, t0, t1, workers=2)
        grouped = dict(
            group_intervals(*rows, keys=list(range(len(fleet))))
        )
        clip = RangeSet([Interval(t0, t1)])
        for i, m in enumerate(fleet):
            expected = mpoint_within_rect_times(m, rect).intersection(clip)
            assert grouped.get(i, RangeSet([])) == expected, i


# ---------------------------------------------------------------------------
# SQL / planner wiring
# ---------------------------------------------------------------------------


@pytest.fixture
def planes_db():
    db = Database()
    planes = db.create_relation(
        "planes",
        [("airline", "string"), ("id", "string"), ("flight", "mpoint")],
    )
    planes.insert(
        ["L", "LH1",
         MovingPoint.from_waypoints([(0, (0, 0)), (100, (6000, 0))])]
    )
    planes.insert(
        ["L", "LH2",
         MovingPoint.from_waypoints([(0, (0, 10)), (100, (3000, 10))])]
    )
    planes.insert(
        ["A", "AF1",
         MovingPoint.from_waypoints([(50, (0, 0.2)), (150, (6000, 0.2))])]
    )
    return db


SQL_QUERIES = [
    "SELECT id FROM planes WHERE present(flight, 120)",
    "SELECT id FROM planes WHERE passes_window(flight, 0, 0, 100, 100, 0, 10)",
    "SELECT id FROM planes WHERE passes_window(flight, 0, 0, 100, 100, 0, 10) "
    "AND present(flight, 5)",
]


class TestSqlWiring:
    @pytest.mark.parametrize("sql", SQL_QUERIES)
    def test_parallel_backend_parity(
        self, planes_db, sql, small_min_objects
    ):
        set_backend("scalar")
        scalar = sorted(r["id"].value for r in planes_db.query(sql))
        set_backend("vector")
        vector = sorted(r["id"].value for r in planes_db.query(sql))
        set_backend("parallel")
        set_workers(2)
        par = sorted(r["id"].value for r in planes_db.query(sql))
        assert par == vector == scalar

    def test_explain_shows_parallel_scan(self, planes_db):
        from repro.db.sql import explain

        set_backend("parallel")
        set_workers(2)  # the pool's business, not the plan's
        plan = explain(planes_db, SQL_QUERIES[0])
        assert "VectorScan(planes AS planes, attr=flight, backend=parallel)" in plan
        assert "workers" not in plan
        set_backend("vector")
        plan = explain(planes_db, SQL_QUERIES[0])
        assert "VectorScan(planes AS planes, attr=flight)" in plan

    def test_small_relation_falls_back_counted(self, planes_db):
        # 3 rows is far below PARALLEL_MIN_OBJECTS: the scan plans for
        # the pool, dispatch degrades to the in-process kernel, counted.
        set_backend("parallel")
        set_workers(2)
        obs.reset()
        obs.enable()
        try:
            rows = planes_db.query(SQL_QUERIES[0])
        finally:
            obs.disable()
        assert sorted(r["id"].value for r in rows) == ["AF1"]
        assert obs.get("parallel.fallback.small_fleet") >= 1


# ---------------------------------------------------------------------------
# Worker attach table: store-loaded columns travel the one shm transport
# ---------------------------------------------------------------------------


class TestAttachTableKeyedByKind:
    """The ``upoint`` and ``bbox`` columns mapped from one store reach
    workers the way every column does, packed into shared memory: each
    kind gets a segment of its own, and a worker's attach table holds
    one entry per segment name."""

    CUBE = Cube(-500, -500, 0, 500, 500, 80)
    RECT = Rect(-800, -800, 800, 800)
    REGION = regular_polygon((0.0, 0.0), 600.0, 12)

    @pytest.fixture
    def store_columns(self, tmp_path):
        from repro.parallel import pool
        from repro.vector.store import ColumnStore

        store = ColumnStore(str(tmp_path))
        fleet = Fleet(make_fleet(30))
        for kind in ("upoint", "bbox"):  # persist both kinds, then reopen
            store.rebuild(kind, fleet, fleet.stamp)
        up, bb = store.load("upoint"), store.load("bbox")
        for col in (up, bb):  # read-only views over the store files
            assert not any(a.flags.writeable for a in col.arrays())
        pool._ATTACHED.clear()
        yield up, bb
        pool._ATTACHED.clear()
        pool.shutdown()

    def test_run_task_in_process_on_both_descriptors(self, store_columns):
        from repro.parallel import pool, shmcol

        up, bb = store_columns
        d_up, d_bb = shmcol.shared_descriptor(up), shmcol.shared_descriptor(bb)
        assert (d_up[0], d_bb[0]) == ("upoint", "bbox")
        assert d_up[1] != d_bb[1]
        n = len(up)
        for _ in range(2):  # second lap is served from the attach table
            (xs, ys, defined), _snap = pool.run_task(
                ("atinstant", d_up, 0, n, (40.0,), False)
            )
            mask, _snap = pool.run_task(
                ("bbox_filter", d_bb, 0, n, (self.CUBE,), False)
            )
            ex, ey, ed = atinstant_batch(up, 40.0)
            assert np.array_equal(defined, ed)
            assert np.array_equal(xs[defined], ex[ed])
            assert np.array_equal(ys[defined], ey[ed])
            assert np.array_equal(mask, bbox_filter_batch(bb, self.CUBE))
        assert sorted(pool._ATTACHED) == sorted([d_up[1], d_bb[1]])

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="fork start method required",
    )
    def test_alternating_ops_never_fall_back(
        self, store_columns, small_min_objects
    ):
        from repro.vector.backends import on_column

        up, bb = store_columns
        t, (t0, t1) = 40.0, (10.0, 60.0)
        calls = [
            (parallel_atinstant, up, (t,), "atinstant"),
            (parallel_present, up, (t,), "present"),
            (parallel_window_intervals, up, (self.RECT, t0, t1),
             "window_intervals"),
            (parallel_bbox_filter, bb, (self.CUBE,), "bbox_filter"),
        ]

        def as_bytes(out):
            if isinstance(out, tuple):
                return [np.asarray(a).tobytes() for a in out]
            return [np.asarray(out).tobytes()]

        expected = [
            as_bytes(on_column(op, col, args, "vector"))
            for _fn, col, args, op in calls
        ]
        inside = int(np.count_nonzero(
            on_column("count_inside", up, (t, self.REGION), "vector")
        ))
        with obs.capture() as counters:
            for _ in range(3):
                for (fn, col, args, _op), want in zip(calls, expected):
                    assert as_bytes(fn(col, *args, workers=2)) == want
                assert parallel_count_inside(
                    up, self.REGION, t, workers=2
                ) == inside
        assert counters.get("parallel.fallback") == 0
        assert counters.get("parallel.chunks") == 3 * 5 * 2


# ---------------------------------------------------------------------------
# Worker placement
# ---------------------------------------------------------------------------


def _where(_i):
    """Worker-side: which process ran this, and where it may run."""
    time.sleep(0.02)  # long enough that the other worker takes the next
    return os.getpid(), sorted(os.sched_getaffinity(0))


def _die():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two cores this process may run on",
)
class TestWorkerPlacement:
    """What a two-chunk batch costs must not depend on where the
    scheduler happened to put the workers when they were forked: each
    gets a core of its own (found while steadying ``api_scan_warm`` —
    unpinned, both workers sat on one core in 34 of 35 batches and the
    chunks ran back to back)."""

    def _placement(self):
        from repro.parallel import pool

        return dict(pool.get_pool(2).map(_where, range(8), chunksize=1))

    def test_each_worker_has_a_core_of_its_own(self):
        from repro.parallel import pool

        cores = sorted(os.sched_getaffinity(0))
        pool.shutdown()
        try:
            seen = self._placement()
        finally:
            pool.shutdown()
        assert sorted(seen.values()) == [[cores[0]], [cores[1]]]
        assert sorted(os.sched_getaffinity(0)) == cores  # parent untouched

    def test_a_respawned_worker_is_pinned_too(self):
        from repro.parallel import pool

        pool.shutdown()
        try:
            first = self._placement()
            # Mid-task, as the chaos matrix kills: an idle worker may
            # die holding the task queue's read lock and wedge the pool.
            pool.get_pool(2).apply_async(_die)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                seen = self._placement()
                if len(seen) == 2 and set(seen) != set(first):
                    break
            assert set(seen) != set(first), "the pool never respawned"
            assert all(len(where) == 1 for where in seen.values())
        finally:
            pool.shutdown()
