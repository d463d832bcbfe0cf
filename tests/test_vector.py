"""Unit tests for the columnar vector backend (repro.vector)."""

import math

import numpy as np
import pytest

from repro import obs
from repro.db.catalog import Database
from repro.errors import InvalidValue
from repro.geometry.plumbline import crossings_above, point_in_segset
from repro.ops.window import WindowQueryEngine
from repro.ranges.interval import Interval
from repro.spatial.bbox import Cube, Rect
from repro.spatial.region import Region
from repro.temporal.mapping import MovingPoint, MovingReal
from repro.temporal.upoint import UPoint
from repro.temporal.ureal import UReal
from repro.vector.columns import BBoxColumn, UPointColumn, URealColumn
from repro.vector.fleet import (
    fleet_atinstant,
    fleet_atinstant_real,
    fleet_bbox_filter,
    fleet_count_inside,
    get_backend,
    set_backend,
)
from repro.vector.kernels import (
    atinstant_batch,
    bbox_filter_batch,
    crossings_above_batch,
    inside_prefilter,
    locate_units,
    ureal_atinstant_batch,
    window_intervals_batch,
)
from repro.workloads.regions import regular_polygon


@pytest.fixture(autouse=True)
def _scalar_default():
    """Every test starts and ends on the scalar default backend."""
    set_backend("scalar")
    yield
    set_backend("scalar")


def make_fleet():
    """A small fleet exercising gaps, ⊥ instants, and open boundaries."""
    a = MovingPoint.from_waypoints([(0, (0, 0)), (10, (10, 0)), (20, (10, 10))])
    # b has a gap (5, 7) and a right-open unit.
    b = MovingPoint(
        [
            UPoint.between(0, (1, 1), 5, (6, 1), rc=False),
            UPoint.between(7, (6, 1), 12, (6, 6), lc=True),
        ]
    )
    c = MovingPoint([])  # empty: ⊥ everywhere
    d = MovingPoint([UPoint.between(3, (2, 2), 4, (3, 3), lc=False, rc=False)])
    return [a, b, c, d]


class TestColumns:
    def test_round_trip(self):
        fleet = make_fleet()
        col = UPointColumn.from_mappings(fleet)
        assert col.n_objects == 4
        assert col.n_units == sum(len(m.units) for m in fleet)
        back = col.to_mappings()
        assert back == fleet

    def test_rejects_non_mpoint(self):
        with pytest.raises(InvalidValue):
            UPointColumn.from_mappings([MovingReal([UReal(Interval(0, 1), 0, 1, 0)])])

    def test_bbox_column_skips_empty(self):
        fleet = make_fleet()
        col = BBoxColumn.from_mappings(fleet)
        assert len(col) == 3  # the empty mapping contributes no box
        assert 2 not in col.keys


class TestKernels:
    @pytest.mark.parametrize(
        "t", [0.0, 2.5, 5.0, 6.0, 7.0, 10.0, 12.0, 20.0, 3.0, 3.5, 4.0, -1.0, 99.0]
    )
    def test_atinstant_matches_scalar(self, t):
        fleet = make_fleet()
        col = UPointColumn.from_mappings(fleet)
        xs, ys, defined = atinstant_batch(col, t)
        for i, m in enumerate(fleet):
            p = m.value_at(t)
            if p is None:
                assert not defined[i]
                assert np.isnan(xs[i]) and np.isnan(ys[i])
            else:
                assert defined[i]
                assert xs[i] == p.x and ys[i] == p.y

    def test_locate_units_empty_column(self):
        col = UPointColumn.from_mappings([MovingPoint([]), MovingPoint([])])
        unit, defined = locate_units(col, 1.0)
        assert not defined.any()
        assert len(unit) == 2

    def test_ureal_matches_scalar(self):
        fleet = [
            MovingReal([UReal(Interval(0, 5), 0.5, -1.0, 2.0)]),
            MovingReal(
                [
                    UReal(Interval(0, 2, True, False), 0.0, 1.0, 0.0),
                    UReal(Interval(3, 4), 0.0, 0.0, 9.0, r=True),
                ]
            ),
            MovingReal([]),
        ]
        col = URealColumn.from_mappings(fleet)
        for t in [0.0, 1.0, 2.0, 2.5, 3.0, 3.7, 4.0, 5.0, -2.0]:
            vs, defined = ureal_atinstant_batch(col, t)
            for i, m in enumerate(fleet):
                v = m.value_at(t)
                if v is None:
                    assert not defined[i]
                else:
                    assert defined[i]
                    assert vs[i] == v.value

    def test_ureal_negative_radicand_raises(self):
        # UReal itself refuses such a unit, so build the column directly:
        # the kernel must still guard against corrupt columnar data.
        col = URealColumn(
            [0, 1], [0.0], [1.0], [True], [True], [0.0], [0.0], [-5.0], [True]
        )
        with pytest.raises(InvalidValue):
            ureal_atinstant_batch(col, 0.5)

    def test_reversed_window_raises_like_its_interval(self):
        col = UPointColumn.from_mappings(make_fleet())
        with pytest.raises(InvalidValue, match="interval start 5.0 exceeds end 2.0"):
            window_intervals_batch(col, Rect(-100, -100, 100, 100), 5.0, 2.0)
        with pytest.raises(InvalidValue, match="exceeds end"):
            Interval(5.0, 2.0)

    @pytest.mark.parametrize("t0, t1", [(math.nan, 1.0), (0.0, math.nan)])
    def test_nan_window_bound_raises_like_its_interval(self, t0, t1):
        """A NaN bound is no window: ``t0 > t1`` is False for it, and it
        used to answer every object whose span reaches ``t1``."""
        col = UPointColumn.from_mappings(make_fleet())
        with pytest.raises(InvalidValue, match="exceeds end"):
            window_intervals_batch(col, Rect(-100, -100, 100, 100), t0, t1)
        with pytest.raises(InvalidValue, match="exceeds end"):
            Interval(t0, t1)

    def test_infinite_window_bounds_stay_legal(self):
        col = UPointColumn.from_mappings(make_fleet())
        rect = Rect(-100, -100, 100, 100)
        owner, s, e, _lc, _rc = window_intervals_batch(
            col, rect, -math.inf, math.inf
        )
        bounded = window_intervals_batch(col, rect, -1e9, 1e9)
        assert owner.size and np.array_equal(owner, bounded[0])
        assert np.array_equal(s, bounded[1]) and np.array_equal(e, bounded[2])

    def test_bbox_filter_matches_intersects(self):
        fleet = make_fleet()
        col = BBoxColumn.from_mappings(fleet)
        cube = Cube(0, 0, 0, 6, 6, 6)
        mask = bbox_filter_batch(col, cube)
        for key, hit in zip(col.keys, mask):
            assert hit == fleet[key].bounding_cube().intersects(cube)

    def test_crossings_match_scalar(self):
        region = Region.polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)], holes=[[(4, 4), (6, 4), (5, 6)]]
        )
        segs = list(region.segments())
        pts = [(5.0, 5.0), (1.0, 1.0), (11.0, 5.0), (5.0, 4.5), (0.0, 0.0), (10.0, 5.0)]
        counts = crossings_above_batch(pts, segs)
        for p, n in zip(pts, counts):
            assert n == crossings_above(p, segs)

    def test_inside_prefilter_matches_point_in_segset(self):
        region = Region.polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)], holes=[[(4, 4), (6, 4), (5, 6)]]
        )
        segs = list(region.segments())
        pts = [(5.0, 5.0), (1.0, 1.0), (11.0, 5.0), (5.0, 4.5), (0.0, 5.0), (10.0, 10.0)]
        inside = inside_prefilter(pts, region)
        for p, got in zip(pts, inside):
            assert bool(got) == point_in_segset(p, segs)


def zigzags(units, n=3):
    """``n`` members of exactly ``units`` units each (``units`` + 1
    zig-zag waypoints, so no two neighbours merge), staggered in time."""
    return [
        MovingPoint.from_waypoints([
            (i * 0.5 + k, (float(k % 2), float(i))) for k in range(units + 1)
        ])
        for i in range(n)
    ]


class _Reads(np.ndarray):
    """A unit array that counts the elements every read of it touches —
    through an index, as a ufunc operand, or as a numpy function's
    argument — and hands plain arrays on."""

    elements = 0

    @staticmethod
    def _plain(x):
        if isinstance(x, _Reads):
            _Reads.elements += x.size
            return x.view(np.ndarray)
        return x

    def __getitem__(self, key):
        out = self.view(np.ndarray)[key]
        _Reads.elements += np.size(out)
        return out

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        return getattr(ufunc, method)(*map(self._plain, inputs), **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        return func(*map(self._plain, args), **kwargs)


def _passes_of(col, t):
    obs.enable()
    try:
        with obs.capture() as counted:
            located = locate_units(col, t)
    finally:
        obs.disable()
    return counted.get("vector.locate_units.passes"), located


class TestLocateUnitsCost:
    """The unit search costs log-many sweeps per call and log-many unit
    reads per object — counted, not timed."""

    @pytest.mark.parametrize("units", [1, 4, 5, 64, 1000])
    def test_passes_are_the_bit_length_of_the_longest_history(self, units):
        fleet = zigzags(units) + [MovingPoint([]), *zigzags(1, n=1)]
        col = UPointColumn.from_mappings(fleet)
        # Before every history, inside a unit, on a shared boundary, at
        # the end of the longest.
        for t in (-1.0, units / 2.0 + 0.25, float(units // 2), float(units)):
            passes, (unit, defined) = _passes_of(col, t)
            assert passes == units.bit_length()
            for i, m in enumerate(fleet):
                scalar = m.unit_at(t)
                assert bool(defined[i]) == (scalar is not None), (i, t)
                if scalar is not None:
                    assert m.units[int(unit[i]) - col.units_of(i).start] is scalar

    def test_reads_are_logarithmic_in_the_history(self):
        """What an O(units) search — a count of the starts ≤ t, a
        containment mask over every unit — cannot pass: at 1 000 units
        per object the kernel sweeps ≤ 11 times and reads at most a
        few units per sweep per object, not 1 000."""
        col = UPointColumn.from_mappings(zigzags(1000, n=4))
        for name in ("starts", "ends", "lc", "rc"):
            setattr(col, name, getattr(col, name).view(_Reads))
        for t in (0.0, 1.0, 500.25, 999.5, 2000.0):
            _Reads.elements = 0
            passes, (_unit, defined) = _passes_of(col, t)
            assert passes <= 11
            assert 0 < _Reads.elements <= col.n_objects * (passes + 8), t
            assert defined.any() == (t < 1001.0)
        # The count sees a whole-array read: one O(units) sweep is 4 000.
        _Reads.elements = 0
        assert np.count_nonzero(col.starts <= 3.0) == 4 + 3 + 3 + 2
        assert _Reads.elements == col.n_units


class TestLocateUnitsDepth:
    def test_the_depth_is_read_off_the_offsets_once_per_column(self):
        """The sweep count needs the longest history, a pass over the
        whole offsets array; a second search on the same column does
        not make it again, and reads the offsets only for its cursor
        bounds (the starts and ends of every object, two slices)."""
        col = UPointColumn.from_mappings(zigzags(64, n=5))
        col.offsets = col.offsets.view(_Reads)
        reads = []
        for t in (10.5, 3.0):
            _Reads.elements = 0
            passes, _located = _passes_of(col, t)
            assert passes == 7
            reads.append(_Reads.elements)
        assert reads[1] == 2 * col.n_objects
        assert reads[0] >= reads[1] + len(col.offsets)


class TestNanInstant:
    """A NaN instant is no time: ``Interval.contains`` used to admit it
    (every comparison False) and the unit search to miss everything, so
    the scalar loop answered present everywhere and the kernel nowhere."""

    @staticmethod
    def flights():
        from repro.workloads.trajectories import FlightGenerator

        gen = FlightGenerator(seed=1)
        return [gen.flight(legs=3) for _ in range(5)]

    @pytest.mark.parametrize("backend", ["scalar", "vector", "parallel"])
    def test_every_fleet_operation_refuses_it(self, backend, monkeypatch):
        from repro import config
        from repro.vector.backends import evaluate

        monkeypatch.setattr(config, "PARALLEL_MIN_OBJECTS", 2)  # reach the pool
        fleet = self.flights()
        region = regular_polygon((5000, 5000), 3000.0, sides=6)
        for call in (
            lambda: evaluate("present", fleet, (math.nan,), backend, 2),
            lambda: fleet_atinstant(fleet, math.nan, backend=backend, workers=2),
            lambda: fleet_count_inside(
                fleet, math.nan, region, backend=backend, workers=2
            ),
        ):
            with pytest.raises(InvalidValue, match="NaN"):
                call()

    def test_the_kernel_and_the_scalar_refuse_it_and_keep_infinities(self):
        fleet = self.flights()
        col = UPointColumn.from_mappings(fleet)
        with pytest.raises(InvalidValue, match="NaN"):
            locate_units(col, math.nan)
        with pytest.raises(InvalidValue, match="NaN"):
            fleet[0].present(math.nan)
        for t in (-math.inf, math.inf):
            assert not locate_units(col, t)[1].any()
            assert not any(m.present(t) for m in fleet)


class TestFleet:
    def test_backend_switch(self):
        assert get_backend() == "scalar"
        set_backend("vector")
        assert get_backend() == "vector"
        with pytest.raises(InvalidValue):
            set_backend("simd")

    def test_fleet_atinstant_parity(self):
        fleet = make_fleet()
        for t in [0.0, 3.5, 6.0, 7.0, 12.0, 50.0]:
            assert fleet_atinstant(fleet, t, backend="vector") == fleet_atinstant(
                fleet, t, backend="scalar"
            )

    def test_fleet_atinstant_real_parity(self):
        fleet = [
            MovingReal([UReal(Interval(0, 5), 0.5, -1.0, 2.0)]),
            MovingReal([]),
        ]
        for t in [0.0, 2.0, 5.0, 9.0]:
            assert fleet_atinstant_real(
                fleet, t, backend="vector"
            ) == fleet_atinstant_real(fleet, t, backend="scalar")

    def test_fleet_bbox_filter_parity(self):
        fleet = make_fleet()
        cube = Cube(0, 0, 0, 6, 6, 6)
        assert fleet_bbox_filter(fleet, cube, backend="vector") == fleet_bbox_filter(
            fleet, cube, backend="scalar"
        )

    def test_fleet_count_inside_parity(self):
        fleet = make_fleet()
        region = regular_polygon((5, 2), 6.0, sides=8)
        for t in [0.0, 3.5, 8.0]:
            assert fleet_count_inside(
                fleet, t, region, backend="vector"
            ) == fleet_count_inside(fleet, t, region, backend="scalar")

    def test_mixed_fleet_falls_back_and_counts(self):
        mixed = [
            MovingPoint.from_waypoints([(0, (0, 0)), (1, (1, 1))]),
            MovingReal([UReal(Interval(0, 1), 0, 0, 1)]),  # wrong unit type
        ]
        obs.reset()
        obs.enable()
        try:
            out = fleet_atinstant(mixed, 0.5, backend="vector")
        finally:
            obs.disable()
        assert out[0] is not None
        assert obs.get("vector.fallback_to_scalar") == 1
        assert obs.get("vector.fallback_to_scalar.upoint_column") == 1

    def test_bbox_filter_mixed_fleet_falls_back_and_counts(self):
        # A duck-typed member the column builder rejects but the scalar
        # loop handles (it only needs .units and .bounding_cube()): the
        # vector arm must route through the counted fallback instead of
        # crashing — and both arms must agree.
        class TrajectoryLike:
            def __init__(self, mp):
                self.units = mp.units
                self._mp = mp

            def bounding_cube(self):
                return self._mp.bounding_cube()

        real = MovingPoint.from_waypoints([(0, (0, 0)), (1, (1, 1))])
        duck = TrajectoryLike(
            MovingPoint.from_waypoints([(0, (100, 100)), (1, (101, 101))])
        )
        fleet = [real, duck]
        cube = Cube(0, 0, 0, 2, 2, 2)
        obs.reset()
        obs.enable()
        try:
            out = fleet_bbox_filter(fleet, cube, backend="vector")
        finally:
            obs.disable()
        assert out == fleet_bbox_filter(fleet, cube, backend="scalar") == [0]
        assert obs.get("vector.fallback_to_scalar") == 1
        assert obs.get("vector.fallback_to_scalar.bbox_column") == 1


@pytest.fixture
def planes_db():
    db = Database()
    planes = db.create_relation(
        "planes", [("airline", "string"), ("id", "string"), ("flight", "mpoint")]
    )
    planes.insert(
        ["L", "LH1", MovingPoint.from_waypoints([(0, (0, 0)), (100, (6000, 0))])]
    )
    planes.insert(
        ["L", "LH2", MovingPoint.from_waypoints([(0, (0, 10)), (100, (3000, 10))])]
    )
    planes.insert(
        ["A", "AF1", MovingPoint.from_waypoints([(50, (0, 0.2)), (150, (6000, 0.2))])]
    )
    return db


QUERIES = [
    "SELECT id FROM planes WHERE present(flight, 120)",
    "SELECT id FROM planes WHERE passes_window(flight, 0, 0, 100, 100, 0, 10)",
    "SELECT id FROM planes WHERE passes_window(flight, 0, 0, 100, 100, 0, 10) "
    "AND present(flight, 5)",
    "SELECT id FROM planes WHERE airline = 'L' AND present(flight, 120)",
    "SELECT airline, id FROM planes WHERE length(trajectory(flight)) > 5000",
]


class TestDbWiring:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_backend_parity(self, planes_db, sql):
        set_backend("scalar")
        scalar = sorted(r["id"].value for r in planes_db.query(sql))
        set_backend("vector")
        vector = sorted(r["id"].value for r in planes_db.query(sql))
        assert scalar == vector

    def test_negative_and_exponent_literals(self, planes_db):
        """A window with negative corners, spelled the way ``repr`` spells
        floats, answers alike on both backends."""
        sql = (
            "SELECT id FROM planes WHERE "
            "passes_window(flight, -1e2, -5, 100, 1E2, 0, 1.0e1)"
        )
        for backend in ("scalar", "vector"):
            set_backend(backend)
            assert sorted(r["id"].value for r in planes_db.query(sql)) == [
                "LH1", "LH2",
            ], backend

    def test_batch_select_counts(self, planes_db):
        set_backend("vector")
        obs.reset()
        obs.enable()
        try:
            planes_db.query(QUERIES[0])
        finally:
            obs.disable()
        assert obs.get("vector.batch_select.calls") == 1
        assert obs.get("vector.batch_select.rows") == 3

    def test_non_compilable_predicate_falls_back(self, planes_db):
        set_backend("vector")
        obs.reset()
        obs.enable()
        try:
            planes_db.query(QUERIES[3].replace(" AND ", " OR "))
        finally:
            obs.disable()
        assert obs.get("vector.fallback_to_scalar.predicate") == 1

    def test_conjunction_with_one_compilable_operand_is_split(self, planes_db):
        """The fallback is counted only when *no* conjunct compiles."""
        set_backend("vector")
        with obs.capture() as c:
            planes_db.query(QUERIES[3])
        assert c.get("vector.fallback_to_scalar.predicate") == 0
        assert c.get("vector.batch_select.calls") == 1

    def test_explain_shows_vector_scan(self, planes_db):
        from repro.db.sql import explain

        set_backend("vector")
        assert "VectorScan(planes" in explain(planes_db, QUERIES[0])
        set_backend("scalar")
        assert "SeqScan(planes" in explain(planes_db, QUERIES[0])


class TestWindowEngine:
    def test_backend_parity(self):
        import random

        rng = random.Random(11)
        eng = WindowQueryEngine()
        for i in range(60):
            t, wps = 0.0, []
            for _ in range(4):
                wps.append((t, (rng.uniform(0, 100), rng.uniform(0, 100))))
                t += rng.uniform(1, 10)
            eng.add(f"o{i}", MovingPoint.from_waypoints(wps))
        for _ in range(10):
            x0, y0 = rng.uniform(0, 80), rng.uniform(0, 80)
            rect = Rect(x0, y0, x0 + rng.uniform(1, 40), y0 + rng.uniform(1, 40))
            t0 = rng.uniform(0, 20)
            t1 = t0 + rng.uniform(0, 15)
            scalar = eng.query(rect, t0, t1, backend="scalar")
            with obs.capture() as c:
                batched = eng.query(rect, t0, t1, backend="vector")
            counted = c.snapshot()["counters"]
            # The query is one window_intervals sweep, no tree descent.
            assert counted["vector.window_intervals_batch.calls"] == 1
            assert "rtree.nodes_visited" not in counted
            assert not any("fallback" in name for name in counted)
            naive = eng.query_naive(rect, t0, t1)
            assert scalar == batched == naive

    @pytest.mark.parametrize("backend", ["scalar", "vector", "parallel"])
    def test_nan_window_bound_raises_on_every_backend(self, backend):
        """The columnar row used to answer all five flights for a NaN
        ``t0`` and the scalar loop none; now both refuse the window."""
        from repro.workloads.trajectories import FlightGenerator

        flights = FlightGenerator(seed=3)
        eng = WindowQueryEngine()
        for i in range(5):
            eng.add(i, flights.flight())
        world = Rect(-1e9, -1e9, 1e9, 1e9)
        with pytest.raises(InvalidValue):
            eng.query(world, math.nan, 1.0, backend=backend)
        assert len(eng.query(world, -math.inf, math.inf, backend=backend)) == 5

    @pytest.mark.parametrize("backend", ["scalar", "vector", "parallel"])
    def test_a_creeping_unit_is_found_where_it_is_inside(self, backend):
        """``x = 5e-10·t`` has a velocity within EPSILON of zero but is
        0.005 along at 1e7 s: inside ``x >= 0.001`` from 2e6 s on.  A
        tolerance on the velocity called it stationary at x = 0 and
        answered nothing."""
        from repro.temporal.mseg import MPoint

        eng = WindowQueryEngine()
        unit = UPoint(Interval(0.0, 1e7), MPoint(0.0, 5e-10, 0.5, 0.0))
        eng.add("creeper", MovingPoint([unit]))
        rect = Rect(0.001, 0.0, 1.0, 1.0)
        ((key, times),) = eng.query(rect, 0.0, 1e7, backend=backend)
        (iv,) = times.intervals
        assert key == "creeper" and iv.e == 1e7
        assert iv.s == pytest.approx(2e6, rel=1e-12)


class TestCli:
    def test_snapshot_backend_parity(self, capsys):
        from repro.cli import main

        assert main(["snapshot", "--objects", "50"]) == 0
        scalar_out = capsys.readouterr().out
        assert main(["--backend", "vector", "snapshot", "--objects", "50"]) == 0
        vector_out = capsys.readouterr().out
        # Identical except for the backend banner line.
        assert scalar_out.splitlines()[1:] == vector_out.splitlines()[1:]
        assert "backend: vector" in vector_out

    def test_profile_report_survives_failure(self, capsys):
        from repro.cli import main

        with pytest.raises(FileNotFoundError):
            main(["--profile", "run", "/nonexistent/file.sql"])
        out = capsys.readouterr().out
        assert "operation counters (--profile)" in out


class TestBufferObs:
    def test_hits_and_misses_mirrored(self, tmp_path):
        from repro.storage.buffer import BufferPool
        from repro.storage.pages import PageFile

        pf = PageFile(str(tmp_path / "f.pg"), page_size=256)
        pool = BufferPool(pf, capacity=4)
        n = pool.new_page()
        obs.reset()
        obs.enable()
        try:
            pool.pin(n)
            pool.unpin(n)
            pool.pin(n)
            pool.unpin(n)
        finally:
            obs.disable()
        assert pool.stats()["hits"] == 1 and pool.stats()["misses"] == 1
        assert obs.get("buffer.hits") == 1
        assert obs.get("buffer.misses") == 1
