"""Differential tests of the columnar query paths (ISSUE 15).

One property per rewritten path, each asserting *one answer* across the
backends a query can take, and — where a counter exists — asserting the
shape of the work by count rather than by timing:

* ``WindowQueryEngine.query`` on scalar / vector / parallel,
  eager and ``add_lazy``, strict and quarantining, against
  ``query_naive``;
* the SQL scans over the same relation held in memory and materialized
  (some unit arrays inline, some in FLOB pages), on every planner
  configuration, intact and with one tuple corrupted;
* ``UPointColumn.from_unit_arrays`` against ``from_mappings``, array by
  array, and its vectorised validation against the codec's;
* late materialisation by count: which values are unpacked, how often a
  FLOB chain is read;
* the two reproduced bugs: a quarantined tuple under a column with one
  lane per tuple and the EPSILON-wide band around a region's bounding box.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.config import EPSILON
from repro.db.catalog import Database
from repro.errors import InvalidValue, ReproError, StorageError
from repro.geometry.plumbline import point_in_segset
from repro.ops.window import WindowQueryEngine
from repro.ranges.interval import Interval
from repro.spatial.bbox import Rect
from repro.spatial.point import Point
from repro.spatial.region import Region
from repro.storage.darray import DatabaseArray
from repro.storage.pages import PAGE_HEADER_SIZE
from repro.storage.records import MovingPointCodec, pack_value
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint
from repro.vector import backends
from repro.vector.columns import UPointColumn
from repro.vector.fleet import fleet_count_inside, set_backend
from repro.vector.kernels import inside_prefilter

BACKENDS = ("scalar", "vector", "parallel")
COLUMN_FIELDS = (
    "offsets", "starts", "ends", "lc", "rc", "x0", "x1", "y0", "y1",
)


@pytest.fixture(autouse=True)
def _clean_state():
    obs.enable()
    obs.reset()
    set_backend("scalar")
    yield
    set_backend("scalar")
    obs.reset()
    obs.disable()


# ---------------------------------------------------------------------------
# Generated fleets: ⊥ gaps, adjacent units, stationary units
# ---------------------------------------------------------------------------

# Coordinates, instants and durations live on a 1/8 grid: a unit either
# stands exactly still or moves at 1/64 per time unit or faster.  (A
# velocity within EPSILON of zero is refined, by scalar and kernel alike,
# at its t = 0 position — ROADMAP records that; no filter can be a
# superset of it.)
coord = st.integers(min_value=8, max_value=960).map(lambda k: k / 8.0)
span = st.integers(min_value=1, max_value=64).map(lambda k: k / 8.0)
instant = st.integers(min_value=0, max_value=640).map(lambda k: k / 8.0)
#: Window edges sit on, or within a fraction of EPSILON beside, a value.
nudge = st.sampled_from(
    [k * EPSILON for k in (-2.0, -0.5, -0.25, 0.0, 0.0, 0.0, 0.25, 0.5, 2.0)]
)


@st.composite
def moving_points(draw, max_units=5):
    """A sliced moving point whose consecutive units are separated by a
    gap or *adjacent* (sharing the instant, at most one side closed), and
    whose units move or stand still."""
    n = draw(st.integers(min_value=0, max_value=max_units))
    t = draw(instant)
    units, prev_rc = [], True
    for _ in range(n):
        adjacent = bool(units) and draw(st.booleans())
        if not adjacent:
            t += draw(span)
        s = t
        t += draw(span)
        lc = draw(st.booleans()) and not (adjacent and prev_rc)
        prev_rc = draw(st.booleans())
        p0 = (draw(coord), draw(coord))
        p1 = p0 if draw(st.booleans()) else (draw(coord), draw(coord))
        units.append(UPoint.between(s, p0, t, p1, lc=lc, rc=prev_rc))
    return MovingPoint.normalized(units)


@st.composite
def fleets(draw, min_size=1, max_size=8):
    return draw(st.lists(moving_points(), min_size=min_size, max_size=max_size))


def _instants(mappings):
    return [
        b for m in mappings for u in m.units
        for b in (u.interval.s, u.interval.e)
    ]


def _positions(mappings):
    out = []
    for m in mappings:
        for u in m.units:
            out += [u.vec_at(u.interval.s), u.vec_at(u.interval.e)]
    return out


@st.composite
def windows(draw, mappings):
    """A window whose edges and time bounds are biased to sit exactly on
    unit end points and end positions."""
    instants, positions = _instants(mappings), _positions(mappings)

    def pick(pool, free):
        if pool and draw(st.booleans()):
            return draw(st.sampled_from(pool))
        return draw(free)

    t0 = pick(instants, instant)
    t1 = pick([t for t in instants if t >= t0], span.map(lambda d: t0 + d))
    xs = sorted(
        pick([p[0] for p in positions], coord) + draw(nudge) for _ in range(2)
    )
    ys = sorted(
        pick([p[1] for p in positions], coord) + draw(nudge) for _ in range(2)
    )
    return Rect(xs[0], ys[0], xs[1], ys[1]), t0, t1


@st.composite
def fleet_and_window(draw):
    mappings = draw(fleets())
    return (mappings, *draw(windows(mappings)))


def _answer(result):
    return [
        (key, [(iv.s, iv.e, iv.lc, iv.rc) for iv in times.intervals])
        for key, times in result
    ]


# ---------------------------------------------------------------------------
# (a) WindowQueryEngine: one answer on every backend
# ---------------------------------------------------------------------------


class TestWindowEngineDifferential:
    @given(fw=fleet_and_window(), lazy=st.booleans(), strict=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_backend_answers_query_naive(self, fw, lazy, strict):
        mappings, rect, t0, t1 = fw
        engine = WindowQueryEngine()
        for i, m in enumerate(mappings):
            # Every other object storage-resident when ``lazy``.
            if lazy and i % 2:
                engine.add_lazy(f"o{i}", lambda m=m: m)
            else:
                engine.add(f"o{i}", m)
        want = _answer(engine.query_naive(rect, t0, t1))
        for backend in BACKENDS:
            got = engine.query(
                rect, t0, t1, backend=backend, strict=strict, workers=2
            )
            assert _answer(got) == want, backend

    @given(fw=fleet_and_window())
    @settings(max_examples=40, deadline=None)
    def test_rotten_loader_is_quarantined_alike(self, fw):
        mappings, rect, t0, t1 = fw
        engine = WindowQueryEngine()
        for i, m in enumerate(mappings):
            engine.add(f"o{i}", m)
        rotten = MovingPoint([UPoint.between(t0, (rect.xmin, rect.ymin),
                                             t0 + 1.0, (rect.xmax, rect.ymax))])
        loads = []

        def loader():
            loads.append(None)
            if len(loads) > 1:  # indexes fine, rots before any query
                raise StorageError("simulated on-disk rot")
            return rotten

        engine.add_lazy("rotten", loader)
        healthy = WindowQueryEngine()
        for i, m in enumerate(mappings):
            healthy.add(f"o{i}", m)
        want = _answer(healthy.query_naive(rect, t0, t1))
        for backend in BACKENDS:
            with obs.capture() as c:
                got = engine.query(rect, t0, t1, backend=backend, strict=False)
            assert _answer(got) == want, backend
            # The rotten object starts inside the window at t0, so the
            # scalar filter step reaches it too: counted once everywhere.
            assert c.get("storage.quarantined") == 1, backend
            with pytest.raises(StorageError):
                engine.query(rect, t0, t1, backend=backend)

    def test_vector_query_is_one_kernel_sweep(self):
        import random

        rng = random.Random(5)
        engine = WindowQueryEngine()
        for i in range(40):
            t, wps = 0.0, []
            for _ in range(4):
                wps.append((t, (rng.uniform(0, 100), rng.uniform(0, 100))))
                t += rng.uniform(1, 10)
            engine.add(i, MovingPoint.from_waypoints(wps))
        rect = Rect(20, 20, 70, 70)
        with obs.capture() as c:
            got = engine.query(rect, 5.0, 20.0, backend="vector")
        counted = c.snapshot()["counters"]
        assert counted["vector.window_intervals_batch.calls"] == 1
        assert counted.get("vector.bbox_filter.calls", 0) == 0
        assert "rtree.nodes_visited" not in counted
        assert not any("fallback" in name for name in counted)
        assert got and _answer(got) == _answer(engine.query_naive(rect, 5.0, 20.0))


# ---------------------------------------------------------------------------
# (b) SQL: the same relation in memory and materialized, every scan class
# ---------------------------------------------------------------------------

SCHEMA = [("id", "string"), ("rank", "int"), ("flight", "mpoint")]
#: Unit records are 50 bytes: one- and two-unit flights stay inline,
#: longer ones go to FLOB pages.
INLINE_THRESHOLD = 128


def _fill(rel, mappings):
    for i, m in enumerate(mappings):
        rel.insert([f"F{i:02d}", (7 * i) % 5, m])


def _databases(mappings):
    mem, mat = Database("mem"), Database("mat")
    _fill(mem.create_relation("planes", SCHEMA), mappings)
    _fill(
        mat.create_relation(
            "planes", SCHEMA, materialized=True,
            inline_threshold=INLINE_THRESHOLD,
        ),
        mappings,
    )
    return mem, mat


def _lit(value):
    """A float as SQL spells it: ``repr`` parses back to the same double."""
    return repr(value)


def _statements(bounds, t0, t1):
    """``bounds`` is ``(xmin, ymin, xmax, ymax)``, malformed or not."""
    present = f"present(flight, {_lit(t0)})"
    window = "passes_window(flight, " + ", ".join(
        _lit(v) for v in (*bounds, t0, t1)
    ) + ")"
    return [
        f"SELECT id FROM planes WHERE {present}",
        f"SELECT id FROM planes WHERE {window}",
        f"SELECT id, rank FROM planes WHERE {present} AND {window}",
        f"SELECT id FROM planes WHERE NOT {present}",  # not compilable
        f"SELECT * FROM planes WHERE {window}",
        f"SELECT id FROM planes WHERE {present} ORDER BY rank DESC",
        "SELECT rank, count(*) FROM planes GROUP BY rank",
        "SELECT id FROM planes",
    ]


def _plain(value):
    if isinstance(value, MovingPoint):
        return tuple(
            (u.interval.s, u.interval.e, u.interval.lc, u.interval.rc,
             *u.coefficients)
            for u in value.units
        )
    return getattr(value, "value", value)


def _rows(db, text, strict=True):
    return [
        tuple((k, _plain(v)) for k, v in row.items())
        for row in db.query(text, strict=strict)
    ]


def _outcome(db, text):
    """The rows a statement answers, or the type of error it raises."""
    try:
        return _rows(db, text)
    except ReproError as exc:
        return type(exc)


class _scan_class:
    """Plan the next statements under one of the three planner
    configurations: the row loop and the two columnar backends."""

    NAMES = ("scalar", "vector", "parallel")
    #: The ones that plan a ``VectorScan``.
    COLUMNAR = NAMES[1:]

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        set_backend(self.name)

    def __exit__(self, *exc):
        set_backend("scalar")


def _column_of(arrays):
    """One lane per stored array, none empty-handed."""
    return UPointColumn.from_unit_arrays(
        arrays, np.arange(len(arrays)), len(arrays)
    )


#: Five planes present throughout ``[0, 100]``, so every row reaches
#: the window call.
_STAYING = [
    MovingPoint.from_waypoints([(0.0, (i, i)), (100.0, (i + 1.0, i))])
    for i in range(5)
]


class TestSqlDifferential:
    @given(fw=fleet_and_window().map(
        lambda fw: (fw[0], (fw[1].xmin, fw[1].ymin, fw[1].xmax, fw[1].ymax),
                    *fw[2:])
    ))
    @example(fw=(_STAYING, (0.0, 0.0, 1e6, 1e6), 50.0, 10.0))  # t0 > t1
    @example(fw=(_STAYING, (1e6, 0.0, 0.0, 1e6), 10.0, 50.0))  # xmin > xmax
    @settings(max_examples=30, deadline=None)
    def test_one_answer_in_memory_and_materialized(self, fw):
        """Every scan class answers the same rows, or raises the same
        error type — a malformed window included."""
        mappings, bounds, t0, t1 = fw
        mem, mat = _databases(mappings)
        for text in _statements(bounds, t0, t1):
            want = _outcome(mem, text)
            for name in _scan_class.NAMES:
                for db in (mem, mat):
                    with _scan_class(name):
                        assert _outcome(db, text) == want, (name, text)

    @given(mappings=fleets(min_size=0, max_size=10))
    @settings(max_examples=80, deadline=None)
    def test_stored_array_column_equals_from_mappings(self, mappings):
        arrays = [pack_value("mpoint", m).arrays[0] for m in mappings]
        want = UPointColumn.from_mappings(mappings)
        got = _column_of(arrays)
        for field in COLUMN_FIELDS:
            assert np.array_equal(getattr(got, field), getattr(want, field))
        # With gaps: only every other tuple holds a row.
        lanes = np.arange(0, 2 * len(mappings), 2)
        got = UPointColumn.from_unit_arrays(arrays, lanes, 2 * len(mappings))
        empty = MovingPoint()
        want = UPointColumn.from_mappings(
            [m for pair in zip(mappings, [empty] * len(mappings)) for m in pair]
        )
        for field in COLUMN_FIELDS:
            assert np.array_equal(getattr(got, field), getattr(want, field))

    @pytest.mark.parametrize(
        "record",
        [
            (2.0, 1.0, True, True, 0.0, 0.0, 0.0, 0.0),   # s > e
            (math.nan, 1.0, True, True, 0.0, 0.0, 0.0, 0.0),  # NaN bound
            (1.0, 1.0, True, False, 0.0, 0.0, 0.0, 0.0),  # degenerate, half-open
            (0.0, 1.0, True, True, math.inf, 0.0, 0.0, 0.0),
            (0.0, 1.0, True, True, 0.0, 0.0, math.nan, 0.0),
        ],
    )
    def test_stored_array_rejected_like_the_codec(self, record):
        arr = DatabaseArray(UPointColumn.UNIT_FORMAT)
        arr.append(0.0, 1.0, True, True, 1.0, 0.0, 1.0, 0.0)
        arr.append(*record)
        stored = pack_value("mpoint", MovingPoint())
        stored.arrays[0] = arr
        with pytest.raises(InvalidValue):
            MovingPointCodec().unpack(stored)
        with pytest.raises(InvalidValue):
            _column_of([arr])

    def test_stored_array_units_sort_like_the_codec(self):
        arr = DatabaseArray(UPointColumn.UNIT_FORMAT)
        arr.append(5.0, 6.0, True, True, 1.0, 0.0, 1.0, 0.0)
        arr.append(0.0, 1.0, True, False, 2.0, 0.0, 2.0, 0.0)
        stored = pack_value("mpoint", MovingPoint())
        stored.arrays[0] = arr
        want = UPointColumn.from_mappings([MovingPointCodec().unpack(stored)])
        got = _column_of([arr])
        for field in COLUMN_FIELDS:
            assert np.array_equal(getattr(got, field), getattr(want, field))


def _track(i, legs=1):
    """Object ``i`` is present exactly on ``[10i, 10i + 5]``."""
    t0 = 10.0 * i
    step = 5.0 / legs
    return MovingPoint.from_waypoints(
        [(t0 + k * step, (float(k), float(k % 2))) for k in range(legs + 1)]
    )


def _planes(n=4, flob=()):
    """``n`` tuples; those in ``flob`` have flights long enough to leave
    the tuple for FLOB pages.  Returns the database, the relation and
    the FLOB pages of each tuple."""
    db = Database("d")
    rel = db.create_relation(
        "planes", SCHEMA, materialized=True, inline_threshold=INLINE_THRESHOLD
    )
    pages = {}
    for i in range(n):
        before = rel.store.pagefile.page_count
        rel.insert([f"F{i}", i, _track(i, legs=8 if i in flob else 1)])
        pages[i] = range(before, rel.store.pagefile.page_count)
    return db, rel, pages


def _truncate(rel, tid):
    rel.store._tuples[tid] = rel.store._tuples[tid][:-4]
    rel.invalidate()  # changed behind the relation's back


def _flip_page_byte(rel, page_no):
    """Flip one payload byte of a page on disk and drop what was read
    before — cached frames, kept scan state — so the next read sees it."""
    store = rel.store
    store.buffer_pool.flush()
    store.buffer_pool._frames.clear()
    rel.invalidate()
    f = store.pagefile._file
    at = page_no * store.pagefile.page_size + PAGE_HEADER_SIZE + 20
    f.seek(at)
    byte = f.read(1)
    f.seek(at)
    f.write(bytes([byte[0] ^ 0x40]))


class TestCorruptTuple:
    """One corrupt tuple: the same error type under ``strict=True`` and
    the same rows, one quarantine counted, under ``strict=False`` — on
    every scan class."""

    QUERIES = [
        "SELECT id FROM planes WHERE present(flight, 22.0)",
        "SELECT id FROM planes WHERE passes_window(flight, "
        "0.0, 0.0, 9.0, 9.0, 0.0, 100.0)",
        "SELECT id FROM planes",
    ]

    @pytest.mark.parametrize("victim", [0, 1, 3])
    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_same_error_and_same_rows(self, victim, damage):
        flob = {1, 3} if damage == "truncate" else {victim}
        db, rel, pages = _planes(flob=flob)
        # One intact query per scan class first: what it keeps of the
        # relation predates the damage.
        for name in _scan_class.NAMES:
            with _scan_class(name):
                db.query(self.QUERIES[0])
        if damage == "truncate":
            _truncate(rel, victim)
        else:
            assert len(pages[victim]) >= 1
            _flip_page_byte(rel, pages[victim][0])
        survivors = [f"F{i}" for i in range(4) if i != victim]
        want = [
            [s for s in survivors if s == "F2"], survivors, survivors,
        ]
        errors = set()
        for name in _scan_class.NAMES:
            with _scan_class(name):
                for text, expect in zip(self.QUERIES, want):
                    with pytest.raises(StorageError) as caught:
                        db.query(text)
                    errors.add(type(caught.value))
                    with obs.capture() as c:
                        rows = db.query(text, strict=False)
                    assert [r["id"].value for r in rows] == expect, (name, text)
                    assert c.get("storage.quarantined") == 1, (name, text)
        assert len(errors) == 1

    @pytest.mark.parametrize("victim", [0, 2, 3])
    def test_mmap_scan_mask_is_indexed_by_tuple_id(self, victim):
        """Regression: the column has one lane per tuple, the scanned
        rows one fewer after a quarantine — zipping them shifted every
        later row under the wrong lane (``['F3']`` for t=22)."""
        db, rel, _pages = _planes()
        set_backend("vector")
        q = "SELECT id FROM planes WHERE present(flight, {t!r})"
        assert [r["id"].value for r in db.query(q.format(t=22.0))] == ["F2"]
        _truncate(rel, victim)
        for i in range(4):
            rows = db.query(q.format(t=10.0 * i + 2.0), strict=False)
            assert [r["id"].value for r in rows] == (
                [] if i == victim else [f"F{i}"]
            )
        with pytest.raises(StorageError):
            db.query(q.format(t=22.0))


# ---------------------------------------------------------------------------
# (c) Late materialisation, by count
# ---------------------------------------------------------------------------


@pytest.fixture
def unpacked(monkeypatch):
    """Counts ``MovingPointCodec.unpack`` calls."""
    calls = []
    original = MovingPointCodec.unpack

    def counting(self, stored):
        calls.append(stored)
        return original(self, stored)

    monkeypatch.setattr(MovingPointCodec, "unpack", counting)
    return calls


class TestDecodeOnlyWhatIsReturned:
    WINDOW = "passes_window(flight, 0.0, 0.0, 9.0, 9.0, 8.0, 24.0)"

    def test_window_unpacks_exactly_the_hit_flights(self, unpacked):
        db, _rel, _pages = _planes(n=6, flob={1, 4})
        set_backend("vector")
        rows = db.query(f"SELECT id, flight FROM planes WHERE {self.WINDOW}")
        assert [r["id"].value for r in rows] == ["F1", "F2"]
        assert len(unpacked) == 2
        del unpacked[:]
        rows = db.query(f"SELECT * FROM planes WHERE {self.WINDOW}")
        assert [r["planes.id"].value for r in rows] == ["F1", "F2"]
        assert len(unpacked) == 2

    def test_unreferenced_flight_is_never_unpacked(self, unpacked):
        db, _rel, _pages = _planes(n=6, flob={1, 4})
        set_backend("vector")
        rows = db.query("SELECT id FROM planes WHERE present(flight, 12.0)")
        assert [r["id"].value for r in rows] == ["F1"]
        rows = db.query(
            f"SELECT id FROM planes WHERE {self.WINDOW} ORDER BY rank DESC"
        )
        assert [r["id"].value for r in rows] == ["F2", "F1"]
        assert len(db.query("SELECT id FROM planes")) == 6
        assert unpacked == []

    def test_row_predicate_unpacks_every_flight_once(self, unpacked):
        db, _rel, _pages = _planes(n=6, flob={1, 4})
        set_backend("vector")
        with obs.capture() as c:
            rows = db.query(
                "SELECT id FROM planes WHERE NOT present(flight, 12.0)"
            )
        assert len(rows) == 5
        assert len(unpacked) == 6
        assert c.get("vector.fallback_to_scalar.predicate") == 1

    @pytest.mark.parametrize("backend", ["scalar", "vector", "parallel"])
    def test_every_flob_chain_is_read_once_per_statement(self, backend):
        """Never twice in a statement — and by a scan that keeps what it
        read (every columnar one), once per *version* of the relation."""
        db, rel, _pages = _planes(n=6, flob={1, 4})
        assert rel.store.external_arrays == 2
        set_backend(backend)

        def chains_read():
            counts = []
            for text in (
                "SELECT id FROM planes WHERE present(flight, 12.0)",
                f"SELECT id, flight FROM planes WHERE {self.WINDOW}",
                "SELECT id FROM planes WHERE NOT present(flight, 12.0)",
            ):
                with obs.capture() as c:
                    db.query(text)
                counts.append(c.get("storage.flob_reads"))
            return counts

        keeps = backend != "scalar"
        assert chains_read() == ([2, 0, 0] if keeps else [2, 2, 2])
        rel.insert(["F6", 6, _track(6, legs=8)])
        assert chains_read() == ([3, 0, 0] if keeps else [3, 3, 3])


class TestKeptScanState:
    """What a columnar scan read is kept per (relation, version): the
    next statement on an unchanged relation reads nothing, and nothing
    read before an ``insert`` or an ``invalidate()`` is served after it."""

    #: Q1's shape: a string conjunct beside the trajectory-length one.
    Q1 = (
        "SELECT id FROM planes WHERE id = 'F1' "
        "AND length(trajectory(flight)) > 1.0"
    )

    @pytest.mark.parametrize("name", _scan_class.NAMES)
    def test_a_statement_after_insert_sees_the_new_tuple(self, name):
        db, rel, _pages = _planes(n=4, flob={1})

        def answers():
            return [
                [r["id"].value for r in db.query(text)]
                for text in (
                    "SELECT id FROM planes WHERE present(flight, 42.0)",
                    "SELECT id FROM planes WHERE rank >= 3",
                    self.Q1,
                )
            ]

        with _scan_class(name):
            assert answers() == [[], ["F3"], ["F1"]]
            rel.insert(["F4", 4, _track(4, legs=8)])
            assert answers() == [["F4"], ["F3", "F4"], ["F1"]]

    @pytest.mark.parametrize("name", _scan_class.NAMES)
    def test_second_statement_reads_nothing_until_invalidated(
        self, name, unpacked
    ):
        db, rel, _pages = _planes(n=6, flob={1, 4})

        def work():
            del unpacked[:]
            with obs.capture() as c:
                rows = db.query(self.Q1)
            assert [r["id"].value for r in rows] == ["F1"]
            # Pages pinned (read from the file or found in the pool),
            # FLOB chains walked, flights unpacked.
            return (
                c.get("storage.page_reads") + c.get("buffer.hits"),
                c.get("storage.flob_reads"), len(unpacked),
            )

        with _scan_class(name):
            first = work()
            assert first[:2] == (2, 2)
            if name == "scalar":  # the row loop: reads and unpacks it all
                assert work() == first == (2, 2, 6)
                return
            # No columnar configuration ever unpacks a flight here.
            assert first[2] == 0
            assert work() == (0, 0, 0)
            assert work() == (0, 0, 0)
            rel.invalidate()
            assert work() == (2, 2, 0)
            assert work() == (0, 0, 0)

    @pytest.mark.parametrize("name", _scan_class.COLUMNAR)
    def test_kept_state_lives_in_the_relation(self, name):
        """One read per attribute, kept in the relation at the version it
        was read at: hit while that stands, replaced once it moves."""
        db, rel, _pages = _planes(n=6, flob={1, 4})
        slot = ("scan", "flight")
        with _scan_class(name):
            assert rel._kept is None
            with obs.capture() as c:
                db.query(self.Q1)
            assert c.get("colcache.misses") >= 1 and not c.get("colcache.hits")
            version, held = rel._kept[slot]
            assert version == rel.version and held.column is not None
            with obs.capture() as c:
                db.query(self.Q1)
            assert c.get("colcache.hits") >= 1 and not c.get("colcache.misses")
            assert rel._kept[slot] == (version, held)
            rel.invalidate()
            with obs.capture() as c:
                db.query(self.Q1)
            assert c.get("colcache.invalidations") >= 1
            assert list(rel._kept) == [slot]  # replaced, not added
            assert rel._kept[slot][0] == rel.version > version

    @pytest.mark.parametrize("name", _scan_class.COLUMNAR)
    def test_a_repeated_statement_adds_nothing_to_the_cache(self, name):
        """Regression: every statement once tiled the relation into fresh
        shard fleets and left their columns behind.  The relation keeps
        one read, the same one for every statement."""
        db, rel, _pages = _planes(n=12, flob={1, 4})
        with _scan_class(name):
            kept = []
            for _ in range(6):
                db.query("SELECT id FROM planes WHERE present(flight, 12.0)")
                kept.append(dict(rel._kept))
        assert len(kept[0]) == 1 and kept[1:] == kept[:1] * 5

    def test_a_relations_kept_state_leaves_with_it(self):
        from repro.db.executor import VectorScan
        from repro.db.relation import Relation
        from repro.db.schema import Schema

        rel = Relation("planes", Schema(SCHEMA), materialized=True,
                       inline_threshold=INLINE_THRESHOLD)
        for i in range(3):
            rel.insert([f"F{i}", i, _track(i)])
        scan = VectorScan(rel, attr="flight")
        column = weakref.ref(scan.column())
        assert VectorScan(rel, attr="flight").column() is column()
        del scan, rel
        gc.collect()
        assert column() is None

    def test_a_damaged_relation_is_never_kept(self):
        db, rel, _pages = _planes(n=4, flob={1})
        set_backend("vector")
        _truncate(rel, 2)
        text = "SELECT id FROM planes"
        for _ in range(2):
            with obs.capture() as c:
                rows = db.query(text, strict=False)
            assert [r["id"].value for r in rows] == ["F0", "F1", "F3"]
            assert c.get("storage.quarantined") == 1
            assert c.get("storage.flob_reads") == 1
            assert not c.get("colcache.hits")
            with pytest.raises(StorageError):
                db.query(text)

    def test_a_rotten_value_never_touches_the_kept_state(self, monkeypatch):
        """A tuple that reads clean but fails to unpack is skipped by the
        statement that met it, and met again by the next."""
        db, rel, _pages = _planes(n=4)
        set_backend("vector")
        original = MovingPointCodec.unpack

        def rots(self, stored):
            if next(iter(stored.arrays[0]))[0] == 20.0:  # F2's start
                raise StorageError("simulated rot")
            return original(self, stored)

        monkeypatch.setattr(MovingPointCodec, "unpack", rots)
        text = "SELECT id, flight FROM planes"
        for _ in range(2):
            with obs.capture() as c:
                rows = db.query(text, strict=False)
            assert [r["id"].value for r in rows] == ["F0", "F1", "F3"]
            assert c.get("storage.quarantined") == 1
        assert len(db.query("SELECT id FROM planes")) == 4

    @pytest.mark.parametrize("materialized", [True, False])
    def test_an_insert_between_rows_and_column_tears_nothing(
        self, materialized
    ):
        """The rows a scan read and the column built from them are one
        kept entry at the version of the read: an insert landing between
        the two leaves that scan whole at the old version, and nothing it
        builds afterwards stands in for the new one."""
        from repro.db.executor import VectorScan

        db = Database("d")
        rel = db.create_relation(
            "planes", SCHEMA, materialized=materialized,
            inline_threshold=INLINE_THRESHOLD,
        )
        for i in range(3):
            rel.insert([f"F{i}", i, _track(i)])

        def scan():
            return VectorScan(rel, attr="flight")

        early, late = scan(), scan()
        assert list(early.held()) == list(late.held()) == [0, 1, 2]
        rel.insert(["F3", 3, _track(3)])
        assert early.column().n_objects == early.n_tuples == 3
        # The column just built was kept at the version of its rows, not
        # at the relation's current one: the next scan reads afresh ...
        fresh = scan()
        assert fresh.n_tuples == 4 and fresh.column().n_objects == 4
        assert fresh.batch("present", 32.0).tolist() == [0, 0, 0, 1]
        # ... and an overtaken scan finishing late (its rows were a hit
        # at the old version) replaces nothing kept since.
        assert late.column().n_objects == late.n_tuples == 3
        with obs.capture() as c:
            hit = scan()
            assert hit.n_tuples == 4 and hit.column() is fresh.column()
        assert c.get("colcache.hits") == 1 and not c.get("colcache.misses")
        set_backend("vector")
        text = "SELECT id FROM planes WHERE present(flight, 32.0)"
        assert [r["id"].value for r in db.query(text)] == ["F3"]

    def test_dropping_a_relation_releases_its_kept_state(self):
        db, rel, _pages = _planes(n=4, flob={1})
        set_backend("vector")
        db.query(self.Q1)
        _version, held = rel._kept[("scan", "flight")]
        column = weakref.ref(held.column)
        del rel, held
        db.drop_relation("planes")
        gc.collect()
        assert column() is None

    def test_recovery_and_recreation_start_from_nothing(self):
        from repro.storage.wal import Wal

        wal = Wal()
        db = Database("d", wal=wal)
        rel = db.create_relation("planes", SCHEMA, materialized=True)
        for i in range(3):
            rel.insert([f"F{i}", i, _track(i)])
        set_backend("vector")
        text = "SELECT id FROM planes WHERE present(flight, 12.0)"
        assert [r["id"].value for r in db.query(text)] == ["F1"]
        wal.crash()
        recovered = Database.recover(wal)
        assert recovered.relation("planes") is not rel
        with obs.capture() as c:
            assert [r["id"].value for r in recovered.query(text)] == ["F1"]
        assert not c.get("colcache.hits")
        db.drop_relation("planes")
        again = db.create_relation("planes", SCHEMA, materialized=True)
        again.insert(["G0", 0, _track(1)])
        assert [r["id"].value for r in db.query(text)] == ["G0"]


    @pytest.mark.parametrize("shape", ["server", "bare"])
    def test_two_threads_query_while_a_third_inserts(self, shape):
        """``server``: statements and inserts all go through
        ``FleetExecutor.query_sql`` from worker threads, the shape
        ``to_thread`` gives the query service (its lock serialises them;
        the suite's ``REPRO_DYNLOCK=1`` pass witnesses the order
        executor → column cache).  ``bare``: an in-memory relation with
        no lock at all, so scans, the cache and ``insert`` interleave.
        Either way a statement sees every tuple whose insert returned
        before it began, and the last one sees them all."""
        import sys
        import threading

        from repro.io.text import to_text
        from repro.server.executor import FleetExecutor

        total, start = 40, 3
        executor = FleetExecutor()
        rel = executor.db.create_relation(
            "planes", SCHEMA, materialized=shape == "server",
            inline_threshold=INLINE_THRESHOLD,
        )
        for i in range(start):
            rel.insert([f"F{i}", i, _track(i, legs=1 + 7 * (i % 2))])
        text = "SELECT id FROM planes WHERE length(trajectory(flight)) > 0.5"
        inserted = [start]  # tuples whose insert has returned
        failures, seen = [], {0: [], 1: []}

        def query():
            if shape == "server":
                return executor.query_sql(text)[-1].rows
            return executor.db.query(text)

        def reader(k):
            try:
                while inserted[0] < total:
                    floor = inserted[0]
                    count = len(query())
                    assert floor <= count <= total, (floor, count)
                    seen[k].append(count)
            except BaseException as exc:  # surfaced by the main thread
                failures.append(exc)

        def writer():
            try:
                for i in range(start, total):
                    flight = _track(i, legs=1 + 7 * (i % 2))
                    if shape == "server":
                        executor.query_sql(
                            f"INSERT INTO planes VALUES ('F{i}', {i}, "
                            f"'{to_text(flight)}')"
                        )
                    else:
                        rel.insert([f"F{i}", i, flight])
                    inserted[0] = i + 1
            except BaseException as exc:
                failures.append(exc)
                inserted[0] = total  # let the readers stop

        set_backend("vector")
        threads = [
            threading.Thread(target=reader, args=(0,)),
            threading.Thread(target=reader, args=(1,)),
            threading.Thread(target=writer),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert len(query()) == total
        for counts in seen.values():
            assert counts == sorted(counts)


class TestFetchSeam:
    def test_fetch_is_the_stored_values_unpacked(self):
        from repro.storage.records import safe_unpack

        _db, rel, _pages = _planes(n=3, flob={1})
        store = rel.store
        for tid in range(3):
            stored = store.fetch_stored(tid)
            assert [s.type_name for s in stored] == ["string", "int", "mpoint"]
            assert [safe_unpack(s) for s in stored] == store.fetch(tid)
        assert [tid for tid, _ in store.scan_stored()] == [0, 1, 2]
        _truncate(rel, 1)
        assert [tid for tid, _ in store.scan_stored(strict=False)] == [0, 2]
        with pytest.raises(StorageError):
            list(store.scan_stored())


# ---------------------------------------------------------------------------
# Satellites: bulk Point lists, the EPSILON band around a bounding box
# ---------------------------------------------------------------------------


class TestBulkPoints:
    @given(
        st.lists(st.tuples(coord, coord, st.booleans()), max_size=30)
    )
    def test_points_equal_the_per_point_constructor(self, lanes):
        xs = np.array([x if d else np.nan for x, _y, d in lanes], dtype=float)
        ys = np.array([y if d else np.nan for _x, y, d in lanes], dtype=float)
        defined = np.array([d for *_xy, d in lanes], dtype=bool)
        got = backends._points((xs, ys, defined))
        want = [Point(x, y) if d else None for x, y, d in lanes]
        assert got == want
        assert all(type(p.x) is float for p in got if p is not None)

    def test_non_finite_defined_lane_is_rejected(self):
        lanes = (np.array([1.0, np.inf]), np.array([1.0, 2.0]),
                 np.array([True, True]))
        with pytest.raises(InvalidValue):
            backends._points(lanes)
        lanes[2][1] = False  # the same lane, undefined: never built
        assert backends._points(lanes) == [Point(1.0, 1.0), None]


@st.composite
def convex_regions(draw):
    """An exact box or a regular polygon, optionally with a hole of the
    same shape.  The polygon phases are no rational multiple of π, so no
    edge is (near-)vertical with end points an ulp apart in x: there the
    shifted half-open windows of ``crossings_above`` stop tiling and the
    raw parity of a point straight below is odd — a sliver 1e-16 wide
    that ROADMAP records; it is not what this property is about."""
    cx, cy = draw(coord), draw(coord)
    radius = draw(st.integers(min_value=8, max_value=240).map(lambda k: k / 8.0))
    sides = draw(st.integers(min_value=3, max_value=12))
    phase = draw(st.sampled_from([None, 0.3, 0.7, 1.1]))

    def ring(r):
        if phase is None:
            return [(cx - r, cy - r), (cx + r, cy - r),
                    (cx + r, cy + r), (cx - r, cy + r)]
        return [
            (cx + r * math.cos(phase + 2 * math.pi * k / sides),
             cy + r * math.sin(phase + 2 * math.pi * k / sides))
            for k in range(sides)
        ]

    holes = [ring(radius / 4.0)] if draw(st.booleans()) else []
    return Region.polygon(ring(radius), holes)


@st.composite
def region_and_edge_points(draw):
    region = draw(convex_regions())
    box = region.bbox()
    vertices = [p for s in region.segments() for p in s]
    offsets = st.sampled_from(
        [k * EPSILON for k in (-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0)]
    )
    xs = st.sampled_from([box.xmin, box.xmax] + [v[0] for v in vertices])
    ys = st.sampled_from([box.ymin, box.ymax] + [v[1] for v in vertices])
    inside_x = st.floats(min_value=box.xmin, max_value=box.xmax)
    inside_y = st.floats(min_value=box.ymin, max_value=box.ymax)
    points = draw(st.lists(
        st.tuples(
            st.one_of(st.builds(lambda a, b: a + b, xs, offsets), inside_x),
            st.one_of(st.builds(lambda a, b: a + b, ys, offsets), inside_y),
        ),
        min_size=1, max_size=12,
    ))
    return region, points


class TestInsideNearTheBoundingBox:
    def test_reproduced_scalar_vector_split(self):
        """On the parent the exact bounding-box cut ran before the
        eps-tolerant boundary test: scalar said out, the kernel in."""
        region = Region.box(0, 0, 10, 10)
        p = (10 + EPSILON / 4, 5.0)
        assert region.contains_point(p)
        assert list(inside_prefilter([p], region)) == [True]
        fleet = [MovingPoint([UPoint.stationary(Interval(0.0, 1.0), p)])]
        for backend in BACKENDS:
            count, mask = fleet_count_inside(fleet, 0.5, region, backend=backend)
            assert (count, list(mask)) == (1, [True]), backend
        far = (10 + 3 * EPSILON, 5.0)
        assert not region.contains_point(far)
        assert list(inside_prefilter([far], region)) == [False]

    @given(region_and_edge_points())
    @settings(max_examples=200, deadline=None)
    def test_cut_is_a_superset_and_scalar_equals_kernel(self, rp):
        region, points = rp
        box, segs = region.bbox(), region.segments()
        kernel = inside_prefilter(points, region)
        for p, got in zip(points, kernel):
            if point_in_segset(p, segs):  # the refine step accepts …
                assert box.near(p[0], p[1])  # … only what the cut passes
            assert region.contains_point(p) == bool(got), p
        for flag in (True, False):
            assert list(inside_prefilter(points, region, boundary_counts=flag)) == [
                region.contains_point(p, boundary_counts=flag) for p in points
            ]

    def test_empty_region_and_no_points(self):
        assert list(inside_prefilter([(0.0, 0.0)], Region([]))) == [False]
        assert len(inside_prefilter([], Region.box(0, 0, 1, 1))) == 0
