"""The value records: ``Interval``, ``MPoint``, ``MSeg``, ``Rect``, ``Cube``.

Each is a frozen dataclass with hand-declared ``__slots__`` and one
validating constructor (DESIGN.md, "Value records").  The contract:
no instance ``__dict__``; every assignment or deletion raises
``FrozenInstanceError``; pickle and copy rebuild an equal value; eq,
hash and repr are those of the plain frozen dataclasses below, which
are the types' earlier definitions kept as the oracle; every rejection
keeps its error type and message.  The one deliberate difference: a
NaN side of a ``Rect`` or ``Cube`` is malformed (the plain dataclasses
accepted it, and the backends then disagreed on the window query).
"""

import copy
import math
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError, astuple, dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidValue
from repro.ops.window import WindowQueryEngine
from repro.ranges import interval
from repro.spatial import bbox
from repro.temporal import mseg
from repro.vector.fleet import fleet_bbox_filter
from repro.workloads import FlightGenerator

BACKENDS = ("scalar", "vector", "parallel")
NAN, INF = math.nan, math.inf


# -- the oracle: the plain frozen dataclasses the records replace ------------


@dataclass(frozen=True)
class Interval:
    s: float
    e: float
    lc: bool = True
    rc: bool = True

    def __post_init__(self):
        if not self.s <= self.e:
            raise InvalidValue(f"interval start {self.s!r} exceeds end {self.e!r}")
        if self.s == self.e and not (self.lc and self.rc):
            raise InvalidValue("a degenerate interval must be closed on both sides")

    def __repr__(self) -> str:
        lb = "[" if self.lc else "("
        rb = "]" if self.rc else ")"
        return f"{lb}{self.s!r}, {self.e!r}{rb}"


@dataclass(frozen=True)
class MPoint:
    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        for v in (self.x0, self.x1, self.y0, self.y1):
            if not math.isfinite(v):
                raise InvalidValue("MPoint coefficients must be finite")


@dataclass(frozen=True)
class MSeg:
    s: MPoint
    e: MPoint

    def __post_init__(self):
        if self.s == self.e:
            raise InvalidValue("MSeg end points must be distinct moving points")
        if not mseg.MSeg.coplanar(self.s, self.e):
            raise InvalidValue(
                "MSeg end point trajectories must be coplanar (segments may not rotate)"
            )


@dataclass(frozen=True)
class Rect:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise InvalidValue("malformed rectangle")


@dataclass(frozen=True)
class Cube:
    xmin: float
    ymin: float
    tmin: float
    xmax: float
    ymax: float
    tmax: float

    def __post_init__(self):
        if self.xmin > self.xmax or self.ymin > self.ymax or self.tmin > self.tmax:
            raise InvalidValue("malformed cube")


def _mseg(cls_point, cls_seg):
    """A valid moving segment: two points moving with one velocity."""
    return cls_seg(cls_point(0.0, 1.0, 0.0, 2.0), cls_point(3.0, 1.0, 4.0, 2.0))


#: One valid value of each record, beside the same value of its oracle.
SAMPLES = {
    "Interval": (interval.Interval(0.0, 2.0, True, False), Interval(0.0, 2.0, True, False)),
    "MPoint": (mseg.MPoint(1.0, -2.0, 3.5, 0.0), MPoint(1.0, -2.0, 3.5, 0.0)),
    "MSeg": (_mseg(mseg.MPoint, mseg.MSeg), _mseg(MPoint, MSeg)),
    "Rect": (bbox.Rect(0.0, -1.0, INF, 4.0), Rect(0.0, -1.0, INF, 4.0)),
    "Cube": (bbox.Cube(-INF, 0.0, 1.0, 2.0, 3.0, 1.0), Cube(-INF, 0.0, 1.0, 2.0, 3.0, 1.0)),
}
NAMES = sorted(SAMPLES)


def _same(record, twin):
    """Equal fields (nested records included), hash and repr."""
    assert astuple(record) == astuple(twin)
    assert hash(record) == hash(twin)
    assert repr(record) == repr(twin)


# -- layout -------------------------------------------------------------------


class TestLayout:
    @pytest.mark.parametrize("name", NAMES)
    def test_no_instance_dict(self, name):
        record, _ = SAMPLES[name]
        assert not hasattr(record, "__dict__")
        assert type(record).__slots__ == tuple(type(record).__dataclass_fields__)

    @pytest.mark.parametrize("name", NAMES)
    def test_every_assignment_and_deletion_is_frozen(self, name):
        record, _ = SAMPLES[name]
        for attr in (*type(record).__dataclass_fields__, "other", "__orig_class__"):
            with pytest.raises(FrozenInstanceError):
                setattr(record, attr, 1.0)
            with pytest.raises(FrozenInstanceError):
                delattr(record, attr)
        _same(record, SAMPLES[name][1])

    def test_parametrised_interval_builds(self):
        iv = interval.Interval[float](0.0, 1.0)
        assert iv == interval.Interval(0.0, 1.0, True, True)
        assert not hasattr(iv, "__dict__")

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize(
        "roundtrip",
        [
            lambda v: pickle.loads(pickle.dumps(v)),
            lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "pickle0", "copy", "deepcopy"],
    )
    def test_roundtrips_rebuild_an_equal_value(self, name, roundtrip):
        record, _ = SAMPLES[name]
        back = roundtrip(record)
        assert type(back) is type(record)
        assert back == record and hash(back) == hash(record)

    @pytest.mark.parametrize("name", NAMES)
    def test_eq_hash_repr_match_the_oracle(self, name):
        record, twin = SAMPLES[name]
        _same(record, twin)
        assert record == copy.copy(record)
        assert record != twin  # a different class, as for any dataclass

    def test_keyword_and_default_arguments(self):
        assert interval.Interval(s=1, e=2) == interval.Interval(1, 2, True, True)
        assert bbox.Rect(xmin=0, ymin=0, xmax=1, ymax=1) == bbox.Rect(0, 0, 1, 1)


# -- validation: the oracle's rejections, and NaN sides -----------------------

floats = st.one_of(
    st.sampled_from([NAN, INF, -INF, 0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e6, 1e6),
)


def _outcome(make, *args):
    """``("ok", value)`` or ``("err", type, message)`` of one construction."""
    try:
        return ("ok", make(*args))
    except Exception as exc:  # the comparison is the point
        return ("err", type(exc), str(exc))


def _agree(record_cls, twin_cls, *args):
    got, want = _outcome(record_cls, *args), _outcome(twin_cls, *args)
    if want[0] == "err":
        assert got == want
    else:
        assert got[0] == "ok", got
        _same(got[1], want[1])


class TestValidation:
    @given(floats, floats, st.booleans(), st.booleans())
    def test_interval(self, s, e, lc, rc):
        _agree(interval.Interval, Interval, s, e, lc, rc)

    @given(st.lists(floats, min_size=4, max_size=4))
    def test_mpoint(self, coefficients):
        _agree(mseg.MPoint, MPoint, *coefficients)

    @given(st.lists(st.floats(-4, 4).map(round), min_size=8, max_size=8))
    def test_mseg(self, c):
        _agree(
            lambda *c: mseg.MSeg(mseg.MPoint(*c[:4]), mseg.MPoint(*c[4:])),
            lambda *c: MSeg(MPoint(*c[:4]), MPoint(*c[4:])),
            *map(float, c),
        )

    @given(st.lists(floats, min_size=4, max_size=4))
    def test_rect(self, sides):
        if any(math.isnan(v) for v in sides):
            with pytest.raises(InvalidValue, match="^malformed rectangle$"):
                bbox.Rect(*sides)
        else:
            _agree(bbox.Rect, Rect, *sides)

    @given(st.lists(floats, min_size=6, max_size=6))
    def test_cube(self, sides):
        if any(math.isnan(v) for v in sides):
            with pytest.raises(InvalidValue, match="^malformed cube$"):
                bbox.Cube(*sides)
        else:
            _agree(bbox.Cube, Cube, *sides)

    def test_infinite_sides_stay_legal(self):
        bbox.Rect(-INF, -INF, INF, INF)
        bbox.Cube(-INF, -INF, -INF, INF, INF, INF)


class TestNanSideIsRefusedOnEveryBackend:
    """A NaN side used to pass the rectangle check, after which the
    scalar backend answered a window query with every object and the
    columnar ones with none."""

    @pytest.fixture(scope="class")
    def fleet(self):
        return FlightGenerator(seed=1).fleet(50, legs=4)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_window_query(self, fleet, backend):
        engine = WindowQueryEngine()
        engine.add_fleet(list(enumerate(fleet)))
        with pytest.raises(InvalidValue):
            engine.query(bbox.Rect(NAN, 0.0, 1e4, 1e4), 0.0, 1e9, backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bbox_filter(self, fleet, backend):
        with pytest.raises(InvalidValue):
            fleet_bbox_filter(
                fleet, bbox.Cube(0.0, 0.0, NAN, 1e4, 1e4, 1e9), backend=backend
            )


# -- memory -------------------------------------------------------------------


def test_a_unit_costs_its_fields():
    """tracemalloc bytes per unit of generated flights: ≈ 360 with slotted
    records, 440 when ``Interval`` and ``MPoint`` each carried a
    ``__dict__``."""
    gen = FlightGenerator(seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        flights = [gen.flight(legs=4) for _ in range(2000)]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    units = sum(len(m.units) for m in flights)
    assert units == 8000
    assert grown / units <= 380, grown / units
