"""Tests for the mapping constructor — the sliced representation (Sec. 3.2.4)."""

import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.base.values import BoolVal, IntVal, RealVal
from repro.errors import InvalidValue, UndefinedValue
from repro.ranges.interval import Interval, closed, interval_at, open_interval
from repro.ranges.rangeset import RangeSet
from repro.spatial.point import Point
from repro.temporal.mapping import (
    Mapping,
    MovingBool,
    MovingInt,
    MovingPoint,
    MovingReal,
)
from repro.temporal.uconst import ConstUnit
from repro.temporal.upoint import UPoint
from repro.temporal.ureal import UReal


def cu(s, e, v, lc=True, rc=True):
    return ConstUnit(Interval(s, e, lc, rc), IntVal(v))


class TestInvariants:
    def test_empty_mapping(self):
        m = MovingInt()
        assert len(m) == 0 and not m

    def test_units_sorted_by_interval(self):
        m = MovingInt([cu(5.0, 6.0, 2), cu(0.0, 1.0, 1)])
        assert [u.interval.s for u in m.units] == [0.0, 5.0]

    def test_overlapping_units_rejected(self):
        with pytest.raises(InvalidValue):
            MovingInt([cu(0.0, 2.0, 1), cu(1.0, 3.0, 2)])

    def test_duplicate_interval_rejected(self):
        with pytest.raises(InvalidValue):
            MovingInt([cu(0.0, 1.0, 1), cu(0.0, 1.0, 2)])

    def test_adjacent_same_value_rejected(self):
        # Minimality: adjacent units with the same function must merge.
        with pytest.raises(InvalidValue):
            MovingInt([cu(0.0, 1.0, 7), cu(1.0, 2.0, 7, lc=False)])

    def test_adjacent_distinct_values_ok(self):
        m = MovingInt([cu(0.0, 1.0, 1), cu(1.0, 2.0, 2, lc=False)])
        assert len(m) == 2

    def test_normalized_merges(self):
        m = MovingInt.normalized([cu(0.0, 1.0, 7), cu(1.0, 2.0, 7, lc=False)])
        assert len(m) == 1
        assert m.units[0].interval == closed(0.0, 2.0)

    def test_unit_type_enforced(self):
        with pytest.raises(InvalidValue):
            MovingReal([cu(0.0, 1.0, 1)])

    def test_immutable(self):
        m = MovingInt([cu(0.0, 1.0, 1)])
        with pytest.raises(AttributeError):
            m._units = ()


class TestEvaluation:
    def setup_method(self):
        self.m = MovingInt(
            [cu(0.0, 2.0, 1), cu(2.0, 4.0, 2, lc=False), cu(7.0, 9.0, 3)]
        )

    def test_unit_at_binary_search(self):
        assert self.m.unit_at(1.0).value == IntVal(1)
        assert self.m.unit_at(2.0).value == IntVal(1)  # closed right end
        assert self.m.unit_at(3.0).value == IntVal(2)
        assert self.m.unit_at(8.0).value == IntVal(3)

    def test_unit_at_gap_is_none(self):
        assert self.m.unit_at(5.0) is None
        assert self.m.unit_at(-1.0) is None
        assert self.m.unit_at(10.0) is None

    def test_value_at(self):
        assert self.m.value_at(1.0) == IntVal(1)
        assert self.m.value_at(5.0) is None

    def test_at_instant(self):
        got = self.m.at_instant(3.0)
        assert got.time == 3.0 and got.val == IntVal(2)
        assert self.m.at_instant(5.0) is None

    def test_present(self):
        assert self.m.present(1.0)
        assert not self.m.present(5.0)

    def test_deftime(self):
        assert self.m.deftime() == RangeSet(
            [closed(0.0, 4.0), closed(7.0, 9.0)]
        )

    def test_start_end(self):
        assert self.m.start_time() == 0.0
        assert self.m.end_time() == 9.0

    def test_start_of_empty_raises(self):
        with pytest.raises(UndefinedValue):
            MovingInt().start_time()

    def test_initial_final(self):
        assert self.m.initial().val == IntVal(1)
        assert self.m.initial().time == 0.0
        assert self.m.final().val == IntVal(3)
        assert self.m.final().time == 9.0

    def test_initial_of_empty_is_none(self):
        assert MovingInt().initial() is None


class TestRestriction:
    def setup_method(self):
        self.m = MovingInt([cu(0.0, 4.0, 1), cu(6.0, 10.0, 2)])

    def test_at_periods(self):
        got = self.m.at_periods(RangeSet([closed(2.0, 7.0)]))
        assert got.deftime() == RangeSet([closed(2.0, 4.0), closed(6.0, 7.0)])

    def test_at_periods_preserves_values(self):
        got = self.m.at_periods(RangeSet([closed(2.0, 7.0)]))
        assert got.value_at(3.0) == IntVal(1)
        assert got.value_at(6.5) == IntVal(2)

    def test_restricted_to(self):
        got = self.m.restricted_to(closed(3.0, 8.0))
        assert got.deftime() == RangeSet([closed(3.0, 4.0), closed(6.0, 8.0)])

    def test_restriction_type_preserved(self):
        got = self.m.restricted_to(closed(3.0, 8.0))
        assert isinstance(got, MovingInt)


class TestMovingBool:
    def test_piecewise(self):
        mb = MovingBool.piecewise(
            [(closed(0.0, 1.0), True), (Interval(1.0, 2.0, False, True), False)]
        )
        assert mb.value_at(0.5) == BoolVal(True)
        assert mb.value_at(1.5) == BoolVal(False)

    def test_when(self):
        mb = MovingBool.piecewise(
            [(closed(0.0, 1.0), True), (Interval(1.0, 2.0, False, True), False)]
        )
        assert mb.when(True) == RangeSet([closed(0.0, 1.0)])
        assert mb.when(False) == RangeSet([Interval(1.0, 2.0, False, True)])

    def test_negated(self):
        mb = MovingBool.piecewise([(closed(0.0, 1.0), True)])
        assert mb.negated().value_at(0.5) == BoolVal(False)


class TestMovingReal:
    def test_min_max_across_units(self):
        m = MovingReal(
            [
                UReal(closed(0.0, 1.0), 0, 1, 0),  # 0..1
                UReal(Interval(1.0, 2.0, False, True), 0, -3, 5),  # 2..-1
            ]
        )
        assert m.minimum() == -1.0
        assert m.maximum() == 2.0

    def test_rangevalues(self):
        m = MovingReal([UReal(closed(0.0, 1.0), 0, 1, 0)])
        assert m.rangevalues() == RangeSet([closed(0.0, 1.0)])


class TestMovingPoint:
    def test_from_waypoints(self):
        mp = MovingPoint.from_waypoints([(0, (0, 0)), (10, (10, 0)), (20, (10, 10))])
        assert len(mp) == 2
        assert mp.value_at(15.0) == Point(10, 5)

    def test_from_waypoints_needs_two(self):
        with pytest.raises(InvalidValue):
            MovingPoint.from_waypoints([(0, (0, 0))])

    def test_from_waypoints_strictly_increasing(self):
        with pytest.raises(InvalidValue):
            MovingPoint.from_waypoints([(0, (0, 0)), (0, (1, 1))])

    def test_waypoints_merge_collinear_motion(self):
        # Same velocity across the middle waypoint: one unit suffices.
        mp = MovingPoint.from_waypoints([(0, (0, 0)), (5, (5, 0)), (10, (10, 0))])
        assert len(mp) == 1

    def test_trajectory(self):
        mp = MovingPoint.from_waypoints([(0, (0, 0)), (10, (3, 4))])
        assert mp.trajectory().length() == pytest.approx(5.0)

    def test_trajectory_drops_stationary(self):
        mp = MovingPoint.from_waypoints(
            [(0, (0, 0)), (10, (3, 4)), (20, (3, 4)), (30, (6, 8))]
        )
        assert mp.trajectory().length() == pytest.approx(10.0)

    def test_travelled_length_counts_repeats(self):
        # Back and forth: trajectory length 5, travelled length 10.
        mp = MovingPoint.from_waypoints([(0, (0, 0)), (10, (3, 4)), (20, (0, 0))])
        assert mp.trajectory().length() == pytest.approx(5.0)
        assert mp.length() == pytest.approx(10.0)

    def test_speed(self):
        mp = MovingPoint.from_waypoints([(0, (0, 0)), (1, (3, 4))])
        assert mp.speed().value_at(0.5).value == pytest.approx(5.0)

    def test_bounding_cube(self):
        mp = MovingPoint.from_waypoints([(0, (0, 0)), (10, (4, 2))])
        c = mp.bounding_cube()
        assert (c.tmin, c.tmax) == (0, 10)



def reference_from_waypoints(waypoints):
    """``from_waypoints`` as the sliced representation defines it: one
    ``UPoint.between`` leg per consecutive pair of time-sorted samples,
    then ``Mapping.normalized`` (re-sort, merge equal adjacent
    functions, full validation)."""
    wps = sorted(waypoints, key=lambda w: w[0])
    if len(wps) < 2:
        raise InvalidValue("a waypoint track needs at least two samples")
    units = []
    for k, ((t0, p0), (t1, p1)) in enumerate(zip(wps, wps[1:])):
        if t1 <= t0:
            raise InvalidValue("waypoint times must strictly increase")
        units.append(UPoint.between(t0, tuple(p0), t1, tuple(p1), lc=k == 0, rc=True))
    return MovingPoint.normalized(units)


def _bits(v):
    """A float's bytes: ``-0.0`` and ``0.0`` differ."""
    return struct.pack("<d", v) if isinstance(v, float) else v


def _record(m):
    """Every field of every unit, plus the start index, bit for bit."""
    units = [
        tuple(map(_bits, (u.interval.s, u.interval.e, u.interval.lc, u.interval.rc,
                          *u.coefficients)))
        for u in m.units
    ]
    return units, [_bits(s) for s in m._starts]


def _outcome(build, waypoints):
    try:
        return ("ok", _record(build(waypoints)))
    except InvalidValue as exc:
        return ("raises", type(exc), str(exc))


#: Small integers keep the arithmetic exact, so collinear constant-speed
#: samples give equal ``MPoint``s and merge.  One draw in eight is a
#: value that must be refused (NaN, ±∞) or a signed zero.
_SPECIAL = [-0.0, math.nan, math.inf, -math.inf]


def _maybe_special(draw, value):
    return draw(st.sampled_from(_SPECIAL)) if draw(st.integers(0, 7)) == 0 else value


@st.composite
def waypoint_tracks(draw):
    """Samples in any order: on one constant-velocity line, repeated
    (stationary legs), or anywhere; a time may repeat or be non-finite."""
    n = draw(st.integers(0, 8))
    times = [float(t) for t in draw(
        st.lists(st.integers(-3, 30), min_size=n, max_size=n, unique=True)
    )]
    if times and draw(st.integers(0, 5)) == 0:
        times[-1] = draw(st.sampled_from([times[0], *_SPECIAL]))
    vx, vy, cx, cy = draw(st.tuples(*[st.integers(-2, 2).map(float)] * 4))
    track = []
    for t in times:
        how = draw(st.sampled_from(["line", "line", "repeat", "free"]))
        if how == "line":
            p = (cx + vx * t, cy + vy * t)
        elif how == "repeat" and track:
            p = track[-1][1]
        else:
            p = (
                _maybe_special(draw, float(draw(st.integers(-4, 4)))),
                _maybe_special(draw, float(draw(st.integers(-4, 4)))),
            )
        track.append((t, p))
    return draw(st.permutations(track))


class TestFromWaypointsOnePass:
    """``from_waypoints`` builds its mapping in one pass; it must equal
    the two-pass reference bit for bit, errors included."""

    @settings(max_examples=400, deadline=None)
    @given(waypoint_tracks())
    @example([(2.0, (4.0, 4.0)), (0.0, (0.0, 0.0)), (1.0, (2.0, 2.0))])  # unsorted, merges
    @example([(0.0, (1.0, 1.0)), (1.0, (1.0, 1.0)), (2.0, (1.0, 1.0))])  # still, merges
    @example([(0.0, (0.0, 0.0)), (1.0, (1.0, 1.0)), (2.0, (1.0, 1.0))])  # moving, still
    @example([(0.0, (0.0, 0.0)), (0.0, (1.0, 1.0))])  # equal times
    @example([(0.0, (0.0, 0.0)), (math.nan, (1.0, 1.0))])  # NaN time
    @example([(0.0, (0.0, 0.0)), (1.0, (math.nan, 1.0))])  # NaN position
    @example([(0.0, (0.0, 0.0)), (math.inf, (1.0, 1.0))])  # unbounded leg
    @example([(0.0, (0.0, 0.0))])  # one sample
    @example([])
    def test_equals_normalized_legs(self, waypoints):
        assert _outcome(MovingPoint.from_waypoints, waypoints) == _outcome(
            reference_from_waypoints, waypoints
        )

    def test_collinear_run_is_one_unit(self):
        mp = MovingPoint.from_waypoints([(t, (2.0 * t, 1.0)) for t in (3.0, 0.0, 1.0, 2.0)])
        assert len(mp.units) == 1
        assert mp.units[0].interval == Interval(0.0, 3.0, True, True)
        assert mp == reference_from_waypoints([(t, (2.0 * t, 1.0)) for t in range(4)])
