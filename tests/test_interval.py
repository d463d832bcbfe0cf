"""Tests for intervals (Section 3.2.3): the disjoint/adjacent predicates."""

import math

import pytest

from repro.errors import InvalidValue
from repro.ranges.interval import Interval, closed, interval_at, open_interval


class TestConstruction:
    def test_closed(self):
        iv = closed(1.0, 2.0)
        assert iv.lc and iv.rc

    def test_open(self):
        iv = open_interval(1.0, 2.0)
        assert not iv.lc and not iv.rc

    def test_degenerate_must_be_closed(self):
        interval_at(1.0)  # fine
        with pytest.raises(InvalidValue):
            Interval(1.0, 1.0, True, False)

    def test_start_must_not_exceed_end(self):
        with pytest.raises(InvalidValue):
            Interval(2.0, 1.0)

    @pytest.mark.parametrize(
        "s, e", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)]
    )
    def test_nan_bound_is_refused(self, s, e):
        with pytest.raises(InvalidValue):
            Interval(s, e)

    def test_infinite_bounds_are_legal(self):
        iv = Interval(-math.inf, math.inf)
        assert iv.contains(0.0) and iv.contains(-1e308)

    def test_is_degenerate(self):
        assert interval_at(1.0).is_degenerate
        assert not closed(1.0, 2.0).is_degenerate


class TestMembership:
    def test_contains_closed(self):
        iv = closed(1.0, 2.0)
        assert iv.contains(1.0) and iv.contains(2.0) and iv.contains(1.5)
        assert not iv.contains(0.999) and not iv.contains(2.001)

    def test_contains_open(self):
        iv = open_interval(1.0, 2.0)
        assert not iv.contains(1.0) and not iv.contains(2.0)
        assert iv.contains(1.5)

    def test_contains_refuses_nan(self):
        """Every comparison with NaN is False, so a test written as
        ``v < s or v > e`` let it into every interval."""
        for iv in (closed(1.0, 2.0), interval_at(1.0), Interval(-math.inf, math.inf)):
            assert iv.contains(math.nan) is False

    def test_contains_open_part(self):
        iv = closed(1.0, 3.0)
        assert iv.contains_open(2.0)
        assert not iv.contains_open(1.0)
        assert not iv.contains_open(3.0)

    def test_contains_open_degenerate(self):
        assert interval_at(1.0).contains_open(1.0)

    def test_contains_interval(self):
        big = closed(0.0, 10.0)
        assert big.contains_interval(closed(1.0, 2.0))
        assert big.contains_interval(big)
        assert not big.contains_interval(closed(5.0, 11.0))

    def test_contains_interval_closure(self):
        half = Interval(0.0, 10.0, False, True)
        assert not half.contains_interval(closed(0.0, 1.0))
        assert half.contains_interval(open_interval(0.0, 1.0))


class TestDisjointAdjacent:
    """The paper's r-disjoint / disjoint / r-adjacent / adjacent, verbatim."""

    def test_separated_are_disjoint(self):
        assert closed(0.0, 1.0).disjoint(closed(2.0, 3.0))

    def test_overlap_not_disjoint(self):
        assert not closed(0.0, 2.0).disjoint(closed(1.0, 3.0))

    def test_touching_closed_closed_not_disjoint(self):
        # Both contain the touch point.
        assert not closed(0.0, 1.0).disjoint(closed(1.0, 2.0))

    def test_touching_closed_open_disjoint(self):
        a = closed(0.0, 1.0)
        b = Interval(1.0, 2.0, False, True)
        assert a.disjoint(b)

    def test_touching_closed_open_adjacent(self):
        a = closed(0.0, 1.0)
        b = Interval(1.0, 2.0, False, True)
        assert a.adjacent(b)
        assert b.adjacent(a)  # symmetric

    def test_touching_open_open_not_adjacent(self):
        # Neither contains the touch point: a gap of one point remains.
        a = Interval(0.0, 1.0, True, False)
        b = Interval(1.0, 2.0, False, True)
        assert a.disjoint(b)
        assert not a.adjacent(b)

    def test_discrete_domain_adjacency(self):
        # [1,3] and [4,6] over int: no integer strictly between 3 and 4.
        a = Interval(1, 3)
        b = Interval(4, 6)
        assert a.disjoint(b)
        assert a.adjacent(b)

    def test_discrete_domain_gap(self):
        a = Interval(1, 3)
        b = Interval(5, 6)
        assert a.disjoint(b)
        assert not a.adjacent(b)

    def test_dense_domain_numeric_gap_not_adjacent(self):
        assert not closed(0.0, 1.0).adjacent(closed(1.5, 2.0))

    def test_overlapping_not_adjacent(self):
        assert not closed(0.0, 2.0).adjacent(closed(1.0, 3.0))

    def test_r_disjoint_orientation(self):
        a, b = closed(0.0, 1.0), closed(2.0, 3.0)
        assert a.r_disjoint(b)
        assert not b.r_disjoint(a)


class TestIntersection:
    def test_overlap(self):
        got = closed(0.0, 2.0).intersection(closed(1.0, 3.0))
        assert got == closed(1.0, 2.0)

    def test_disjoint_returns_none(self):
        assert closed(0.0, 1.0).intersection(closed(2.0, 3.0)) is None

    def test_single_point(self):
        got = closed(0.0, 1.0).intersection(closed(1.0, 2.0))
        assert got == interval_at(1.0)

    def test_closure_flags_conjoin(self):
        a = Interval(0.0, 2.0, True, False)
        b = Interval(0.0, 2.0, False, True)
        got = a.intersection(b)
        assert got == open_interval(0.0, 2.0)

    def test_nested(self):
        assert closed(0.0, 10.0).intersection(closed(3.0, 4.0)) == closed(3.0, 4.0)


class TestMerge:
    def test_merge_overlap(self):
        assert closed(0.0, 2.0).merge(closed(1.0, 3.0)) == closed(0.0, 3.0)

    def test_merge_adjacent(self):
        a = closed(0.0, 1.0)
        b = Interval(1.0, 2.0, False, True)
        assert a.merge(b) == closed(0.0, 2.0)

    def test_merge_gap_raises(self):
        with pytest.raises(InvalidValue):
            closed(0.0, 1.0).merge(closed(2.0, 3.0))

    def test_closure_flags_disjoin(self):
        a = Interval(0.0, 2.0, False, False)
        b = Interval(0.0, 2.0, True, True)
        assert a.merge(b) == closed(0.0, 2.0)


class TestNumericHelpers:
    def test_length(self):
        assert closed(1.0, 4.0).length == 3.0

    def test_midpoint(self):
        assert closed(1.0, 3.0).midpoint() == 2.0

    def test_sample_inside_open(self):
        iv = open_interval(1.0, 2.0)
        assert iv.contains(iv.sample_inside())

    def test_sample_inside_degenerate(self):
        assert interval_at(5.0).sample_inside() == 5.0

    def test_pretty(self):
        assert Interval(1.0, 2.0, True, False).pretty() == "[1, 2)"
