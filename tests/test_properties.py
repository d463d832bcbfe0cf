"""Property-based tests (hypothesis) for the core invariants."""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.geometry.mergesegs import merge_segs
from repro.geometry.segment import make_seg, point_on_seg, seg_length
from repro.ranges.interval import Interval, closed
from repro.ranges.rangeset import RangeSet
from repro.spatial.points import Points
from repro.spatial.region import Region
from repro.storage.records import StoredValue, pack_value, unpack_value
from repro.temporal.mapping import MovingPoint, MovingReal
from repro.temporal.quadratics import eval_quad, solve_quadratic
from repro.temporal.ureal import UReal
from repro.ops.distance import mpoint_distance

#: A sliver the monotone chain kept (its turn test sits exactly on the
#: tolerance) while ``Region`` rejected it as a touch.
HULL_SLIVER = [(0.0, 1.0), (0.0, -1.0), (1e-9, 0.0)]

# -- strategies ----------------------------------------------------------------

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
small = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
coords = st.tuples(small, small)


@st.composite
def intervals(draw):
    s = draw(small)
    e = draw(small)
    assume(s != e)
    s, e = min(s, e), max(s, e)
    lc = draw(st.booleans())
    rc = draw(st.booleans())
    return Interval(s, e, lc, rc)


@st.composite
def rangesets(draw):
    ivs = draw(st.lists(intervals(), max_size=6))
    return RangeSet.normalized(ivs)


@st.composite
def waypoint_tracks(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    start = draw(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    times = [start]
    for g in gaps:
        times.append(times[-1] + g)
    pts = draw(st.lists(coords, min_size=n, max_size=n))
    return MovingPoint.from_waypoints(list(zip(times, pts)))


# -- interval algebra ---------------------------------------------------------


class TestIntervalProperties:
    @given(intervals(), intervals())
    def test_disjoint_symmetric(self, a, b):
        assert a.disjoint(b) == b.disjoint(a)

    @given(intervals(), intervals())
    def test_adjacent_implies_disjoint(self, a, b):
        if a.adjacent(b):
            assert a.disjoint(b)

    @given(intervals(), intervals())
    def test_intersection_contained_in_both(self, a, b):
        common = a.intersection(b)
        if common is not None:
            assert a.contains_interval(common)
            assert b.contains_interval(common)

    @given(intervals(), intervals())
    def test_intersection_nonempty_iff_not_disjoint(self, a, b):
        assert (a.intersection(b) is not None) == (not a.disjoint(b))

    @given(intervals(), small)
    def test_membership_consistent_with_disjoint(self, iv, v):
        point = Interval(v, v)
        if iv.contains(v):
            assert not iv.disjoint(point)
        else:
            assert iv.disjoint(point)


class TestRangeSetProperties:
    @given(rangesets(), rangesets(), small)
    def test_union_membership(self, a, b, v):
        assert a.union(b).contains(v) == (a.contains(v) or b.contains(v))

    @given(rangesets(), rangesets(), small)
    def test_intersection_membership(self, a, b, v):
        assert a.intersection(b).contains(v) == (a.contains(v) and b.contains(v))

    @given(rangesets(), rangesets(), small)
    def test_difference_membership(self, a, b, v):
        assert a.difference(b).contains(v) == (a.contains(v) and not b.contains(v))

    @given(rangesets(), rangesets())
    def test_union_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(rangesets())
    def test_self_difference_empty(self, a):
        assert not a.difference(a)

    @given(rangesets())
    def test_canonical_roundtrip(self, a):
        assert RangeSet.normalized(list(a)) == a


# -- quadratics ---------------------------------------------------------------


class TestQuadraticProperties:
    @given(small, small, small)
    def test_roots_evaluate_to_zero(self, a, b, c):
        scale = max(abs(a), abs(b), abs(c), 1.0)
        for r in solve_quadratic(a, b, c):
            assume(abs(r) < 1e8)
            assert abs(eval_quad((a, b, c), r)) <= 1e-5 * scale * max(r * r, 1.0)

    @given(small, small)
    def test_linear_root(self, b, c):
        assume(abs(b) > 1e-6)
        roots = solve_quadratic(0.0, b, c)
        assert len(roots) == 1
        assert roots[0] * b + c == 0 or abs(roots[0] * b + c) < 1e-9 * max(abs(c), 1)


# -- geometry -----------------------------------------------------------------


class TestGeometryProperties:
    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=8))
    def test_merge_segs_preserves_membership(self, raw):
        segs = []
        for p, q in raw:
            # Exact inequality is not enough: a segment of length ~1e-16
            # is nonequal bitwise but degenerate under the library eps,
            # and merge_segs rightly collapses it.  Only segments long
            # enough to survive eps snapping are fair membership probes.
            if p != q and math.hypot(q[0] - p[0], q[1] - p[1]) > 1e-7:
                segs.append(make_seg(p, q))
        assume(segs)
        merged = merge_segs(segs)
        # Every original segment midpoint lies on some merged segment.
        for s in segs:
            mid = ((s[0][0] + s[1][0]) / 2, (s[0][1] + s[1][1]) / 2)
            assert any(point_on_seg(mid, m, 1e-6) for m in merged)

    @given(st.lists(coords, min_size=3, max_size=10, unique=True))
    @example(HULL_SLIVER)
    def test_region_area_nonnegative(self, pts):
        from repro.geometry.primitives import convex_hull

        hull = convex_hull(pts)
        assume(len(hull) >= 3)
        r = Region.polygon(hull)
        assert r.area() > 0
        assert r.perimeter() > 0

    @given(st.lists(coords, min_size=3, max_size=10, unique=True), coords)
    @example(HULL_SLIVER, (0.0, 0.0))
    def test_convex_region_contains_centroid_not_far_points(self, pts, probe):
        from repro.geometry.primitives import convex_hull

        hull = convex_hull(pts)
        assume(len(hull) >= 3)
        r = Region.polygon(hull)
        cx = sum(p[0] for p in hull) / len(hull)
        cy = sum(p[1] for p in hull) / len(hull)
        assert r.contains_point((cx, cy))
        far = (probe[0] + 1e5, probe[1] + 1e5)
        assert not r.contains_point(far)


# -- moving values ------------------------------------------------------------


class TestMovingProperties:
    @given(waypoint_tracks(), small)
    def test_value_defined_iff_in_deftime(self, mp, t):
        defined = mp.value_at(t) is not None
        assert defined == mp.deftime().contains(t)

    @given(waypoint_tracks())
    def test_trajectory_length_at_most_travelled(self, mp):
        assert mp.trajectory().length() <= mp.length() + 1e-6

    @given(waypoint_tracks())
    def test_endpoints_on_track(self, mp):
        first = mp.initial()
        last = mp.final()
        assert first.time == mp.start_time()
        assert last.time == mp.end_time()

    @given(waypoint_tracks(), waypoint_tracks())
    def test_distance_symmetric_and_nonnegative(self, a, b):
        dab = mpoint_distance(a, b)
        dba = mpoint_distance(b, a)
        assert dab.deftime() == dba.deftime()
        for iv in dab.deftime():
            t = iv.midpoint()
            va = dab.value_at(t).value
            vb = dba.value_at(t).value
            assert va >= 0
            assert va == vb or abs(va - vb) < 1e-9 * max(va, 1.0)

    @given(waypoint_tracks(), small)
    def test_distance_matches_pointwise(self, mp, t):
        other = MovingPoint.from_waypoints(
            [(mp.start_time(), (0.0, 0.0)), (mp.end_time(), (0.0, 0.0))]
        ) if mp.start_time() < mp.end_time() else None
        assume(other is not None)
        d = mpoint_distance(mp, other)
        assume(d.deftime().contains(t))
        p = mp.value_at(t)
        expected = math.hypot(p.x, p.y)
        # sqrt amplifies radicand rounding near zero: with coefficient
        # rounding ~eps*|v|^2*t^2 the value error is ~sqrt of that, so
        # the absolute term must absorb a few 1e-5 even at coords<=100
        # (hypothesis found 2.2e-5 on a track that touches the origin).
        assert abs(d.value_at(t).value - expected) < 1e-6 * max(expected, 1.0) + 5e-4


# -- storage roundtrips ---------------------------------------------------------


class TestStorageProperties:
    @given(st.lists(coords, max_size=10))
    def test_points_roundtrip(self, pts):
        v = Points(pts)
        assert unpack_value(pack_value("points", v)) == v

    @given(waypoint_tracks())
    def test_mpoint_roundtrip(self, mp):
        stored = pack_value("mpoint", mp)
        assert unpack_value(StoredValue.from_bytes(stored.to_bytes())) == mp

    @given(rangesets())
    def test_rangeset_roundtrip(self, rs):
        assert unpack_value(pack_value("range", rs)) == rs

    @given(
        st.lists(
            st.tuples(small, small, small, st.booleans()), min_size=0, max_size=4
        )
    )
    def test_mreal_roundtrip(self, coeffs):
        units = []
        t = 0.0
        for a, b, c, r in coeffs:
            iv = Interval(t, t + 1.0, True, False)
            t += 1.0
            if r:
                from repro.temporal.quadratics import quad_nonnegative_on

                if not quad_nonnegative_on((a, b, c), iv.s, iv.e):
                    continue
            units.append(UReal(iv, a, b, c, r))
        try:
            m = MovingReal(units)
        except Exception:
            assume(False)
        assert unpack_value(pack_value("mreal", m)) == m
