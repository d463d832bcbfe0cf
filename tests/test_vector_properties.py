"""Property tests: vectorized kernels ≡ scalar reference algorithms.

The batch kernels of :mod:`repro.vector` are transcriptions of the
scalar unit-at-a-time code; these properties pin them together over
randomly generated fleets, including ⊥/gap instants and closed/open unit
boundaries, and query instants biased onto the boundaries themselves.
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import EPSILON, fstationary
from repro.geometry.plumbline import crossings_above, point_in_segset
from repro.geometry.segment import point_on_seg
from repro.ranges.interval import Interval
from repro.spatial.bbox import Cube, Rect
from repro.spatial.region import Region
from repro.temporal.mapping import MovingPoint, MovingReal
from repro.temporal.mseg import MPoint
from repro.temporal.upoint import UPoint
from repro.temporal.ureal import UReal
from repro.vector.backends import on_column
from repro.vector.columns import BBoxColumn, UPointColumn, URealColumn
from repro.vector.kernels import (
    atinstant_batch,
    bbox_filter_batch,
    crossings_above_batch,
    inside_prefilter,
    locate_units,
    on_boundary_batch,
    path_length_batch,
    segs_to_array,
    ureal_atinstant_batch,
    window_intervals_batch,
    window_times_batch,
)

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
coef = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def gapped_intervals(draw, max_units=4):
    """Sorted intervals with strict gaps and random closedness flags."""
    n = draw(st.integers(min_value=0, max_value=max_units))
    t = draw(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    out = []
    for _ in range(n):
        t += draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
        s = t
        t += draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
        out.append(
            Interval(s, t, draw(st.booleans()), draw(st.booleans()))
        )
    return out


@st.composite
def moving_points(draw):
    units = [
        UPoint.between(
            iv.s,
            (draw(coord), draw(coord)),
            iv.e,
            (draw(coord), draw(coord)),
            lc=iv.lc,
            rc=iv.rc,
        )
        for iv in draw(gapped_intervals())
    ]
    return MovingPoint(units)


@st.composite
def moving_reals(draw):
    # Non-sqrt quadratics: any coefficients are legal.
    units = [
        UReal(iv, draw(coef), draw(coef), draw(coef))
        for iv in draw(gapped_intervals())
    ]
    return MovingReal(units)


def probe_instants(draw, fleet, k=3):
    """Query instants biased onto unit boundaries (the sharp cases)."""
    boundaries = [u.interval.s for m in fleet for u in m.units] + [
        u.interval.e for m in fleet for u in m.units
    ]
    out = [draw(st.floats(min_value=-80.0, max_value=80.0, allow_nan=False))]
    for _ in range(k):
        if boundaries and draw(st.booleans()):
            out.append(
                boundaries[draw(st.integers(0, len(boundaries) - 1))]
            )
        else:
            out.append(
                draw(st.floats(min_value=-80.0, max_value=80.0, allow_nan=False))
            )
    return out


@st.composite
def point_fleets_with_instants(draw):
    fleet = draw(st.lists(moving_points(), min_size=1, max_size=6))
    return fleet, probe_instants(draw, fleet)


@st.composite
def real_fleets_with_instants(draw):
    fleet = draw(st.lists(moving_reals(), min_size=1, max_size=6))
    return fleet, probe_instants(draw, fleet)


class TestAtinstantEquivalence:
    @given(point_fleets_with_instants())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_atinstant(self, fleet_and_ts):
        fleet, instants = fleet_and_ts
        col = UPointColumn.from_mappings(fleet)
        for t in instants:
            xs, ys, defined = atinstant_batch(col, t)
            for i, m in enumerate(fleet):
                p = m.value_at(t)
                if p is None:
                    assert not defined[i], (i, t)
                    assert np.isnan(xs[i]) and np.isnan(ys[i])
                else:
                    assert defined[i], (i, t)
                    assert xs[i] == p.x and ys[i] == p.y

    @given(real_fleets_with_instants())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_ureal(self, fleet_and_ts):
        fleet, instants = fleet_and_ts
        col = URealColumn.from_mappings(fleet)
        for t in instants:
            vs, defined = ureal_atinstant_batch(col, t)
            for i, m in enumerate(fleet):
                v = m.value_at(t)
                if v is None:
                    assert not defined[i], (i, t)
                else:
                    assert defined[i], (i, t)
                    assert vs[i] == v.value

    @given(point_fleets_with_instants())
    @settings(max_examples=150, deadline=None)
    def test_locate_units_matches_unit_at(self, fleet_and_ts):
        fleet, instants = fleet_and_ts
        col = UPointColumn.from_mappings(fleet)
        for t in instants:
            unit, defined = locate_units(col, t)
            for i, m in enumerate(fleet):
                scalar = m.unit_at(t)
                if scalar is None:
                    assert not defined[i], (i, t)
                else:
                    assert defined[i], (i, t)
                    j = int(unit[i])
                    got = Interval(
                        float(col.starts[j]), float(col.ends[j]),
                        bool(col.lc[j]), bool(col.rc[j]),
                    )
                    assert got == scalar.interval, (i, t)

    @given(st.lists(moving_points(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_column_round_trip(self, fleet):
        assert UPointColumn.from_mappings(fleet).to_mappings() == fleet


# ---------------------------------------------------------------------------
# The unit search on the boundaries it special-cases
# ---------------------------------------------------------------------------

step = st.sampled_from([0.125, 0.5, 1.0, 2.5, 7.0])


@st.composite
def touching_intervals(draw, max_units=64):
    """Sorted, disjoint intervals in the shapes the unit search must get
    right: neighbours that share a boundary under every legal closedness
    pair (``)[``, ``](``, ``)(``), degenerate instants ``[a, a]`` beside
    open neighbours, strict gaps, and up to 64 of them — seven lifting
    passes.  Every interval is legal as drawn; nothing is filtered."""
    out = []
    t = draw(st.sampled_from([-60.0, -0.5, 0.0, 3.0]))
    for _ in range(draw(st.integers(min_value=0, max_value=max_units))):
        touch = bool(out) and draw(st.booleans())
        if not touch:
            t += draw(step)
        # A closed end may share its instant with an open one only.
        shut = touch and out[-1].rc
        if not shut and draw(st.integers(min_value=0, max_value=3)) == 0:
            out.append(Interval(t, t))  # a degenerate instant
            continue
        s = t
        t += draw(step)
        out.append(
            Interval(s, t, draw(st.booleans()) and not shut, draw(st.booleans()))
        )
    return out


def _offset(k, draw):
    """A constant term unit ``k``'s neighbours cannot share, so adjacent
    units never carry the same function (the canonical-form rule)."""
    return 3.0 * k + draw(st.sampled_from([0.0, 0.25, 1.5]))


@st.composite
def touching_points(draw):
    return MovingPoint([
        UPoint(iv, MPoint(_offset(k, draw), draw(coef), draw(coord), draw(coef)))
        for k, iv in enumerate(draw(touching_intervals()))
    ])


@st.composite
def touching_reals(draw):
    return MovingReal([
        UReal(iv, draw(coef), draw(coef), _offset(k, draw))
        for k, iv in enumerate(draw(touching_intervals()))
    ])


def every_boundary(draw, fleet):
    """Each boundary instant of one drawn member, the midpoint of each
    of its units and gaps, and two instants off its history."""
    units = [] if not fleet else fleet[draw(st.integers(0, len(fleet) - 1))].units
    edges = sorted({v for u in units for v in (u.interval.s, u.interval.e)})
    mids = [(a + b) / 2.0 for a, b in zip(edges, edges[1:])]
    lo, hi = (edges[0], edges[-1]) if edges else (0.0, 0.0)
    return edges + mids + [lo - 1.0, hi + 1.0]


@st.composite
def touching_fleets_with_instants(draw, members=touching_points):
    fleet = draw(st.lists(members(), min_size=1, max_size=5))
    return fleet, every_boundary(draw, fleet)


class TestTouchingBoundaries:
    """The kernels against ``unit_at`` / ``value_at`` where the unit
    search has to choose between two neighbours: at every boundary of
    touching, degenerate and gapped units, over histories of up to 64."""

    @given(touching_fleets_with_instants())
    @settings(max_examples=80, deadline=None)
    def test_locate_atinstant_and_present(self, fleet_and_ts):
        fleet, instants = fleet_and_ts
        col = UPointColumn.from_mappings(fleet)
        for t in instants:
            unit, defined = locate_units(col, t)
            xs, ys, at_defined = atinstant_batch(col, t)
            present = on_column("present", col, (t,), "vector")
            assert np.array_equal(at_defined, defined)
            assert np.array_equal(present, defined)
            for i, m in enumerate(fleet):
                scalar = m.unit_at(t)
                assert bool(defined[i]) == (scalar is not None), (i, t)
                if scalar is None:
                    assert np.isnan(xs[i]) and np.isnan(ys[i])
                    continue
                j = int(unit[i])
                assert col.units_of(i).start <= j < col.units_of(i).stop
                got = Interval(
                    float(col.starts[j]), float(col.ends[j]),
                    bool(col.lc[j]), bool(col.rc[j]),
                )
                assert got == scalar.interval, (i, t)
                p = m.value_at(t)
                assert xs[i] == p.x and ys[i] == p.y, (i, t)

    @given(touching_fleets_with_instants(touching_reals))
    @settings(max_examples=60, deadline=None)
    def test_ureal_atinstant(self, fleet_and_ts):
        fleet, instants = fleet_and_ts
        col = URealColumn.from_mappings(fleet)
        for t in instants:
            vs, defined = ureal_atinstant_batch(col, t)
            for i, m in enumerate(fleet):
                v = m.value_at(t)
                assert bool(defined[i]) == (v is not None), (i, t)
                if v is None:
                    assert np.isnan(vs[i])
                else:
                    assert vs[i] == v.value, (i, t)

    @given(touching_fleets_with_instants())
    @settings(max_examples=40, deadline=None)
    def test_strided_record_views_answer_alike(self, fleet_and_ts):
        """A column over record arrays — strided, as a memory-mapped
        one is — answers exactly like the contiguous one."""
        fleet, instants = fleet_and_ts
        col = UPointColumn.from_mappings(fleet)
        strided = UPointColumn.from_records(col.records())
        assert not strided.starts.flags.c_contiguous or col.n_units < 2
        for t in instants:
            for got, want in zip(
                (*locate_units(strided, t), *atinstant_batch(strided, t)),
                (*locate_units(col, t), *atinstant_batch(col, t)),
            ):
                assert got.tobytes() == want.tobytes(), t


@st.composite
def cubes(draw):
    xa, xb = sorted((draw(coord), draw(coord)))
    ya, yb = sorted((draw(coord), draw(coord)))
    ts = st.floats(min_value=-80.0, max_value=80.0, allow_nan=False)
    ta, tb = sorted((draw(ts), draw(ts)))
    return Cube(xa, ya, ta, xb, yb, tb)


class TestBBoxFilterEquivalence:
    @given(st.lists(moving_points(), min_size=1, max_size=6), cubes())
    @settings(max_examples=150, deadline=None)
    def test_bbox_filter_matches_scalar(self, fleet, cube):
        col = BBoxColumn.from_mappings(fleet)
        mask = bbox_filter_batch(col, cube)
        hits = {int(k) for k, hit in zip(col.keys, mask) if hit}
        expected = {
            i
            for i, m in enumerate(fleet)
            if m.units and m.bounding_cube().intersects(cube)
        }
        assert hits == expected


@st.composite
def boxed_points(draw):
    """Moving points that stress the per-object reduction: instant
    units (``s == e``), stationary units, single-unit and empty members."""
    units = []
    t = draw(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        t += draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
        p = (draw(coord), draw(coord))
        if draw(st.booleans()):
            span = draw(st.sampled_from([0.0, 0.5, 7.0]))
            closed = span == 0.0 or draw(st.booleans())
            units.append(
                UPoint.stationary(Interval(t, t + span, closed, closed), p)
            )
        else:
            span = draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
            units.append(
                UPoint.between(t, p, t + span, (draw(coord), draw(coord)))
            )
        t += span
    return MovingPoint(units)


BOX_FIELDS = ("xmin", "ymin", "tmin", "xmax", "ymax", "tmax")


class TestBBoxFromUnitColumn:
    """``BBoxColumn.from_upoint`` reads every object's cube off the unit
    arrays; the per-object ``bounding_cube()`` walk is its reference."""

    @given(
        st.lists(boxed_points(), min_size=0, max_size=8),
        st.sampled_from(["none", "first", "middle", "last"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_bounding_cube_field_by_field(self, fleet, hole):
        if hole != "none":
            at = {"first": 0, "middle": len(fleet) // 2, "last": len(fleet)}
            fleet = list(fleet)
            fleet.insert(at[hole], MovingPoint([]))
        col = BBoxColumn.from_upoint(UPointColumn.from_mappings(fleet))
        want = [(i, m.bounding_cube()) for i, m in enumerate(fleet) if m.units]
        assert col.keys.dtype == np.int64
        assert col.keys.tolist() == [i for i, _c in want]
        for f in BOX_FIELDS:
            assert np.array_equal(getattr(col, f), [getattr(c, f) for _i, c in want])


@st.composite
def simple_regions(draw):
    """A convex-ish polygon: a radial perturbation of a regular n-gon."""
    import math

    n = draw(st.integers(min_value=3, max_value=8))
    cx = draw(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
    cy = draw(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
    radii = draw(
        st.lists(
            st.floats(min_value=2.0, max_value=20.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    verts = [
        (
            cx + r * math.cos(2 * math.pi * k / n),
            cy + r * math.sin(2 * math.pi * k / n),
        )
        for k, r in enumerate(radii)
    ]
    return Region.polygon(verts)


class TestPlumblineEquivalence:
    @given(
        simple_regions(),
        st.lists(st.tuples(coord, coord), min_size=1, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_crossings_match_scalar(self, region, pts):
        segs = list(region.segments())
        counts = crossings_above_batch(pts, segs)
        for p, n in zip(pts, counts):
            assert n == crossings_above(p, segs)

    @given(
        simple_regions(),
        st.lists(st.tuples(coord, coord), min_size=1, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_inside_matches_point_in_segset(self, region, pts):
        segs = list(region.segments())
        inside = inside_prefilter(pts, region)
        for p, got in zip(pts, inside):
            assert bool(got) == point_in_segset(p, segs)

    @given(simple_regions(), st.lists(st.tuples(coord, coord), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_boundary_vertices_hit_scalar_verdict(self, region, pts):
        # Probe the region's own vertices: the sharpest boundary cases.
        segs = list(region.segments())
        vertices = [tuple(s[0]) for s in segs][:8]
        probes = vertices + list(pts)
        inside = inside_prefilter(probes, region)
        for p, got in zip(probes, inside):
            assert bool(got) == point_in_segset(p, segs)

    @given(
        simple_regions(),
        st.lists(st.tuples(coord, coord), min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_on_boundary_matches_point_on_seg(self, region, pts):
        segs = list(region.segments())
        # Include actual vertices: points genuinely on the boundary.
        probes = [tuple(s[0]) for s in segs][:4] + list(pts)
        got = on_boundary_batch(probes, segs)
        for p, g in zip(probes, got):
            assert bool(g) == any(point_on_seg(p, s) for s in segs), p

    @given(simple_regions())
    @settings(max_examples=60, deadline=None)
    def test_segs_to_array_round_trip(self, region):
        segs = list(region.segments())
        arr = segs_to_array(segs)
        assert arr.shape == (len(segs), 4)
        back = [((r[0], r[1]), (r[2], r[3])) for r in arr.tolist()]
        assert back == [
            ((s[0][0], s[0][1]), (s[1][0], s[1][1])) for s in segs
        ]

    @given(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_empty_segment_set(self, pts):
        counts = crossings_above_batch(pts, segs_to_array([]))
        assert not counts.any()


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2, y2)


@st.composite
def windows(draw):
    ts = st.floats(min_value=-80.0, max_value=80.0, allow_nan=False)
    t0, t1 = sorted((draw(ts), draw(ts)))
    return t0, t1


#: A unit creeping at 5e-10 per second — within EPSILON of standing
#: still, yet 0.005 along after 1e7 s — that enters the window at 2e6.
CREEPER = MovingPoint([UPoint(Interval(0.0, 1e7), MPoint(0.0, 5e-10, 0.5, 0.0))])


class TestWindowEquivalence:
    @given(st.lists(moving_points(), min_size=1, max_size=6), rects())
    @example([CREEPER], Rect(0.001, 0.0, 1.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_window_times_batch_matches_scalar(self, fleet, rect):
        from repro.ops.window import upoint_within_rect_times

        col = UPointColumn.from_mappings(fleet)
        a, b, lc, rc, ok = window_times_batch(col, rect)
        units = [u for m in fleet for u in m.units]
        assert len(units) == col.n_units
        margin = 1e-3
        for j, u in enumerate(units):
            iv = upoint_within_rect_times(u, rect)
            # An instant at which the unit is clearly inside lies in the span.
            s, e = u.interval.s, u.interval.e
            for t in (s, (s + e) / 2.0, e):
                x, y = u.vec_at(t)
                if u.interval.contains(t) and (
                    rect.xmin + margin < x < rect.xmax - margin
                    and rect.ymin + margin < y < rect.ymax - margin
                ):
                    assert iv is not None and iv.s <= t <= iv.e, (j, t, rect)
            if iv is None:
                assert not ok[j], (j, rect)
            else:
                assert ok[j], (j, rect)
                got = Interval(
                    float(a[j]), float(b[j]), bool(lc[j]), bool(rc[j])
                )
                assert got == iv, (j, rect)

    @given(
        st.lists(moving_points(), min_size=1, max_size=6),
        rects(),
        windows(),
    )
    @settings(max_examples=150, deadline=None)
    def test_window_intervals_batch_matches_scalar(
        self, fleet, rect, window
    ):
        from repro.ops.window import mpoint_within_rect_times
        from repro.ranges.rangeset import RangeSet

        t0, t1 = window
        col = UPointColumn.from_mappings(fleet)
        owners, s, e, lc, rc = window_intervals_batch(col, rect, t0, t1)
        per_object = {}
        for k in range(len(owners)):
            per_object.setdefault(int(owners[k]), []).append(
                Interval(
                    float(s[k]), float(e[k]), bool(lc[k]), bool(rc[k])
                )
            )
        clip = RangeSet([Interval(t0, t1)])
        for i, m in enumerate(fleet):
            expected = mpoint_within_rect_times(m, rect).intersection(clip)
            got = RangeSet(per_object.get(i, []))
            assert got == expected, (i, rect, t0, t1)


# ---------------------------------------------------------------------------
# The window row refines only the units that meet its time window
# ---------------------------------------------------------------------------


@st.composite
def histories(draw, max_units=8):
    """A moving point whose consecutive units are separated by a gap or
    *adjacent* — sharing the instant and the position, at most one side
    closed — so that the window row has runs to link across units."""
    n = draw(st.integers(min_value=0, max_value=max_units))
    t = draw(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    duration = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
    units = []
    for _ in range(n):
        adjacent = bool(units) and draw(st.booleans())
        if adjacent:
            prev = units[-1]
            p0 = prev.vec_at(prev.interval.e)
            lc = draw(st.booleans()) and not prev.interval.rc
        else:
            t += draw(duration)
            p0 = (draw(coord), draw(coord))
            lc = draw(st.booleans())
        s = t
        t += draw(duration)
        p1 = p0 if draw(st.booleans()) else (draw(coord), draw(coord))
        units.append(UPoint.between(s, p0, t, p1, lc=lc, rc=draw(st.booleans())))
    return MovingPoint.normalized(units)


@st.composite
def boundary_windows(draw, fleet):
    """``[t0, t1]`` with each bound drawn from the fleet's own unit
    starts and ends (or anywhere), degenerate ``[t, t]`` windows
    included: narrow windows fall on the pruned side of the ½ rule,
    broad ones on the whole-column side."""
    bounds = sorted(
        {b for m in fleet for u in m.units for b in (u.interval.s, u.interval.e)}
    )
    anywhere = st.floats(min_value=-80.0, max_value=150.0, allow_nan=False)

    def pick():
        if bounds and draw(st.integers(0, 3)):
            return draw(st.sampled_from(bounds))
        return draw(anywhere)

    t0 = pick()
    t1 = t0 if draw(st.integers(0, 4)) == 0 else pick()
    return min(t0, t1), max(t0, t1)


def whole_column_rows(col, rect, t0, t1):
    """The window row over *every* unit: :func:`window_times_batch`,
    merged into runs and clipped — the kernel's arithmetic before it
    pruned by time, kept here as the byte-identity reference."""
    a, b, lc, rc, ok = window_times_batch(col, rect)
    idx = np.flatnonzero(ok)
    if idx.size == 0:
        empty = np.empty(0)
        flags = np.empty(0, dtype=np.bool_)
        return np.empty(0, dtype=np.int64), empty, empty, flags, flags
    owner = (np.searchsorted(col.offsets, idx, side="right") - 1).astype(np.int64)
    av, bv, lv, rv = a[idx], b[idx], lc[idx], rc[idx]
    link = (bv[:-1] == av[1:]) & (rv[:-1] | lv[1:]) & (owner[:-1] == owner[1:])
    first = np.flatnonzero(np.concatenate(([True], ~link)))
    last = np.concatenate((first[1:] - 1, [len(idx) - 1]))
    run_s, run_e = av[first], bv[last]
    run_lc, run_rc = lv[first], rv[last]
    keep = ~(
        (run_e < t0) | ((run_e == t0) & ~run_rc)
        | (t1 < run_s) | ((t1 == run_s) & ~run_lc)
    )
    cs, ce = np.maximum(run_s, t0), np.minimum(run_e, t1)
    point = cs == ce
    clc = np.where(run_s >= t0, run_lc, True) | point
    crc = np.where(run_e <= t1, run_rc, True) | point
    return owner[first][keep], cs[keep], ce[keep], clc[keep], crc[keep]


def units_refined(col, rect, t0, t1):
    """``(rows, vector.window_times_batch.rows)`` of one window row."""
    from repro import obs

    obs.enable()
    try:
        with obs.capture() as c:
            rows = window_intervals_batch(col, rect, t0, t1)
    finally:
        obs.disable()
    return rows, c.get("vector.window_times_batch.rows")


def assert_same_bytes(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestWindowTimePrune:
    @given(
        data=st.data(),
        fleet=st.lists(histories(), min_size=1, max_size=6),
        rect=st.one_of(rects(), st.just(Rect(-100.0, -100.0, 100.0, 100.0))),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_are_the_whole_column_rows(self, data, fleet, rect):
        t0, t1 = data.draw(boundary_windows(fleet))
        col = UPointColumn.from_mappings(fleet)
        got, refined = units_refined(col, rect, t0, t1)
        assert_same_bytes(got, whole_column_rows(col, rect, t0, t1))
        meet = int(np.count_nonzero((col.ends >= t0) & (col.starts <= t1)))
        # The ½ rule: a broad window reads the column as it is.
        assert refined == (meet if 2 * meet < col.n_units else col.n_units)

    @staticmethod
    def staggered(n):
        """Object ``i`` zigzags through four adjacent 10-s units from
        ``i % 50``."""
        return UPointColumn.from_mappings([
            MovingPoint.from_waypoints([
                (i % 50 + 10.0 * k, (float(k), float(i % 7 + k % 2)))
                for k in range(5)
            ])
            for i in range(n)
        ])

    @pytest.mark.parametrize("n", [1_000, 20_000])
    def test_a_narrow_window_refines_only_the_units_meeting_it(self, n):
        col = self.staggered(n)
        rect = Rect(0.0, 0.0, 3.0, 3.0)
        for t0, t1 in ((30.0, 30.0), (20.0, 25.5), (0.0, 12.0)):
            meet = int(np.count_nonzero((col.ends >= t0) & (col.starts <= t1)))
            assert 0 < 2 * meet < col.n_units
            got, refined = units_refined(col, rect, t0, t1)
            assert refined == meet
            assert len(got[0]) > 0
            assert_same_bytes(got, whole_column_rows(col, rect, t0, t1))

    def test_a_broad_window_reads_the_whole_column(self):
        col = self.staggered(1_000)
        assert col.n_units == 4_000
        rect = Rect(0.0, 0.0, 3.0, 3.0)
        t0, t1 = 10.0, 60.0
        meet = int(np.count_nonzero((col.ends >= t0) & (col.starts <= t1)))
        assert col.n_units > meet >= col.n_units / 2
        got, refined = units_refined(col, rect, t0, t1)
        assert refined == col.n_units
        assert_same_bytes(got, whole_column_rows(col, rect, t0, t1))


# ---------------------------------------------------------------------------
# The kernels pay for a boundary, an undefined lane or a stationary unit
# only where one occurs: byte for byte the np.where formulation
# ---------------------------------------------------------------------------


@st.composite
def deep_columns(draw):
    """Point and real columns over the same histories of up to 1 000
    units: empty objects, gaps, neighbours sharing a boundary under every
    legal flag pair, degenerate units, mixed ``lc``/``rc``; stationary,
    barely moving and moving coordinates mixed.  Drawn as unit counts and
    a seed — a 1 000-unit history is one draw, not 1 000."""
    counts = draw(st.lists(
        st.sampled_from([0, 1, 2, 3, 7, 64, 1000]), min_size=1, max_size=5
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, reals = [], []
    for count in counts:
        t = float(rng.choice([-60.0, -0.5, 0.0, 3.0]))
        rc = None  # the previous unit's right flag; None before the first
        for _ in range(count):
            if rc is None or rng.random() < 0.5:
                t += float(rng.choice([0.125, 0.5, 1.0, 2.5]))  # a gap
                shut = False
            else:
                shut = rc  # a closed end shares its instant with an open one
            if not shut and rng.random() < 0.2:
                s, lc, rc = t, True, True  # a degenerate instant [t, t]
            else:
                s = t
                t += float(rng.choice([0.125, 0.5, 1.0, 2.5, 7.0]))
                lc, rc = bool(rng.random() < 0.5) and not shut, bool(rng.random() < 0.5)
            x1, y1 = rng.choice([0.0, 1e-10, 2e-9, 1.0], 2) * rng.uniform(-40, 40, 2)
            x0, y0 = rng.uniform(-100, 100, 2) - (x1 * s, y1 * s)
            rows.append((s, t, lc, rc, x0, x1, y0, y1))
            root = rng.random() < 0.3  # sqrt lanes: radicand c >= 0 throughout
            a, b = (0.0, 0.0) if root else rng.uniform(-10, 10, 2)
            reals.append((s, t, lc, rc, a, b, rng.uniform(0, 10), root))
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

    def column(cls, rows):
        rec = np.array(rows, dtype=cls.UNIT_DTYPE)
        return cls(offsets, *(rec[name] for name in rec.dtype.names))

    return column(UPointColumn, rows), column(URealColumn, reals)


def where_locate(col, t):
    """:func:`locate_units` as an ``np.where`` per lifting step, the depth
    read per call and the flags on every lane — the formulation the
    kernel had before it paid for boundaries only where they occur."""
    n = col.n_objects
    if col.n_units == 0:
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.bool_)
    offsets, starts, ends = col.offsets, col.starts, col.ends
    base, last = offsets[:-1], offsets[1:] - 1
    at = base - 1
    for k in reversed(range(int(np.diff(offsets).max()).bit_length())):
        probe = np.minimum(at + (1 << k), last)
        at = np.where(starts[probe] <= t, probe, at)

    def holds(j, s):
        e = ends[j]
        return (t <= e) & ((t != s) | col.lc[j]) & ((t != e) | col.rc[j])

    s = starts[at]
    defined = (at >= base) & holds(at, s)
    unit = at - ~defined
    second = np.flatnonzero(s == t)
    second = second[~defined[second] & (at[second] > base[second])]
    defined[second] = holds(unit[second], starts[unit[second]])
    return np.maximum(unit, 0), defined


def where_atinstant(col, t):
    unit, defined = where_locate(col, t)
    if col.n_units == 0:
        return np.full(col.n_objects, np.nan), np.full(col.n_objects, np.nan), defined
    x = col.x0[unit] + col.x1[unit] * t
    y = col.y0[unit] + col.y1[unit] * t
    return np.where(defined, x, np.nan), np.where(defined, y, np.nan), defined


def where_ureal_atinstant(col, t):
    unit, defined = where_locate(col, t)
    if col.n_units == 0:
        return np.full(col.n_objects, np.nan), defined
    a, b, c = col.a[unit], col.b[unit], col.c[unit]
    v = (a * t + b) * t + c
    root = defined & col.r[unit]
    v[root] = np.sqrt(np.maximum(v[root], 0.0))
    return np.where(defined, v, np.nan), defined


def where_window_times(col, rect):
    """:func:`window_times_batch` with the stationary branch and the flag
    inheritance as ``np.where`` over every lane."""
    s, e = col.starts, col.ends

    def axis(c0, c1, lo, hi):
        const = fstationary(c1, e - s)
        denom = np.where(const, 1.0, c1)
        ta, tb = (lo - c0) / denom, (hi - c0) / denom
        a = np.maximum(s, np.minimum(ta, tb))
        b = np.minimum(e, np.maximum(ta, tb))
        p = np.where(c1 == 0, c0, c0 + c1 * s)  # the position at the start
        const_ok = (lo <= p + EPSILON) & (p <= hi + EPSILON)
        return (
            np.where(const, s, a), np.where(const, e, b),
            np.where(const, const_ok, a <= b),
        )

    xa, xb, xok = axis(col.x0, col.x1, rect.xmin, rect.xmax)
    ya, yb, yok = axis(col.y0, col.y1, rect.ymin, rect.ymax)
    a, b = np.maximum(xa, ya), np.minimum(xb, yb)
    ok = xok & yok & (a <= b)
    lc = np.where(np.abs(a - s) <= EPSILON, col.lc, True)
    rc = np.where(np.abs(b - e) <= EPSILON, col.rc, True)
    ok &= ~((a == b) & ~(lc & rc))
    return a, b, lc, rc, ok


@st.composite
def deep_columns_with_instants(draw):
    col, reals = draw(deep_columns())
    bounds = sorted({*col.starts.tolist(), *col.ends.tolist()})
    pick = st.sampled_from(bounds) if bounds else st.just(0.0)
    ts = draw(st.lists(pick, min_size=1, max_size=8))
    return col, reals, ts + [-math.inf, math.inf]


class TestExceptionsOnlyWhereTheyOccur:
    @given(deep_columns_with_instants())
    @settings(max_examples=60, deadline=None)
    def test_located_kernels_equal_the_where_formulation(self, drawn):
        col, reals, instants = drawn
        for t in instants:
            with np.errstate(invalid="ignore"):  # 0·inf in the ⊥ lanes at ±inf
                pairs = (
                    (locate_units(col, t), where_locate(col, t)),
                    (atinstant_batch(col, t), where_atinstant(col, t)),
                    (ureal_atinstant_batch(reals, t), where_ureal_atinstant(reals, t)),
                )
            for got, want in pairs:
                assert_same_bytes(got, want)

    @given(deep_columns(), rects())
    @settings(max_examples=80, deadline=None)
    def test_window_spans_equal_the_where_formulation_on_ok_lanes(
        self, drawn, rect
    ):
        col, _reals = drawn
        a, b, lc, rc, ok = window_times_batch(col, rect)
        wa, wb, wlc, wrc, wok = where_window_times(col, rect)
        assert ok.tobytes() == wok.tobytes()
        assert_same_bytes(
            (a[ok], b[ok], lc[ok], rc[ok]), (wa[ok], wb[ok], wlc[ok], wrc[ok])
        )


# ---------------------------------------------------------------------------
# path_length: an upper bound everywhere, the length itself where certified
# ---------------------------------------------------------------------------

grid = st.integers(min_value=0, max_value=80).map(lambda k: k / 8.0)
LEGS = ("new", "new", "back", "stay", "tiny", "straight", "again", "hop")


@st.composite
def routes(draw, max_legs=6):
    """A moving point built to give ``merge_segs`` work: legs that fly
    back to an earlier vertex (out-and-back retraces, closed loops), fly
    the previous leg a second time (exact duplicates), stand still, move
    less than EPSILON, continue straight on, or resume a sub-EPSILON hop
    further along the same line — and the empty mapping."""
    pos = (draw(grid), draw(grid))
    seen, legs, t = [pos], [], 0.0
    for _ in range(draw(st.integers(min_value=0, max_value=max_legs))):
        kind = draw(st.sampled_from(LEGS))
        start, last = pos, legs[-1] if legs else None
        if kind == "back":
            end = draw(st.sampled_from(seen))
        elif kind == "stay":
            end = pos
        elif kind == "tiny":
            end = (pos[0] + draw(st.sampled_from([0.25, 0.5, 2.0])) * EPSILON, pos[1])
        elif last is not None and kind == "again":
            start, end = last
        elif last is not None and kind in ("straight", "hop") and last[0] != last[1]:
            (ax, ay), (bx, by) = last
            step = EPSILON / (2.0 * math.hypot(bx - ax, by - ay))
            if kind == "hop":
                start = (bx + (bx - ax) * step, by + (by - ay) * step)
            end = (2 * bx - ax, 2 * by - ay)
        else:
            end = (draw(grid), draw(grid))
        legs.append((start, end))
        seen.append(end)
        pos = end
    units = []
    for start, end in legs:
        duration = draw(st.sampled_from([1.0, 2.0, 3.0]))
        units.append(UPoint.between(t, start, t + duration, end, rc=False))
        t += duration
    return MovingPoint.normalized(units)


class TestPathLength:
    @given(st.lists(routes(), min_size=0, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_path_length_bounds_and_certifies_trajectory_length(self, fleet):
        length, exact = path_length_batch(UPointColumn.from_mappings(fleet))
        assert len(length) == len(exact) == len(fleet)
        for i, m in enumerate(fleet):
            line = m.trajectory()
            want = line.length()
            band = EPSILON * max(1.0, want, length[i])
            assert length[i] >= want - band, (i, m)
            if exact[i]:
                assert abs(length[i] - want) <= band, (i, m)
                # Certified means nothing merged: one segment per unit
                # that moved, each as the unit drew it.
                moved = [
                    u for u in m.units if u.start_point() != u.end_point()
                ]
                assert len(line.segments) == len(moved), (i, m)

    def test_named_degeneracies(self):
        a, b, c = (0.0, 0.0), (3.0, 4.0), (3.0, 0.0)

        def route(*legs):
            return MovingPoint.normalized([
                UPoint.between(float(k), p, k + 1.0, q, rc=False)
                for k, (p, q) in enumerate(legs)
            ])

        fleet = [
            route((a, b), (b, c), (c, a)),   # a triangle: nothing merges
            route((a, b), (b, a)),           # out and back
            route((a, b), (a, b)),           # the same leg twice
            route((a, a), (a, b)),           # a stationary unit first
            route((a, (EPSILON / 2, 0.0))),  # one sub-EPSILON segment
            MovingPoint([]),
        ]
        length, exact = path_length_batch(UPointColumn.from_mappings(fleet))
        assert list(exact) == [True, False, False, True, True, True]
        want = [m.trajectory().length() for m in fleet]
        assert want[:4] == [12.0, 5.0, 5.0, 5.0] and want[5] == 0.0
        assert list(length[[0, 3, 5]]) == [12.0, 5.0, 0.0]
        assert length[4] == want[4] == EPSILON / 2
        assert 10.0 <= length[1] <= 10.0 + 1e-8 and length[1] == length[2]

    def test_pairs_are_tested_within_objects_in_bounded_blocks(self, monkeypatch):
        from repro import obs
        from repro.vector import kernels

        fleet = [
            MovingPoint.from_waypoints(
                [(float(k), (float(k), float(k * k % 7))) for k in range(n + 1)]
            )
            for n in (1, 9, 1, 4, 30)
        ]
        fleet[2] = MovingPoint([])
        col = UPointColumn.from_mappings(fleet)
        whole = path_length_batch(col)
        for block in (1, 7, 64):
            monkeypatch.setattr(kernels, "_PAIR_BLOCK", block)
            obs.enable()
            try:
                with obs.capture() as c:
                    got = path_length_batch(col)
            finally:
                obs.disable()
            assert all(np.array_equal(g, w) for g, w in zip(got, whole))
            assert c.get("vector.path_length_batch.pairs") == sum(
                n * (n - 1) // 2 for n in (1, 9, 4, 30)
            )


def _lit(value):
    """A float as SQL spells it: ``repr`` parses back to the same double."""
    return repr(value)


class TestLengthPredicate:
    """``length(trajectory(x)) op c`` answers like the scalar row loop on
    every backend, with ``c`` far from every lane's length and inside
    the band of one — where the kernel must hand the lane back."""

    @given(
        fleet=st.lists(routes(), min_size=1, max_size=8),
        op=st.sampled_from(["<", "<=", ">", ">="]),
        pick=st.integers(min_value=0, max_value=7),
        nudge=st.sampled_from([-2.0, -0.5, -1e-4, 0.0, 0.0, 1e-4, 0.5, 2.0, None]),
        far=grid,
    )
    @settings(max_examples=60, deadline=None)
    def test_sql_predicate_equals_the_row_loop(self, fleet, op, pick, nudge, far):
        from repro import obs
        from repro.db.catalog import Database
        from repro.vector.fleet import set_backend

        lengths = [m.trajectory().length() for m in fleet]
        near = lengths[pick % len(lengths)]
        c = far * 3.0 if nudge is None else near + nudge * EPSILON * max(1.0, near)
        c = max(c, 0.0)
        mem, mat = Database("mem"), Database("mat")
        for db, materialized in ((mem, False), (mat, True)):
            rel = db.create_relation(
                "planes", [("id", "int"), ("flight", "mpoint")],
                materialized=materialized, inline_threshold=128,
            )
            for i, m in enumerate(fleet):
                rel.insert([i, m])
        text = (
            "SELECT id FROM planes WHERE "
            f"length(trajectory(flight)) {op} {_lit(c)}"
        )
        compare = {
            "<": operator.lt, "<=": operator.le,
            ">": operator.gt, ">=": operator.ge,
        }[op]
        want = [i for i, n in enumerate(lengths) if compare(n, float(_lit(c)))]
        obs.enable()
        try:
            for backend in ("scalar", "vector", "parallel"):
                set_backend(backend)
                for db in (mem, mat):
                    with obs.capture() as counted:
                        got = [row["id"].value for row in db.query(text)]
                    assert got == want, (backend, text)
                    assert not counted.get("vector.fallback_to_scalar")
        finally:
            obs.disable()
            set_backend("scalar")

    @pytest.mark.parametrize("text", [
        "length(trajectory(flight)) = 5.0",
        "length(flight) > 5.0",
        "5.0 < length(trajectory(flight))",
        "length(trajectory(flight)) > rank",
        "length(trajectory(flight)) > 'five'",
    ])
    def test_other_shapes_are_left_to_the_row_loop(self, text):
        from repro.db.expressions import compile_batch_predicate
        from repro.db.sql import parse_query

        where = parse_query(f"SELECT id FROM planes WHERE {text}").where
        assert compile_batch_predicate(where, "planes", "flight") is None
