"""Batched numpy kernels over columnar unit storage.

Each kernel evaluates *all* objects of a column per call, replacing the
scalar one-object-at-a-time loops of :mod:`repro.temporal` /
:mod:`repro.ops` on fleet-scale workloads.  The kernels are exact
transcriptions of the scalar reference algorithms — the bisect-right
unit of ``Mapping.unit_at`` (found for every object by one fixed-step
binary lifting, then one containment test), the closedness handling of
``Interval.contains``, the eps-shifted half-open rule of
``crossings_above`` — so their results are asserted equivalent unit for
unit (see ``tests/test_vector_properties.py``).

Observability: every kernel counts its calls and the rows it processed
(``vector.<kernel>.calls`` / ``.rows``) and raises the high-water gauge
``vector.rows_per_call`` — the fleet-scale analogue of the Section-5
per-operation counters.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.config import EPSILON, fstationary
from repro.errors import InvalidValue
from repro.geometry.segment import Seg
from repro.spatial.bbox import Cube, Rect
from repro.spatial.region import Region
from repro.vector.columns import (
    BBoxColumn,
    UnitColumn,
    UPointColumn,
    URealColumn,
    coordinate_at,
)


def _record_rows(kernel: str, rows: int) -> None:
    if obs.enabled:
        obs.counters.add(f"vector.{kernel}.calls")
        obs.counters.add(f"vector.{kernel}.rows", rows)
        obs.counters.high_water("vector.rows_per_call", rows)


# ---------------------------------------------------------------------------
# Unit location: per-object binary search as fixed-step binary lifting
# ---------------------------------------------------------------------------


def locate_units(col: UnitColumn, t: float) -> Tuple[np.ndarray, np.ndarray]:
    """Find, for every object at once, the unit whose interval contains ``t``.

    Vectorized transcription of ``Mapping.unit_at``: the bisect-right
    over each object's (sorted) unit start times, run for all objects
    as binary lifting.  Every object's cursor starts before its first
    unit and tries steps of ``2**(k-1)``, …, 2, 1 units, where ``k`` is
    the column's :attr:`~repro.vector.columns.UnitColumn.depth` (the bit
    length of the longest object's unit count, read once per column); a
    step is taken, in place, when the unit it lands on (clamped to the
    object's last unit) starts at or before ``t``.  That is ``k`` numpy
    sweeps per call whatever the data — O(log max-units), with no test
    for whether any lane is still moving — and per object the O(log n)
    probe sequence of the Section-5.1 claim.

    The cursor ends on the last unit starting at or before ``t``, and
    containment is tested there only: strictly inside the unit's
    interval on every lane, and with the closedness flags read only on
    the lanes where ``t`` is the unit's start or end — for a random
    instant, none.  As in the scalar code the unit before the cursor's
    may hold ``t`` instead, but units are sorted and disjoint, so only
    when ``t`` is the cursor unit's (open) start and the earlier unit's
    end: that second test runs among those boundary lanes too.

    Returns ``(unit_index, defined)``; ``unit_index`` is meaningful only
    where ``defined`` is True.  A NaN ``t`` raises :class:`InvalidValue`,
    as ``Instant`` does.
    """
    t = float(t)
    if np.isnan(t):
        raise InvalidValue("time must not be NaN")
    n = col.n_objects
    _record_rows("locate_units", n)
    if col.n_units == 0:
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.bool_)
    offsets, starts, ends = col.offsets, col.starts, col.ends
    base = offsets[:-1]
    last = offsets[1:] - 1
    passes = col.depth
    # ``at`` is each object's last unit starting at or before t; base - 1
    # (the previous object's last unit, or -1) while there is none.
    at = base - 1
    for k in reversed(range(passes)):
        probe = at + (1 << k)
        np.minimum(probe, last, out=probe)
        step = starts[probe] <= t
        probe -= at
        probe *= step
        at += probe

    def holds(j: np.ndarray, s: np.ndarray) -> np.ndarray:
        """``t`` in units ``j``, which start at ``s <= t``."""
        e = ends[j]
        return (t <= e) & ((t != s) | col.lc[j]) & ((t != e) | col.rc[j])

    found = at >= base
    s, e = starts[at], ends[at]
    defined = found & (s < t) & (t < e)
    edge = np.flatnonzero(found & ((s == t) | (e == t)))
    if edge.size:  # t on a boundary: the closedness flags decide
        defined[edge] = holds(at[edge], s[edge])
    unit = at - ~defined  # the unit before the cursor's where that misses
    if edge.size:
        second = edge[s[edge] == t]
        second = second[~defined[second] & (at[second] > base[second])]
        j = unit[second]
        defined[second] = holds(j, starts[j])
    np.maximum(unit, 0, out=unit)
    if obs.enabled:
        obs.counters.add("vector.locate_units.passes", passes)
    return unit, defined


# ---------------------------------------------------------------------------
# atinstant, batched
# ---------------------------------------------------------------------------


def atinstant_batch(
    col: UPointColumn, t: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``atinstant`` over a whole moving-point fleet in one call.

    Returns ``(x, y, defined)``: positions of every object at instant
    ``t`` with NaN in undefined lanes.  The evaluation is the fused
    linear form ``x0 + x1·t`` of the located units — identical
    arithmetic to ``MPoint.at``, so defined lanes match the scalar
    ``Mapping.value_at`` bit for bit — computed for every lane and
    then overwritten with NaN where :func:`locate_units` found no unit.
    """
    t = float(t)
    unit, defined = locate_units(col, t)
    if col.n_units == 0:  # nothing to index: every lane is ⊥
        nan = np.full(col.n_objects, np.nan)
        _record_rows("atinstant_batch", col.n_objects)
        return nan, nan.copy(), defined
    if math.isinf(t):
        x = coordinate_at(col.x0[unit], col.x1[unit], t)
        y = coordinate_at(col.y0[unit], col.y1[unit], t)
    else:
        x = col.x1[unit]
        x *= t
        x += col.x0[unit]
        y = col.y1[unit]
        y *= t
        y += col.y0[unit]
    undefined = ~defined
    x[undefined] = np.nan
    y[undefined] = np.nan
    _record_rows("atinstant_batch", col.n_objects)
    return x, y, defined


def ureal_atinstant_batch(
    col: URealColumn, t: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``atinstant`` over a fleet of moving reals in one call.

    Returns ``(value, defined)`` with NaN in undefined lanes.  The
    quadratic is evaluated in the same Horner form as the scalar
    ``eval_quad``; square-root lanes clamp tiny negative radicands
    exactly like ``UReal._checked_radicand`` (coefficient-scaled
    tolerance) and raise :class:`InvalidValue` beyond it.
    """
    t = float(t)
    unit, defined = locate_units(col, t)
    if col.n_units == 0:  # nothing to index: every lane is ⊥
        _record_rows("ureal_atinstant_batch", col.n_objects)
        return np.full(col.n_objects, np.nan), defined
    a, b, c = col.a[unit], col.b[unit], col.c[unit]
    v = a * t
    v += b
    v *= t
    v += c
    sqrt_lane = defined & col.r[unit]
    if sqrt_lane.any():
        rad = v[sqrt_lane]
        tol = 1e-7 * np.maximum.reduce(
            [np.abs(a[sqrt_lane]), np.abs(b[sqrt_lane]), np.abs(c[sqrt_lane]),
             np.ones_like(rad)]
        )
        beyond = rad < -tol
        if beyond.any():
            worst = float(rad[beyond].min())
            raise InvalidValue(
                f"negative radicand {worst:g} of square-root ureal at t={t:g} "
                "(beyond rounding tolerance)"
            )
        v[sqrt_lane] = np.sqrt(np.maximum(rad, 0.0))
    v[~defined] = np.nan
    _record_rows("ureal_atinstant_batch", col.n_objects)
    return v, defined


# ---------------------------------------------------------------------------
# Bounding-box filtering, batched
# ---------------------------------------------------------------------------


def bbox_filter_batch(col: BBoxColumn, cube: Cube) -> np.ndarray:
    """Vectorized 3-D bounding-cube overlap against one query cube.

    Boolean mask over the column's entries, by the same closed-box
    inequalities as ``Cube.intersects``.  This is the *filter* step: the
    exact R-tree/refinement path still decides the survivors.
    """
    mask = (
        (col.xmin <= cube.xmax)
        & (cube.xmin <= col.xmax)
        & (col.ymin <= cube.ymax)
        & (cube.ymin <= col.ymax)
        & (col.tmin <= cube.tmax)
        & (cube.tmin <= col.tmax)
    )
    _record_rows("bbox_filter", len(col))
    if obs.enabled:
        obs.counters.add("vector.bbox_filter.hits", int(mask.sum()))
    return mask


# ---------------------------------------------------------------------------
# Plumbline, batched: N query points against one region
# ---------------------------------------------------------------------------


def segs_to_array(segs: Iterable[Seg]) -> np.ndarray:
    """Segment tuples → an ``(S, 4)`` float array ``(x0, y0, x1, y1)``."""
    arr = np.asarray(
        [(s[0][0], s[0][1], s[1][0], s[1][1]) for s in segs], dtype=np.float64
    )
    return arr.reshape(-1, 4)


def _points_to_arrays(points: Union[np.ndarray, Sequence]) -> Tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    return pts[:, 0], pts[:, 1]


def crossings_above_batch(
    points: Union[np.ndarray, Sequence],
    segs: Union[np.ndarray, Iterable[Seg]],
    eps: float = EPSILON,
) -> np.ndarray:
    """Count, for N points at once, the segments crossed by each upward ray.

    Vectorized transcription of :func:`repro.geometry.plumbline.
    crossings_above`, including its eps-shifted half-open window
    ``x0 - eps <= px < x1 - eps``, the (near-)vertical exclusion
    ``x1 - x0 <= eps``, and the clamped interpolation parameter — so the
    counts agree with the scalar loop point for point.
    """
    px, py = _points_to_arrays(points)
    arr = segs if isinstance(segs, np.ndarray) else segs_to_array(segs)
    if arr.size == 0 or px.size == 0:
        _record_rows("plumbline", len(px))
        return np.zeros(len(px), dtype=np.int64)
    x0, y0, x1, y1 = arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy(), arr[:, 3].copy()
    swap = x0 > x1  # tolerate unnormalized input, like the scalar loop
    x0[swap], x1[swap] = x1[swap], x0[swap].copy()
    y0[swap], y1[swap] = y1[swap], y0[swap].copy()
    span = x1 - x0
    crossable = span > eps  # (near-)vertical segments: never crossed
    window = crossable & (x0 - eps <= px[:, None]) & (px[:, None] < x1 - eps)
    denom = np.where(crossable, span, 1.0)
    tpar = np.clip((px[:, None] - x0) / denom, 0.0, 1.0)
    ys = y0 + tpar * (y1 - y0)
    counts = np.sum(window & (ys > py[:, None] + eps), axis=1)
    _record_rows("plumbline", len(px))
    if obs.enabled:
        obs.counters.add("vector.plumbline.segments", int(len(px) * len(x0)))
    return counts.astype(np.int64)


def on_boundary_batch(
    points: Union[np.ndarray, Sequence],
    segs: Union[np.ndarray, Iterable[Seg]],
    eps: float = EPSILON,
) -> np.ndarray:
    """For N points at once: does each lie on any of the segments?

    Vectorized transcription of ``point_on_seg`` (span-scaled collinear
    tolerance + eps-widened bounding box) any-reduced over segments.
    The box test runs over all N × S pairs, the collinearity arithmetic
    only over the pairs that pass it — around a polygon a segment or two
    per point, not S.
    """
    px, py = _points_to_arrays(points)
    arr = segs if isinstance(segs, np.ndarray) else segs_to_array(segs)
    _record_rows("on_boundary", len(px))
    on = np.zeros(len(px), dtype=np.bool_)
    if arr.size == 0 or px.size == 0:
        return on
    x0, y0, x1, y1 = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    in_box = (
        (np.minimum(x0, x1) - eps <= px[:, None])
        & (px[:, None] <= np.maximum(x0, x1) + eps)
        & (np.minimum(y0, y1) - eps <= py[:, None])
        & (py[:, None] <= np.maximum(y0, y1) + eps)
    )
    p, s = np.nonzero(in_box)
    dqx, dqy = (x1 - x0)[s], (y1 - y0)[s]
    drx = px[p] - x0[s]
    dry = py[p] - y0[s]
    val = dqx * dry - dqy * drx
    scale = np.maximum.reduce(
        [np.abs(dqx), np.abs(dqy), np.abs(drx), np.abs(dry), np.ones_like(val)]
    )
    on[p[np.abs(val) <= eps * scale]] = True
    return on


def inside_prefilter(
    points: Union[np.ndarray, Sequence],
    region: Region,
    eps: float = EPSILON,
    boundary_counts: bool = True,
) -> np.ndarray:
    """Batched point-in-region test: N query points against one region.

    Equivalent to ``point_in_segset(p, region.segments())`` per point —
    odd parity of upward-ray crossings over *all* boundary segments
    (parity handles holes and islands-in-holes alike), with boundary
    points decided by ``boundary_counts`` — behind the bounding-box cut
    of ``Region.contains_point`` (:meth:`Rect.near`, the same ``eps``):
    only points that pass it reach the O(points × segments) sweeps.
    Used as the set-at-a-time prefilter in fleet snapshot queries before
    any per-object exact work.
    """
    px, py = _points_to_arrays(points)
    _record_rows("inside_prefilter", len(px))
    inside = np.zeros(len(px), dtype=np.bool_)
    if not region.faces:
        return inside
    idx = np.flatnonzero(region.bbox().near(px, py, eps))
    if idx.size:
        near = np.column_stack([px[idx], py[idx]])
        arr = segs_to_array(region.segments())
        odd = crossings_above_batch(near, arr, eps) % 2 == 1
        on = on_boundary_batch(near, arr, eps)
        inside[idx] = np.where(on, boundary_counts, odd)
    return inside


# ---------------------------------------------------------------------------
# Window refinement, batched: per-unit in-rect spans → merged, clipped runs
# ---------------------------------------------------------------------------


def window_times_batch(
    col: UPointColumn, rect: Rect
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-unit time spans inside ``rect``, for a whole fleet at once.

    Vectorized transcription of :func:`repro.ops.window.
    upoint_within_rect_times`: per axis, a coordinate stationary over
    the unit (:func:`repro.config.fstationary`: it moves by at most
    EPSILON) is inside throughout iff its position at the unit's start
    is (eps-)within the slab, otherwise the linear motion enters/leaves
    at the two slab-crossing parameters; the axis spans are intersected
    with each other and with the unit's interval.
    Closedness is inherited exactly as the scalar does — the unit's own
    flag where the span reaches the interval endpoint (eps-compared, via
    the same ``feq`` tolerance), closed where the rect boundary cuts the
    interior — and degenerate non-closed spans are dropped with the
    scalar's *exact* (not eps) equality.

    Returns ``(a, b, lc, rc, ok)`` aligned with the column's unit
    arrays; lanes are meaningful only where ``ok`` is True.
    """
    return _window_spans(col, rect, slice(None))


def _window_spans(
    col: UPointColumn, rect: Rect, lanes: Union[slice, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`window_times_batch` over the units ``lanes`` selects (every
    unit for ``slice(None)``, which gathers nothing), aligned with
    ``lanes``.

    The exceptions cost only where they occur: per axis the slab
    crossings are computed for every lane, and the stationary branch —
    a substitute divisor, the unit's own interval as the span, the
    eps-test of the position — runs on the stationary lanes alone.  The
    closedness flags are read only on the ``ok`` lanes whose span ends
    within ``EPSILON`` of the unit's interval; every other lane reports
    closed (``True``), which is what the ``ok`` lanes inherit there.
    """
    s, e = col.starts[lanes], col.ends[lanes]
    duration = e - s

    def axis(
        c0: np.ndarray, c1: np.ndarray, lo: float, hi: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        const = np.flatnonzero(fstationary(c1, duration))
        if const.size:
            # The eps-test reads the position at the unit's start (c0
            # when motionless); those lanes divide by 1.0, their spans
            # are replaced.
            v, start = c1[const], s[const]
            p = c0[const]
            moving = np.flatnonzero(v)
            p[moving] += v[moving] * start[moving]
            c1 = c1.copy()
            c1[const] = 1.0
        ta = lo - c0
        ta /= c1
        tb = hi - c0
        tb /= c1
        a = np.minimum(ta, tb)
        np.maximum(s, a, out=a)
        b = np.maximum(ta, tb, out=tb)
        np.minimum(e, b, out=b)
        ok = a <= b
        if const.size:
            a[const] = start
            b[const] = e[const]
            ok[const] = (lo <= p + EPSILON) & (p <= hi + EPSILON)
        return a, b, ok

    xa, xb, xok = axis(col.x0[lanes], col.x1[lanes], rect.xmin, rect.xmax)
    ya, yb, yok = axis(col.y0[lanes], col.y1[lanes], rect.ymin, rect.ymax)
    a = np.maximum(xa, ya, out=xa)
    b = np.minimum(xb, yb, out=xb)
    ok = xok & yok & (a <= b)
    hit = np.flatnonzero(ok)

    def inherit(
        span_end: np.ndarray, unit_end: np.ndarray, flag: np.ndarray
    ) -> np.ndarray:
        """The unit's own flag on the ``ok`` lanes whose span reaches its
        interval's end (equal or eps-close, the scalar's ``feq``; equal
        ends are zeroed, not subtracted: ``∞ − ∞`` is NaN), else closed."""
        out = np.ones(len(ok), dtype=np.bool_)
        x, y = span_end[hit], unit_end[hit]
        same = x == y
        x[same] = y[same] = 0.0
        near = hit[np.abs(x - y) <= EPSILON]
        out[near] = flag[lanes][near]
        return out

    lc = inherit(a, s, col.lc)
    rc = inherit(b, e, col.rc)
    # A degenerate span survives only if closed on both sides (exact ==).
    point = np.flatnonzero(ok & (a == b))
    if point.size:
        ok[point] = lc[point] & rc[point]
    _record_rows("window_times_batch", len(s))
    return a, b, lc, rc, ok


def window_intervals_batch(
    col: UPointColumn, rect: Rect, t0: float, t1: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merged, window-clipped in-rect intervals for a whole fleet at once.

    The batch analogue of ``mpoint_within_rect_times(m, rect).
    normalized(...).intersection(RangeSet([Interval(t0, t1)]))``: the
    per-unit spans of :func:`window_times_batch` are merged into runs
    exactly as ``RangeSet.normalized`` would (two spans coalesce iff
    they share an endpoint — raw float equality, like ``Interval.
    r_adjacent`` — with at least one touching side closed, and belong to
    the same object), then clipped against the closed window
    ``[t0, t1]`` with ``Interval.intersection``'s tie rules (degenerate
    survivors become closed on both sides).  Because each object's unit
    spans arrive in validated unit order, the resulting runs are already
    in canonical ``RangeSet`` order, pairwise disjoint and non-adjacent.

    Only the units whose interval meets ``[t0, t1]`` are refined — the
    sliced representation's time order at fleet scale.  A unit's span
    lies inside its interval and an object's units are sorted and
    disjoint, so the units left out are a prefix and a suffix of each
    object whose spans lie wholly before ``t0`` or after ``t1``: they
    can only extend a run's end that the clip moves to the window's
    (closed) bound anyway, and the rows are those of the whole-column
    sweep, bit for bit.  When at least half the units meet the window,
    the sweep reads the column arrays as they are, which is cheaper
    than gathering them.

    Returns ``(owner, s, e, lc, rc)`` — one row per surviving interval,
    ``owner`` being the object's index in the column, grouped by object
    in ascending time order.  A window whose bounds are not ordered
    (``t0 > t1``, or either one NaN) raises :class:`InvalidValue`, as
    its ``Interval`` would.
    """
    t0, t1 = float(t0), float(t1)
    if not t0 <= t1:
        raise InvalidValue(f"interval start {t0!r} exceeds end {t1!r}")
    _record_rows("window_intervals_batch", col.n_units)
    meets = (col.ends >= t0) & (col.starts <= t1)
    lanes: Union[slice, np.ndarray] = slice(None)
    if 2 * np.count_nonzero(meets) < col.n_units:  # else gathering costs more
        lanes = np.flatnonzero(meets)
    a, b, lc, rc, ok = _window_spans(col, rect, lanes)
    hit = np.flatnonzero(ok)
    if hit.size == 0:
        empty = np.empty(0)
        return (
            np.empty(0, dtype=np.int64), empty, empty.copy(),
            np.empty(0, dtype=np.bool_), np.empty(0, dtype=np.bool_),
        )
    idx = lanes[hit] if isinstance(lanes, np.ndarray) else hit
    owner = (np.searchsorted(col.offsets, idx, side="right") - 1).astype(np.int64)
    av, bv, lv, rv = a[hit], b[hit], lc[hit], rc[hit]
    link = (bv[:-1] == av[1:]) & (rv[:-1] | lv[1:]) & (owner[:-1] == owner[1:])
    starts = np.flatnonzero(np.concatenate(([True], ~link)))
    ends = np.concatenate((starts[1:] - 1, [len(hit) - 1]))
    run_s, run_e = av[starts], bv[ends]
    run_lc, run_rc = lv[starts], rv[ends]
    run_owner = owner[starts]
    # Clip against the closed window [t0, t1]: Interval.r_disjoint on
    # either side drops the run; the survivors take the tighter endpoint
    # and, on the window's side, a closed flag (Interval.intersection tie
    # rules with lc = rc = True for the window).
    keep = ~(
        (run_e < t0)
        | ((run_e == t0) & ~run_rc)
        | (t1 < run_s)
        | ((t1 == run_s) & ~run_lc)
    )
    cs = np.maximum(run_s, t0)
    ce = np.minimum(run_e, t1)
    clc = np.where(run_s >= t0, run_lc, True)
    crc = np.where(run_e <= t1, run_rc, True)
    degenerate = cs == ce  # degenerate intersections are closed points
    clc = np.where(degenerate, True, clc)
    crc = np.where(degenerate, True, crc)
    return run_owner[keep], cs[keep], ce[keep], clc[keep], crc[keep]


# ---------------------------------------------------------------------------
# Trajectory length, batched: Σ hypot per object, certified against merge-segs
# ---------------------------------------------------------------------------

#: Within-object segment pairs tested per block of
#: :func:`path_length_batch` (each costs a few dozen bytes of scratch).
_PAIR_BLOCK = 1 << 16


def _turns(
    seg: Tuple[np.ndarray, ...], a: np.ndarray,
    rx: np.ndarray, ry: np.ndarray, eps: float,
) -> np.ndarray:
    """``orientation(p, q, r, eps) != 0`` for segments ``a`` = (p, q)
    against the points r = (``rx``, ``ry``, overwritten): the scalar's
    cross product against the scalar's ``eps * span``, term for term.
    ``seg`` is p, ``q - p`` and ``max(|q - p|…, 1)``, once per segment;
    the rest runs in place — at this size a temporary costs more than
    the arithmetic that fills it."""
    px, py, dx, dy, reach = seg
    rx -= px[a]
    ry -= py[a]
    val = dx[a]
    val *= ry
    minus = dy[a]
    minus *= rx
    val -= minus
    np.abs(val, out=val)
    np.abs(rx, out=rx)
    np.abs(ry, out=ry)
    np.maximum(rx, ry, out=rx)
    np.maximum(rx, reach[a], out=rx)
    rx *= eps
    return val > rx


def path_length_batch(
    col: UPointColumn, eps: float = EPSILON
) -> Tuple[np.ndarray, np.ndarray]:
    """``length(trajectory(·))`` of every object, without building a line.

    Returns ``(length, exact)`` per lane.  ``length`` sums ``hypot`` over
    the object's units whose end points differ — the segments
    ``MovingPoint.trajectory`` hands to ``merge_segs``.  ``exact`` holds
    where no two of those segments are ``collinear`` (the four
    ``orientation`` tests of :func:`repro.geometry.segment.collinear`
    on ``make_seg``-ordered end points, term for term): every segment is
    then its own ``_group_collinear`` group, ``merge_segs`` returns them
    unchanged, and ``length`` *is* the trajectory's length up to the
    rounding of a different summation order.  Elsewhere merging can only
    shorten the union, or bridge a gap of at most ``eps`` between two
    collinear runs, so an inexact lane's sum is raised by ``eps`` per
    segment and is an upper bound.  An empty lane is ``(0.0, True)``.

    The pair tests run within objects only, in blocks of
    ``_PAIR_BLOCK``: Σ nᵢ(nᵢ−1)/2 of them, the comparisons the scalar
    ``_group_collinear`` makes when nothing merges.
    """
    n = col.n_objects
    s, e = col.starts, col.ends
    ax, ay = col.x0 + col.x1 * s, col.y0 + col.y1 * s
    bx, by = col.x0 + col.x1 * e, col.y0 + col.y1 * e
    kept = np.flatnonzero((ax != bx) | (ay != by))
    _record_rows("path_length_batch", n)
    exact = np.ones(n, dtype=np.bool_)
    if kept.size == 0:
        return np.zeros(n), exact
    owner = np.searchsorted(col.offsets, kept, side="right") - 1
    ax, ay, bx, by = ax[kept], ay[kept], bx[kept], by[kept]
    swap = (ax > bx) | ((ax == bx) & (ay > by))  # make_seg: left end first
    ux, uy = np.where(swap, bx, ax), np.where(swap, by, ay)
    vx, vy = np.where(swap, ax, bx), np.where(swap, ay, by)
    dx, dy = vx - ux, vy - uy
    length = np.bincount(owner, weights=np.hypot(dx, dy), minlength=n)
    reach = np.maximum(np.maximum(np.abs(dx), np.abs(dy)), 1.0)
    seg = (ux, uy, dx, dy, reach)

    # Segment j pairs with the ``later[j]`` segments after it in its object.
    counts = np.bincount(owner, minlength=n)
    m = len(kept)
    later = np.cumsum(counts)[owner] - np.arange(m) - 1
    done = np.cumsum(later)
    lo = 0
    while lo < m:
        base = int(done[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(done, base + _PAIR_BLOCK, "right")))
        reps = later[lo:hi]
        j = np.repeat(np.arange(lo, hi), reps)
        k = j + 1 + np.arange(len(j)) - np.repeat(done[lo:hi] - reps - base, reps)
        # collinear(sⱼ, sₖ): both ends of each on the other's carrier.
        # Each test runs on the pairs the previous ones left — few.
        for flip, rx, ry in (
            (False, ux, uy), (False, vx, vy), (True, ux, uy), (True, vx, vy)
        ):
            a, b = (k, j) if flip else (j, k)
            straight = ~_turns(seg, a, rx[b], ry[b], eps)
            j, k = j[straight], k[straight]
        exact[owner[j]] = False
        lo = hi
    if obs.enabled:
        obs.counters.add("vector.path_length_batch.pairs", int(done[-1]))
    length[~exact] += eps * counts[~exact]
    return length, exact
