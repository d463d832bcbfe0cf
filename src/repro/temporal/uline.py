"""The ``uline`` unit type: a set of non-rotating moving segments.

Section 3.2.6 requires that, at every instant of the open unit interval,
evaluating the moving segments yields a valid ``line`` value: all
segments proper (non-degenerate) and no collinear overlapping pairs.
At the closed interval end points, degeneracies are permitted and the
``ι_s``/``ι_e`` evaluators clean them up with ``merge-segs``.

Validation is exact: degeneracy instants of each moving segment are the
solutions of two linear equations; collinearity of a pair of moving
segments is governed by two quadratics in t, whose common roots (or
identical vanishing) pinpoint every instant at which an overlap could
occur.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.errors import InvalidValue
from repro.geometry.mergesegs import merge_segs
from repro.geometry.segment import Seg, seg_overlap
from repro.spatial.bbox import Cube, Rect
from repro.spatial.line import Line
from repro.temporal.mseg import MPoint, MSeg
from repro.temporal.quadratics import Quad, common_roots, mul_linear
from repro.temporal.unit import Unit


def orientation_quad(a: MPoint, b: MPoint, c: MPoint) -> Quad:
    """The orientation test ``(b−a) × (c−a)`` as a quadratic in time.

    Zero exactly when the three moving points are collinear at time t.
    """
    # (b - a) components as linear polynomials (slope, intercept):
    ux = (b.x1 - a.x1, b.x0 - a.x0)
    uy = (b.y1 - a.y1, b.y0 - a.y0)
    vx = (c.x1 - a.x1, c.x0 - a.x0)
    vy = (c.y1 - a.y1, c.y0 - a.y0)
    p1 = mul_linear(ux, vy)
    p2 = mul_linear(uy, vx)
    return (p1[0] - p2[0], p1[1] - p2[1], p1[2] - p2[2])


class ULine(Unit[Line]):
    """A moving-line unit: interval × set of MSeg under the line constraints."""

    __slots__ = ("_msegs", "_cube")

    def __init__(self, interval, msegs: Iterable[MSeg], validate: bool = True):
        super().__init__(interval)
        mseg_list = sorted(set(msegs), key=lambda m: m.sort_key())
        if not mseg_list:
            raise InvalidValue("a uline unit needs at least one moving segment")
        object.__setattr__(self, "_msegs", tuple(mseg_list))
        object.__setattr__(self, "_cube", None)
        if validate:
            self._check_constraints()

    def _constructor_args(self) -> tuple:
        return (self._interval, self._msegs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def stationary(cls, interval, line: Line) -> "ULine":
        """A unit holding a line value still."""
        return cls(interval, [MSeg.stationary(s) for s in line.segments])

    @classmethod
    def between_lines(cls, t0: float, l0: Line, t1: float, l1: Line) -> "ULine":
        """Interpolate two line snapshots segment-by-segment.

        The snapshots must have equally many segments, matched in
        canonical order, with parallel counterparts (the no-rotation
        constraint); raises :class:`InvalidValue` otherwise.
        """
        if len(l0.segments) != len(l1.segments):
            raise InvalidValue(
                "between_lines needs snapshots with equal segment counts"
            )
        msegs = [
            MSeg.between_segments(t0, s0, t1, s1)
            for s0, s1 in zip(l0.segments, l1.segments)
        ]
        from repro.ranges.interval import Interval

        return cls(Interval(float(t0), float(t1)), msegs)

    # -- validation -----------------------------------------------------------

    def _check_constraints(self) -> None:
        iv = self.interval
        if iv.is_degenerate:
            value = self._iota_start(iv.s)
            if not value:
                raise InvalidValue("instant uline evaluates to the empty line")
            return
        lo, hi = iv.s, iv.e
        # (a) segments must stay proper inside the open interval.
        for m in self._msegs:
            times = m.degenerate_times()
            if times is None:
                raise InvalidValue("moving segment is degenerate at all times")
            for t in times:
                if lo < t < hi:
                    raise InvalidValue(
                        f"moving segment degenerates at t={t} inside the open interval"
                    )
        # (b) no collinear overlap inside the open interval.
        for i, a in enumerate(self._msegs):
            for b in self._msegs[i + 1 :]:
                self._check_pair_overlap(a, b, lo, hi)

    def _check_pair_overlap(self, a: MSeg, b: MSeg, lo: float, hi: float) -> None:
        """Exact check that a and b never overlap within (lo, hi)."""
        q1 = orientation_quad(a.s, a.e, b.s)
        q2 = orientation_quad(a.s, a.e, b.e)
        roots = common_roots([q1, q2], lo, hi)
        if roots is None:
            # Collinear throughout: sample interior instants for overlap.
            for frac in (0.5, 0.25, 0.75):
                t = lo + (hi - lo) * frac
                sa, sb = a.seg_at(t), b.seg_at(t)
                if sa is not None and sb is not None and seg_overlap(sa, sb):
                    raise InvalidValue(
                        f"moving segments overlap (collinear) around t={t}"
                    )
            return
        for t in roots:
            sa, sb = a.seg_at(t), b.seg_at(t)
            if sa is not None and sb is not None and seg_overlap(sa, sb):
                raise InvalidValue(f"moving segments overlap at t={t}")

    # -- accessors --------------------------------------------------------------

    @property
    def msegs(self) -> Sequence[MSeg]:
        """The ordered moving segments (lexicographic order, Section 4.2)."""
        return self._msegs

    def unit_function(self) -> Sequence[MSeg]:
        return self._msegs

    def __len__(self) -> int:
        return len(self._msegs)

    def _function_key(self) -> tuple:
        return tuple(m.sort_key() for m in self._msegs)

    # -- evaluation ----------------------------------------------------------------

    def _iota(self, t: float) -> Line:
        segs = []
        for m in self._msegs:
            s = m.seg_at(t)
            if s is None:
                raise InvalidValue(
                    f"degenerate segment at t={t} inside a uline open interval"
                )
            segs.append(s)
        return Line(segs, validate=False)

    def _cleanup(self, t: float) -> Line:
        """ι_s/ι_e: drop degenerated pairs and merge overlapping segments."""
        proper: List[Seg] = []
        for m in self._msegs:
            s = m.seg_at(t)
            if s is not None:
                proper.append(s)
        return Line(merge_segs(proper), validate=False)

    def _iota_start(self, t: float) -> Line:
        return self._cleanup(t)

    def _iota_end(self, t: float) -> Line:
        return self._cleanup(t)

    def with_interval(self, interval) -> "ULine":
        return ULine(interval, self._msegs, validate=False)

    # -- geometry ---------------------------------------------------------------------

    def bounding_rect(self) -> Rect:
        """Spatial bounding box over the unit interval.

        End point evaluations suffice: every vertex moves linearly, so
        coordinate extrema occur at the interval boundary.
        """
        pts = []
        for m in self._msegs:
            p, q = m.at(self.interval.s)
            pts.extend((p, q))
            p, q = m.at(self.interval.e)
            pts.extend((p, q))
        return Rect.around(pts)

    def bounding_cube(self) -> Cube:
        """The 3-D bounding cube of Section 4.2 (computed once, cached)."""
        if self._cube is None:
            object.__setattr__(
                self,
                "_cube",
                Cube.from_rect(self.bounding_rect(), self.interval.s, self.interval.e),
            )
        return self._cube

    def __repr__(self) -> str:
        return f"ULine({self.interval.pretty()}, {len(self._msegs)} msegs)"
