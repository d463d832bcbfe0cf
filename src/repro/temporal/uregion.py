"""The ``uregion`` unit type: moving regions with moving holes.

``MCycle`` is a set of moving segments intended to form a cycle at every
instant of the open unit interval; ``MFace`` pairs an outer moving cycle
with hole cycles; a ``URegion`` is a set of moving faces that evaluates
to a valid ``region`` at every instant of the open interval
(Section 3.2.6, Figure 6).

At the closed interval end points the region may degenerate (faces
collapsing to segments or points, holes closing up); ``ι_s``/``ι_e``
apply the paper's cleanup: drop degenerated segments, then keep exactly
the odd-parity fragments of overlapping collinear groups, and rebuild
the structure with the ``close`` operation.

Validation levels:

* ``"fast"`` (default): structural checks plus full region validation at
  three interior sample instants.
* ``"full"``: additionally an exact pairwise moving-segment crossing
  analysis — two moving segments properly cross inside the open
  interval iff the four orientation quadratics admit a sign
  configuration ``o1·o2 < 0 ∧ o3·o4 < 0`` on some sub-interval, which is
  decided on the partition induced by their roots.
* ``"none"``: trust the caller (used internally for restrictions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import InvalidValue
from repro.geometry.mergesegs import parity_fragments
from repro.geometry.segment import Seg
from repro.spatial.bbox import Cube, Rect
from repro.spatial.line import Line
from repro.spatial.region import Cycle, Face, Region, close_region
from repro.temporal.mseg import MPoint, MSeg
from repro.temporal.quadratics import (
    Quad,
    eval_quad,
    is_zero_quad,
    roots_in_interval,
)
from repro.temporal.uline import orientation_quad
from repro.temporal.unit import Unit


@dataclass(frozen=True)
class MCycle:
    """A moving cycle: at least three moving segments."""

    msegs: Tuple[MSeg, ...]

    def __init__(self, msegs: Iterable[MSeg]):
        mseg_tuple = tuple(sorted(set(msegs), key=lambda m: m.sort_key()))
        if len(mseg_tuple) < 3:
            raise InvalidValue("a moving cycle needs at least three moving segments")
        object.__setattr__(self, "msegs", mseg_tuple)

    @classmethod
    def stationary(cls, cycle: Cycle) -> "MCycle":
        """A moving cycle that never moves."""
        return cls([MSeg.stationary(s) for s in cycle.segments])

    @classmethod
    def between_cycles(cls, t0: float, c0: Cycle, t1: float, c1: Cycle) -> "MCycle":
        """Interpolate two cycle snapshots with matched, parallel segments.

        Edges are matched by *walk order* (both rings oriented
        counter-clockwise, rotated to start at their lexicographically
        smallest vertex), which is stable under translation and positive
        scaling — matching by canonical segment sort would flip on
        floating point ties.
        """
        if len(c0.segments) != len(c1.segments):
            raise InvalidValue(
                "between_cycles needs snapshots with equal segment counts"
            )
        ring0 = _aligned_ring(c0)
        ring1 = _aligned_ring(c1)
        msegs = []
        n = len(ring0)
        for i in range(n):
            s0 = (ring0[i], ring0[(i + 1) % n])
            s1 = (ring1[i], ring1[(i + 1) % n])
            msegs.append(
                MSeg(
                    MPoint.linear_between(t0, s0[0], t1, s1[0]),
                    MPoint.linear_between(t0, s0[1], t1, s1[1]),
                )
            )
        return cls(msegs)

    def cycle_at(self, t: float) -> Cycle:
        """Evaluate to a (validated) cycle at an interior instant."""
        segs = []
        for m in self.msegs:
            s = m.seg_at(t)
            if s is None:
                raise InvalidValue(f"moving cycle degenerates at t={t}")
            segs.append(s)
        return Cycle(segs, validate=False)

    def segments_at(self, t: float) -> List[Seg]:
        """Proper segments at ``t`` (degenerated ones dropped)."""
        out = []
        for m in self.msegs:
            s = m.seg_at(t)
            if s is not None:
                out.append(s)
        return out

    def sort_key(self) -> tuple:
        return tuple(m.sort_key() for m in self.msegs)


def _aligned_ring(cycle: Cycle) -> List:
    """The cycle's vertex ring, CCW-oriented, starting at its minimal vertex."""
    from repro.geometry.primitives import polygon_area

    ring = list(cycle.vertices)
    if polygon_area(ring) < 0:
        ring.reverse()
    start = min(range(len(ring)), key=lambda i: ring[i])
    return ring[start:] + ring[:start]


@dataclass(frozen=True)
class MFace:
    """A moving face: outer moving cycle plus moving hole cycles."""

    outer: MCycle
    holes: Tuple[MCycle, ...]

    def __init__(self, outer: MCycle, holes: Iterable[MCycle] = ()):
        object.__setattr__(self, "outer", outer)
        object.__setattr__(
            self, "holes", tuple(sorted(holes, key=lambda c: c.sort_key()))
        )

    @classmethod
    def stationary(cls, face: Face) -> "MFace":
        """A moving face that never moves."""
        return cls(
            MCycle.stationary(face.outer),
            [MCycle.stationary(h) for h in face.holes],
        )

    @property
    def cycles(self) -> Tuple[MCycle, ...]:
        return (self.outer, *self.holes)

    def msegs(self) -> List[MSeg]:
        """All moving segments of the face."""
        out = list(self.outer.msegs)
        for h in self.holes:
            out.extend(h.msegs)
        return out

    def face_at(self, t: float) -> Face:
        """Evaluate to a face at an interior instant (no validation)."""
        return Face(
            self.outer.cycle_at(t),
            [h.cycle_at(t) for h in self.holes],
            validate=False,
        )

    def sort_key(self) -> tuple:
        return self.outer.sort_key()


class URegion(Unit[Region]):
    """A moving-region unit: interval × set of MFace under region constraints."""

    __slots__ = ("_faces", "_cube", "_area_summary", "_perimeter_summary")

    def __init__(
        self,
        interval,
        faces: Iterable[MFace],
        validate: str = "fast",
    ):
        super().__init__(interval)
        face_list = tuple(sorted(faces, key=lambda f: f.sort_key()))
        if not face_list:
            raise InvalidValue("a uregion unit needs at least one moving face")
        object.__setattr__(self, "_faces", face_list)
        object.__setattr__(self, "_cube", None)
        object.__setattr__(self, "_area_summary", None)
        object.__setattr__(self, "_perimeter_summary", None)
        if validate == "fast":
            self._check_sampled()
        elif validate == "full":
            self._check_sampled()
            self._check_crossings()
        elif validate != "none":
            raise InvalidValue(f"unknown validation level {validate!r}")

    def _constructor_args(self) -> tuple:
        return (self._interval, self._faces)

    # -- constructors ------------------------------------------------------

    @classmethod
    def stationary(cls, interval, region: Region) -> "URegion":
        """A unit holding a region value still."""
        return cls(
            interval,
            [MFace.stationary(f) for f in region.faces],
            validate="none",
        )

    @classmethod
    def between_regions(
        cls,
        t0: float,
        r0: Region,
        t1: float,
        r1: Region,
        validate: str = "fast",
    ) -> "URegion":
        """Interpolate two region snapshots with matched structure.

        Faces, cycles, and segments must correspond one-to-one in
        canonical order, with parallel matched segments (no rotation).
        Used by the translation/scaling workload generators; for free
        deformation between convex snapshots see
        :mod:`repro.temporal.interpolate`.
        """
        if len(r0.faces) != len(r1.faces):
            raise InvalidValue("snapshots must have equally many faces")
        mfaces = []
        for f0, f1 in zip(r0.faces, r1.faces):
            if len(f0.holes) != len(f1.holes):
                raise InvalidValue("snapshots must have matching hole counts")
            outer = MCycle.between_cycles(t0, f0.outer, t1, f1.outer)
            holes = [
                MCycle.between_cycles(t0, h0, t1, h1)
                for h0, h1 in zip(f0.holes, f1.holes)
            ]
            mfaces.append(MFace(outer, holes))
        from repro.ranges.interval import Interval

        return cls(Interval(float(t0), float(t1)), mfaces, validate=validate)

    # -- validation -----------------------------------------------------------

    def _sample_times(self) -> List[float]:
        iv = self.interval
        if iv.is_degenerate:
            return [iv.s]
        span = iv.e - iv.s
        delta = max(span * 1e-6, 1e-12)
        return [iv.s + delta, iv.midpoint(), iv.e - delta]

    def _check_sampled(self) -> None:
        """Validate the evaluated region at interior sample instants."""
        for t in self._sample_times():
            try:
                region = self._build_region(t, validate=True)
            except InvalidValue as exc:
                raise InvalidValue(
                    f"uregion does not evaluate to a valid region at t={t}: {exc}"
                ) from exc
            if not region:
                raise InvalidValue(f"uregion evaluates to the empty region at t={t}")

    def _check_crossings(self) -> None:
        """Exact pairwise crossing analysis of all moving segments."""
        iv = self.interval
        if iv.is_degenerate:
            return
        msegs = self.msegs()
        lo, hi = iv.s, iv.e
        for i, a in enumerate(msegs):
            for b in msegs[i + 1 :]:
                if _msegs_cross_inside(a, b, lo, hi):
                    raise InvalidValue(
                        "moving segments properly cross inside the open interval"
                    )

    # -- accessors --------------------------------------------------------------

    @property
    def faces(self) -> Sequence[MFace]:
        """The moving faces."""
        return self._faces

    def msegs(self) -> List[MSeg]:
        """All moving segments of all faces (the msegments subarray)."""
        out: List[MSeg] = []
        for f in self._faces:
            out.extend(f.msegs())
        return out

    def unit_function(self) -> Sequence[MFace]:
        return self._faces

    def _function_key(self) -> tuple:
        return tuple(f.sort_key() for f in self._faces)

    # -- evaluation ----------------------------------------------------------------

    def _build_region(self, t: float, validate: bool) -> Region:
        faces = []
        for mf in self._faces:
            outer = Cycle(mf.outer.segments_at(t), validate=validate)
            holes = [Cycle(h.segments_at(t), validate=validate) for h in mf.holes]
            faces.append(Face(outer, holes, validate=validate))
        return Region(faces, validate=validate)

    def _iota(self, t: float) -> Region:
        return self._build_region(t, validate=False)

    def _cleanup(self, t: float) -> Region:
        """ι_s/ι_e: degenerate-segment removal + odd-parity fragments + close."""
        raw: List[Seg] = []
        for m in self.msegs():
            s = m.seg_at(t)
            if s is not None:
                raw.append(s)
        cleaned = parity_fragments(raw)
        if len(cleaned) < 3:
            return Region([])
        try:
            return close_region(cleaned)
        except InvalidValue:
            # The remaining fragments do not bound an area (e.g. the whole
            # region collapsed onto a line): the region value is empty.
            return Region([])

    def _iota_start(self, t: float) -> Region:
        return self._cleanup(t)

    def _iota_end(self, t: float) -> Region:
        return self._cleanup(t)

    def with_interval(self, interval) -> "URegion":
        return URegion(interval, self._faces, validate="none")

    # -- summary quadruples (Section 4.2, closing remark) --------------------

    def area_summary(self):
        """The (a, b, c, r) quadruple of the time-dependent area.

        Section 4.2 suggests storing exactly this summary in the unit
        record; it is computed once (the area of linearly moving faces
        is a quadratic in t, recovered exactly by interpolation) and
        cached / serialized with the unit.
        """
        if self._area_summary is None:
            from repro.ops.numeric import _fit_quadratic

            u = _fit_quadratic(self.interval, lambda t: self._iota(t).area())
            object.__setattr__(self, "_area_summary", u.coefficients)
        return self._area_summary

    def perimeter_summary(self):
        """The (a, b, c, r) quadruple of the time-dependent perimeter.

        Linear in t within the unit (non-rotating segments have linear
        length); see :mod:`repro.ops.numeric`.
        """
        if self._perimeter_summary is None:
            from repro.ops.numeric import _fit_linear

            u = _fit_linear(self.interval, lambda t: self._iota(t).perimeter())
            object.__setattr__(self, "_perimeter_summary", u.coefficients)
        return self._perimeter_summary

    def _prime_summaries(self, area, perimeter) -> None:
        """Restore summaries from storage (codec use only)."""
        object.__setattr__(self, "_area_summary", area)
        object.__setattr__(self, "_perimeter_summary", perimeter)

    # -- geometry ---------------------------------------------------------------------

    def bounding_rect(self) -> Rect:
        """Spatial bounding box over the unit interval (vertices move linearly)."""
        pts = []
        for m in self.msegs():
            for t in (self.interval.s, self.interval.e):
                p, q = m.at(t)
                pts.extend((p, q))
        return Rect.around(pts)

    def bounding_cube(self) -> Cube:
        """The 3-D bounding cube of Section 4.2.

        Computed once and cached on the unit — exactly the role of the
        bounding-cube field in the unit record of the paper's data
        structure; the O(n + m) far-apart bound of the ``inside``
        algorithm depends on this being O(1) per lookup.
        """
        if self._cube is None:
            object.__setattr__(
                self,
                "_cube",
                Cube.from_rect(self.bounding_rect(), self.interval.s, self.interval.e),
            )
        return self._cube

    def __repr__(self) -> str:
        nsegs = len(self.msegs())
        return (
            f"URegion({self.interval.pretty()}, {len(self._faces)} mfaces, "
            f"{nsegs} msegs)"
        )


def _msegs_cross_inside(a: MSeg, b: MSeg, lo: float, hi: float) -> bool:
    """True iff segments ``a`` and ``b`` properly cross at some t in (lo, hi).

    The four orientation tests are quadratics in t; the crossing
    predicate ``o1·o2 < 0 ∧ o3·o4 < 0`` is piecewise constant between
    their roots, so testing each piece's midpoint decides it exactly.
    """
    quads: List[Quad] = [
        orientation_quad(a.s, a.e, b.s),
        orientation_quad(a.s, a.e, b.e),
        orientation_quad(b.s, b.e, a.s),
        orientation_quad(b.s, b.e, a.e),
    ]
    cuts = {lo, hi}
    for q in quads:
        if not is_zero_quad(q):
            cuts.update(roots_in_interval(q, lo, hi, open_ends=True))
    ordered = sorted(cuts)
    for x, y in zip(ordered, ordered[1:]):
        mid = (x + y) / 2.0
        o = [eval_quad(q, mid) for q in quads]
        if o[0] * o[1] < 0 and o[2] * o[3] < 0:
            return True
    return False
