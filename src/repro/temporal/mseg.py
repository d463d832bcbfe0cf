"""Linearly moving points (``MPoint``) and moving segments (``MSeg``).

``MPoint`` is the quadruple ``(x0, x1, y0, y1)`` describing the 3-D line
``t ↦ (x0 + x1·t, y0 + y1·t)`` — the unlimited temporal evolution of a
2-D point (Section 3.2.6).  ``MSeg`` is a pair of distinct, *coplanar*
``MPoint`` values: the moving segment sweeps a planar trapezium (or
triangle, when the end points coincide at one instant) in (x, y, t)
space; coplanarity is exactly the paper's no-rotation constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.config import EPSILON, fzero
from repro.errors import InvalidValue
from repro.geometry.primitives import Vec, point_cmp
from repro.geometry.segment import Seg, make_seg
from repro.temporal.quadratics import Quad, mul_linear, sub_quad


@dataclass(frozen=True, init=False)
class MPoint:
    """A linearly moving point: ``ι((x0,x1,y0,y1), t) = (x0+x1·t, y0+y1·t)``.

    A slotted record like :class:`~repro.ranges.interval.Interval`.
    """

    __slots__ = ("x0", "x1", "y0", "y1")

    x0: float
    x1: float
    y0: float
    y1: float

    def __init__(self, x0: float, x1: float, y0: float, y1: float) -> None:
        if not (_isfinite(x0) and _isfinite(x1) and _isfinite(y0) and _isfinite(y1)):
            raise InvalidValue("MPoint coefficients must be finite")
        _set_x0(self, x0)
        _set_x1(self, x1)
        _set_y0(self, y0)
        _set_y1(self, y1)

    def __reduce__(self):
        return (type(self), (self.x0, self.x1, self.y0, self.y1))

    @classmethod
    def linear_between(
        cls, t0: float, p0: Vec, t1: float, p1: Vec
    ) -> "MPoint":
        """The moving point at ``p0`` at time ``t0`` and ``p1`` at ``t1``."""
        if t1 == t0:
            if point_cmp(p0, p1) != 0:
                raise InvalidValue("cannot interpolate distinct points over zero time")
            return cls(p0[0], 0.0, p0[1], 0.0)
        vx = (p1[0] - p0[0]) / (t1 - t0)
        vy = (p1[1] - p0[1]) / (t1 - t0)
        return cls(p0[0] - vx * t0, vx, p0[1] - vy * t0, vy)

    @classmethod
    def stationary(cls, p: Vec) -> "MPoint":
        """A moving point that never moves."""
        return cls(p[0], 0.0, p[1], 0.0)

    def at(self, t: float) -> Vec:
        """Evaluate ι at time ``t``.

        A zero velocity contributes nothing at any instant: at an
        infinite ``t`` a stationary coordinate keeps its value instead
        of becoming ``0·∞ = nan`` (a finite ``t`` takes the plain sum).
        """
        x, y = self.x0 + self.x1 * t, self.y0 + self.y1 * t
        if math.isinf(t):
            x = x if self.x1 else self.x0
            y = y if self.y1 else self.y0
        return (x, y)

    @property
    def velocity(self) -> Vec:
        """The constant velocity vector."""
        return (self.x1, self.y1)

    @property
    def speed(self) -> float:
        """The constant speed (magnitude of the velocity)."""
        return math.hypot(self.x1, self.y1)

    def is_stationary(self, eps: float = EPSILON) -> bool:
        """True iff the point does not move."""
        return fzero(self.x1, eps) and fzero(self.y1, eps)

    def coincidence_times(self, other: "MPoint") -> Optional[List[float]]:
        """Times at which the two moving points coincide.

        Returns None when they coincide at *all* times; otherwise a list
        with zero or one instants.  Coincidence requires both coordinate
        differences (each linear in t) to vanish simultaneously.
        """

        def linear_solution(c0: float, c1: float):
            """Solution set of ``c0 + c1·t == 0``: 'all', 'none', or a time."""
            if fzero(c1):
                return "all" if fzero(c0) else "none"
            return -c0 / c1

        sol_x = linear_solution(self.x0 - other.x0, self.x1 - other.x1)
        sol_y = linear_solution(self.y0 - other.y0, self.y1 - other.y1)
        if sol_x == "all" and sol_y == "all":
            return None
        if sol_x == "none" or sol_y == "none":
            return []
        if sol_x == "all":
            return [sol_y]
        if sol_y == "all":
            return [sol_x]
        scale = max(abs(sol_x), abs(sol_y), 1.0)
        if abs(sol_x - sol_y) <= 1e-7 * scale:
            return [(sol_x + sol_y) / 2.0]
        return []

    def distance_sq_quad(self, other: "MPoint") -> Quad:
        """The squared distance to ``other`` as a quadratic in t.

        This is the radicand of the lifted Euclidean ``distance``
        operation — exactly why ``ureal`` includes the square-root form.
        """
        dx = (self.x1 - other.x1, self.x0 - other.x0)  # (slope, intercept)
        dy = (self.y1 - other.y1, self.y0 - other.y0)
        return tuple(
            a + b for a, b in zip(mul_linear(dx, dx), mul_linear(dy, dy))
        )  # type: ignore[return-value]

    def sort_key(self) -> tuple:
        """Lexicographic order on the quadruple (Section 4.2)."""
        return (self.x0, self.x1, self.y0, self.y1)


@dataclass(frozen=True, init=False)
class MSeg:
    """A moving segment: two distinct coplanar moving points.

    Coplanarity of the two 3-D trajectories is the paper's no-rotation
    constraint: the swept surface is a planar trapezium or triangle.
    """

    __slots__ = ("s", "e")

    s: MPoint
    e: MPoint

    def __init__(self, s: MPoint, e: MPoint) -> None:
        if s == e:
            raise InvalidValue("MSeg end points must be distinct moving points")
        if not self.coplanar(s, e):
            raise InvalidValue(
                "MSeg end point trajectories must be coplanar (segments may not rotate)"
            )
        _set_s(self, s)
        _set_e(self, e)

    def __reduce__(self):
        return (type(self), (self.s, self.e))

    @staticmethod
    def coplanar(s: MPoint, e: MPoint, eps: float = 1e-7) -> bool:
        """Check coplanarity of two 3-D trajectory lines.

        Lines ``a + d·t`` with anchors ``a = (x0, y0, 0)`` and directions
        ``d = (x1, y1, 1)`` are coplanar iff the scalar triple product
        ``(a_e − a_s) · (d_s × d_e)`` vanishes.
        """
        ax, ay, az = e.x0 - s.x0, e.y0 - s.y0, 0.0
        # d_s × d_e with d = (x1, y1, 1):
        cx = s.y1 * 1.0 - 1.0 * e.y1
        cy = 1.0 * e.x1 - s.x1 * 1.0
        cz = s.x1 * e.y1 - s.y1 * e.x1
        triple = ax * cx + ay * cy + az * cz
        scale = max(abs(ax), abs(ay), abs(cx), abs(cy), abs(cz), 1.0)
        return abs(triple) <= eps * scale * scale

    @classmethod
    def between_segments(
        cls, t0: float, seg0: Seg, t1: float, seg1: Seg
    ) -> "MSeg":
        """The moving segment interpolating ``seg0`` at ``t0`` to ``seg1`` at ``t1``.

        The two snapshots must be parallel (or one may be degenerate),
        otherwise the interpolation would rotate and violate the MSeg
        coplanarity constraint.
        """
        return cls(
            MPoint.linear_between(t0, seg0[0], t1, seg1[0]),
            MPoint.linear_between(t0, seg0[1], t1, seg1[1]),
        )

    @classmethod
    def stationary(cls, seg: Seg) -> "MSeg":
        """A moving segment that never moves."""
        return cls(MPoint.stationary(seg[0]), MPoint.stationary(seg[1]))

    def at(self, t: float) -> Tuple[Vec, Vec]:
        """Evaluate both end points at time ``t`` (may be degenerate)."""
        return (self.s.at(t), self.e.at(t))

    def seg_at(self, t: float) -> Optional[Seg]:
        """The proper segment at time ``t``, or None when degenerate."""
        p, q = self.at(t)
        if point_cmp(p, q) == 0:
            return None
        return make_seg(p, q)

    def degenerate_times(self) -> Optional[List[float]]:
        """Times at which the segment collapses to a point (None = always)."""
        return self.s.coincidence_times(self.e)

    def sort_key(self) -> tuple:
        """Lexicographic order on the component quadruples (Section 4.2)."""
        return self.s.sort_key() + self.e.sort_key()


# The frozen __setattr__ refuses every assignment, so the constructors
# write through the slots' member descriptors.
_isfinite = math.isfinite
_set_x0, _set_x1, _set_y0, _set_y1 = (
    MPoint.__dict__[name].__set__ for name in MPoint.__slots__
)
_set_s, _set_e = (MSeg.__dict__[name].__set__ for name in MSeg.__slots__)
