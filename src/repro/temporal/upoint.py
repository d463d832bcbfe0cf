"""The ``upoint`` unit type: a single linearly moving point (Section 3.2.6)."""

from __future__ import annotations

from typing import Tuple

from repro.geometry.primitives import Vec
from repro.ranges.interval import Interval
from repro.spatial.bbox import Cube, Rect
from repro.spatial.point import Point
from repro.temporal.mseg import MPoint
from repro.temporal.unit import Unit, _set_interval, as_interval


class UPoint(Unit[Point]):
    """A moving-point unit: ``Interval(Instant) × MPoint``."""

    __slots__ = ("_motion",)

    def __init__(self, interval, motion: MPoint):
        _set_interval(self, as_interval(interval))
        _set_motion(self, motion)

    def _constructor_args(self) -> tuple:
        return (self._interval, self._motion)

    @classmethod
    def between(cls, t0: float, p0: Vec, t1: float, p1: Vec, lc=True, rc=True) -> "UPoint":
        """The unit moving linearly from ``p0`` at ``t0`` to ``p1`` at ``t1``."""
        return cls(
            Interval(float(t0), float(t1), lc, rc),
            MPoint.linear_between(t0, p0, t1, p1),
        )

    @classmethod
    def stationary(cls, interval, p: Vec) -> "UPoint":
        """A unit holding the point still at ``p``."""
        return cls(interval, MPoint.stationary(p))

    @property
    def motion(self) -> MPoint:
        """The MPoint quadruple (the unit function)."""
        return self._motion

    @property
    def coefficients(self) -> Tuple[float, float, float, float]:
        """The raw quadruple ``(x0, x1, y0, y1)`` — the columnar unit fields."""
        m = self._motion
        return (m.x0, m.x1, m.y0, m.y1)

    def unit_function(self) -> MPoint:
        return self._motion

    def _iota(self, t: float) -> Point:
        return Point.from_vec(self._motion.at(t))

    def vec_at(self, t: float) -> Vec:
        """Raw coordinate evaluation (no interval check)."""
        return self._motion.at(t)

    def with_interval(self, interval) -> "UPoint":
        return UPoint(interval, self._motion)

    def _function_key(self) -> tuple:
        return self._motion.sort_key()

    # -- geometry -----------------------------------------------------------

    def start_point(self) -> Vec:
        """Position at the interval start."""
        return self._motion.at(self.interval.s)

    def end_point(self) -> Vec:
        """Position at the interval end."""
        return self._motion.at(self.interval.e)

    @property
    def speed(self) -> float:
        """The constant speed within the unit."""
        return self._motion.speed

    def bounding_rect(self) -> Rect:
        """Spatial bounding box of the swept trajectory piece."""
        return Rect.around([self.start_point(), self.end_point()])

    def bounding_cube(self) -> Cube:
        """The 3-D bounding cube of Section 4.2."""
        return Cube.from_rect(self.bounding_rect(), self.interval.s, self.interval.e)

    def __repr__(self) -> str:
        p0, p1 = self.start_point(), self.end_point()
        return (
            f"UPoint({self.interval.pretty()}, "
            f"({p0[0]:g},{p0[1]:g})→({p1[0]:g},{p1[1]:g}))"
        )


_set_motion = UPoint.__dict__["_motion"].__set__
