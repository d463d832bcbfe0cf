"""Bounding boxes: 2-D rectangles and 3-D (space × time) cubes.

Section 4 stores a bounding box with every ``line``/``region`` root
record and a *bounding cube* with every variable-size unit; these are
the filter geometry for the algorithms of Section 5 and for the R-tree
index package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.config import EPSILON
from repro.errors import InvalidValue
from repro.geometry.primitives import Vec


@dataclass(frozen=True, init=False)
class Rect:
    """An axis-aligned rectangle in the plane.

    A slotted record like :class:`~repro.ranges.interval.Interval`.
    Infinite sides are legal; a NaN side is malformed.
    """

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __init__(self, xmin: float, ymin: float, xmax: float, ymax: float) -> None:
        if not (xmin <= xmax and ymin <= ymax):  # also refuses a NaN side
            raise InvalidValue("malformed rectangle")
        _set_rect_xmin(self, xmin)
        _set_rect_ymin(self, ymin)
        _set_rect_xmax(self, xmax)
        _set_rect_ymax(self, ymax)

    def __reduce__(self):
        return (type(self), (self.xmin, self.ymin, self.xmax, self.ymax))

    @classmethod
    def around(cls, points: Iterable[Vec]) -> "Rect":
        """The tightest rectangle containing the given points."""
        pts = list(points)
        if not pts:
            raise InvalidValue("bounding box of an empty point collection")
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        return cls(min(xs), min(ys), max(xs), max(ys))

    def intersects(self, other: "Rect") -> bool:
        """True iff the rectangles share at least one point."""
        return (
            self.xmin <= other.xmax
            and other.xmin <= self.xmax
            and self.ymin <= other.ymax
            and other.ymin <= self.ymax
        )

    def contains_point(self, p: Vec) -> bool:
        """True iff the point lies in the closed rectangle."""
        return self.xmin <= p[0] <= self.xmax and self.ymin <= p[1] <= self.ymax

    def near(self, x, y, eps: float = EPSILON):
        """True iff ``(x, y)`` lies in the rectangle grown by ``eps`` on
        every side — a bool for floats, a mask for coordinate arrays.

        The one bounding-box cut in front of the eps-tolerant
        point-in-region tests, scalar (``Region.contains_point``) and
        batched (``inside_prefilter``) alike: ``point_on_seg`` accepts a
        point within ``eps`` of a segment's box, so the exact
        :meth:`contains_point` would cut points the test behind it
        accepts.
        """
        return (
            (self.xmin - eps <= x)
            & (x <= self.xmax + eps)
            & (self.ymin - eps <= y)
            & (y <= self.ymax + eps)
        )

    def contains_rect(self, other: "Rect") -> bool:
        """True iff ``other`` lies entirely within this rectangle."""
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and other.xmax <= self.xmax
            and other.ymax <= self.ymax
        )

    def union(self, other: "Rect") -> "Rect":
        """The tightest rectangle covering both."""
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Vec:
        return ((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)


@dataclass(frozen=True, init=False)
class Cube:
    """An axis-aligned box in (x, y, t) space — the *bounding cube* of Section 4.2.

    A slotted record like :class:`Rect`, with the same rule on its sides.
    """

    __slots__ = ("xmin", "ymin", "tmin", "xmax", "ymax", "tmax")

    xmin: float
    ymin: float
    tmin: float
    xmax: float
    ymax: float
    tmax: float

    def __init__(
        self, xmin: float, ymin: float, tmin: float,
        xmax: float, ymax: float, tmax: float,
    ) -> None:
        if not (xmin <= xmax and ymin <= ymax and tmin <= tmax):  # also refuses NaN
            raise InvalidValue("malformed cube")
        _set_cube_xmin(self, xmin)
        _set_cube_ymin(self, ymin)
        _set_cube_tmin(self, tmin)
        _set_cube_xmax(self, xmax)
        _set_cube_ymax(self, ymax)
        _set_cube_tmax(self, tmax)

    def __reduce__(self):
        return (
            type(self),
            (self.xmin, self.ymin, self.tmin, self.xmax, self.ymax, self.tmax),
        )

    @classmethod
    def from_rect(cls, rect: Rect, tmin: float, tmax: float) -> "Cube":
        """Extrude a 2-D rectangle over a time span."""
        return cls(rect.xmin, rect.ymin, tmin, rect.xmax, rect.ymax, tmax)

    def intersects(self, other: "Cube") -> bool:
        """True iff the cubes share at least one point."""
        return (
            self.xmin <= other.xmax
            and other.xmin <= self.xmax
            and self.ymin <= other.ymax
            and other.ymin <= self.ymax
            and self.tmin <= other.tmax
            and other.tmin <= self.tmax
        )

    def contains_cube(self, other: "Cube") -> bool:
        """True iff ``other`` lies entirely within this cube."""
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and self.tmin <= other.tmin
            and other.xmax <= self.xmax
            and other.ymax <= self.ymax
            and other.tmax <= self.tmax
        )

    def union(self, other: "Cube") -> "Cube":
        """The tightest cube covering both."""
        return Cube(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            min(self.tmin, other.tmin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
            max(self.tmax, other.tmax),
        )

    @property
    def volume(self) -> float:
        return (
            (self.xmax - self.xmin)
            * (self.ymax - self.ymin)
            * (self.tmax - self.tmin)
        )

    @property
    def footprint(self) -> Rect:
        """The spatial projection of the cube."""
        return Rect(self.xmin, self.ymin, self.xmax, self.ymax)

    def enlargement(self, other: "Cube") -> float:
        """Volume growth if ``other`` were merged in (R-tree heuristic)."""
        return self.union(other).volume - self.volume


# The frozen __setattr__ refuses every assignment, so the constructors
# write through the slots' member descriptors.
_set_rect_xmin, _set_rect_ymin, _set_rect_xmax, _set_rect_ymax = (
    Rect.__dict__[name].__set__ for name in Rect.__slots__
)
(
    _set_cube_xmin, _set_cube_ymin, _set_cube_tmin,
    _set_cube_xmax, _set_cube_ymax, _set_cube_tmax,
) = (Cube.__dict__[name].__set__ for name in Cube.__slots__)
