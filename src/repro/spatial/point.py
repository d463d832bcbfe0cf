"""The ``point`` data type: a single 2-D point or the undefined value."""

from __future__ import annotations

import math
from collections import deque
from itertools import repeat
from typing import List, Optional, Sequence

from repro.errors import InvalidValue, TypeMismatch, UndefinedValue
from repro.geometry.primitives import Vec, dist, point_cmp


_new = object.__new__


class Point:
    """A point in the Euclidean plane, with lexicographic order.

    ``Point()`` constructs the undefined point ⊥.  Defined points expose
    ``x``, ``y``, and the total lexicographic order of Section 3.2.2.
    """

    __slots__ = ("_xy",)

    def __init__(self, x: Optional[float] = None, y: Optional[float] = None):
        if x is None and y is None:
            object.__setattr__(self, "_xy", None)
            return
        if x is None or y is None:
            raise TypeMismatch("point needs both coordinates or neither")
        x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InvalidValue("point coordinates must be finite")
        object.__setattr__(self, "_xy", (x, y))

    @classmethod
    def from_vec(cls, v: Vec) -> "Point":
        """Wrap a raw coordinate tuple."""
        return cls(v[0], v[1])

    @classmethod
    def many(cls, xs: Sequence[float], ys: Sequence[float]) -> List["Point"]:
        """``[Point(x, y) for x, y in zip(xs, ys)]`` for Python floats the
        caller has already checked to be finite — a bulk constructor that
        validates a whole coordinate array at once.  Two passes in C:
        allocate the points, then fill their slot; no Python frame runs
        per point."""
        points = list(map(_new, repeat(cls, len(xs))))
        deque(map(_set_xy, points, zip(xs, ys)), maxlen=0)
        return points

    def __setattr__(self, name, value):
        raise AttributeError("Point values are immutable")

    @property
    def defined(self) -> bool:
        """True iff this is not the undefined point."""
        return self._xy is not None

    @property
    def vec(self) -> Vec:
        """The raw coordinate tuple; raises on ⊥."""
        if self._xy is None:
            raise UndefinedValue("point is undefined")
        return self._xy

    @property
    def x(self) -> float:
        return self.vec[0]

    @property
    def y(self) -> float:
        return self.vec[1]

    def distance(self, other: "Point") -> float:
        """Euclidean distance to another (defined) point."""
        return dist(self.vec, other.vec)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self._xy == other._xy

    def __hash__(self) -> int:
        return hash(("point", self._xy))

    def _key(self) -> tuple:
        if self._xy is None:
            return (0, 0.0, 0.0)
        return (1, self._xy[0], self._xy[1])

    def __lt__(self, other: "Point") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Point") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "Point") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "Point") -> bool:
        return self._key() >= other._key()

    def __repr__(self) -> str:
        if self._xy is None:
            return "Point(⊥)"
        return f"Point({self._xy[0]:g}, {self._xy[1]:g})"


#: The slot's own setter: ``Point.__setattr__`` refuses, and
#: ``object.__setattr__`` looks the name up on every call.
_set_xy = Point._xy.__set__
