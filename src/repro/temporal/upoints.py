"""The ``upoints`` unit type: a set of linearly moving points (Section 3.2.6).

The constraint is that the moving points are pairwise distinct at every
instant of the *open* unit interval (condition (i)), and — for a unit
defined at a single instant — distinct at that instant (condition (ii)).
Both are checked exactly: two linear trajectories coincide either
everywhere or at a single computable instant.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import InvalidValue
from repro.spatial.bbox import Cube, Rect
from repro.spatial.points import Points
from repro.temporal.mseg import MPoint
from repro.temporal.unit import Unit


class UPoints(Unit[Points]):
    """A moving-points unit: interval × set of MPoint, pairwise disjoint."""

    __slots__ = ("_motions", "_cube")

    def __init__(self, interval, motions: Iterable[MPoint], validate: bool = True):
        super().__init__(interval)
        motion_list = sorted(set(motions), key=lambda m: m.sort_key())
        if not motion_list:
            raise InvalidValue("a upoints unit needs at least one moving point")
        if validate:
            self._check_disjoint(motion_list)
        object.__setattr__(self, "_motions", tuple(motion_list))
        object.__setattr__(self, "_cube", None)

    def _constructor_args(self) -> tuple:
        return (self._interval, self._motions)

    def _check_disjoint(self, motions: Sequence[MPoint]) -> None:
        iv = self.interval
        for i, a in enumerate(motions):
            for b in motions[i + 1 :]:
                times = a.coincidence_times(b)
                if times is None:
                    raise InvalidValue(
                        "upoints unit contains two identical moving points"
                    )
                for t in times:
                    if iv.is_degenerate:
                        if t == iv.s:
                            raise InvalidValue(
                                "moving points coincide at the unit's single instant"
                            )
                    elif iv.s < t < iv.e:
                        raise InvalidValue(
                            f"moving points coincide at t={t} inside the open unit interval"
                        )

    @property
    def motions(self) -> Sequence[MPoint]:
        """The ordered MPoint tuple (lexicographic on quadruples, Sec. 4.2)."""
        return self._motions

    def unit_function(self) -> Sequence[MPoint]:
        return self._motions

    def _iota(self, t: float) -> Points:
        # ι distributes through sets; at the interval end points distinct
        # moving points may collapse — the set constructor deduplicates,
        # which is exactly the cleanup needed for points values.
        return Points([m.at(t) for m in self._motions])

    def with_interval(self, interval) -> "UPoints":
        return UPoints(interval, self._motions, validate=False)

    def _function_key(self) -> tuple:
        return tuple(m.sort_key() for m in self._motions)

    def __len__(self) -> int:
        return len(self._motions)

    # -- geometry ----------------------------------------------------------

    def bounding_rect(self) -> Rect:
        """Spatial bounding box over the whole unit interval."""
        pts = [m.at(self.interval.s) for m in self._motions]
        pts += [m.at(self.interval.e) for m in self._motions]
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
        return f"UPoints({self.interval.pretty()}, {len(self._motions)} points)"
