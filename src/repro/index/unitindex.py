"""An index over the *units* of many moving objects.

Indexing whole trajectories by one large cube is wasteful — the cube of
a long trajectory covers far more space-time than the object does.
Indexing per unit (one cube per slice, exactly the bounding cubes the
Section 4.2 data structures already store) gives much tighter filters.
``MovingObjectIndex`` maintains a 3-D R-tree of per-unit cubes tagged
with the owning object's key.
"""

from __future__ import annotations

from typing import Hashable, Set, Union

from repro.base.instant import Instant, as_time
from repro.spatial.bbox import Cube, Rect
from repro.index.rtree import RTree3D
from repro.temporal.mapping import MovingPoint, MovingRegion
from repro.temporal.upoint import UPoint
from repro.temporal.uregion import URegion


class MovingObjectIndex:
    """A per-unit spatio-temporal index over moving points/regions: every
    candidate query is one descent of the R-tree of unit cubes."""

    def __init__(self, max_entries: int = 8):
        self._tree = RTree3D(max_entries)
        self._count = 0

    def __len__(self) -> int:
        """Number of indexed objects (not units)."""
        return self._count

    @property
    def unit_entries(self) -> int:
        """Number of indexed units."""
        return len(self._tree)

    def add(self, key: Hashable, moving: Union[MovingPoint, MovingRegion]) -> None:
        """Index every unit of ``moving`` under ``key``."""
        for u in moving.units:
            assert isinstance(u, (UPoint, URegion))
            self._tree.insert(u.bounding_cube(), key)
        self._count += 1

    # -- queries -----------------------------------------------------------

    def candidates_in_cube(self, cube: Cube) -> Set[Hashable]:
        """Keys of objects with at least one unit cube intersecting ``cube``."""
        return set(self._tree.search(cube))

    def candidates_at(self, rect: Rect, t: Union[Instant, float]) -> Set[Hashable]:
        """Keys possibly intersecting ``rect`` at instant ``t`` (time slice)."""
        tt = as_time(t)
        return self.candidates_in_cube(
            Cube(rect.xmin, rect.ymin, tt, rect.xmax, rect.ymax, tt)
        )

    def candidates_window(
        self, rect: Rect, t0: Union[Instant, float], t1: Union[Instant, float]
    ) -> Set[Hashable]:
        """Keys possibly intersecting ``rect`` within the time window."""
        return self.candidates_in_cube(
            Cube(rect.xmin, rect.ymin, as_time(t0), rect.xmax, rect.ymax, as_time(t1))
        )

    def candidates_near(
        self, moving: MovingPoint, slack: float
    ) -> Set[Hashable]:
        """Keys whose unit cubes come within ``slack`` of any unit of ``moving``."""
        out: Set[Hashable] = set()
        for u in moving.units:
            assert isinstance(u, UPoint)
            c = u.bounding_cube()
            grown = Cube(
                c.xmin - slack,
                c.ymin - slack,
                c.tmin,
                c.xmax + slack,
                c.ymax + slack,
                c.tmax,
            )
            out.update(self._tree.search(grown))
        return out
