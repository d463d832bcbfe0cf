"""A stationary coordinate at an infinite unit bound.

A unit may be open-ended (``[0, ∞)``, ``(-∞, 0]``).  Its motion is
``x0 + x1·t``; with a zero velocity that coordinate never moves, so it
has a position at every instant, an infinite one included — not
``x0 + 0·∞ = nan``.  Every backend, the bounding cube, the shard tiling
and ``atinstant`` at ``±∞`` follow that one rule (``MPoint.at``,
``repro.vector.columns.coordinate_at``).
"""

from math import inf

import numpy as np
import pytest

from repro.ranges.interval import Interval
from repro.shard import ShardedFleet, ShardManager
from repro.shard.exec import sharded_window_intervals
from repro.spatial.bbox import Cube, Rect
from repro.spatial.point import Point
from repro.temporal.mapping import MovingPoint
from repro.temporal.mseg import MPoint
from repro.temporal.upoint import UPoint
from repro.vector import fleet_atinstant, fleet_bbox_filter
from repro.vector.cache import Fleet
from repro.vector.columns import BBoxColumn, UPointColumn
from repro.vector.kernels import atinstant_batch, window_intervals_batch

BACKENDS = ["scalar", "vector", "parallel"]


def still(s, e, lc=True, rc=False, x=5.0, y=5.0):
    """One object holding ``(x, y)`` over ``(s, e)``."""
    return MovingPoint([UPoint(Interval(s, e, lc, rc), MPoint(x, 0.0, y, 0.0))])


@pytest.fixture(autouse=True)
def _quiet_numpy():
    # A moving coordinate at ±∞ is ±∞ and a window kernel subtracts
    # such bounds; those warnings are not what is under test.
    with np.errstate(invalid="ignore"):
        yield


def test_mpoint_at_infinity_keeps_a_still_coordinate():
    m = MPoint(5.0, 0.0, -2.0, 3.0)
    assert m.at(inf) == (5.0, inf)
    assert m.at(-inf) == (5.0, -inf)
    assert m.at(2.0) == (5.0, 4.0)
    z = MPoint(-0.0, 0.0, 0.0, 0.0)
    assert str(z.at(1.0)[0]) == "0.0"  # a finite instant: the plain sum


@pytest.mark.parametrize("backend", BACKENDS)
def test_bbox_filter_right_open_unit(backend):
    fleet = Fleet([still(0, inf)])
    assert fleet_bbox_filter(fleet, Cube(0, 0, 1, 10, 10, 2), backend=backend) == [0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_bbox_filter_left_open_unit(backend):
    m = still(-inf, 0, lc=False, rc=True)
    cube = m.bounding_cube()
    assert (cube.xmin, cube.ymin, cube.xmax, cube.ymax) == (5.0, 5.0, 5.0, 5.0)
    fleet = Fleet([m])
    assert fleet_bbox_filter(fleet, Cube(0, 0, -1, 10, 10, 0), backend=backend) == [0]


def test_bbox_column_equals_scalar_cubes():
    fleet = [still(0, inf), still(-inf, 0, lc=False, rc=True), still(-inf, inf, False)]
    col = BBoxColumn.from_mappings(fleet)
    for k, m in enumerate(fleet):
        cube = m.bounding_cube()
        assert [getattr(col, f)[k] for f in col.ARRAYS] == [
            cube.xmin, cube.ymin, cube.tmin, cube.xmax, cube.ymax, cube.tmax
        ]


def test_sharded_window_keeps_the_unbounded_object():
    finite = MovingPoint.from_waypoints([(0.0, (1.0, 1.0)), (10.0, (9.0, 9.0))])
    members = [still(0, inf), finite]
    rect = Rect(0, 0, 10, 10)
    want = window_intervals_batch(UPointColumn.from_mappings(members), rect, 1.0, 5.0)
    got = sharded_window_intervals(ShardManager(ShardedFleet(members, 2)), rect, 1.0, 5.0)
    assert want[0].tolist() == [0, 1]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("t", [inf, -inf])
@pytest.mark.parametrize("backend", BACKENDS)
def test_atinstant_at_an_infinite_closed_bound(backend, t):
    m = still(-inf if t < 0 else 0, inf if t > 0 else 0, lc=True, rc=True)
    assert m.value_at(t) == Point(5.0, 5.0)
    assert fleet_atinstant(Fleet([m]), t, backend=backend) == [Point(5.0, 5.0)]


def test_atinstant_batch_infinite_instant_moving_and_still():
    moving = MovingPoint([
        UPoint(Interval(0, inf, True, True), MPoint(1.0, 2.0, 7.0, 0.0))
    ])
    xs, ys, defined = atinstant_batch(
        UPointColumn.from_mappings([moving, still(0, inf, rc=True)]), inf
    )
    assert defined.tolist() == [True, True]
    assert xs.tolist() == [inf, 5.0] and ys.tolist() == [7.0, 5.0]
