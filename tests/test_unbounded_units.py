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

from repro.config import feq
from repro.ops.window import WindowQueryEngine, upoint_within_rect_times
from repro.ranges.interval import Interval
from repro.ranges.rangeset import RangeSet
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


#: No lane of any path here may compute a NaN: numpy's warning on one
#: fails the test.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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


def test_equal_infinities_are_equal_within_tolerance():
    assert feq(inf, inf) and feq(-inf, -inf)
    assert not feq(inf, -inf) and not feq(inf, 1e300)


#: An open end at ±∞ and the deftime the window answer must keep.
OPEN_ENDS = [
    pytest.param(still(0, inf, lc=True, rc=False), id="[0,inf)"),
    pytest.param(still(-inf, 0, lc=False, rc=True), id="(-inf,0]"),
]


@pytest.mark.parametrize("m", OPEN_ENDS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_window_keeps_an_open_end_at_infinity(backend, m):
    """The unit's flag is inherited at an infinite end as at a finite
    one: a point inside the rect throughout is inside exactly over its
    deftime, which does not contain its open end."""
    engine = WindowQueryEngine()
    engine.add(0, m)
    rect = Rect(0, 0, 10, 10)
    want = [(0, m.deftime())]
    assert engine.query(rect, -inf, inf, backend=backend, workers=2) == want
    assert engine.query_naive(rect, -inf, inf) == want


def test_window_kernel_computes_no_nan_at_an_open_end():
    """A still and a moving ``[0, ∞)`` unit: no lane multiplies ``0·∞``
    (the still coordinate's displacement) or subtracts ``∞ − ∞`` (the
    shared end), so no numpy warning fires."""
    moving = MovingPoint([
        UPoint(Interval(0, inf, True, False), MPoint(5.0, 1e-3, 5.0, 0.0))
    ])
    col = UPointColumn.from_mappings([still(0, inf), moving])
    owners, a, b, lc, rc = window_intervals_batch(
        col, Rect(0, 0, 10, 10), -inf, inf
    )
    assert owners.tolist() == [0, 1]
    assert a.tolist() == [0.0, 0.0] and b.tolist() == [inf, 5000.0]
    assert lc.tolist() == [True, True] and rc.tolist() == [False, True]


#: A degenerate unit at infinity: ``Interval`` accepts ``[∞, ∞]``.
AT_INFINITY = [
    pytest.param(inf, id="[inf,inf]"),
    pytest.param(-inf, id="[-inf,-inf]"),
]


@pytest.mark.parametrize("t", AT_INFINITY)
@pytest.mark.parametrize("backend", BACKENDS)
def test_window_over_a_degenerate_unit_at_infinity(backend, t):
    """The unit lasts 0, so no lane subtracts its equal ends (``∞ − ∞``);
    every backend answers the instant itself, as the scalar refinement
    of the one unit does."""
    unit = UPoint(Interval(t, t, True, True), MPoint(5.0, 0.0, 5.0, 0.0))
    m = MovingPoint([unit])
    rect = Rect(0, 0, 10, 10)
    want = upoint_within_rect_times(unit, rect)
    assert want == Interval(t, t, True, True)
    owners, a, b, lc, rc = window_intervals_batch(
        UPointColumn.from_mappings([m]), rect, -inf, inf
    )
    assert owners.tolist() == [0]
    assert (a[0], b[0], lc[0], rc[0]) == (want.s, want.e, want.lc, want.rc)
    engine = WindowQueryEngine()
    engine.add(0, m)
    got = engine.query(rect, -inf, inf, backend=backend, workers=2)
    assert got == [(0, RangeSet([want]))]
