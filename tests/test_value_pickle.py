"""Units, mappings and base values survive pickle and copy.

Every one of them refuses attribute assignment, so the default
slot-state restore (which assigns) cannot rebuild them; each rebuilds
through its validating constructor instead (``__reduce__``).  Checked
for every concrete unit class, for moving points and moving reals, for
the base values a const unit carries, and for a ``Fleet`` of moving
points, which pickles its members.
"""

import copy
import pickle

import pytest

from repro.base.values import BoolVal, IntVal, RealVal, StringVal
from repro.ranges.interval import Interval
from repro.spatial.line import Line
from repro.spatial.region import Region
from repro.temporal.mapping import MovingInt, MovingPoint, MovingReal
from repro.temporal.mseg import MPoint
from repro.temporal.uconst import ConstUnit
from repro.temporal.uline import ULine
from repro.temporal.upoint import UPoint
from repro.temporal.upoints import UPoints
from repro.temporal.ureal import UReal
from repro.temporal.uregion import URegion
from repro.vector.cache import Fleet
from repro.workloads.trajectories import FlightGenerator

ROUND_TRIPS = [
    lambda v: pickle.loads(pickle.dumps(v)),
    lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
    copy.copy,
    copy.deepcopy,
]
ROUND_TRIP_IDS = ["pickle", "pickle0", "copy", "deepcopy"]


def values():
    span = Interval(0.0, 10.0, True, False)
    return {
        "upoint": UPoint.between(0, (0, 0), 10, (5, 5)),
        "upoint_open": UPoint.between(0, (0, 0), 10, (5, 5), lc=False),
        "ureal": UReal(span, 1.0, -2.0, 3.0),
        "ureal_sqrt": UReal(span, 1.0, 0.0, 4.0, r=True),
        "const_int": ConstUnit(span, IntVal(3)),
        "const_real": ConstUnit(span, RealVal(2.5)),
        "const_bool": ConstUnit(span, BoolVal(True)),
        "const_string": ConstUnit(span, StringVal("LH 257")),
        "uline": ULine.between_lines(
            0.0, Line.from_unmerged([((0, 0), (4, 0))]),
            10.0, Line.from_unmerged([((0, 2), (4, 2))]),
        ),
        "upoints": UPoints(span, [MPoint.stationary((0, 0)), MPoint(1, 1, 2, 0)]),
        "uregion": URegion.between_regions(
            0.0, Region.box(0, 0, 4, 4), 10.0, Region.box(6, 0, 10, 4)
        ),
        "moving_point": MovingPoint.from_waypoints(
            [(0.0, (0, 0)), (5.0, (3, 4)), (10.0, (3, 9))]
        ),
        "moving_real": MovingReal([
            UReal(Interval(0.0, 5.0), 0.0, 1.0, 0.0),
            UReal(Interval(5.0, 9.0, False, True), 1.0, 0.0, -20.0),
        ]),
        "moving_int": MovingInt([ConstUnit(span, IntVal(7))]),
        "flight": FlightGenerator(seed=3).flight(legs=4),
    }


@pytest.mark.parametrize("round_trip", ROUND_TRIPS, ids=ROUND_TRIP_IDS)
@pytest.mark.parametrize("name", sorted(values()))
def test_round_trip_is_an_equal_value(name, round_trip):
    value = values()[name]
    twin = round_trip(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)


def test_every_concrete_unit_class_is_covered():
    covered = {type(v) for v in values().values()}
    assert {UPoint, UReal, ConstUnit, ULine, UPoints, URegion} <= covered


@pytest.mark.parametrize("round_trip", ROUND_TRIPS[:1] + ROUND_TRIPS[3:], ids=["pickle", "deepcopy"])
def test_a_fleet_of_moving_points_round_trips(round_trip):
    fleet = Fleet(FlightGenerator(seed=5).fleet(20, legs=3))
    twin = round_trip(fleet)
    assert list(twin) == list(fleet) and twin.version == fleet.version


@pytest.mark.parametrize("name", sorted(values()))
def test_the_way_back_is_the_constructor(name):
    """Unpickling calls the value's own class with constructor
    arguments, so what comes back passes the checks a new value does."""
    value = values()[name]
    rebuild, args = value.__reduce__()
    assert rebuild is type(value)
    assert rebuild(*args) == value
