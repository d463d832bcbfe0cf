"""Stored bytes of the fixed-unit mappings, pinned against files.

``tests/data/records_parent`` holds ``pack_value(type, value).to_bytes()``
for every case of :data:`CASES`, written by the codecs before the unit
record was declared once (one ``UnitsCodec`` whose ``RECORD`` the column
kinds read).  Packing today must reproduce each file byte for byte, and
unpacking each file must give the value back, so a codec change that
moves a single stored byte fails here first.
"""

import math
import os

import pytest

from repro.base.values import BoolVal, IntVal, StringVal
from repro.ranges.interval import Interval
from repro.storage.records import StoredValue, pack_value, safe_unpack
from repro.temporal.mapping import (
    MovingBool,
    MovingInt,
    MovingPoint,
    MovingReal,
    MovingString,
)
from repro.temporal.mseg import MPoint
from repro.temporal.uconst import ConstUnit
from repro.temporal.upoint import UPoint
from repro.temporal.ureal import UReal
from repro.workloads.trajectories import FlightGenerator

PARENT = os.path.join(os.path.dirname(__file__), "data", "records_parent")

NEG_INF = -math.inf

#: case name → (stored type name, value).  Each fixed-unit type covers an
#: open ``-∞`` start and a degenerate closed unit; ``mstring`` a
#: non-ASCII value, ``mreal`` both unit-function shapes, ``mpoint`` a
#: generated flight and the empty mapping.
CASES = {
    "mbool": ("mbool", MovingBool([
        ConstUnit(Interval(NEG_INF, 0.0, False, False), BoolVal(True)),
        ConstUnit(Interval(0.0, 0.0), BoolVal(False)),
        ConstUnit(Interval(2.5, 7.0, False, True), BoolVal(True)),
    ])),
    "mint": ("mint", MovingInt([
        ConstUnit(Interval(NEG_INF, -3.0, False, True), IntVal(-(2 ** 63))),
        ConstUnit(Interval(1.0, 1.0), IntVal(0)),
        ConstUnit(Interval(1.5, 9.25, True, False), IntVal(2 ** 63 - 1)),
    ])),
    "mstring": ("mstring", MovingString([
        ConstUnit(Interval(NEG_INF, 1.0, False, False), StringVal("Zürich → 東京")),
        ConstUnit(Interval(1.0, 1.0), StringVal("")),
        ConstUnit(Interval(4.0, 6.0), StringVal("x" * 48)),
    ])),
    "mreal": ("mreal", MovingReal([
        UReal(Interval(NEG_INF, 0.0, False, False), 0.0, 0.0, -1.25, False),
        UReal(Interval(0.0, 0.0), 0.0, 0.0, 3.0, True),
        UReal(Interval(0.5, 4.0, False, True), 1.0, -2.0, 5.0, True),
        UReal(Interval(4.0, 10.0, False, False), -0.5, 0.125, 1e300, False),
    ])),
    "mpoint_flight": ("mpoint", FlightGenerator(seed=44).flight(legs=6, start_time=3.0)),
    "mpoint_bounds": ("mapping(upoint)", MovingPoint([
        UPoint(Interval(NEG_INF, -1.0, False, True), MPoint(1.0, 0.0, -2.0, 0.0)),
        UPoint(Interval(0.0, 0.0), MPoint(5.0, 1.5, 6.0, -0.5)),
        UPoint.between(1.0, (0.0, 0.0), 2.0, (3.0, 4.0), lc=False, rc=False),
    ])),
    "mpoint_empty": ("mpoint", MovingPoint([])),
}


def _golden(name):
    with open(os.path.join(PARENT, f"{name}.bin"), "rb") as f:
        return f.read()


def test_every_case_has_a_file():
    assert sorted(os.listdir(PARENT)) == sorted(f"{n}.bin" for n in CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_packing_reproduces_the_stored_bytes(name):
    type_name, value = CASES[name]
    assert pack_value(type_name, value).to_bytes() == _golden(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stored_bytes_unpack_to_the_value(name):
    _type_name, value = CASES[name]
    got = safe_unpack(StoredValue.from_bytes(_golden(name)))
    assert type(got) is type(value)
    assert got == value
    assert [u.interval for u in got.units] == [u.interval for u in value.units]
