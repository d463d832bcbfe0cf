"""A served read executes the same Python at any fleet size.

What a read does around the kernel — pin the snapshot, fetch the
column, mask the window — must not walk the fleet in Python, and
neither must a one-unit ingest apply: either would grow with the fleet
while the kernel beside it is one array pass.  Each guard counts
the source lines one call executes (``tests/linecount.py``) over a
1 000-object and an 8 000-object fleet of identically shaped members
and requires the two counts to be *equal*; the arrays are eight times
longer, the Python is the same.  Deterministic: no clock is read.
"""

import numpy as np
import pytest

from repro.ranges.interval import Interval
from repro.server.executor import FleetExecutor, Snapshot
from repro.server.ingest import IngestRequest
from repro.spatial.point import Point
from repro.temporal.mapping import MovingPoint, MovingReal
from repro.temporal.upoint import UPoint
from repro.temporal.ureal import UReal
from repro.vector.cache import Fleet, ServedFleet
from repro.vector.columns import KINDS, UPointColumn
from repro.vector.fleet import fleet_atinstant
from repro.vector.kernels import atinstant_batch
from tests.linecount import lines_executed

SIZES = (1_000, 8_000)
#: Defined for every member of :func:`points`.
T = 5.0
WINDOW = (0.0, 0.0, 40.0, 40.0)


def point(i: int) -> MovingPoint:
    """Two adjacent units over ``[0, 20]``, placed by ``i``."""
    x, y = float(i % 100), float(i // 100)
    return MovingPoint([
        UPoint.between(0.0, (x, y), 10.0, (x + 1.0, y)),
        UPoint.between(10.0, (x + 1.0, y), 20.0, (x + 1.0, y + 1.0), lc=False),
    ])


def points(n: int):
    return [point(i) for i in range(n)]


def real(i: int) -> MovingReal:
    return MovingReal([UReal(Interval(0.0, 10.0), 0.0, 1.0, float(i))])


def grown(m: MovingPoint) -> MovingPoint:
    """``m`` with one more unit, as an ingest leaves it."""
    last = m.units[-1]
    e = last.interval.e
    x, y = last.vec_at(e)
    return m.appended(UPoint.between(e, (x, y), e + 10.0, (x + 1.0, y), lc=False))


def same_at_both_sizes(measure):
    """``measure(n)`` → line events (one count or several); equal at
    both sizes, and the tracer saw every call."""
    small, large = (measure(n) for n in SIZES)
    assert small == large, f"{small} lines at {SIZES[0]}, {large} at {SIZES[1]}"
    assert np.all(np.ravel(small) > 0)


class TestPin:
    def test_snapshot_of_a_container(self):
        def measure(n):
            members = points(n)
            fleet = ServedFleet.from_mappings(members)
            cold, snap = lines_executed(Snapshot, fleet)
            assert len(snap) == n
            # After a publish the pin reads the new column — still one read.
            members[n // 2] = grown(members[n // 2])
            fleet.publish(1, fleet.column.extended(members, {n // 2}), [n // 2])
            moved, snap = lines_executed(Snapshot, fleet)
            assert snap.column is fleet.column and snap.version == 1
            assert snap.items[n // 2] == fleet[n // 2] == members[n // 2]
            held, _ = lines_executed(Snapshot, fleet)
            return cold, moved, held

        same_at_both_sizes(measure)

    def test_executor_snapshot(self):
        def measure(n):
            ex = FleetExecutor()
            ex.register_fleet("f", points(n))
            count, snap = lines_executed(ex.snapshot, "f")
            assert len(snap) == n
            return count

        same_at_both_sizes(measure)


class TestSnapshotRows:
    @pytest.mark.parametrize("window", [None, WINDOW], ids=["whole", "window"])
    def test_warm_column(self, window):
        def measure(n):
            ex = FleetExecutor()
            ex.register_fleet("f", points(n))
            ex.snapshot_rows("f", T, window)
            count, (snap, rows) = lines_executed(ex.snapshot_rows, "f", T, window)
            assert len(snap) == n
            assert 0 < len(rows) < n if window else len(rows) == n
            return count

        same_at_both_sizes(measure)

    @pytest.mark.parametrize("window", [None, WINDOW], ids=["whole", "window"])
    def test_right_after_an_ingest(self, window):
        """The read after an apply reads the column the apply published."""
        def measure(n):
            ex = FleetExecutor()
            ex.register_fleet("f", points(n))
            ex.snapshot_rows("f", T, window)
            (count,) = ex.apply_units(
                [IngestRequest("f", n // 2, (20.0, 0.0, 0.0, 30.0, 1.0, 1.0))]
            )
            assert count == 3
            lines, (snap, _rows) = lines_executed(
                ex.snapshot_rows, "f", 25.0, window
            )
            assert len(snap.items[n // 2].units) == 3
            return lines

        same_at_both_sizes(measure)


def test_one_unit_apply():
    """An ingest of one unit: materialize the one object, check the unit,
    splice the next column and publish it — no walk over the fleet."""
    def measure(n):
        ex = FleetExecutor()
        ex.register_fleet("f", points(n))
        count, (result,) = lines_executed(
            ex.apply_units,
            [IngestRequest("f", n // 2, (20.0, 0.0, 0.0, 30.0, 1.0, 1.0))],
        )
        assert result == 3
        return count

    same_at_both_sizes(measure)


def test_atinstant_batch():
    """The kernel a read runs: a fixed number of sweeps, none per object."""
    def measure(n):
        col = UPointColumn.from_mappings(points(n))
        count, (xs, _ys, defined) = lines_executed(atinstant_batch, col, T)
        assert len(xs) == n and defined.all()
        return count

    same_at_both_sizes(measure)


def test_fleet_atinstant_builds_its_points_in_c():
    """``fleet_atinstant``'s answer is one ``Point`` per member, built
    without a Python frame per point — and it is the scalar answer."""
    def measure(n):
        fleet = Fleet(points(n))
        fleet_atinstant(fleet, T, backend="vector")  # builds the column
        count, got = lines_executed(fleet_atinstant, fleet, T, backend="vector")
        want = fleet_atinstant(fleet, T, backend="scalar")
        assert len(got) == n and all(type(p) is Point for p in got)
        assert got == want
        return count

    same_at_both_sizes(measure)


@pytest.mark.parametrize("kind", ["upoint", "ureal"])
def test_extended_by_one_object(kind):
    """``column.extended(members, {one object})``: the splice itself."""
    def measure(n):
        if kind == "ureal":
            old = [real(i) for i in range(n)]
            new = real(n + 7)
        else:
            old = points(n)
            new = grown(old[n // 2])
        col = KINDS[kind].from_mappings(old)
        current = tuple(old[: n // 2] + [new] + old[n // 2 + 1:])
        count, out = lines_executed(col.extended, current, {n // 2})
        assert len(out) == n
        return count

    same_at_both_sizes(measure)
