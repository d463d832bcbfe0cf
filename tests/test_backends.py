"""Totality of the physical operator table (``repro.vector.backends``).

The parametrisation iterates the table itself, so a row or a backend
added later is covered — or fails here — without anyone remembering to
extend a per-backend test file: every (operation, backend, operand)
cell is bit-identical to the row's scalar reference loop, and every
rung of the ladder taken is counted exactly once, in exactly one
``*.fallback`` family.  A sharded fleet takes no backend: its cells set
the process default to theirs and must scatter in process on
``vector`` all the same.
"""

import numpy as np
import pytest

from repro import config, obs
from repro.config import EPSILON
from repro.parallel import pool, shmcol
from repro.ranges.interval import Interval
from repro.shard import ShardManager, ShardedFleet, sharded
from repro.spatial.bbox import Cube, Rect
from repro.temporal.mapping import MovingPoint, MovingReal
from repro.temporal.upoint import UPoint
from repro.temporal.ureal import UReal
from repro.vector import backends
from repro.vector.backends import BACKENDS, OPERATIONS, evaluate
from repro.vector.columns import UPointColumn
from repro.workloads.regions import regular_polygon

FAMILIES = ("vector.fallback_to_scalar", "parallel.fallback", "shard.fallback")
OPERANDS = ("fleet", "shards")
N_SHARDS = 3

# Instants on unit boundaries: 1.0 closes one unit and is excluded by
# the next; 3.0 is an open right end followed by a gap; 4.5 is inside
# the gap; 5.0 re-opens closed.
ARGS = {
    "atinstant": [(1.0,), (3.0,), (4.5,), (5.0,)],
    "atinstant_real": [(1.0,), (3.0,), (4.5,)],
    "present": [(1.0,), (3.0,), (4.5,), (5.0,)],
    "bbox_filter": [(Cube(0.0, 0.0, 0.5, 6.0, 6.0, 2.5),)],
    "window_intervals": [(Rect(0.5, 0.5, 6.0, 6.0), 0.5, 5.5)],
    "count_inside": [
        (1.0, regular_polygon((3.0, 3.0), 2.5, 8)),
        (3.0, regular_polygon((3.0, 3.0), 2.5, 8)),
    ],
    "path_length": [()],
}


@pytest.fixture(autouse=True)
def _clean_state():
    backends.set_backend("scalar")
    yield
    backends.set_backend("scalar")
    pool.shutdown()
    shmcol.release_all()


def gappy_point(i):
    """⊥ lanes, a gap, and every open/closed end combination."""
    if i % 5 == 4:
        return MovingPoint([])  # ⊥ everywhere, no bounding cube
    o = float(i % 7)
    return MovingPoint([
        UPoint.between(0.0, (o, o), 1.0, (o + 1, o), lc=True, rc=True),
        UPoint.between(1.0, (o + 1, o), 3.0, (o + 1, o + 2), lc=False, rc=False),
        UPoint.between(5.0, (o, o + 2), 6.0, (o, o), lc=True, rc=i % 2 == 0),
    ])


def gappy_real(i):
    if i % 5 == 4:
        return MovingReal([])
    return MovingReal([
        UReal(Interval(0.0, 1.0, True, True), 0, 1, float(i)),
        UReal(Interval(1.0, 3.0, False, False), 1, 0, float(i)),
    ])


class Foreign:
    """Evaluates like its mapping but is not one: every column builder
    rejects it, so only the scalar loop can answer."""

    def __init__(self, mapping):
        self._m = mapping
        self.units = mapping.units

    def value_at(self, t):
        return self._m.value_at(t)

    def present(self, t):
        return self._m.present(t)

    def bounding_cube(self):
        return self._m.bounding_cube()

    def trajectory(self):
        return self._m.trajectory()


def out_and_back(i):
    """Retraces its first leg: the trajectory is shorter than the path."""
    o = float(i)
    return MovingPoint([
        UPoint.between(0.0, (o, o), 1.0, (o + 3, o + 1)),
        UPoint.between(1.0, (o + 3, o + 1), 2.0, (o, o), lc=False),
        UPoint.between(2.0, (o, o), 3.0, (o, o + 2), lc=False),
    ])


def make_fleet(op, heterogeneous, n=17):
    make = gappy_real if OPERATIONS[op].kind == "ureal" else gappy_point
    fleet = [make(i) for i in range(n)]
    if op == "path_length":
        fleet[5], fleet[11] = out_and_back(5), out_and_back(11)
    if heterogeneous:
        fleet[2] = Foreign(fleet[2])
    return fleet


def run_cell(op, backend, operand, fleet, args, workers=2):
    """One table cell, answered as arrays, plus the counters it moved.
    A shards cell runs under ``backend`` as the process default."""
    with obs.capture() as c:
        if operand == "shards":
            manager = ShardManager(ShardedFleet(fleet, N_SHARDS))
            backends.set_backend(backend)
            got = sharded(op, manager, args)
        else:
            got = evaluate(op, fleet, args, backend, workers, arrays=True)
    return got, c.snapshot()["counters"]


def reference(op, fleet, args, backend="scalar"):
    """What a cell must answer bit for bit: the row's scalar loop.

    ``path_length`` certifies instead of transcribing — its kernel sums
    in another order than the merged line and flags the lanes where the
    sum is only a bound — so its columnar cells are held to the
    whole-column kernel, and that to the scalar loop lane by lane."""
    entry = OPERATIONS[op]
    if op == "path_length" and backends.columnar(backend) and all(
        isinstance(m, MovingPoint) for m in fleet
    ):
        length, exact = whole = entry.kernel(UPointColumn.from_mappings(fleet))
        merged, _ = entry.scalar(fleet)
        band = EPSILON * np.maximum(length, 1.0)
        assert np.all(length >= merged - band)
        assert np.all(np.abs(length - merged)[exact] <= band[exact])
        assert [i for i in range(len(fleet)) if not exact[i]] == [5, 11]
        assert np.all(length[~exact] > merged[~exact] + 1.0)
        return whole
    answer = entry.scalar(fleet, *args)
    return answer if entry.encode is None else entry.encode(answer)


def assert_identical(got, want):
    got = got if isinstance(got, tuple) else (got,)
    want = want if isinstance(want, tuple) else (want,)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w, equal_nan=g.dtype.kind == "f")


def evaluated_on(backend, operand):
    """The backend a cell's answer comes from: a sharded fleet's is
    always ``vector``."""
    return "vector" if operand == "shards" else backend


def cells():
    for op, entry in OPERATIONS.items():
        for backend in BACKENDS:
            for operand in OPERANDS:
                if operand == "shards" and not entry.chunked:
                    continue  # never partitioned: query-local fleets
                yield op, backend, operand


def test_the_table_has_every_operation():
    assert set(OPERATIONS) == set(ARGS) == {
        "atinstant", "atinstant_real", "present", "bbox_filter",
        "window_intervals", "count_inside", "path_length",
    }
    for name, entry in OPERATIONS.items():
        assert entry.name == name
        assert callable(entry.kernel) and callable(entry.merge)
        assert callable(entry.scalar)


@pytest.mark.parametrize("op,backend,operand", list(cells()))
def test_cell_matches_scalar_reference(op, backend, operand):
    """(a) ⊥/gap lanes and open/closed ends: bit-identical; the only
    rung ever left is the pool's (17 objects cannot pay for it), and
    only where a plain fleet's backend is ``parallel``."""
    fleet = make_fleet(op, heterogeneous=False)
    on = evaluated_on(backend, operand)
    for args in ARGS[op]:
        got, counted = run_cell(op, backend, operand, fleet, args)
        assert_identical(got, reference(op, fleet, args, on))
        moved = {f: counted.get(f, 0) for f in FAMILIES}
        if OPERATIONS[op].chunked and backends.pooled(on):
            assert moved["parallel.fallback"] == 1
            assert counted["parallel.fallback.small_fleet"] == 1
            moved.pop("parallel.fallback")
        else:
            assert not any(name.startswith("parallel.") for name in counted)
        assert moved == dict.fromkeys(moved, 0)
        if operand == "shards":
            assert counted["shard.scatters"] == 1


@pytest.mark.parametrize("op,backend,operand", list(cells()))
def test_cell_degrades_counted_when_no_column_can_be_built(op, backend, operand):
    """(b) a member the column builders reject: the columnar rungs give
    way to the scalar loop, counted once in the operand's own family."""
    fleet = make_fleet(op, heterogeneous=True)
    args = ARGS[op][0]
    got, counted = run_cell(op, backend, operand, fleet, args)
    assert_identical(got, reference(op, fleet, args))
    moved = {f: counted.get(f, 0) for f in FAMILIES}
    want = dict.fromkeys(FAMILIES, 0)
    if backends.columnar(evaluated_on(backend, operand)):
        if operand == "shards":
            want["shard.fallback"] = 1
            assert counted["shard.fallback.column"] == 1
            assert "shard.scatters" not in counted
        else:
            want["vector.fallback_to_scalar"] = 1
            reason = f"vector.fallback_to_scalar.{OPERATIONS[op].kind}_column"
            assert counted[reason] == 1
    assert moved == want


@pytest.mark.parametrize(
    "op", [name for name, entry in OPERATIONS.items() if entry.chunked]
)
@pytest.mark.parametrize("operand", OPERANDS)
def test_pooled_cells_through_real_chunks(op, operand, monkeypatch):
    """The same cells where the pool can pay: a plain fleet's chunk
    outputs merge back bit-identical; a sharded fleet never reaches the
    pool.  No rung is left."""
    monkeypatch.setattr(config, "PARALLEL_MIN_OBJECTS", 2)
    fleet = make_fleet(op, heterogeneous=False, n=23)
    for args in ARGS[op][:2]:
        got, counted = run_cell(op, "parallel", operand, fleet, args)
        assert_identical(got, reference(op, fleet, args, "parallel"))
        if operand == "shards":
            assert not any(name.startswith("parallel.") for name in counted)
        else:
            assert counted["parallel.chunks"] >= 2
        assert not any("fallback" in name for name in counted)
