"""The served column moves where the fleet moves.

A served fleet is its ``upoint`` column (``repro.vector.cache.
ServedFleet``), and the ingest apply (``FleetExecutor.apply_units``) is
its one writer: each batch splices the objects it changed into the next
column and publishes it.  Checked here:

* a model: after every random batch the served column is byte-equal to
  a rebuild of an oracle fleet advanced with ``Mapping.appended``, each
  result (count or rejection) is the oracle's, and every earlier pin
  still holds the column and the reply it held;
* a batch publishes once per fleet it changed, and a batch that raises
  publishes nothing;
* a served fleet keeps nothing beside its column, and a plain
  ``Fleet``'s kept columns leave with it.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.errors import InvalidValue, QueryError, SimulatedCrash
from repro.server.executor import FleetExecutor
from repro.server.ingest import IngestRequest
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint
from repro.vector import backends
from repro.vector import cache as cache_mod
from repro.vector.cache import Fleet, ServedFleet, column_for
from repro.vector.columns import UPointColumn
from repro.workloads.trajectories import random_flights


@pytest.fixture(autouse=True)
def _clean_slate():
    faults.disarm()
    faults.reset_fired()
    yield
    faults.disarm()
    faults.reset_fired()


def tracks(n):
    """``n`` two-leg tracks over ``[0, 10]``, each ending stationary at
    the origin over ``[5, 10]``."""
    return [
        MovingPoint.from_waypoints([(0.0, (i + 1.0, 0.0)), (5.0, (0.0, 0.0)), (10.0, (0.0, 0.0))])
        for i in range(n)
    ]


def record_bytes(column):
    return [r.tobytes() for r in column.records()]


# -- the model ----------------------------------------------------------------


def model_apply(model, dedup, req):
    """What one request does to the oracle: the list of mappings
    ``model`` of fleet ``f``, grown with ``Mapping.appended`` or the
    constructor, and the token table ``dedup``.  Returns the count or
    the rejection."""
    if req.seq and req.seq in dedup:
        return dedup[req.seq]
    if req.fleet != "f":
        return QueryError(f"no fleet named {req.fleet!r}")
    t0, x0, y0, t1, x1, y1 = req.unit
    if not 0 <= req.obj <= len(model):
        return InvalidValue(
            f"object index {req.obj} outside fleet 'f' ({len(model)} objects)"
        )
    prior = model[req.obj] if req.obj < len(model) else None
    last = prior.units[-1].interval if prior is not None and prior.units else None
    lc = not (last is not None and last.rc and t0 <= last.e)
    try:
        unit = UPoint.between(t0, (x0, y0), t1, (x1, y1), lc=lc, rc=True)
        grown = MovingPoint([unit]) if prior is None else prior.appended(unit)
    except InvalidValue as exc:
        return exc
    if prior is None:
        model.append(grown)
    else:
        model[req.obj] = grown
    if req.seq:
        dedup[req.seq] = len(grown.units)
    return len(grown.units)


def same_result(got, want):
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return got == want


#: Read instant of the pinned replies: inside the tracks and the
#: ingested units alike.
T_READ = 11.0

#: One request: fleet (``ghost`` is unknown), object (-1 and past the
#: tail are rejected, ``len`` appends), start, duration, end point and
#: idempotency token.  Starts before 10 overlap the tracks' last unit
#: (3) or sort before it (-8); ``start == 10`` continues at the shared
#: boundary (the ``lc`` rule), and from the origin with a zero end
#: point it is the mergeable-adjacent stationary unit; zero durations
#: with moving end points are rejected.
requests = st.builds(
    lambda fleet, obj, t0, dt, x, y, seq: IngestRequest(
        fleet, obj, (t0, 0.0, 0.0, t0 + dt, x, y), seq
    ),
    st.sampled_from(["f", "f", "f", "f", "ghost"]),
    st.integers(-1, 7),
    st.sampled_from([-8.0, 3.0, 10.0, 10.0, 12.0, 25.0, 40.0]),
    st.sampled_from([0.0, 1.0, 4.0]),
    st.sampled_from([0.0, 2.0]),
    st.sampled_from([0.0, -3.0]),
    st.sampled_from(["", "", "a", "b", "c"]),
)


@settings(
    max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n0=st.integers(0, 4),
    batches=st.lists(st.lists(requests, min_size=1, max_size=5), min_size=1, max_size=4),
)
def test_served_column_equals_its_rebuild_after_every_batch(n0, batches):
    ex = FleetExecutor()
    fleet = ex.register_fleet("f", tracks(n0))
    model, dedup = tracks(n0), {}
    pins = []
    for batch in batches:
        snap, rows = ex.snapshot_rows("f", T_READ)
        pins.append((snap, record_bytes(snap.column), list(rows)))

        results = ex.apply_units(batch)
        wants = [model_apply(model, dedup, req) for req in batch]
        assert len(results) == len(wants)
        for got, want in zip(results, wants):
            assert same_result(got, want), (got, want)

        assert record_bytes(fleet.column) == record_bytes(UPointColumn.from_mappings(model))
        assert list(fleet) == model
        for snap, pinned_bytes, pinned_rows in pins:
            assert record_bytes(snap.column) == pinned_bytes
            xs, ys, defined = backends.on_column(
                "atinstant", snap.column, (T_READ,), backend="vector"
            )
            ids = np.flatnonzero(defined)
            assert list(zip(ids.tolist(), xs[ids].tolist(), ys[ids].tolist())) == pinned_rows


# -- publishing ---------------------------------------------------------------


def count_publishes(monkeypatch):
    published = []
    real = ServedFleet.publish

    def publish(self, version, column, changed):
        published.append((self, version, sorted(changed)))
        real(self, version, column, changed)

    monkeypatch.setattr(ServedFleet, "publish", publish)
    return published


def test_a_batch_advances_once_per_fleet(monkeypatch):
    ex = FleetExecutor()
    a = ex.register_fleet("a", tracks(3))
    b = ex.register_fleet("b", tracks(2))
    published = count_publishes(monkeypatch)
    out = ex.apply_units([
        IngestRequest("a", 0, (10.0, 1, 1, 11.0, 2, 2)),
        IngestRequest("b", 2, (0.0, 1, 1, 1.0, 2, 2)),  # tail append
        IngestRequest("a", 0, (11.0, 2, 2, 12.0, 5, 5)),
        IngestRequest("a", 9, (0.0, 1, 1, 1.0, 2, 2)),  # rejected
    ])
    assert out[:3] == [3, 1, 4]
    assert published == [(a, 2, [0]), (b, 1, [2])]
    assert a.column.n_units == 3 * 2 + 2
    assert b.column.n_objects == 3
    # A batch that changed nothing publishes nothing.
    ex.apply_units([IngestRequest("a", 9, (0.0, 1, 1, 1.0, 2, 2))])
    assert len(published) == 2


def test_a_crashed_batch_publishes_nothing():
    ex = FleetExecutor()
    fleet = ex.register_fleet("f", tracks(3))
    before = fleet.column
    faults.arm("server.ingest_crash", "after:1")
    with pytest.raises(SimulatedCrash):
        ex.apply_units([
            IngestRequest("f", 0, (10.0, 1, 1, 11.0, 2, 2), "t0"),
            IngestRequest("f", 1, (10.0, 1, 1, 11.0, 2, 2), "t1"),
        ])
    faults.disarm()
    # The first request applied inside the batch, but nothing published:
    # neither its column and version nor its idempotency token.
    assert fleet.version == 0 and fleet.column is before
    _snap, rows = ex.snapshot_rows("f", 10.5)
    assert list(rows.ids) == []
    assert ex.apply_units([IngestRequest("f", 0, (10.0, 1, 1, 11.0, 2, 2), "t0")]) == [3]
    assert fleet.version == 1


def test_a_served_fleet_never_enters_the_column_cache():
    ex = FleetExecutor()
    fleet = ex.register_fleet("f", tracks(4))
    with obs.capture() as seen:
        ex.snapshot_rows("f", 5.0)
        ex.apply_units([IngestRequest("f", 1, (10.0, 1, 1, 11.0, 2, 2))])
        ex.snapshot_rows("f", 10.5)
        version, column = cache_mod.column_for_versioned(fleet, "upoint")
    assert (version, column) == (1, fleet.column) and column is fleet.column
    assert not [k for k in seen.snapshot()["counters"] if k.startswith("colcache.")]


# -- lifetimes ------------------------------------------------------------------


def test_dead_fleets_leave_the_cache():
    """A fleet's columns live in the fleet: they die with it, and a
    living fleet still answers from its own."""
    fleets = [Fleet(random_flights(40, legs=3, seed=s)) for s in range(5)]
    columns = [
        weakref.ref(column_for(f, kind)) for f in fleets for kind in ("upoint", "bbox")
    ]
    kept = Fleet(random_flights(10, legs=3, seed=9))
    column = column_for(kept, "upoint")
    assert all(ref() is not None for ref in columns)
    del fleets
    gc.collect()
    assert [ref() for ref in columns] == [None] * 10
    with obs.capture() as seen:
        assert column_for(kept, "upoint") is column
    assert seen.get("colcache.hits") == 1


def test_a_reregistered_fleets_column_leaves_with_it():
    ex = FleetExecutor()
    first = weakref.ref(ex.register_fleet("f", tracks(4)).column)
    ex.snapshot_rows("f", 5.0)
    ex.register_fleet("f", tracks(2))
    gc.collect()
    assert first() is None
    assert len(ex.fleet("f")) == 2
