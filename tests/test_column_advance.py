"""The served column moves where the fleet moves.

The ingest apply (``FleetExecutor.apply_units``) is the one writer of a
served fleet, and it advances the cached ``upoint`` column over the
objects it changed (``ColumnCache.advance``).  Checked here:

* after every batch the cached column equals a rebuild of the fleet,
  field for field, and the next read is a plain hit;
* a fleet that nothing advances is rebuilt on its next read;
* a cache entry leaves with its owner.
"""

import gc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.errors import SimulatedCrash
from repro.server.executor import FleetExecutor
from repro.server.ingest import IngestRequest
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint
from repro.vector import cache as cache_mod
from repro.vector.cache import ColumnCache, Fleet, clear_cache, column_for
from repro.vector.columns import UPointColumn
from repro.workloads.trajectories import random_flights

COUNTERS = ["hits", "misses", "invalidations", "extended"]


@pytest.fixture(autouse=True)
def _clean_slate():
    faults.disarm()
    faults.reset_fired()
    clear_cache()
    yield
    faults.disarm()
    faults.reset_fired()
    clear_cache()


def tracks(n):
    """``n`` two-leg tracks over ``[0, 10]``."""
    return [
        MovingPoint.from_waypoints(
            [(0.0, (i, 0.0)), (5.0, (i, 5.0)), (10.0, (i + 1.0, 5.0))]
        )
        for i in range(n)
    ]


def cached_column(fleet):
    """The process cache's ``upoint`` entry for ``fleet``, untouched."""
    entry = cache_mod._CACHE._entries.get((id(fleet), "upoint"))
    assert entry is not None and entry[0] == fleet.version
    return entry[2]


def colcache_counts(seen):
    return {name: seen.get(f"colcache.{name}") for name in COUNTERS}


#: One request: object (past the tail is rejected), start, duration,
#: end point and idempotency token.  Starts before 10 overlap the
#: tracks' last unit (rejected) or go before it (out of order);
#: ``start == 10`` continues the shared boundary; zero durations with
#: moving end points are rejected.
requests = st.builds(
    lambda obj, t0, dt, x, y, seq: (obj, (t0, 0.0, 0.0, t0 + dt, x, y), seq),
    st.integers(0, 7),
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
    clear_cache()
    ex = FleetExecutor()
    fleet = ex.register_fleet("f", tracks(n0))
    ex.snapshot_rows("f", 5.0)  # the column enters the cache
    for batch in batches:
        ex.apply_units([
            IngestRequest("f", obj, unit, seq) for obj, unit, seq in batch
        ])
        column = cached_column(fleet)
        rebuilt = UPointColumn.from_mappings(fleet.members())
        for name in UPointColumn.ARRAYS:
            assert np.array_equal(getattr(column, name), getattr(rebuilt, name)), name
        with obs.capture() as seen:
            ex.snapshot_rows("f", 11.0, window=(-1.0, -4.0, 9.0, 9.0))
        assert colcache_counts(seen) == {
            "hits": 1, "misses": 0, "invalidations": 0, "extended": 0,
        }


def test_a_batch_advances_once_per_fleet():
    ex = FleetExecutor()
    a = ex.register_fleet("a", tracks(3))
    b = ex.register_fleet("b", tracks(2))
    ex.snapshot_rows("a", 5.0)
    ex.snapshot_rows("b", 5.0)
    with obs.capture() as seen:
        out = ex.apply_units([
            IngestRequest("a", 0, (10.0, 1, 1, 11.0, 2, 2)),
            IngestRequest("b", 2, (0.0, 1, 1, 1.0, 2, 2)),  # tail append
            IngestRequest("a", 0, (11.0, 2, 2, 12.0, 5, 5)),
            IngestRequest("a", 9, (0.0, 1, 1, 1.0, 2, 2)),  # rejected
        ])
    assert out[:3] == [3, 1, 4]
    assert seen.get("colcache.extended") == 2
    assert cached_column(a).n_units == 3 * 2 + 2
    assert cached_column(b).n_objects == 3


def test_a_crashed_batch_advances_nothing_and_the_read_rebuilds():
    ex = FleetExecutor()
    fleet = ex.register_fleet("f", tracks(3))
    ex.snapshot_rows("f", 5.0)
    faults.arm("server.ingest_crash", "after:1")
    with pytest.raises(SimulatedCrash):
        ex.apply_units([
            IngestRequest("f", 0, (10.0, 1, 1, 11.0, 2, 2)),
            IngestRequest("f", 1, (10.0, 1, 1, 11.0, 2, 2)),
        ])
    faults.disarm()
    assert fleet.version == 1  # the first request applied
    with obs.capture() as seen:
        _snap, rows = ex.snapshot_rows("f", 10.5)
    assert colcache_counts(seen) == {
        "hits": 0, "misses": 1, "invalidations": 1, "extended": 0,
    }
    assert list(rows.ids) == [0]


def test_an_advance_from_another_version_is_left_to_the_reader():
    fleet = Fleet(tracks(3))
    cache = ColumnCache()
    cache.get(fleet, "upoint")
    since = fleet.version
    fleet[1] = fleet[1].appended(UPoint.between(20.0, (0, 0), 21.0, (1, 1)))
    with obs.capture() as seen:
        cache.advance(fleet, since + 1, [1])  # not where the entry sits
        cache.get(fleet, "upoint")
    assert colcache_counts(seen) == {
        "hits": 0, "misses": 1, "invalidations": 1, "extended": 0,
    }


def test_dead_fleets_leave_the_cache():
    cache = ColumnCache()
    fleets = [Fleet(random_flights(40, legs=3, seed=s)) for s in range(5)]
    for f in fleets:
        cache.get(f, "upoint")
        cache.get(f, "bbox")
    kept = Fleet(random_flights(10, legs=3, seed=9))
    cache.get(kept, "upoint")
    assert len(cache) == 11
    del f, fleets
    gc.collect()
    assert len(cache) == 1
    assert cache.resident_bytes == cache.get(kept, "upoint").nbytes


def test_dead_fleets_leave_the_process_cache():
    before = len(cache_mod._CACHE)
    fleets = [Fleet(random_flights(40, legs=3, seed=s)) for s in range(5)]
    for f in fleets:
        column_for(f, "upoint")
    assert len(cache_mod._CACHE) == before + 5
    del f, fleets
    gc.collect()
    assert len(cache_mod._CACHE) == before


def test_a_reregistered_fleets_column_leaves_with_it():
    ex = FleetExecutor()
    ex.register_fleet("f", tracks(4))
    ex.snapshot_rows("f", 5.0)
    before = len(cache_mod._CACHE)
    ex.register_fleet("f", tracks(2))
    gc.collect()
    assert len(cache_mod._CACHE) == before - 1
