"""Property: tile → scatter → gather is a permutation-free identity.

Over randomly generated fleets — scattered over one extent or bunched
into far-apart clusters (the input spatial tiling is for: shard bounds
come out disjoint and the prune fires), ⊥/gap lanes, open/closed unit
boundaries, query instants biased onto the boundaries themselves — the
sharded execution path must return *bit-identical* arrays to the
unsharded vector kernels: same dtypes, same order, same NaN payloads,
same closedness flags.  Further properties keep the identity alive
under concurrent ingest (appends and in-place replacements between
queries), which is exactly the server's life, for every partitioned row
of the operator table, with and without a budget, while the
``shard.evict_during_query`` failpoint evicts mid-scatter — and when the
root the manager persists under already holds another fleet's files.
"""

import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.shard import (
    ShardManager,
    ShardedFleet,
    sharded_atinstant,
    sharded_window_intervals,
)
from repro.shard.exec import sharded
from repro.spatial.bbox import Cube, Rect
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint
from repro.vector.backends import OPERATIONS, evaluate
from repro.vector.columns import UPointColumn
from repro.vector.kernels import atinstant_batch, window_intervals_batch
from repro.workloads.regions import regular_polygon

coord = st.floats(min_value=-60.0, max_value=60.0, allow_nan=False)
#: Cluster centres: far enough apart that members of different clusters
#: (each within ``coord`` of its centre) never share a bounding cube.
centre = st.sampled_from([-3000.0, -1000.0, 1000.0, 3000.0])


@st.composite
def moving_points(draw, max_units=4, origin=(0.0, 0.0)):
    """A sliced moving point: gapped intervals, random closedness."""
    n = draw(st.integers(min_value=0, max_value=max_units))
    t = draw(st.floats(min_value=-40.0, max_value=40.0, allow_nan=False))
    ox, oy = origin
    units = []
    for _ in range(n):
        t += draw(st.floats(min_value=0.1, max_value=8.0, allow_nan=False))
        s = t
        t += draw(st.floats(min_value=0.1, max_value=8.0, allow_nan=False))
        units.append(
            UPoint.between(
                s, (ox + draw(coord), oy + draw(coord)),
                t, (ox + draw(coord), oy + draw(coord)),
                lc=draw(st.booleans()), rc=draw(st.booleans()),
            )
        )
    return MovingPoint(units)


@st.composite
def fleets(draw, min_size=1, max_size=12):
    """Members over one extent, or each around one of a few centres."""
    if draw(st.booleans()):
        return draw(
            st.lists(moving_points(), min_size=min_size, max_size=max_size)
        )
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    return [
        draw(moving_points(origin=(draw(centre), draw(centre))))
        for _ in range(n)
    ]


def _somewhere_occupied(draw, mappings):
    """A window corner, biased to where some member actually is (a
    uniform draw almost never lands on a cluster)."""
    starts = [u.start_point() for m in mappings for u in m.units]
    if starts and draw(st.booleans()):
        x, y = draw(st.sampled_from(starts))
        return x - draw(st.floats(0.0, 20.0)), y - draw(st.floats(0.0, 20.0))
    return draw(coord), draw(coord)


def _boundary_instant(draw, mappings):
    """A query instant, biased onto an actual unit boundary."""
    boundaries = [
        b
        for m in mappings
        for u in m.units
        for b in (u.interval.s, u.interval.e)
    ]
    if boundaries and draw(st.booleans()):
        return draw(st.sampled_from(boundaries))
    return draw(st.floats(min_value=-60.0, max_value=80.0, allow_nan=False))


@st.composite
def fleet_and_instant(draw):
    mappings = draw(fleets())
    return mappings, _boundary_instant(draw, mappings)


@st.composite
def fleet_and_window(draw):
    mappings = draw(fleets())
    t0 = _boundary_instant(draw, mappings)
    t1 = t0 + draw(st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
    x0, y0 = _somewhere_occupied(draw, mappings)
    rect = Rect(
        x0, y0,
        x0 + draw(st.floats(min_value=0.0, max_value=80.0, allow_nan=False)),
        y0 + draw(st.floats(min_value=0.0, max_value=80.0, allow_nan=False)),
    )
    return mappings, rect, t0, t1


def _assert_bit_identical(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.shape == w.shape
        # tobytes() equality is NaN-exact: np.array_equal would pass a
        # ⊥ lane holding the wrong payload and fail a correct one.
        assert g.tobytes() == w.tobytes()


@given(fw=fleet_and_window(), n_shards=st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_window_scatter_gather_identity(fw, n_shards):
    mappings, rect, t0, t1 = fw
    manager = ShardManager(ShardedFleet(mappings, n_shards))
    want = window_intervals_batch(
        UPointColumn.from_mappings(mappings), rect, t0, t1
    )
    _assert_bit_identical(sharded_window_intervals(manager, rect, t0, t1), want)


@given(fw=fleet_and_window(), n_shards=st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_window_identity_under_budget_pressure(fw, n_shards):
    mappings, rect, t0, t1 = fw
    manager = ShardManager(ShardedFleet(mappings, n_shards), budget=1)
    want = window_intervals_batch(
        UPointColumn.from_mappings(mappings), rect, t0, t1
    )
    _assert_bit_identical(sharded_window_intervals(manager, rect, t0, t1), want)


@given(fi=fleet_and_instant(), n_shards=st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_atinstant_scatter_gather_identity(fi, n_shards):
    mappings, t = fi
    manager = ShardManager(ShardedFleet(mappings, n_shards))
    want = atinstant_batch(UPointColumn.from_mappings(mappings), t)
    _assert_bit_identical(sharded_atinstant(manager, t), want)


@given(
    fw=fleet_and_window(),
    extra=fleets(min_size=1, max_size=4),
    n_shards=st.integers(min_value=2, max_value=4),
    replace_first=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_identity_survives_concurrent_ingest(fw, extra, n_shards, replace_first):
    """Queries interleaved with appends/replacements stay bit-identical
    to an unsharded kernel over the same (mutated) member list."""
    mappings, rect, t0, t1 = fw
    fleet = ShardedFleet(mappings, n_shards)
    manager = ShardManager(fleet)
    live = list(mappings)

    def check():
        want = window_intervals_batch(UPointColumn.from_mappings(live), rect, t0, t1)
        _assert_bit_identical(
            sharded_window_intervals(manager, rect, t0, t1), want
        )

    check()
    for m in extra:
        fleet.append(m)
        live.append(m)
        check()
    if replace_first:
        fleet[0] = extra[-1]
        live[0] = extra[-1]
        check()


@st.composite
def writes(draw, max_size=5):
    """Post-construction ingest: ``(None, m)`` appends ``m``, ``(k, m)``
    replaces member ``k`` modulo the fleet's length at that point."""
    target = st.none() | st.integers(min_value=0, max_value=50)
    member = moving_points() | st.tuples(centre, centre).flatmap(
        lambda origin: moving_points(origin=origin)
    )
    return draw(st.lists(st.tuples(target, member), max_size=max_size))


@given(
    fw=fleet_and_window(),
    ingest=writes(),
    n_shards=st.integers(min_value=1, max_value=5),
    budget=st.sampled_from([None, 1]),
)
@settings(max_examples=60, deadline=None)
def test_every_partitioned_operation_identical_after_writes(
    fw, ingest, n_shards, budget
):
    """Each operator-table row the shard executor partitions (all but
    ``atinstant_real``, whose fleets are query-local) answers bit for
    bit what the unsharded kernel answers over the same members — after
    appends routed by bound enlargement and replacements in place, with
    every resident shard evicted between per-shard kernel runs."""
    mappings, rect, t0, t1 = fw
    fleet = ShardedFleet(mappings, n_shards)
    live = list(mappings)
    for k, m in ingest:
        if k is None:
            fleet.append(m)
            live.append(m)
        else:
            fleet[k % len(live)] = m
            live[k % len(live)] = m
    manager = ShardManager(fleet, budget=budget)
    region = regular_polygon(
        ((rect.xmin + rect.xmax) / 2, (rect.ymin + rect.ymax) / 2), 40.0, 6
    )
    queries = {
        "atinstant": (t0,),
        "present": (t1,),
        "bbox_filter": (Cube.from_rect(rect, t0, t1),),
        "window_intervals": (rect, t0, t1),
        "count_inside": (t0, region),
        "path_length": (),
    }
    assert set(queries) == {n for n, e in OPERATIONS.items() if e.chunked}
    try:
        with faults.injected("shard.evict_during_query", "every:1"):
            for op, args in queries.items():
                want = evaluate(op, live, args, "vector", arrays=True)
                got = sharded(op, manager, args)
                if not isinstance(want, tuple):
                    got, want = (got,), (want,)
                _assert_bit_identical(got, want)
    finally:
        faults.reset_fired()


# ---------------------------------------------------------------------------
# A second fleet over a first fleet's root
# ---------------------------------------------------------------------------

short = st.floats(min_value=1e-3, max_value=0.5, allow_nan=False)


@st.composite
def continuations(draw, max_size=4):
    """Ingest as the server applies it: ``(k, gap, length)`` gives member
    ``k`` modulo the fleet's length one more unit, ``gap`` after its last
    and ``length`` long, standing where the last one ended — the tile's
    bound seldom grows, so nothing but the store's stamp can tell that
    the tile was written."""
    return draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=50), short, short),
        max_size=max_size,
    ))


def _continue(fleet, live, ingest):
    """Apply ``ingest`` to ``fleet`` and its mirror ``live``; the
    midpoints of the units it added."""
    inside = []
    for k, gap, length in ingest:
        k %= len(live)
        units = live[k].units
        t = units[-1].interval.e + gap if units else 0.0
        p = units[-1].end_point() if units else (0.0, 0.0)
        fleet[k] = live[k] = live[k].appended(
            UPoint.between(t, p, t + length, p)
        )
        inside.append((t + length / 2, p))
    return inside


_STILL = MovingPoint([UPoint.between(0.0, (0.0, 0.0), 10.0, (0.0, 0.0))])
_LATEST = MovingPoint([UPoint.between(0.0, (1.0, 1.0), 20.0, (1.0, 1.0))])


@given(
    mappings=fleets(),
    n_shards=st.integers(min_value=1, max_value=4),
    first=continuations(),
    second=continuations(),
    data=st.data(),
)
@example(  # one tile, version 1 twice, the bound held by a third member
    mappings=[_STILL, _STILL, _LATEST], n_shards=1,
    first=[(0, 1e-3, 1e-3)], second=[(1, 1e-3, 1e-3)], data=None,
)
@settings(max_examples=40, deadline=None)
def test_a_second_fleet_over_the_same_root_is_served_nothing(
    mappings, n_shards, first, second, data
):
    """Persist, ingest, read; then a *new* fleet of the same mappings and
    a new manager over the same root, other ingest, read.  Every version,
    member list and (mostly) bound of the second fleet equals one the
    first fleet stored under, and none of those files is its own: each
    shard's first touch rebuilds, and the answers are the unsharded
    kernels' over the second fleet's members."""
    kinds = ("upoint", "bbox")
    with tempfile.TemporaryDirectory() as root:
        fleet = ShardedFleet(mappings, n_shards)
        manager = ShardManager(fleet, root=root)
        manager.persist(kinds)
        _continue(fleet, list(mappings), first)
        sharded_atinstant(manager, 0.0)

        fleet = ShardedFleet(mappings, n_shards)
        manager = ShardManager(fleet, root=root)
        live = list(mappings)
        inside = _continue(fleet, live, second) or [(0.0, (0.0, 0.0))]
        t, (x, y) = inside[-1] if data is None else data.draw(
            st.sampled_from(inside)
        )
        column = UPointColumn.from_mappings(live)
        with obs.capture() as counters:
            got = sharded_atinstant(manager, t)
        _assert_bit_identical(got, atinstant_batch(column, t))
        touched = sum(1 for shard in fleet.shards if len(shard))
        assert counters.get("colstore.rebuilds") == touched
        assert counters.get("colstore.hits") == 0
        rect = Rect(x - 1.0, y - 1.0, x + 1.0, y + 1.0)
        _assert_bit_identical(
            sharded_window_intervals(manager, rect, t - 1.0, t + 1.0),
            window_intervals_batch(column, rect, t - 1.0, t + 1.0),
        )


# ---------------------------------------------------------------------------
# The tiling itself
# ---------------------------------------------------------------------------


class Unsliced:
    """A fleet member that is no mapping: no units, no cube."""


def _boxed(m):
    return bool(getattr(m, "units", None))


@st.composite
def awkward_fleets(draw, max_size=12):
    """Everything a tiling must still partition: scattered and clustered
    members, members as wide as the world, one cube repeated — with
    empty mappings and non-mappings mixed in anywhere."""
    shape = draw(st.sampled_from(["plain", "spanning", "identical"]))
    if shape == "plain":
        members = draw(fleets(min_size=0, max_size=max_size))
    elif shape == "spanning":
        members = [
            MovingPoint([UPoint.between(
                0.0, (-3000.0 + draw(coord), -3000.0 + draw(coord)),
                10.0, (3000.0 + draw(coord), 3000.0 + draw(coord)),
            )])
            for _ in range(draw(st.integers(0, max_size)))
        ]
    else:
        one = MovingPoint([UPoint.between(0.0, (1.0, 2.0), 5.0, (3.0, 2.0))])
        members = [one] * draw(st.integers(0, max_size))
    members = list(members)
    for _ in range(draw(st.integers(0, 3))):
        odd = MovingPoint([]) if draw(st.booleans()) else Unsliced()
        members.insert(draw(st.integers(0, len(members))), odd)
    return members


def _contains(bound, cube):
    return bound is not None and bound.contains_cube(cube)


@given(members=awkward_fleets(), n_shards=st.integers(min_value=1, max_value=9))
@settings(max_examples=150, deadline=None)
def test_tiling_is_an_equal_count_partition(members, n_shards):
    fleet = ShardedFleet(members, n_shards)
    assert len(fleet) == len(members)
    seen = []
    for s in range(n_shards):
        gids = fleet.globals_of(s)
        assert np.all(np.diff(gids) > 0)  # strictly ascending
        assert all(fleet.shard_of(int(g)) == s for g in gids)
        seen.extend(gids.tolist())
    assert sorted(seen) == list(range(len(members)))  # each in exactly one
    assert all(fleet[i] is members[i] for i in range(len(members)))
    sizes = [len(f) for f in fleet.shards]
    boxed = [sum(_boxed(m) for m in f) for f in fleet.shards]
    assert max(sizes) - min(sizes) <= 1
    assert max(boxed) - min(boxed) <= 1
    assert ShardedFleet(members, n_shards)._locate == fleet._locate
    for s, shard in enumerate(fleet.shards):
        if any(isinstance(m, Unsliced) for m in shard):
            assert fleet.bounds(s) is None
        else:
            assert all(
                _contains(fleet.bounds(s), m.bounding_cube())
                for m in shard if _boxed(m)
            )


@given(
    members=awkward_fleets(),
    ingest=writes(max_size=8),
    n_shards=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=150, deadline=None)
def test_bound_contains_every_member_after_writes(members, ingest, n_shards):
    """The shard instance of "a prefilter is a superset of its refine
    step": whatever was appended or replaced, a shard's bound contains
    the cube of every member it holds — or is None, which never prunes."""
    fleet = ShardedFleet(members, n_shards)
    unprunable = {
        fleet.shard_of(i) for i, m in enumerate(members)
        if isinstance(m, Unsliced)
    }
    for k, m in ingest:
        if k is None or not len(fleet):
            fleet.append(m)
        else:
            fleet[k % len(fleet)] = m
    for s, shard in enumerate(fleet.shards):
        if s in unprunable:
            assert fleet.bounds(s) is None  # sticky: sliced writes never revive it
            continue
        assert all(
            _contains(fleet.bounds(s), m.bounding_cube())
            for m in shard if _boxed(m)
        )
    assert [len(fleet.globals_of(s)) for s in range(n_shards)] == [
        len(f) for f in fleet.shards
    ]
