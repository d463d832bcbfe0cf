"""Property: tile → scatter → gather is a permutation-free identity.

Over randomly generated fleets — scattered over one extent or bunched
into far-apart clusters (the input spatial tiling is for: shard bounds
come out disjoint and the prune fires), ⊥/gap lanes, open/closed unit
boundaries, query instants biased onto the boundaries themselves — the
sharded execution path must return *bit-identical* arrays to the
unsharded vector kernels: same dtypes, same order, same NaN payloads,
same closedness flags.  Further properties keep the identity for every
partitioned row of the operator table, with and without a budget, while
the ``shard.evict_during_query`` failpoint evicts mid-scatter — and when
the root the manager persists under already holds another fleet's files.
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.shard import ShardManager, ShardedFleet, sharded, sharded_window_intervals
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
    _assert_bit_identical(sharded("atinstant", manager, (t,)), want)


@given(
    fw=fleet_and_window(),
    n_shards=st.integers(min_value=1, max_value=5),
    budget=st.sampled_from([None, 1]),
)
@settings(max_examples=60, deadline=None)
def test_every_partitioned_operation_identical_after_writes(fw, n_shards, budget):
    """Each operator-table row the shard executor partitions (all but
    ``atinstant_real``, whose fleets are query-local) answers bit for
    bit what the unsharded kernel answers over the same members, with
    every resident shard evicted between per-shard kernel runs."""
    mappings, rect, t0, t1 = fw
    manager = ShardManager(ShardedFleet(mappings, n_shards), budget=budget)
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
                want = evaluate(op, mappings, args, "vector", arrays=True)
                got = sharded(op, manager, args)
                if not isinstance(want, tuple):
                    got, want = (got,), (want,)
                _assert_bit_identical(got, want)
    finally:
        faults.reset_fired()


# ---------------------------------------------------------------------------
# A second fleet over a first fleet's root
# ---------------------------------------------------------------------------

@given(
    mappings=fleets(),
    n_shards=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_a_second_fleet_over_the_same_root_is_served_nothing(
    mappings, n_shards, data
):
    """Persist and read; then a *new* fleet of the same mappings and a
    new manager over the same root, read.  Its tiles, member lists,
    versions and bounds equal the ones the first fleet stored under, and
    none of those files is its own — only the identity half of the stamp
    tells: each shard's first touch rebuilds, and the answers are the
    unsharded kernels' over the members."""
    kinds = ("upoint", "bbox")
    column = UPointColumn.from_mappings(mappings)
    with tempfile.TemporaryDirectory() as root:
        first = ShardManager(ShardedFleet(mappings, n_shards), root=root)
        first.persist(kinds)
        sharded("atinstant", first, (0.0,))

        fleet = ShardedFleet(mappings, n_shards)
        manager = ShardManager(fleet, root=root)
        t = _boundary_instant(data.draw, mappings)
        with obs.capture() as counters:
            got = sharded("atinstant", manager, (t,))
        _assert_bit_identical(got, atinstant_batch(column, t))
        touched = sum(1 for shard in fleet.shards if len(shard))
        assert counters.get("colstore.rebuilds") == touched
        assert counters.get("colstore.hits") == 0
        x, y = _somewhere_occupied(data.draw, mappings)
        rect = Rect(x, y, x + 40.0, y + 40.0)
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
        assert all(fleet.shards[s][j] is members[g] for j, g in enumerate(gids))
        seen.extend(gids.tolist())
    assert sorted(seen) == list(range(len(members)))  # each in exactly one
    assert all(fleet[i] is members[i] for i in range(len(members)))
    sizes = [len(f) for f in fleet.shards]
    boxed = [sum(_boxed(m) for m in f) for f in fleet.shards]
    assert max(sizes) - min(sizes) <= 1
    assert max(boxed) - min(boxed) <= 1
    again = ShardedFleet(members, n_shards)
    for s in range(n_shards):
        assert np.array_equal(again.globals_of(s), fleet.globals_of(s))


@given(
    members=awkward_fleets(),
    n_shards=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=150, deadline=None)
def test_bound_contains_every_member_after_writes(members, n_shards):
    """The shard instance of "a prefilter is a superset of its refine
    step": a shard's bound contains the cube of every member it holds —
    or is None, which never prunes, wherever a member has no cube."""
    fleet = ShardedFleet(members, n_shards)
    for s, shard in enumerate(fleet.shards):
        if any(isinstance(m, Unsliced) for m in shard):
            assert fleet.bounds(s) is None
            continue
        assert all(
            _contains(fleet.bounds(s), m.bounding_cube())
            for m in shard if _boxed(m)
        )
    assert [len(fleet.globals_of(s)) for s in range(n_shards)] == [
        len(f) for f in fleet.shards
    ]
