"""Sharded fleets: partitioning, residency budget, scatter-gather.

Everything here asserts *equivalence first*: a sharded fleet must
answer bit-identical to the unsharded vector kernels on every exec
entry point, with the memory budget enforced by CLOCK eviction and
recovery scoped to single shards.
"""

import os

import numpy as np
import pytest

from repro import obs
from repro.errors import InvalidValue
from repro.shard import ShardManager, ShardedFleet, sharded, sharded_window_intervals
from repro.spatial.bbox import Cube, Rect
from repro.temporal.mapping import MovingPoint
from repro.vector.columns import UPointColumn
from repro.vector.fleet import set_backend
from repro.vector.kernels import atinstant_batch, window_intervals_batch
from repro.workloads.trajectories import random_flights


@pytest.fixture(autouse=True)
def _clean_state():
    """Scalar default."""
    set_backend("scalar")
    yield
    set_backend("scalar")


def make_fleet(n=60, seed=11):
    return random_flights(n, seed=seed)


def scatter_atinstant(manager, t):
    return sharded("atinstant", manager, (t,))


def scatter_bbox_filter(manager, cube):
    """Ascending global ids — the unsharded ``fleet_bbox_filter`` order."""
    return np.flatnonzero(sharded("bbox_filter", manager, (cube,))).tolist()


# ---------------------------------------------------------------------------
# Spatial tiling
# ---------------------------------------------------------------------------


class TestTiling:
    def test_tiles_are_equal_count(self):
        for n_shards in (1, 2, 3, 7):
            fleet = ShardedFleet(make_fleet(50), n_shards)
            sizes = [len(f) for f in fleet.shards]
            assert sum(sizes) == 50
            assert max(sizes) - min(sizes) <= 1

    def test_rejects_bad_count(self):
        with pytest.raises(InvalidValue):
            ShardedFleet([], n_shards=0)


class TestShardedFleet:
    def test_global_order_matches_list(self):
        mappings = make_fleet(50)
        fleet = ShardedFleet(mappings, 4)
        assert len(fleet) == 50
        assert list(fleet) == list(mappings)
        for i in range(50):
            assert fleet[i] is mappings[i]

    def test_globals_ascending_and_complete(self):
        fleet = ShardedFleet(make_fleet(40), 3)
        seen = []
        for s in range(3):
            gids = fleet.globals_of(s)
            assert gids.dtype == np.int64
            assert np.all(np.diff(gids) > 0)
            seen.extend(int(g) for g in gids)
        assert sorted(seen) == list(range(40))

    def test_has_no_write_path(self):
        mappings = make_fleet(10)
        fleet = ShardedFleet(mappings, 2)
        public = {name for name in dir(fleet) if not name.startswith("_")}
        assert public == {"n_shards", "shards", "globals_of", "bounds"}
        with pytest.raises(TypeError):
            fleet[0] = mappings[1]
        assert fleet[0] is mappings[0]

    def test_bounds_union_and_poison(self):
        mappings = make_fleet(20)
        fleet = ShardedFleet(mappings, 2)
        for s in range(2):
            bound = fleet.bounds(s)
            for j, gid in enumerate(fleet.globals_of(s)):
                assert bound.union(mappings[gid].bounding_cube()) == bound
        # A member with no bounding cube poisons its shard.
        assert ShardedFleet([object(), mappings[0]], 1).bounds(0) is None


# ---------------------------------------------------------------------------
# ShardManager residency
# ---------------------------------------------------------------------------


class TestShardManager:
    def test_budget_evicts_cold_shards(self):
        fleet = ShardedFleet(make_fleet(60), 4)
        manager = ShardManager(fleet, budget=1)
        obs.reset()
        obs.enable()
        try:
            for s in range(4):
                manager.column(s, "upoint")
        finally:
            obs.disable()
        assert obs.get("shard.evictions") >= 3
        assert manager.resident_bytes <= manager.column(0, "upoint").nbytes

    def test_unbudgeted_keeps_all_resident(self):
        fleet = ShardedFleet(make_fleet(60), 4)
        manager = ShardManager(fleet)
        for s in range(4):
            manager.column(s, "upoint")
        assert manager.resident_shards() == [0, 1, 2, 3]

    def test_hits_counted_and_version_checked(self):
        manager = ShardManager(ShardedFleet(make_fleet(40), 2))
        with obs.capture() as counters:
            first = manager.column(0, "upoint")
            assert manager.column(0, "upoint") is first
        assert counters.get("shard.hits") == 1
        assert counters.get("shard.maps") == 1

    def test_root_less_columns_are_the_managers_alone(self):
        """The manager's CLOCK is a shard column's only owner: the shard
        fleets it built them from keep nothing."""
        fleet = ShardedFleet(make_fleet(40), 4)
        manager = ShardManager(fleet)
        for s in range(4):
            for kind in ("upoint", "bbox"):
                manager.column(s, kind)
        assert manager.resident_shards() == [0, 1, 2, 3]
        assert [shard._kept for shard in fleet.shards] == [None] * 4

    def test_prune_rules_out_disjoint_shards(self):
        fleet = ShardedFleet(make_fleet(40), 4)
        manager = ShardManager(fleet)
        far = Cube(1e9, 1e9, 1e9, 1e9 + 1, 1e9 + 1, 1e9 + 1)
        obs.reset()
        obs.enable()
        try:
            keep = manager.prune(far)
        finally:
            obs.disable()
        assert keep == []
        assert obs.get("shard.pruned") == 4
        assert manager.resident_shards() == []  # no column was mapped

    def test_window_inside_one_cluster_touches_one_shard(self):
        """The guard that pruning fires, by count: four far-apart
        clusters tile into four shards, and a window inside one cluster
        rules out the other three before any column is mapped."""
        corners = [(0.0, 0.0), (5000.0, 0.0), (0.0, 5000.0), (5000.0, 5000.0)]
        mappings = [
            MovingPoint.from_waypoints(
                [(0, (cx + i, cy + i)), (10, (cx + i + 3.0, cy + i))]
            )
            for i in range(6) for cx, cy in corners
        ]
        fleet = ShardedFleet(mappings, 4)
        assert [len(f) for f in fleet.shards] == [6, 6, 6, 6]
        manager = ShardManager(fleet)
        rect = Rect(4990.0, -10.0, 5020.0, 20.0)
        want = window_intervals_batch(UPointColumn.from_mappings(mappings), rect, 2.0, 8.0)
        with obs.capture() as counters:
            got = sharded_window_intervals(manager, rect, 2.0, 8.0)
            assert counters.get("shard.pruned") == 3
            assert counters.get("shard.maps") == 2  # one shard: bbox + upoint
            assert counters.get("shard.hits") == 0
            again = sharded_window_intervals(manager, rect, 2.0, 8.0)
            assert counters.get("shard.pruned") == 6
            assert counters.get("shard.maps") == 2
            assert counters.get("shard.hits") == 2
        assert len(want[0]) == 6
        for result in (got, again):
            for g, w in zip(result, want):
                assert g.tobytes() == w.tobytes()

    def test_per_shard_store_directories(self, tmp_path):
        fleet = ShardedFleet(make_fleet(30), 3)
        manager = ShardManager(fleet, root=os.fspath(tmp_path))
        manager.persist()
        dirs = sorted(p for p in os.listdir(tmp_path) if p.startswith("shard_"))
        assert dirs == ["shard_000", "shard_001", "shard_002"]

    def test_verify_and_repair_rebuilds_one_shard(self, tmp_path):
        fleet = ShardedFleet(make_fleet(30), 3)
        manager = ShardManager(fleet, root=os.fspath(tmp_path))
        manager.persist()
        # Corrupt exactly one shard's column payload on disk.
        victim_dir = os.path.join(tmp_path, "shard_001")
        paths = [
            os.path.join(victim_dir, p)
            for p in os.listdir(victim_dir)
            if not p.endswith("manifest.json")
        ]
        target = max(paths, key=os.path.getsize)
        with open(target, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([byte[0] ^ 0xFF]))
        obs.reset()
        obs.enable()
        try:
            rebuilt = manager.verify_and_repair()
        finally:
            obs.disable()
        assert rebuilt == [1]
        assert obs.get("shard.rebuilds") == 1
        # The repaired store verifies clean and still serves the column.
        assert manager.verify_and_repair() == []
        col = manager.column(1, "upoint")
        want = UPointColumn.from_mappings(fleet.shards[1])
        assert np.array_equal(col.starts, want.starts)

    @pytest.mark.parametrize("other", ["mirrored", "shifted"])
    def test_store_of_other_members_is_rebuilt_not_served(self, tmp_path, other):
        """Two fleets of one size share a root: every shard has the same
        version and object count, so only the generation stamp can tell
        that the files describe other members (``mirrored``: the tiles
        swap) or the same ids somewhere else (``shifted``)."""
        def fleet_of(xs):
            return [
                MovingPoint.from_waypoints([(0, (x, 0.0)), (10, (x, 1.0))])
                for x in xs
            ]

        first = fleet_of(float(i) for i in range(8))
        second = fleet_of(
            7.0 - i if other == "mirrored" else i + 100.0 for i in range(8)
        )
        root = os.fspath(tmp_path)
        ShardManager(ShardedFleet(first, 2), root=root).persist(("upoint", "bbox"))
        manager = ShardManager(ShardedFleet(second, 2), root=root)
        with obs.capture() as counters:
            x, _y, defined = scatter_atinstant(manager, 0.0)
            rebuilds = counters.get("colstore.rebuilds")
        assert defined.all()
        assert x.tolist() == [m.value_at(0.0).x for m in second]
        assert rebuilds == 2
        # The unmapped bbox files are stale too, and repair says so once.
        assert manager.verify_and_repair(("upoint", "bbox")) == [0, 1]
        assert manager.verify_and_repair(("upoint", "bbox")) == []
        cube = second[0].bounding_cube()
        assert scatter_bbox_filter(manager, cube) == [0]

    def test_total_column_bytes_is_arithmetic(self, tmp_path):
        """The bbox total equals the persisted records' bytes, and asking
        for it maps nothing and keeps nothing."""
        mappings = make_fleet(30) + [MovingPoint([])]
        fleet = ShardedFleet(mappings, 3)
        manager = ShardManager(fleet, root=os.fspath(tmp_path), budget=1)
        total = manager.total_column_bytes("bbox")
        assert manager.resident_bytes == 0
        assert manager.resident_shards() == []
        assert [shard._kept for shard in fleet.shards] == [None] * 3
        assert total == sum(
            manager.column(s, "bbox").records()[0].nbytes for s in range(3)
        )
        with pytest.raises(InvalidValue):
            manager.total_column_bytes("nosuch")

    def test_total_column_bytes_matches_built(self):
        fleet = ShardedFleet(make_fleet(30), 3)
        manager = ShardManager(fleet)
        built = sum(
            UPointColumn.from_mappings(fleet.shards[s]).nbytes
            for s in range(3)
        )
        assert manager.total_column_bytes() == built


# ---------------------------------------------------------------------------
# Scatter-gather equivalence
# ---------------------------------------------------------------------------


def _manager(n=60, shards=4, seed=11, budget=None):
    mappings = make_fleet(n, seed=seed)
    return mappings, ShardManager(ShardedFleet(mappings, shards), budget=budget)


class TestScatterGatherEquivalence:
    @pytest.mark.parametrize("budget", [None, 1])
    def test_window_intervals_bit_identical(self, budget):
        mappings, manager = _manager(budget=budget)
        col = UPointColumn.from_mappings(mappings)
        cube = mappings[3].bounding_cube()
        rect = Rect(cube.xmin, cube.ymin, cube.xmax, cube.ymax)
        t0, t1 = cube.tmin, cube.tmax
        want = window_intervals_batch(col, rect, t0, t1)
        got = sharded_window_intervals(manager, rect, t0, t1)
        assert len(want[0]) > 0
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("budget", [None, 1])
    def test_atinstant_bit_identical(self, budget):
        mappings, manager = _manager(budget=budget)
        col = UPointColumn.from_mappings(mappings)
        t = mappings[0].units[0].interval.s
        want = atinstant_batch(col, t)
        got = scatter_atinstant(manager, t)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_count_inside_matches_scalar(self):
        from repro.workloads.regions import regular_polygon

        mappings, manager = _manager()
        t = mappings[0].units[0].interval.s
        region = regular_polygon((0.0, 0.0), 1e6, 8)
        want = sum(
            1
            for m in mappings
            if m.value_at(t) is not None
            and region.contains_point(m.value_at(t).vec)
        )
        got = sharded("count_inside", manager, (t, region))
        assert int(np.count_nonzero(got)) == want

    def test_bbox_filter_ascending_globals(self):
        mappings, manager = _manager()
        cube = mappings[7].bounding_cube()
        got = scatter_bbox_filter(manager, cube)
        want = [
            i
            for i, m in enumerate(mappings)
            if m.bounding_cube().intersects(cube)
        ]
        assert got == want

    def test_no_match_window_is_dtype_exact_empty(self):
        mappings, manager = _manager()
        got = sharded_window_intervals(
            manager, Rect(1e9, 1e9, 1e9 + 1, 1e9 + 1), 0.0, 1.0
        )
        want = window_intervals_batch(
            UPointColumn.from_mappings(mappings), Rect(1e9, 1e9, 1e9 + 1, 1e9 + 1),
            0.0, 1.0,
        )
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert len(g) == len(w) == 0

    def test_empty_fleet(self):
        manager = ShardManager(ShardedFleet([], 3))
        got = sharded_window_intervals(manager, Rect(0, 0, 1, 1), 0.0, 1.0)
        assert all(len(g) == 0 for g in got)
        x, y, defined = scatter_atinstant(manager, 0.0)
        assert len(x) == len(y) == len(defined) == 0

    def test_takes_no_backend_or_workers(self):
        _mappings, manager = _manager(n=20, shards=2)
        rect = Rect(0, 0, 1, 1)
        with pytest.raises(TypeError):
            sharded_window_intervals(manager, rect, 0.0, 1.0, backend="parallel")
        with pytest.raises(TypeError):
            sharded_window_intervals(manager, rect, 0.0, 1.0, workers=2)

    def test_scatters_counted(self):
        mappings, manager = _manager(n=20, shards=2)
        obs.reset()
        obs.enable()
        try:
            scatter_atinstant(manager, mappings[0].units[0].interval.s)
        finally:
            obs.disable()
        assert obs.get("shard.scatters") == 1


# ---------------------------------------------------------------------------
# 2-shard equivalence smoke (scripts/check.sh runs -k smoke)
# ---------------------------------------------------------------------------


def test_v10_smoke_shard_equivalence():
    """2 shards, tiny budget: window + instant results bit-identical."""
    mappings = make_fleet(24, seed=5)
    manager = ShardManager(ShardedFleet(mappings, 2), budget=1)
    col = UPointColumn.from_mappings(mappings)
    cube = mappings[1].bounding_cube()
    rect = Rect(cube.xmin, cube.ymin, cube.xmax, cube.ymax)
    want = window_intervals_batch(col, rect, cube.tmin, cube.tmax)
    got = sharded_window_intervals(manager, rect, cube.tmin, cube.tmax)
    assert len(want[0]) > 0
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    t = mappings[0].units[0].interval.s
    got = scatter_atinstant(manager, t)
    for g, w in zip(got, atinstant_batch(col, t)):
        assert g.tobytes() == w.tobytes()


def test_v10_smoke_shard_bench(tmp_path):
    """2 persisted shards under a budget a quarter of their column
    bytes: nothing resident, then a cold scatter, a warm one and a sweep
    that visits both tiles — every answer bit-identical to the unsharded
    kernel, the budget never exceeded, and kept only by evicting."""
    mappings = make_fleet(400, seed=2000)
    fleet = ShardedFleet(mappings, 2)
    root = os.fspath(tmp_path)
    staging = ShardManager(fleet, root=root)
    staging.persist(kinds=("upoint", "bbox"))
    total = staging.total_column_bytes()
    manager = ShardManager(fleet, root=root, budget=total // 4)
    flat = UPointColumn.from_mappings(mappings)  # the unsharded oracle
    windows = []
    for s in (0, 1, 0, 1):  # one object's cube from each tile, twice
        cube = mappings[int(fleet.globals_of(s)[0])].bounding_cube()
        windows.append(
            (Rect(cube.xmin, cube.ymin, cube.xmax, cube.ymax),
             cube.tmin, cube.tmax)
        )
    with obs.capture() as counted:
        manager.evict_all()
        for rect, t0, t1 in windows[:1] + windows:  # cold, warm, sweep
            got = sharded_window_intervals(manager, rect, t0, t1)
            want = window_intervals_batch(flat, rect, t0, t1)
            assert len(want[0]) > 0
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        high_water = counted.snapshot()["gauges"].get("shard.resident_bytes", 0.0)
    assert 0 < high_water <= total // 4
    assert counted.get("shard.evictions") >= 1
