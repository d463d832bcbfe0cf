"""STR bulk loading (RTree3D) and unit-index boundary cases.

The STR-packed tree must be *observably* no worse than the incremental
tree: identical search results and no more node visits per query
(asserted via the ``rtree.nodes_visited`` counter), while being far
cheaper to build — the build-speed claim lives in the benchmarks, the
equivalence claims live here.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.index.rtree import RTree3D
from repro.index.unitindex import MovingObjectIndex
from repro.spatial.bbox import Cube, Rect
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint


def cube_at(x, y, t, size=1.0):
    return Cube(x, y, t, x + size, y + size, t + size)


def random_cubes(rng, n, extent=100.0):
    return [
        (
            cube_at(
                rng.uniform(0, extent),
                rng.uniform(0, extent),
                rng.uniform(0, extent),
                size=rng.uniform(0.5, 5.0),
            ),
            i,
        )
        for i in range(n)
    ]


def node_visits(tree, queries):
    with obs.capture() as counters:
        for q in queries:
            tree.search_list(q)
        return counters.snapshot()["counters"].get("rtree.nodes_visited", 0)


class TestSTRBulkLoad:
    def test_empty(self):
        tree = RTree3D.bulk_load([])
        assert len(tree) == 0
        assert tree.search_list(cube_at(0, 0, 0)) == []

    def test_single_entry(self):
        tree = RTree3D.bulk_load([(cube_at(0, 0, 0), "a")])
        assert len(tree) == 1
        assert tree.search_list(cube_at(0.5, 0.5, 0.5)) == ["a"]
        assert tree.search_list(cube_at(10, 10, 10)) == []

    def test_matches_incremental_results(self):
        rng = random.Random(42)
        entries = random_cubes(rng, 500)
        packed = RTree3D.bulk_load(entries, max_entries=6)
        grown = RTree3D(max_entries=6)
        for c, i in entries:
            grown.insert(c, i)
        assert len(packed) == len(grown) == 500
        for _ in range(30):
            q = cube_at(
                rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100),
                size=rng.uniform(2.0, 15.0),
            )
            assert sorted(packed.search(q)) == sorted(grown.search(q))

    def test_node_visits_no_worse_than_incremental(self):
        rng = random.Random(2000)
        entries = random_cubes(rng, 800)
        packed = RTree3D.bulk_load(entries, max_entries=8)
        grown = RTree3D(max_entries=8)
        for c, i in entries:
            grown.insert(c, i)
        queries = [
            cube_at(
                rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100),
                size=10.0,
            )
            for _ in range(50)
        ]
        assert node_visits(packed, queries) <= node_visits(grown, queries)

    def test_bulk_loaded_counter(self):
        entries = random_cubes(random.Random(1), 40)
        with obs.capture() as counters:
            RTree3D.bulk_load(entries)
            snap = counters.snapshot()["counters"]
        assert snap.get("rtree.bulk_loaded") == 40

    def test_insert_after_bulk_load(self):
        entries = random_cubes(random.Random(3), 100)
        tree = RTree3D.bulk_load(entries, max_entries=5)
        tree.insert(cube_at(200, 200, 200), "late")
        assert len(tree) == 101
        assert tree.search_list(cube_at(200.2, 200.2, 200.2)) == ["late"]
        # Old entries still reachable after the packed tree mutates.
        q = cube_at(0, 0, 0, size=100.0)
        assert sorted(tree.search(q)) == sorted(
            i for c, i in entries if c.intersects(q)
        )

    def test_packed_tree_is_near_full(self):
        entries = random_cubes(random.Random(9), 640)
        packed = RTree3D.bulk_load(entries, max_entries=8)
        grown = RTree3D(max_entries=8)
        for c, i in entries:
            grown.insert(c, i)
        assert packed.node_count() <= grown.node_count()

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=120))
    @settings(max_examples=40, deadline=None)
    def test_equivalence_property(self, seed, n):
        rng = random.Random(seed)
        entries = random_cubes(rng, n)
        packed = RTree3D.bulk_load(entries, max_entries=4)
        grown = RTree3D(max_entries=4)
        for c, i in entries:
            grown.insert(c, i)
        assert len(packed) == len(grown) == n
        for _ in range(5):
            q = cube_at(
                rng.uniform(-5, 100), rng.uniform(-5, 100), rng.uniform(-5, 100),
                size=rng.uniform(1.0, 30.0),
            )
            assert sorted(packed.search(q)) == sorted(grown.search(q))


def flight(points, flags=None):
    """A moving point through ``points`` = [(t, x, y), ...].

    ``flags`` gives per-unit ``(lc, rc)`` pairs; the default is the
    standard half-open chain ``[s, e)`` with the last unit closed.
    """
    legs = list(zip(points, points[1:]))
    if flags is None:
        flags = [(True, i == len(legs) - 1) for i in range(len(legs))]
    units = []
    for ((t0, x0, y0), (t1, x1, y1)), (lc, rc) in zip(legs, flags):
        units.append(
            UPoint.between(t0, (x0, y0), t1, (x1, y1), lc=lc, rc=rc)
        )
    return MovingPoint(units)


class TestUnitIndexBoundaries:
    def test_empty_mapping(self):
        idx = MovingObjectIndex()
        idx.add("empty", MovingPoint([]))
        assert len(idx) == 1
        assert idx.unit_entries == 0
        assert idx.candidates_at(Rect(-1, -1, 1, 1), 0.0) == set()

    def test_single_unit(self):
        idx = MovingObjectIndex()
        idx.add("solo", flight([(0, 0, 0), (10, 10, 10)]))
        assert idx.unit_entries == 1
        assert idx.candidates_at(Rect(-1, -1, 11, 11), 5.0) == {"solo"}
        assert idx.candidates_at(Rect(-1, -1, 11, 11), 20.0) == set()

    def test_touching_intervals_at_boundary(self):
        # Two consecutive units share t=5; the cube filter is closed, so
        # the boundary instant reports the object regardless of whether
        # the unit intervals are open or closed there (filter step only —
        # refinement decides exact containment).
        # (first unit's rc, second unit's lc): closed/open owner of t=5,
        # or open from both sides.
        for rc, lc in ((False, True), (True, False), (False, False)):
            idx = MovingObjectIndex()
            idx.add(
                "m",
                flight(
                    [(0, 0, 0), (5, 5, 5), (10, 0, 0)],
                    flags=[(True, rc), (lc, True)],
                ),
            )
            assert idx.unit_entries == 2
            everywhere = Rect(-1, -1, 6, 6)
            assert idx.candidates_at(everywhere, 5.0) == {"m"}, (lc, rc)
