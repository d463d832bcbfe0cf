"""V1: columnar kernels vs scalar loops at fleet scale (repro.vector).

Claim under test: once a fleet's units live in a Structure-of-Arrays
column (the Section-4 root-record + database-array layout, transposed),
a whole-fleet ``atinstant`` is one vectorized binary search plus one
fused evaluation — more than an order of magnitude faster than the
per-object scalar loop, while returning the same answers bit for bit.

Runs as pytest (equivalence + speedup asserted together); the timings
that are tracked over time are ``kernels.*`` / ``fleet.*`` of
``benchmarks/e2e/run.py --workload api_scan_warm``.
"""

import random
import time

from repro.spatial.bbox import Cube
from repro.temporal.mapping import MovingPoint
from repro.vector.cache import Fleet, clear_cache, column_for
from repro.vector.columns import BBoxColumn, UPointColumn
from repro.vector.kernels import atinstant_batch, bbox_filter_batch

FLEET_SIZE = 10_000
LEGS = 4


def build_fleet(count: int = FLEET_SIZE, legs: int = LEGS, seed: int = 2000):
    """A deterministic fleet of ``count`` simple flights."""
    rng = random.Random(seed)
    fleet = []
    for _ in range(count):
        t = rng.uniform(0.0, 50.0)
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        wps = [(t, (x, y))]
        for _leg in range(legs):
            t += rng.uniform(5.0, 30.0)
            x += rng.uniform(-200, 200)
            y += rng.uniform(-200, 200)
            wps.append((t, (x, y)))
        fleet.append(MovingPoint.from_waypoints(wps))
    return fleet


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        tic = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - tic)
    return best


def measure_atinstant(fleet, t: float) -> dict:
    """Time scalar vs vector atinstant AND assert equivalence, same run.

    The vector side is broken down into its cost components:

    - ``build_s``    — constructing the SoA column from the fleet,
    - ``kernel_s``   — the batch kernel alone on a resident column,
    - ``end_to_end_cold_s`` — build + kernel, as a one-shot query pays,
    - ``end_to_end_warm_s`` — kernel over the column cache
      (:mod:`repro.vector.cache`), as every query after the first pays.
    """
    col = UPointColumn.from_mappings(fleet)
    build_s = _best_of(lambda: UPointColumn.from_mappings(fleet))

    scalar_out = [m.value_at(t) for m in fleet]
    scalar_s = _best_of(lambda: [m.value_at(t) for m in fleet])
    xs, ys, defined = atinstant_batch(col, t)
    kernel_s = _best_of(lambda: atinstant_batch(col, t))
    end_to_end_cold_s = _best_of(
        lambda: atinstant_batch(UPointColumn.from_mappings(fleet), t)
    )
    cached = Fleet(fleet)
    clear_cache()
    column_for(cached)  # prime: first query pays the cold cost once
    end_to_end_warm_s = _best_of(
        lambda: atinstant_batch(column_for(cached), t)
    )
    clear_cache()

    mismatches = 0
    for i, p in enumerate(scalar_out):
        if p is None:
            ok = not defined[i]
        else:
            ok = bool(defined[i]) and xs[i] == p.x and ys[i] == p.y
        mismatches += not ok
    return {
        "objects": len(fleet),
        "units": col.n_units,
        "instant": t,
        "defined": int(defined.sum()),
        "build_s": build_s,
        "scalar_s": scalar_s,
        "kernel_s": kernel_s,
        "end_to_end_cold_s": end_to_end_cold_s,
        "end_to_end_warm_s": end_to_end_warm_s,
        "speedup": scalar_s / kernel_s,
        "warm_speedup": end_to_end_cold_s / end_to_end_warm_s,
        "mismatches": mismatches,
    }


def measure_bbox_filter(fleet, cube: Cube) -> dict:
    """Time scalar vs vector bounding-cube filtering, with equivalence."""
    col = BBoxColumn.from_mappings(fleet)

    def scalar():
        return [
            i
            for i, m in enumerate(fleet)
            if m.units and m.bounding_cube().intersects(cube)
        ]

    scalar_out = scalar()
    scalar_s = _best_of(scalar)
    build_s = _best_of(lambda: BBoxColumn.from_mappings(fleet))
    mask = bbox_filter_batch(col, cube)
    kernel_s = _best_of(lambda: bbox_filter_batch(col, cube))
    vector_out = [int(k) for k, hit in zip(col.keys, mask) if hit]
    return {
        "objects": len(fleet),
        "hits": len(vector_out),
        "scalar_s": scalar_s,
        "build_s": build_s,
        "kernel_s": kernel_s,
        "end_to_end_cold_s": build_s + kernel_s,
        "speedup": scalar_s / kernel_s,
        "mismatches": int(scalar_out != vector_out),
    }



# -- pytest entry points ------------------------------------------------------


def test_v1_atinstant_speedup_and_equivalence():
    """The acceptance claim: ≥10× at 10,000 objects, zero mismatches."""
    fleet = build_fleet(FLEET_SIZE)
    stats = measure_atinstant(fleet, 60.0)
    assert stats["mismatches"] == 0
    assert stats["defined"] > 0  # the instant actually hits the fleet
    assert stats["speedup"] >= 10.0, stats


def test_v1_bbox_filter_equivalence():
    fleet = build_fleet(2000)
    stats = measure_bbox_filter(fleet, Cube(200, 200, 20, 800, 800, 90))
    assert stats["mismatches"] == 0
    assert 0 < stats["hits"] < len(fleet)


def test_v1_colcache_warm_beats_cold():
    """The column-cache claim: a warm snapshot query is ≥5× faster than
    one that rebuilds the column (mutation-invalidation is asserted in
    tests/test_parallel.py)."""
    fleet = build_fleet(FLEET_SIZE)
    stats = measure_atinstant(fleet, 60.0)
    assert stats["mismatches"] == 0
    assert stats["warm_speedup"] >= 5.0, stats
