"""V1: columnar kernels vs scalar loops at fleet scale (repro.vector).

Claim under test: once a fleet's units live in a Structure-of-Arrays
column (the Section-4 root-record + database-array layout, transposed),
a whole-fleet ``atinstant`` is one vectorized binary search plus one
fused evaluation — more than an order of magnitude faster than the
per-object scalar loop, while returning the same answers bit for bit.

Runs as pytest (equivalence + speedup asserted together); the timings
that are tracked over time are ``kernels.*`` / ``fleet.*`` of
``benchmarks/e2e/run.py --workload api_scan_warm``.

Run as a script, it prints the batch kernels' per-call cost and the
cost of a one-unit ingest apply, then the minor page faults
per call of ``atinstant_batch`` and ``window_intervals_batch`` at 20k
flights, each in a fresh interpreter: its first call and its median
call after warm-up — report only, nothing asserted — so one command
gives a before/after of a kernel change::

    PYTHONPATH=src python benchmarks/bench_vector.py
"""

import json
import random
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from repro.spatial.bbox import Cube, Rect
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint
from repro.vector.cache import Fleet, column_for
from repro.vector.columns import BBoxColumn, UPointColumn
from repro.vector.kernels import (
    atinstant_batch,
    bbox_filter_batch,
    window_intervals_batch,
    window_times_batch,
)

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
    - ``end_to_end_warm_s`` — kernel over the column a
      :class:`~repro.vector.cache.Fleet` keeps, as every query after the
      first pays.
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
    column_for(cached)  # prime: first query pays the cold cost once
    end_to_end_warm_s = _best_of(
        lambda: atinstant_batch(column_for(cached), t)
    )

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


def waypoint_column(
    count: int, legs: int = LEGS, world: float = 1000.0, reach: float = 200.0,
    seed: int = 2000,
) -> UPointColumn:
    """The column ``MovingPoint.from_waypoints`` gives ``count`` random
    tracks of ``legs`` legs — each leg 5–30 s long, moving up to
    ``reach`` per axis from a start anywhere in a ``world`` square —
    built from arrays, so 100k objects cost no Python per unit."""
    rng = np.random.default_rng(seed)
    t = np.cumsum(
        np.column_stack([rng.uniform(0.0, 50.0, count),
                         rng.uniform(5.0, 30.0, (count, legs))]), axis=1)
    x, y = (
        np.cumsum(np.column_stack([rng.uniform(0.0, world, count),
                                   rng.uniform(-reach, reach, (count, legs))]), axis=1)
        for _ in "xy"
    )
    s, e = t[:, :-1].ravel(), t[:, 1:].ravel()
    vx = ((x[:, 1:] - x[:, :-1]) / (t[:, 1:] - t[:, :-1])).ravel()
    vy = ((y[:, 1:] - y[:, :-1]) / (t[:, 1:] - t[:, :-1])).ravel()
    first = np.zeros((count, legs), dtype=np.bool_)
    first[:, 0] = True  # [t0, t1], then (tk, tk+1] — the waypoint track
    return UPointColumn(
        np.arange(count + 1, dtype=np.int64) * legs,
        s, e, first.ravel(), np.ones(count * legs, dtype=np.bool_),
        x[:, :-1].ravel() - vx * s, vx, y[:, :-1].ravel() - vy * s, vy,
    )


def _median_us(fn, args, rounds: int = 7) -> float:
    """Median over ``rounds`` of the mean µs of one ``fn(*a)`` per ``a``."""
    per_call = []
    for _ in range(rounds):
        tic = time.perf_counter()
        for a in args:
            fn(*a)
        per_call.append((time.perf_counter() - tic) / len(args) * 1e6)
    return statistics.median(per_call)


def apply_us(count: int, batches: int = 20) -> float:
    """Median µs of one ingest batch (``FleetExecutor.apply_units``)
    that appends one unit to the middle object of a served
    ``count``-object fleet: materialize that object, check the unit,
    splice the next column, publish it.

    Each batch continues the same track a little later, so every round
    does equal work; the fleet is the waypoint column's members
    (:func:`waypoint_column`).
    """
    from repro.server.executor import FleetExecutor
    from repro.server.ingest import IngestRequest

    col = waypoint_column(count)
    i = count // 2
    end = col.mapping_at(i).units[-1].interval.e
    ex = FleetExecutor()
    ex.register_fleet("f", col.to_mappings())
    starts = iter(end + 10.0 * k for k in range(1, 10 * batches + 1))

    def one_batch():
        t0 = next(starts)
        ex.apply_units([IngestRequest("f", i, (t0, 0.0, 0.0, t0 + 5.0, 1.0, 1.0))])

    return _median_us(one_batch, [()] * batches)


def kernel_report(scale: float = 1.0) -> dict:
    """Median µs per call of the batch kernels at fleet scale.

    - ``atinstant_batch`` over 10k flights, at 1 102 instants: 800 unit
      starts and ends (the boundary lanes), 300 anywhere, and ±inf;
    - ``window_times_batch`` over the whole column for 50 500×500
      rectangles, at 20k flights and at 100k local legs (moves of at
      most 50 per axis per leg in a 10k world);
    - a one-unit ingest batch (:func:`apply_us`) at 10k and at 100k
      flights.

    ``scale`` shrinks every fleet (a smoke run); nothing is asserted.
    """
    rng = np.random.default_rng(7)
    report = {}
    col = waypoint_column(max(1, int(10_000 * scale)))
    bounds = np.concatenate([col.starts, col.ends])
    ts = [*rng.choice(bounds, 800), *rng.uniform(0.0, float(col.ends.max()), 300),
          -np.inf, np.inf]
    report["atinstant_batch 10k flights"] = _median_us(
        atinstant_batch, [(col, float(t)) for t in ts])
    for name, col in (
        ("window_times_batch 20k flights", waypoint_column(max(1, int(20_000 * scale)))),
        ("window_times_batch 100k local legs", waypoint_column(
            max(1, int(100_000 * scale)), world=10_000.0, reach=50.0)),
    ):
        px = col.x0 + col.x1 * col.starts
        lo, hi = float(px.min()), float(px.max())
        corners = rng.uniform(lo, hi, (50, 2))
        rects = [(col, Rect(x, y, x + 500.0, y + 500.0)) for x, y in corners]
        report[name] = _median_us(window_times_batch, rects, rounds=5)
    for count in (10_000, 100_000):
        report[f"apply 1 unit to {count // 1000}k flights"] = apply_us(
            max(2, int(count * scale)))
    return report


def _minor_faults(fn) -> int:
    """Minor page faults this process takes during one ``fn()``."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


FAULT_KERNELS = ("atinstant_batch", "window_intervals_batch")


def fault_report(kernel: str, count: int = 20_000, rounds: int = 20) -> dict:
    """Minor page faults of one ``kernel`` call over ``count`` flights:
    the first call in this process, and the median of ``rounds`` calls
    after ``rounds`` warm-up calls.

    ``atinstant_batch`` runs at the middle of the column's time span,
    ``window_intervals_batch`` with a window covering the whole fleet
    in space and time.  Called first thing in a fresh interpreter (the
    script does), "first" is a fresh process's first call.
    """
    col = waypoint_column(count)
    t_end = float(col.ends.max())
    if kernel == "atinstant_batch":
        def call():
            return atinstant_batch(col, t_end / 2)
    else:
        world = Rect(-1e6, -1e6, 1e6, 1e6)

        def call():
            return window_intervals_batch(col, world, 0.0, t_end)
    first = _minor_faults(call)
    for _ in range(rounds):
        call()
    warm = statistics.median(_minor_faults(call) for _ in range(rounds))
    label = f"{kernel} {count // 1000}k flights"
    return {f"{label} first": first, f"{label} warm": warm}


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
    """The kept-column claim: a warm snapshot query is ≥5× faster than
    one that rebuilds the column (mutation-invalidation is asserted in
    tests/test_parallel.py)."""
    fleet = build_fleet(FLEET_SIZE)
    stats = measure_atinstant(fleet, 60.0)
    assert stats["mismatches"] == 0
    assert stats["warm_speedup"] >= 5.0, stats


def test_v1_kernel_report_runs():
    """The report runs end to end (at a hundredth of its size); its
    numbers are for reading, not asserting."""
    report = kernel_report(scale=0.01)
    assert len(report) == 5 and all(us > 0 for us in report.values())


def test_v1_fault_report_runs():
    """The fault report runs for each kernel (at a hundredth of its
    size); its numbers are for reading, not asserting."""
    for kernel in FAULT_KERNELS:
        report = fault_report(kernel, count=200, rounds=3)
        assert len(report) == 2 and all(n >= 0 for n in report.values())


if __name__ == "__main__":
    if sys.argv[1:2] == ["--faults"]:
        print(json.dumps(fault_report(sys.argv[2])))
        sys.exit()
    for kernel, us in kernel_report().items():
        print(f"{kernel:40s} {us:10.1f} us")
    for kernel in FAULT_KERNELS:
        out = subprocess.run([sys.executable, __file__, "--faults", kernel],
                             capture_output=True, text=True, check=True)
        for name, faults in json.loads(out.stdout).items():
            print(f"{name:40s} {faults:10.1f} minor faults/call")
