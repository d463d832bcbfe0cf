"""V5: parallel backend vs single-process vector backend (repro.parallel).

Claim under test: with a fleet's columns resident in shared memory and a
worker pool attached, a whole-fleet query answers ≥3× faster end-to-end
than the single-process vector backend paying the one-shot cost (column
build + kernel) — while returning the same answers bit for bit.  Two
companion claims ride along: the column a fleet keeps makes a warm
snapshot ≥5× faster than a cold one, and STR bulk loading packs a 10k-entry
``RTree3D`` ≥5× faster than incremental insertion with node visits per
query no worse.

Runs as pytest (equivalence + speedups asserted; the quick ``smoke``
test is tier-1, in ``tests/test_parallel.py``).  The speedup tests time the pool
against a single-process pass *including its column build*; the
end-to-end comparison with columns resident is
``parallel.speedup_vs_vector`` of ``benchmarks/e2e/run.py --workload
api_scan_warm``.

Run as a script, it prints what the pool's one column transport costs:
the median ``shmcol.pack`` of a 20k-object ``upoint`` column held in
memory and of the same column mapped from a ``ColumnStore`` — report
only, nothing asserted::

    PYTHONPATH=src python benchmarks/bench_parallel.py
"""

import random
import statistics
import tempfile
import time

import numpy as np

from bench_vector import build_fleet
from repro import config, obs
from repro.index.rtree import RTree3D
from repro.parallel import parallel_atinstant, parallel_window_intervals, shmcol
from repro.spatial.bbox import Cube, Rect
from repro.vector.cache import Fleet, column_for
from repro.vector.columns import UPointColumn
from repro.vector.kernels import atinstant_batch, window_intervals_batch
from repro.vector.store import ColumnStore

FLEET_SIZE = 10_000
PACK_OBJECTS = 20_000
WORKERS = 4
RECT = Rect(200, 200, 800, 800)
WINDOW = (10.0, 90.0)


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        tic = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - tic)
    return best


def _atinstant_mismatches(col, got, t: float) -> int:
    xs, ys, defined = got
    ex, ey, ed = atinstant_batch(col, t)
    bad = int(np.count_nonzero(defined != ed))
    bad += int(np.count_nonzero(xs[defined & ed] != ex[defined & ed]))
    bad += int(np.count_nonzero(ys[defined & ed] != ey[defined & ed]))
    return bad


def _window_mismatches(col, got, rect, t0, t1) -> int:
    expected = window_intervals_batch(col, rect, t0, t1)
    return sum(
        int(not np.array_equal(g, e)) for g, e in zip(got, expected)
    )


def measure_parallel(fleet, workers: int = WORKERS) -> dict:
    """End-to-end: single-process one-shot query vs warm parallel query.

    The single-process side pays what a fresh query pays (column build +
    kernel); the parallel side pays what every steady-state query pays
    (kept column lookup + chunked pool dispatch).  Equivalence is
    asserted in the same run.
    """
    min_objects = config.PARALLEL_MIN_OBJECTS
    config.PARALLEL_MIN_OBJECTS = min(min_objects, len(fleet))
    try:
        cached = Fleet(fleet)
        col = column_for(cached)
        t = 60.0
        t0, t1 = WINDOW

        # Warm the pool + shared segments: first dispatch pays setup.
        par_at = parallel_atinstant(col, t, workers=workers)
        par_win = parallel_window_intervals(col, RECT, t0, t1, workers=workers)

        single_at_s = _best_of(
            lambda: atinstant_batch(UPointColumn.from_mappings(fleet), t)
        )
        par_at_s = _best_of(
            lambda: parallel_atinstant(column_for(cached), t, workers=workers)
        )
        single_win_s = _best_of(
            lambda: window_intervals_batch(
                UPointColumn.from_mappings(fleet), RECT, t0, t1
            )
        )
        par_win_s = _best_of(
            lambda: parallel_window_intervals(
                column_for(cached), RECT, t0, t1, workers=workers
            )
        )
        with obs.capture() as counters:
            parallel_atinstant(column_for(cached), t, workers=workers)
            snap = counters.snapshot()["counters"]
        return {
            "objects": len(fleet),
            "workers": workers,
            "chunks": snap.get("parallel.chunks", 0),
            "fallbacks": snap.get("parallel.fallback", 0),
            "atinstant": {
                "single_process_s": single_at_s,
                "parallel_s": par_at_s,
                "speedup": single_at_s / par_at_s,
                "mismatches": _atinstant_mismatches(col, par_at, t),
            },
            "window": {
                "single_process_s": single_win_s,
                "parallel_s": par_win_s,
                "speedup": single_win_s / par_win_s,
                "mismatches": _window_mismatches(col, par_win, RECT, t0, t1),
            },
        }
    finally:
        config.PARALLEL_MIN_OBJECTS = min_objects


def measure_colcache(fleet) -> dict:
    """Cold snapshot (column rebuild) vs warm snapshot (the kept column)."""
    cached = Fleet(fleet)
    t = 60.0
    cold_s = _best_of(
        lambda: atinstant_batch(UPointColumn.from_mappings(fleet), t)
    )
    column_for(cached)  # prime
    warm_s = _best_of(lambda: atinstant_batch(column_for(cached), t))
    return {
        "objects": len(fleet),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s,
    }


def measure_str_bulk(entries_n: int = 10_000, queries_n: int = 50) -> dict:
    """STR bulk load vs incremental insertion, same entries and queries."""
    rng = random.Random(2000)
    entries = [
        (
            Cube(x, y, t, x + s, y + s, t + s),
            i,
        )
        for i, (x, y, t, s) in enumerate(
            (
                rng.uniform(0, 1000),
                rng.uniform(0, 1000),
                rng.uniform(0, 1000),
                rng.uniform(0.5, 10.0),
            )
            for _ in range(entries_n)
        )
    ]
    queries = [
        Cube(x, y, t, x + 50, y + 50, t + 50)
        for x, y, t in (
            (rng.uniform(0, 950), rng.uniform(0, 950), rng.uniform(0, 950))
            for _ in range(queries_n)
        )
    ]

    tic = time.perf_counter()
    packed = RTree3D.bulk_load(entries)
    bulk_s = time.perf_counter() - tic

    tic = time.perf_counter()
    grown = RTree3D()
    for cube, key in entries:
        grown.insert(cube, key)
    incremental_s = time.perf_counter() - tic

    def visits(tree):
        with obs.capture() as counters:
            for q in queries:
                tree.search_list(q)
            snap = counters.snapshot()["counters"]
        return snap.get("rtree.nodes_visited", 0)

    mismatches = sum(
        int(sorted(packed.search(q)) != sorted(grown.search(q)))
        for q in queries
    )
    return {
        "entries": entries_n,
        "queries": queries_n,
        "bulk_s": bulk_s,
        "incremental_s": incremental_s,
        "speedup": incremental_s / bulk_s,
        "node_visits_packed": visits(packed),
        "node_visits_grown": visits(grown),
        "mismatches": mismatches,
    }


def _pack_ms(col, rounds: int) -> float:
    """Median wall time of one ``shmcol.pack`` of ``col``, in ms (each
    segment is released before the next round)."""
    times = []
    for _ in range(rounds):
        tic = time.perf_counter()
        _descriptor, shm = shmcol.pack(col)
        times.append(time.perf_counter() - tic)
        shm.close()
        shm.unlink()
    return 1e3 * statistics.median(times)


def measure_pack(count: int = PACK_OBJECTS, rounds: int = 7) -> dict:
    """``pack_ms`` of one ``upoint`` column of ``count`` flights, built
    in memory and loaded from a ``ColumnStore`` (read-only views over
    the mapped files).  Both reach workers through the same copy; the
    numbers say what that copy costs per column lifetime."""
    fleet = Fleet(build_fleet(count))
    built = UPointColumn.from_mappings(fleet)
    with tempfile.TemporaryDirectory() as root:
        store = ColumnStore(root)
        store.save("upoint", built, fleet.stamp)
        loaded = store.load("upoint")
        return {
            "objects": count,
            "in_memory": {"pack_ms": _pack_ms(built, rounds)},
            "store_loaded": {"pack_ms": _pack_ms(loaded, rounds)},
        }


# -- pytest entry points ------------------------------------------------------


def test_v5_parallel_speedup():
    """The acceptance claim: ≥3× end-to-end at 4 workers, 10k objects,
    zero mismatches for both the atinstant and window scans."""
    stats = measure_parallel(build_fleet(FLEET_SIZE), WORKERS)
    assert stats["atinstant"]["mismatches"] == 0
    assert stats["window"]["mismatches"] == 0
    assert stats["chunks"] >= 2
    assert stats["atinstant"]["speedup"] >= 3.0, stats
    assert stats["window"]["speedup"] >= 3.0, stats


def test_v5_colcache_speedup():
    stats = measure_colcache(build_fleet(FLEET_SIZE))
    assert stats["speedup"] >= 5.0, stats


def test_v5_str_bulk_load_speedup():
    stats = measure_str_bulk()
    assert stats["mismatches"] == 0
    assert stats["speedup"] >= 5.0, stats
    assert stats["node_visits_packed"] <= stats["node_visits_grown"], stats


def test_v5_pack_report_runs():
    """The transport report runs end to end (at a hundredth of its
    size); its numbers are for reading, not asserting."""
    stats = measure_pack(PACK_OBJECTS // 100, rounds=1)
    assert stats["in_memory"]["pack_ms"] > 0
    assert stats["store_loaded"]["pack_ms"] > 0


if __name__ == "__main__":
    stats = measure_pack()
    for name in ("in_memory", "store_loaded"):
        print(
            f"pack_ms {stats['objects'] // 1000}k-object {name} upoint column"
            f" {stats[name]['pack_ms']:8.2f}"
        )
