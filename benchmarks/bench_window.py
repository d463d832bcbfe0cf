"""Window queries: one kernel sweep vs naive exact refinement.

Not a figure of the paper, but the query pattern its bounding cubes of
Section 4.2 exist for.  ``WindowQueryEngine.query`` on ``vector`` is
the operator table's ``window_intervals`` row: filter (the units whose
interval meets the window) and exact refinement in one kernel sweep.
``query_naive`` refines every object in Python.  The refinement step is
exact (closed-form interval intersection per unit), so both plans
return identical results; the sweep's advantage grows with collection
size.

The ablation also runs as a tier-1 smoke at two small sizes
(``tests/test_window_engine.py``), so an engine API change fails there
first.
"""

import time
from typing import List, Sequence, Tuple

import pytest

from repro.ops.window import WindowQueryEngine
from repro.spatial.bbox import Rect
from repro.workloads.trajectories import random_flights


def build_engine(n: int, seed: int = 9) -> WindowQueryEngine:
    engine = WindowQueryEngine()
    for i, f in enumerate(random_flights(n, legs=6, seed=seed)):
        engine.add(i, f)
    return engine


WINDOW = Rect(2000.0, 2000.0, 2800.0, 2800.0)
T0, T1 = 100.0, 350.0


def ablation(
    sizes: Sequence[int], repeats: int = 5
) -> List[Tuple[int, int, float, float]]:
    """``(objects, hits, sweep s, naive s)`` per size, mean of
    ``repeats`` queries each; the two answers must be identical."""
    rows = []
    for n in sizes:
        engine = build_engine(n)
        tic = time.perf_counter()
        for _ in range(repeats):
            hits = engine.query(WINDOW, T0, T1, backend="vector")
        swept = (time.perf_counter() - tic) / repeats
        tic = time.perf_counter()
        for _ in range(repeats):
            naive = engine.query_naive(WINDOW, T0, T1)
        plain = (time.perf_counter() - tic) / repeats
        assert hits == naive
        rows.append((n, len(hits), swept, plain))
    return rows


@pytest.mark.parametrize("n", [25, 100, 400])
def test_window_filtered(benchmark, n):
    engine = build_engine(n)

    def run():
        return engine.query(WINDOW, T0, T1, backend="vector")

    results = benchmark(run)
    assert results == engine.query_naive(WINDOW, T0, T1)


@pytest.mark.parametrize("n", [25, 100])
def test_window_naive(benchmark, n):
    engine = build_engine(n)

    def run():
        return engine.query_naive(WINDOW, T0, T1)

    benchmark(run)


def test_window_ablation_shape(benchmark):
    """Kernel sweep vs naive across collection sizes."""
    # Imported here: the tier-1 smoke loads this module without
    # benchmarks/ on the path.
    from conftest import report

    rows = benchmark.pedantic(
        lambda: ablation((50, 200, 800)), rounds=1, iterations=1
    )
    report(
        "Window query: vector kernel sweep vs naive",
        [
            (n, hits, f"{f * 1000:.2f}", f"{p * 1000:.2f}", f"{p / f:.1f}x")
            for n, hits, f, p in rows
        ],
        ("objects", "hits", "vector ms", "naive ms", "speedup"),
    )
    # The sweep's advantage must grow with collection size.
    small_ratio = rows[0][3] / rows[0][2]
    large_ratio = rows[-1][3] / rows[-1][2]
    assert large_ratio > small_ratio * 0.8  # monotone-ish, generous slack
