"""A1: the atinstant algorithm of Section 5.1.

Claims under test:

* O(log n + r) when the region value is "just needed for output"
  (unstructured evaluation), and O(log n + r·log r) when the proper
  region data structure is built (halfsegment sorting inside close());
* the unit lookup is a binary search: time grows logarithmically in the
  number of units n at fixed result size r;
* the evaluation cost grows (near-)linearly in r at fixed n.

The same claims by exact operation count (no pytest-benchmark, no
clock) are tier-1 tests: ``tests/test_obs.py::TestSection51Probes``.
"""

import time

import pytest

from conftest import report, translating_mregion
from repro.ops.interaction import mregion_atinstant


@pytest.mark.parametrize("n_units", [16, 256, 4096])
def test_a1_scaling_in_units(benchmark, n_units):
    """Time vs number of units n (fixed r): binary search dominates."""
    mr = translating_mregion(units=n_units, sides=8)
    t_query = mr.start_time() + 0.37 * (mr.end_time() - mr.start_time())

    def query():
        return mregion_atinstant(mr, t_query, structured=False)

    region = benchmark(query)
    assert region.area() > 0


@pytest.mark.parametrize("r_segments", [16, 64, 256, 1024])
def test_a1_scaling_in_result_size(benchmark, r_segments):
    """Time vs region size r (fixed n), unstructured path: ~linear."""
    mr = translating_mregion(units=4, sides=r_segments)
    t_query = mr.start_time() + 1.7

    def query():
        return mregion_atinstant(mr, t_query, structured=False)

    region = benchmark(query)
    assert len(region.segments()) == r_segments


@pytest.mark.parametrize("r_segments", [16, 64, 256])
def test_a1_structured_construction(benchmark, r_segments):
    """The O(log n + r log r) variant: building the proper structure."""
    mr = translating_mregion(units=4, sides=r_segments)
    t_query = mr.start_time() + 1.7

    def query():
        return mregion_atinstant(mr, t_query, structured=True)

    region = benchmark(query)
    assert len(region.segments()) == r_segments
    assert len(region.faces) == 1


def test_a1_log_vs_linear_shape(benchmark):
    """The paper's shape: doubling n adds ~constant lookup time, while
    doubling r roughly doubles evaluation time."""

    def measure():
        by_n = []
        for n in (64, 512, 4096):
            mr = translating_mregion(units=n, sides=8)
            t = mr.start_time() + 0.61 * (mr.end_time() - mr.start_time())
            tic = time.perf_counter()
            for _ in range(200):
                mregion_atinstant(mr, t, structured=False)
            by_n.append((n, (time.perf_counter() - tic) / 200))
        by_r = []
        for r in (32, 128, 512):
            mr = translating_mregion(units=4, sides=r)
            t = mr.start_time() + 1.7
            tic = time.perf_counter()
            for _ in range(50):
                mregion_atinstant(mr, t, structured=False)
            by_r.append((r, (time.perf_counter() - tic) / 50))
        return by_n, by_r

    by_n, by_r = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(
        "A1 atinstant vs n (fixed r=8)",
        [(n, f"{t * 1e6:.1f}") for n, t in by_n],
        ("units n", "us/query"),
    )
    report(
        "A1 atinstant vs r (fixed n=4)",
        [(r, f"{t * 1e6:.1f}") for r, t in by_r],
        ("segments r", "us/query"),
    )
    # Shape assertions (generous, machine-independent):
    # 64x more units must cost far less than 8x more time (log growth)...
    assert by_n[-1][1] < by_n[0][1] * 8.0
    # ...while 16x larger results must cost at least 4x more (linear-ish).
    assert by_r[-1][1] > by_r[0][1] * 4.0
