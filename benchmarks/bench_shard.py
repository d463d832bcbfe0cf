"""V10: sharded fleets under a memory budget (repro.shard).

Claim under test: spatially tiled shards with per-shard column stores,
shard-level bbox pruning, and candidate sub-column gather answer a
window query over 1M objects / 4M units in under 100 ms *cold* — with a
resident-byte budget smaller than the fleet's total column bytes, so
the CLOCK policy evicts shards as windows move across the extent —
while returning results bit-identical to the unsharded vector kernel
(mismatch count asserted at zero, eviction churn and the
``shard.resident_bytes`` high-water counter-asserted against the
budget).

Runs as pytest at smoke scale (the quick 2-shard ``smoke`` tests are
tier-1, in ``tests/test_shard.py``); the timed run is the ``shard_window_cold``
workload of ``benchmarks/e2e/run.py``.
"""

import random
import tempfile
import time

from repro import obs
from repro.shard import ShardManager, ShardedFleet, sharded_window_intervals
from repro.spatial.bbox import Rect
from repro.temporal.mapping import MovingPoint
from repro.vector.columns import UPointColumn
from repro.vector.kernels import window_intervals_batch

LEGS = 4  # units per object
SHARDS = 16
#: Budget as a fraction of the fleet's total upoint bytes — small
#: enough that a full scatter cannot hold every shard resident.
BUDGET_DIVISOR = 4
#: The query window: selective in space and time, so the candidate
#: gather (not the fleet size) sets the kernel cost.
RECT = Rect(4000.0, 4000.0, 4500.0, 4500.0)
WINDOW = (20.0, 25.0)
#: Windows of RECT's size drawn across the 10k x 10k extent.  One
#: window overlaps a tile or two; together they visit every tile, so a
#: budget below the column total has to evict however the fleet was cut.
SWEEP = [
    Rect(x, y, x + 500.0, y + 500.0)
    for x in (1000.0, 3500.0, 6000.0, 8500.0)
    for y in (1000.0, 3500.0, 6000.0, 8500.0)
]


def build_fleet(count: int, legs: int = LEGS, seed: int = 2000):
    """Deterministic local trajectories over a 10k x 10k world.

    Short ±50 legs keep per-object bounding boxes tight, the regime the
    Section-4 sliced representation targets (many objects, each small
    against the observed space).
    """
    rng = random.Random(seed)
    fleet = []
    for _ in range(count):
        t = rng.uniform(0.0, 50.0)
        x, y = rng.uniform(0.0, 10000.0), rng.uniform(0.0, 10000.0)
        wps = [(t, (x, y))]
        for _leg in range(legs):
            t += rng.uniform(5.0, 30.0)
            x += rng.uniform(-50.0, 50.0)
            y += rng.uniform(-50.0, 50.0)
            wps.append((t, (x, y)))
        fleet.append(MovingPoint.from_waypoints(wps))
    return fleet


def _mismatches(got, want) -> int:
    """Arrays that differ bit for bit (NaN-exact, dtype-exact)."""
    bad = 0
    for g, w in zip(got, want):
        if g.dtype != w.dtype or g.tobytes() != w.tobytes():
            bad += 1
    return bad


def measure_sharded(mappings, shards: int = SHARDS, root=None) -> dict:
    """Stage per-shard stores, then time cold and warm budgeted scatters.

    Cold means: nothing resident (``evict_all``),
    columns mapped from the per-shard mmap stores during the query.  The
    untimed ``SWEEP`` that follows moves the window across every tile,
    the budget forcing evictions as it goes.
    """
    if root is None:
        root = tempfile.mkdtemp(prefix="bench_shard_")
    fleet = ShardedFleet(mappings, shards)
    staging = ShardManager(fleet, root=root)
    tic = time.perf_counter()
    staging.persist(kinds=("upoint", "bbox"))
    persist_s = time.perf_counter() - tic
    total_bytes = staging.total_column_bytes()
    budget = total_bytes // BUDGET_DIVISOR
    manager = ShardManager(fleet, root=root, budget=budget)

    rect, (t0, t1) = RECT, WINDOW
    obs.reset()
    obs.enable()
    try:
        manager.evict_all()
        tic = time.perf_counter()
        got = sharded_window_intervals(manager, rect, t0, t1)
        cold_s = time.perf_counter() - tic
        tic = time.perf_counter()
        warm = sharded_window_intervals(manager, rect, t0, t1)
        warm_s = time.perf_counter() - tic
        swept = [
            sharded_window_intervals(manager, r, t0, t1) for r in SWEEP
        ]
        evictions = obs.get("shard.evictions")
        pruned = obs.get("shard.pruned")
        resident_high = obs.snapshot()["gauges"].get(
            "shard.resident_bytes", 0.0
        )
    finally:
        obs.disable()

    flat = UPointColumn.from_mappings(mappings)  # the unsharded oracle
    reference = window_intervals_batch(flat, rect, t0, t1)
    mismatches = _mismatches(got, reference) + _mismatches(warm, reference)
    for r, rows in zip(SWEEP, swept):
        mismatches += _mismatches(rows, window_intervals_batch(flat, r, t0, t1))
    return {
        "objects": len(mappings),
        "units": int(sum(len(m.units) for m in mappings)),
        "shards": shards,
        "total_column_bytes": int(total_bytes),
        "memory_budget_bytes": int(budget),
        "resident_bytes_high_water": float(resident_high),
        "persist_s": persist_s,
        "cold_window_ms": cold_s * 1000.0,
        "warm_window_ms": warm_s * 1000.0,
        "rows": int(len(got[0])),
        "evictions": int(evictions),
        "shards_pruned": int(pruned),
        "mismatches": int(mismatches),
    }


def assert_result(result: dict) -> None:
    assert result["mismatches"] == 0, (
        f"{result['mismatches']} gathered arrays differ from the "
        "unsharded kernel"
    )
    assert result["rows"] > 0, "window query matched nothing; rect too small"
    assert result["memory_budget_bytes"] < result["total_column_bytes"], (
        "budget must be smaller than the fleet's column bytes"
    )
    assert (
        result["resident_bytes_high_water"] <= result["memory_budget_bytes"]
    ), (
        f"resident high-water {result['resident_bytes_high_water']} "
        f"exceeded the budget {result['memory_budget_bytes']}"
    )
    assert result["evictions"] >= 1, (
        "a budget below the column total must evict at least once"
    )


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_v10_counter_assertions():
    """Budgeted residency really churns: evictions and the high-water
    gauge move, and pruning rules shards out without mapping them."""
    mappings = build_fleet(4_000, seed=2001)
    result = measure_sharded(mappings, shards=8)
    assert_result(result)
    assert result["resident_bytes_high_water"] > 0.0
