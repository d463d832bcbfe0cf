"""``shard_window_cold``: window reads over a sharded fleet whose columns
do not fit the residency budget.

100k objects of four short local legs each, hash-split into 16 shards
persisted as per-shard column stores; the ``ShardManager`` may keep a
quarter of the column bytes resident.  One read is one
``sharded_window_intervals`` over a seeded 500 x 500 x 5 window: every
read maps shards from their stores and evicts others to make room, so
store open/validate, CLOCK eviction, pruning and the gather set its
time, not the kernel.
"""

from __future__ import annotations

import gc
import os
import random
import time
from typing import Any, Dict, List, Optional, Tuple

import gen
from lib import (
    CHECK_EVERY, START, Config, HostProbe, InlineCal, Result, Tracer, median,
    ratio, steady, vm_hwm_mb,
)
from repro import obs
from repro.shard import ShardedFleet, ShardManager, sharded_window_intervals
from repro.spatial.bbox import Rect
from repro.vector.columns import UPointColumn
from repro.vector.kernels import window_intervals_batch
from repro.vector.store import ColumnStore

perf = time.perf_counter
WINDOW_SIDE = 500.0
WINDOW_SPAN = 5.0
#: The budget is this fraction of the fleet's upoint column bytes: the
#: working set is four times what may stay resident.
BUDGET_DIVISOR = 4

Read = Tuple[Rect, float, float]


def draw(rng: random.Random) -> Read:
    x0, y0, x1, y1 = gen.square(rng, WINDOW_SIDE)
    # Objects start within [0, 50] and live 20-120 time units.
    t0 = rng.uniform(10.0, 60.0)
    return Rect(x0, y0, x1, y1), t0, t0 + WINDOW_SPAN


class Cold:
    """The persisted sharded fleet and its budgeted manager."""

    def __init__(self, cfg: Config):
        self.timing: Dict[str, float] = {}
        tic = perf()
        self.mappings = gen.local_legs(cfg.seed, cfg.shard_objects)
        self.timing["workloads.generate_s"] = perf() - tic
        self.fleet = ShardedFleet(self.mappings, cfg.shards)
        self.root = cfg.scratch("shards")
        staging = ShardManager(self.fleet, root=self.root)
        tic = perf()
        staging.persist(kinds=("upoint", "bbox"))
        self.timing["shard.persist_s"] = perf() - tic
        self.column_bytes = staging.total_column_bytes()
        self.budget = self.column_bytes // BUDGET_DIVISOR
        self.manager = ShardManager(
            self.fleet, root=self.root, budget=self.budget
        )


def reads(
    manager: ShardManager, rng: random.Random, seconds: float,
    result: Result, kept: List[Tuple[Read, Any]], tracer: Tracer = None,
    host: InlineCal = None,
) -> Tuple[List[Tuple[float, float]], int]:
    """Reads for ``seconds``: ``(completion time, ms)`` of each (none
    when traced: the spans have them) and the interval rows they
    returned.  Every 50th is kept whole; ``host`` samples the host's
    speed between reads."""
    times: List[Tuple[float, float]] = []
    rows = 0
    begin = perf()
    while perf() - begin < seconds:
        if host is not None:
            host.tick()
        what = draw(rng)
        rect, t0, t1 = what
        if tracer is None:
            tic = perf()
            got = sharded_window_intervals(manager, rect, t0, t1)
            done = perf()
            times.append((done, (done - tic) * 1e3))
        else:
            tracer.rid += 1
            with tracer.span("sharded_window_intervals"):
                got = sharded_window_intervals(manager, rect, t0, t1)
        result.attempted += 1
        rows += len(got[0])
        if result.attempted % CHECK_EVERY == 0:
            kept.append((what, got))
    return times, rows


def verify(
    cold: Cold, kept: List[Tuple[Read, Any]], result: Result
) -> Dict[str, float]:
    """Kept reads against ``window_intervals_batch`` on the unsharded
    column, bit for bit; returns how long that column took to build and
    the kernel's median time on it."""
    tic = perf()
    flat = UPointColumn.from_mappings(cold.mappings)
    build_ms = (perf() - tic) * 1e3
    kernel: List[float] = []
    for (rect, t0, t1), got in kept:
        result.attempted += 1
        tic = perf()
        want = window_intervals_batch(flat, rect, t0, t1)
        kernel.append((perf() - tic) * 1e3)
        same = all(
            g.dtype == w.dtype and g.tobytes() == w.tobytes()
            for g, w in zip(got, want)
        )
        if not same:
            result.fail(f"window {rect} [{t0}, {t1}] differs from the "
                        "unsharded kernel")
    return {
        "cache.build_upoint_ms": build_ms,
        "kernels.window_intervals_ms": median(kernel),
    }


def run(cfg: Config, probe: Optional[HostProbe]) -> Result:
    result = Result()
    # See api_scan.setup: collector off while the fleet is built, the
    # fleet frozen out of later collections.
    gc.disable()
    cold = Cold(cfg)
    gc.enable()
    gc.freeze()
    rng = random.Random(cfg.seed * 1_000_003 + 1)
    kept: List[Tuple[Read, Any]] = []
    if probe is None:
        traced(cfg, cold, rng, kept, result)
        return result
    reads(cold.manager, rng, cfg.warmup, result, [])
    now = perf()
    setup_s = (now - START) / probe.factor(START, now)
    probe.stop()  # the reads carry their own calibration
    host = InlineCal()
    begin = perf()
    times, rows = reads(
        cold.manager, rng, cfg.seconds, result, kept, host=host
    )
    # Before the reference column is built: it is not the program's.
    rss = vm_hwm_mb(os.getpid())
    verify(cold, kept, result)
    measured = steady(begin, times, host)
    result.values = {
        "setup_s": setup_s,
        "read_p50_ms": measured["read_p50_ms"],
        "read_p95_ms": measured["read_p95_ms"],
        "reads_per_s": measured["reads_per_s"],
        "peak_rss_mb": rss,
    }
    result.notes = {
        "reads": measured,
        "raw_setup_s": now - START,
        "read_samples": len(times),
        "rows_per_read": ratio(rows, len(times)),
        "column_bytes": cold.column_bytes,
        "budget_bytes": cold.budget,
        "phase_s": {"warmup": cfg.warmup, "measured": cfg.seconds},
        "setup_stages": cold.timing,
    }
    return result


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------

LAYER = (
    "loadgen.samples", "loadgen.rows_per_read",
    "trace.overhead_share", "trace.direct_share",
    "cache.build_upoint_ms", "kernels.window_intervals_ms",
    "parallel.fallbacks",
    "store.cold_open_ms", "store.bytes_mapped", "store.rebuilds",
    "store.disk_bytes_per_column_byte",
    "shard.maps_per_read", "shard.evictions_per_read", "shard.hit_share",
    "shard.pruned_share", "shard.resident_high_water_mb", "shard.persist_s",
    "shard.gather_ms", "shard.fallbacks", "shard.window_unbounded_ms",
    "workloads.generate_s",
)


def exercised(cfg: Config) -> Tuple[str, ...]:
    return LAYER


def spanned(tracer: Tracer, manager: ShardManager) -> None:
    """Open a span around each of the manager's public calls that a read
    nests — on this one manager object, nothing in the program changes."""
    for name in ("column", "prune"):
        inner = getattr(manager, name)

        def outer(*args: Any, _inner=inner, _name=name, **kw: Any) -> Any:
            with tracer.span(f"ShardManager.{_name}"):
                return _inner(*args, **kw)

        setattr(manager, name, outer)


def disk_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _dirs, files in os.walk(root) for f in files
    )


def traced(
    cfg: Config, cold: Cold, rng: random.Random,
    kept: List[Tuple[Read, Any]], result: Result,
) -> None:
    tracer = Tracer()
    values: Dict[str, float] = dict(cold.timing)

    # One shard's column opened straight from its store, nothing cached.
    opens: List[float] = []
    for s in range(cfg.shards):
        store = ColumnStore(os.path.join(cold.root, f"shard_{s:03d}"))
        tic = perf()
        store.load("upoint")
        opens.append((perf() - tic) * 1e3)
    values["store.cold_open_ms"] = median(opens)

    reads(cold.manager, rng, cfg.warmup, result, [])
    plain = [ms for _done, ms in reads(
        cold.manager, rng, 0.25 * cfg.seconds, result, []
    )[0]]
    # The same reads with every shard allowed to stay resident: the
    # difference to the budgeted reads is the price of residency.
    roomy = ShardManager(cold.fleet, root=cold.root)
    reads(roomy, rng, cfg.warmup, result, [])
    unbounded = [ms for _done, ms in reads(
        roomy, rng, 0.15 * cfg.seconds, result, []
    )[0]]
    roomy.evict_all()

    spanned(tracer, cold.manager)
    with obs.capture() as counters:
        _times, rows = reads(
            cold.manager, rng, 0.6 * cfg.seconds, result, kept, tracer
        )
        snap = counters.snapshot()
    count = len(tracer.durations_ms()["sharded_window_intervals"])
    c = snap["counters"]
    d = {k: median(v) for k, v in tracer.durations_ms().items()}
    self_ms = {k: median(v) for k, v in tracer.self_ms().items()}
    values.update(verify(cold, kept, result))
    read_ms = d["sharded_window_intervals"]
    values.update({
        "loadgen.samples": count,
        "loadgen.rows_per_read": ratio(rows, count),
        "trace.overhead_share": read_ms / median(plain) - 1.0,
        # Directly timed: the manager calls nested in the read.  The
        # rest — per-shard kernels and the gather — is one residual.
        "trace.direct_share": 1.0 - ratio(
            self_ms["sharded_window_intervals"], read_ms
        ),
        "shard.gather_ms": self_ms["sharded_window_intervals"],
        "parallel.fallbacks": ratio(c.get("parallel.fallback", 0), count),
        "store.bytes_mapped": ratio(c.get("colstore.bytes_mapped", 0), count),
        "store.rebuilds": c.get("colstore.rebuilds", 0),
        "store.disk_bytes_per_column_byte": ratio(
            disk_bytes(cold.root),
            cold.column_bytes + cold.manager.total_column_bytes("bbox"),
        ),
        "shard.maps_per_read": ratio(c.get("shard.maps", 0), count),
        "shard.evictions_per_read": ratio(c.get("shard.evictions", 0), count),
        "shard.hit_share": ratio(
            c.get("shard.hits", 0),
            c.get("shard.hits", 0) + c.get("shard.maps", 0),
        ),
        "shard.pruned_share":
            ratio(c.get("shard.pruned", 0), count * cfg.shards),
        "shard.resident_high_water_mb":
            snap["gauges"].get("shard.resident_bytes", 0.0) / 2 ** 20,
        "shard.fallbacks": c.get("shard.fallback", 0),
        "shard.window_unbounded_ms": median(unbounded),
    })
    tracer.write(cfg.spans_path)
    result.values = values
    result.notes = {
        "plain_read_p50_ms": median(plain), "traced_read_p50_ms": read_ms,
        "plain_samples": len(plain), "unbounded_samples": len(unbounded),
        "column_bytes": cold.column_bytes, "budget_bytes": cold.budget,
        "manager_call_ms": {
            k: v for k, v in d.items() if k.startswith("ShardManager.")
        },
        "spans": len(tracer.spans),
    }
