"""``api_scan_warm``: the fleet-level API and SQL, in process, columns
resident.

One read is one pass of a fixed cycle over a 100k-object fleet:
``fleet_atinstant``, ``fleet_count_inside``, ``fleet_bbox_filter`` and
``WindowQueryEngine.query`` on the vector backend, the same four on the
parallel backend, then three SQL statements over a materialized
``planes`` relation.  One thread, no socket: kernels, dispatch, column
transport and result materialisation are all there is.
"""

from __future__ import annotations

import gc
import os
import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import gen
from lib import (
    START, Config, HostProbe, InlineCal, Result, Tracer, median, ratio, steady,
    vm_hwm_mb,
)
from repro import obs
from repro.db import Database
from repro.db.sql import explain
from repro.ops.window import WindowQueryEngine
from repro.parallel import (
    parallel_atinstant, parallel_bbox_filter, parallel_count_inside,
    parallel_window_intervals, pool, shmcol,
)
from repro.spatial.bbox import Cube, Rect
from repro.vector.cache import Fleet, column_for
from repro.vector.fleet import (
    fleet_atinstant, fleet_bbox_filter, fleet_count_inside, set_backend,
)
from repro.vector.kernels import (
    atinstant_batch, bbox_filter_batch, inside_prefilter,
    window_intervals_batch,
)
from repro.workloads.regions import regular_polygon
from repro.workloads.trajectories import FlightGenerator

perf = time.perf_counter
WORKERS = min(2, os.cpu_count() or 1)
#: Every this-many-th object is checked against the scalar reference in
#: the first cycle (the whole fleet through per-object Python would take
#: longer than the measured phase).
SCALAR_STRIDE = 10
#: Legs per plane of the SQL relation, in rotation: the 32-leg flights
#: serialize past the inline threshold, so a quarter of the tuples keep
#: their unit arrays in FLOB pages behind the buffer pool.
PLANE_LEGS = (4, 4, 4, 32)
AIRLINES = ("Lufthansa", "AirFrance", "KLM")


class Scan:
    """The fleet, its engines, and the seeded parameters of the cycle."""

    def __init__(self, cfg: Config):
        self.timing: Dict[str, float] = {}
        rng = random.Random(cfg.seed)
        tic = perf()
        mappings = gen.flights(cfg.seed, cfg.api_objects)
        self.timing["workloads.generate_s"] = perf() - tic
        self.mappings = mappings
        self.fleet = Fleet(mappings)
        tic = perf()
        self.col = column_for(self.fleet, "upoint")
        self.timing["cache.build_upoint_ms"] = (perf() - tic) * 1e3
        tic = perf()
        self.bbox = column_for(self.fleet, "bbox")
        self.timing["cache.build_bbox_ms"] = (perf() - tic) * 1e3
        tic = perf()
        self.engine = WindowQueryEngine()
        self.engine.add_fleet(enumerate(mappings))
        self.timing["rtree.bulk_load_s"] = perf() - tic

        self.db = Database("bench")
        planes = self.db.create_relation(
            "planes",
            [("airline", "string"), ("id", "string"), ("flight", "mpoint")],
            materialized=True,
        )
        plane_gen = FlightGenerator(seed=cfg.seed + 1)
        self.user_bytes = 0
        for i in range(cfg.planes):
            flight = plane_gen.flight(legs=PLANE_LEGS[i % len(PLANE_LEGS)])
            airline, ident = AIRLINES[i % 3], f"F{i:05d}"
            planes.insert([airline, ident, flight])
            # 6 float64 and 2 closedness flags define one upoint unit.
            self.user_bytes += len(airline) + len(ident) + 50 * len(flight.units)
        self.planes = planes
        # The SQL layer has no per-call backend argument.
        set_backend("vector")

        # The cycle's parameters sit near the middle of the world and of
        # the busy period, jittered by the seed: random-waypoint traffic
        # is densest there, and how much work an operation does should
        # depend on the fleet, not on where a draw happened to land.
        horizon = gen.busy_horizon(mappings)
        mid = gen.WORLD / 2.0
        self.t = rng.uniform(0.45, 0.55) * horizon

        def near_middle(side: float) -> Tuple[float, float, float, float]:
            x = mid - side / 2.0 + rng.uniform(-250.0, 250.0)
            y = mid - side / 2.0 + rng.uniform(-250.0, 250.0)
            return (x, y, x + side, y + side)

        centre = (mid + rng.uniform(-250.0, 250.0),
                  mid + rng.uniform(-250.0, 250.0))
        self.region = regular_polygon(centre, 2000.0, 12)
        x, y, x1, y1 = near_middle(1000.0)
        self.cube = Cube(x, y, self.t, x1, y1, self.t + 100.0)
        wx, wy, wx1, wy1 = near_middle(500.0)
        self.rect = Rect(wx, wy, wx1, wy1)
        self.t0, self.t1 = self.t, self.t + 50.0
        self.sql = {
            "q1": "SELECT airline, id FROM planes WHERE airline = "
                  "``Lufthansa'' AND length(trajectory(flight)) > 5000",
            "present": f"SELECT id FROM planes WHERE present(flight, {self.t!r})",
            "passes_window":
                "SELECT id FROM planes WHERE passes_window(flight, "
                f"{wx!r}, {wy!r}, {wx1!r}, {wy1!r}, {self.t0!r}, {self.t1!r})",
        }

    def ops(self) -> List[Tuple[str, Callable[[], Any]]]:
        """The cycle, in order: ``(span name, call)``."""
        out: List[Tuple[str, Callable[[], Any]]] = []
        for backend in ("vector", "parallel"):
            kw: Dict[str, Any] = {"backend": backend}
            if backend == "parallel":
                kw["workers"] = WORKERS
            out += [
                (f"fleet_atinstant.{backend}",
                 lambda kw=kw: fleet_atinstant(self.fleet, self.t, **kw)),
                (f"fleet_count_inside.{backend}",
                 lambda kw=kw: fleet_count_inside(
                     self.fleet, self.t, self.region, **kw)),
                (f"fleet_bbox_filter.{backend}",
                 lambda kw=kw: fleet_bbox_filter(self.fleet, self.cube, **kw)),
                (f"window.query.{backend}",
                 lambda kw=kw: self.engine.query(
                     self.rect, self.t0, self.t1, **kw)),
            ]
        for name, text in self.sql.items():
            out.append((f"sql.{name}", lambda text=text: self.db.query(text)))
        return out


def digest(name: str, value: Any) -> Any:
    """A comparable, backend-independent form of one operation's result."""
    if name.startswith("fleet_atinstant"):
        return [None if p is None else (p.x, p.y) for p in value]
    if name.startswith("fleet_count_inside"):
        return (value[0], list(value[1]))
    if name.startswith("window.query"):
        return [
            (key, [(iv.s, iv.e, iv.lc, iv.rc) for iv in times.intervals])
            for key, times in value
        ]
    if name.startswith("sql."):
        return sorted(
            tuple(str(v.value) for v in row.values()) for row in value
        )
    return list(value)


def size(name: str, value: Any) -> int:
    """How many results an operation returned (the per-pass check)."""
    if name.startswith("fleet_atinstant"):
        return sum(p is not None for p in value)
    if name.startswith("fleet_count_inside"):
        return value[0]
    return len(value)


def first_cycle(scan: Scan, result: Result) -> Dict[str, int]:
    """Warm every layer and establish vector ≡ parallel ≡ scalar.

    Returns the result sizes every later pass must reproduce.
    """
    got = {name: call() for name, call in scan.ops()}
    for name in list(got):
        if not name.endswith(".vector"):
            continue
        result.attempted += 1
        twin = name[:-len("vector")] + "parallel"
        if digest(name, got[name]) != digest(twin, got[twin]):
            result.fail(f"{name} differs from {twin}")
    stride = SCALAR_STRIDE
    sample = scan.mappings[::stride]
    checks = [
        ("fleet_atinstant.vector",
         digest("fleet_atinstant", got["fleet_atinstant.vector"])[::stride],
         digest("fleet_atinstant",
                fleet_atinstant(sample, scan.t, backend="scalar"))),
        ("fleet_count_inside.vector",
         list(got["fleet_count_inside.vector"][1])[::stride],
         list(fleet_count_inside(
             sample, scan.t, scan.region, backend="scalar")[1])),
        ("fleet_bbox_filter.vector",
         [i for i in got["fleet_bbox_filter.vector"] if i % stride == 0],
         [i * stride for i in
          fleet_bbox_filter(sample, scan.cube, backend="scalar")]),
        ("window.query.vector",
         digest("window.query", got["window.query.vector"]),
         digest("window.query", scan.engine.query(
             scan.rect, scan.t0, scan.t1, backend="scalar"))),
    ]
    set_backend("scalar")
    try:
        for name, text in scan.sql.items():
            checks.append((
                f"sql.{name}", digest("sql.", got[f"sql.{name}"]),
                digest("sql.", scan.db.query(text)),
            ))
    finally:
        set_backend("vector")
    for name, have, want in checks:
        result.attempted += 1
        if have != want:
            result.fail(f"{name} differs from the scalar reference")
    return {name: size(name, value) for name, value in got.items()}


def one_pass(
    scan: Scan, sizes: Dict[str, int], result: Result, tracer: Tracer = None,
) -> None:
    """Run the cycle once; every operation's result size is checked."""
    for name, call in scan.ops():
        if tracer is None:
            value = call()
        else:
            with tracer.span(name):
                value = call()
        if size(name, value) != sizes[name]:
            result.fail(f"{name}: {size(name, value)} results, first cycle "
                        f"had {sizes[name]}")
    result.attempted += 1


def passes(
    scan: Scan, sizes: Dict[str, int], result: Result, seconds: float,
    host: InlineCal = None,
) -> List[Tuple[float, float]]:
    """Untraced passes for ``seconds`` (three at least): ``(completion
    time, ms)`` of each; ``host`` samples the host's speed between
    them."""
    times: List[Tuple[float, float]] = []
    begin = perf()
    while perf() - begin < seconds or len(times) < 3:
        if host is not None:
            host.tick()
        tic = perf()
        one_pass(scan, sizes, result)
        done = perf()
        times.append((done, (done - tic) * 1e3))
    return times


def setup(cfg: Config, result: Result) -> Tuple[Scan, Dict[str, int]]:
    # Building a few million small objects with the cyclic collector on
    # spends a third of the time re-traversing them; freezing them
    # afterwards keeps full collections during the timed passes from
    # walking the fleet again.
    gc.disable()
    scan = Scan(cfg)
    sizes = first_cycle(scan, result)
    gc.enable()
    gc.freeze()
    return scan, sizes


def run(cfg: Config, probe: Optional[HostProbe]) -> Result:
    result = Result()
    try:
        scan, sizes = setup(cfg, result)
        if probe is None:
            traced(cfg, scan, sizes, result)
            return result
        now = perf()
        setup_s = (now - START) / probe.factor(START, now)
        probe.stop()  # the passes carry their own calibration
        host = InlineCal()
        begin = perf()
        times = passes(scan, sizes, result, cfg.seconds, host)
        measured = steady(begin, times, host)
        result.values = {
            "setup_s": setup_s,
            "read_p50_ms": measured["read_p50_ms"],
            "read_p95_ms": measured["read_p95_ms"],
            "reads_per_s": measured["reads_per_s"],
            "peak_rss_mb": vm_hwm_mb(os.getpid()),
        }
        result.notes = {
            "reads": measured,
            "raw_setup_s": now - START,
            "read_samples": len(times),
            "workers": WORKERS,
            "result_sizes": sizes,
            "phase_s": {"measured": cfg.seconds},
            "setup_stages": scan.timing,
        }
        return result
    finally:
        pool.shutdown()
        shmcol.release_all()


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------

LAYER = (
    "loadgen.samples", "loadgen.rows_per_read",
    "trace.overhead_share", "trace.direct_share",
    "colcache.hit_share", "cache.build_upoint_ms", "cache.build_bbox_ms",
    "kernels.atinstant_ms", "kernels.window_intervals_ms",
    "kernels.bbox_filter_ms", "kernels.inside_prefilter_ms",
    "kernels.rows_per_call",
    "fleet.atinstant_ms", "fleet.count_inside_ms", "fleet.bbox_filter_ms",
    "fleet.materialize_ms", "fleet.fallbacks",
    "window.query_ms", "window.candidates_per_hit",
    "rtree.nodes_per_search", "rtree.bulk_load_s",
    "parallel.atinstant_ms", "parallel.window_ms", "parallel.count_inside_ms",
    "parallel.bbox_filter_ms", "parallel.pack_ms", "parallel.first_call_ms",
    "parallel.chunks", "parallel.fallbacks", "parallel.speedup_vs_vector",
    "sql.q1_ms", "sql.present_ms", "sql.passes_window_ms", "sql.plan_us",
    "buffer.hit_share", "storage.page_reads_per_row",
    "storage.flob_reads_per_row", "storage.bytes_per_user_byte",
    "workloads.generate_s",
)


def exercised(cfg: Config) -> Tuple[str, ...]:
    return LAYER


def probes(scan: Scan, tracer: Tracer) -> None:
    """The public calls the cycle's operations nest, one span each."""
    with tracer.span("probes"):
        with tracer.span("atinstant_batch"):
            xs, ys, defined = atinstant_batch(scan.col, scan.t)
        idx = np.flatnonzero(defined)
        pts = np.column_stack([xs[idx], ys[idx]])
        with tracer.span("inside_prefilter"):
            inside_prefilter(pts, scan.region)
        with tracer.span("bbox_filter_batch"):
            bbox_filter_batch(scan.bbox, scan.cube)
        with tracer.span("window_intervals_batch"):
            window_intervals_batch(scan.col, scan.rect, scan.t0, scan.t1)
        with tracer.span("parallel_atinstant"):
            parallel_atinstant(scan.col, scan.t, workers=WORKERS)
        with tracer.span("parallel_count_inside"):
            parallel_count_inside(scan.col, scan.region, scan.t, workers=WORKERS)
        with tracer.span("parallel_bbox_filter"):
            parallel_bbox_filter(scan.bbox, scan.cube, workers=WORKERS)
        with tracer.span("parallel_window_intervals"):
            parallel_window_intervals(
                scan.col, scan.rect, scan.t0, scan.t1, workers=WORKERS
            )
        for text in scan.sql.values():
            with tracer.span("sql.explain"):
                explain(scan.db, text)


def traced(
    cfg: Config, scan: Scan, sizes: Dict[str, int], result: Result
) -> None:
    tracer = Tracer()
    values: Dict[str, float] = dict(scan.timing)

    # Cold transport: one pack of the column into shared memory, and the
    # first parallel call after the pool and its segments are gone.
    tic = perf()
    _descriptor, segment = shmcol.pack(scan.col)
    values["parallel.pack_ms"] = (perf() - tic) * 1e3
    segment.close()
    segment.unlink()
    pool.shutdown()
    shmcol.release_all()
    tic = perf()
    parallel_atinstant(scan.col, scan.t, workers=WORKERS)
    values["parallel.first_call_ms"] = (perf() - tic) * 1e3

    plain = [
        ms for _done, ms in passes(scan, sizes, result, 0.3 * cfg.seconds)
    ]

    hits_unit = hits_window = searches = nodes = 0
    rows_scanned = 0
    begin = perf()
    with obs.capture() as counters:
        count = 0
        while perf() - begin < 0.7 * cfg.seconds or count < 2:
            tracer.rid += 1
            count += 1
            with tracer.span("pass"):
                with tracer.span("cycle"):
                    one_pass(scan, sizes, result, tracer)
                    rows_scanned += len(scan.sql) * len(scan.planes)
                probes(scan, tracer)
                # The window query once more, alone, so the counters
                # moved are its own: unit cubes its filter step let
                # through (vector), tree nodes its descent visited
                # (scalar).
                before = counters.get("vector.bbox_filter.hits")
                with tracer.span("window.query.vector.alone"):
                    hits_window += len(scan.engine.query(
                        scan.rect, scan.t0, scan.t1, backend="vector"
                    ))
                hits_unit += counters.get("vector.bbox_filter.hits") - before
                before = counters.get("rtree.nodes_visited")
                with tracer.span("window.query.scalar"):
                    scan.engine.query(
                        scan.rect, scan.t0, scan.t1, backend="scalar"
                    )
                nodes += counters.get("rtree.nodes_visited") - before
                searches += 1
        snap = counters.snapshot()["counters"]

    d = {k: median(v) for k, v in tracer.durations_ms().items()}
    self_ms = {k: median(v) for k, v in tracer.self_ms().items()}
    cache_hits = snap.get("colcache.hits", 0)
    buffer_hits = snap.get("buffer.hits", 0)
    stats = scan.planes.storage_stats()
    stored = stats["tuple_bytes"] + (
        scan.planes.store.pagefile.page_count
        * scan.planes.store.pagefile.page_size
    )
    values.update({
        "loadgen.samples": count,
        "loadgen.rows_per_read": sizes["fleet_atinstant.vector"],
        "trace.overhead_share": d["cycle"] / median(plain) - 1.0,
        # The cycle's time not inside one of its eleven operation spans
        # is loop and span bookkeeping.
        "trace.direct_share": 1.0 - ratio(self_ms["cycle"], d["cycle"]),
        "colcache.hit_share": ratio(
            cache_hits,
            cache_hits + snap.get("colcache.misses", 0)
            + snap.get("colcache.extended", 0),
        ),
        "kernels.atinstant_ms": d["atinstant_batch"],
        "kernels.window_intervals_ms": d["window_intervals_batch"],
        "kernels.bbox_filter_ms": d["bbox_filter_batch"],
        "kernels.inside_prefilter_ms": d["inside_prefilter"],
        "kernels.rows_per_call": ratio(
            snap.get("vector.atinstant_batch.rows", 0),
            snap.get("vector.atinstant_batch.calls", 0),
        ),
        "fleet.atinstant_ms": d["fleet_atinstant.vector"],
        "fleet.count_inside_ms": d["fleet_count_inside.vector"],
        "fleet.bbox_filter_ms": d["fleet_bbox_filter.vector"],
        "fleet.materialize_ms":
            d["fleet_atinstant.vector"] - d["atinstant_batch"],
        "fleet.fallbacks": snap.get("vector.fallback_to_scalar", 0),
        "window.query_ms": d["window.query.vector"],
        "window.candidates_per_hit": ratio(hits_unit, hits_window),
        "rtree.nodes_per_search": ratio(nodes, searches),
        "parallel.atinstant_ms": d["parallel_atinstant"],
        "parallel.window_ms": d["parallel_window_intervals"],
        "parallel.count_inside_ms": d["parallel_count_inside"],
        "parallel.bbox_filter_ms": d["parallel_bbox_filter"],
        "parallel.chunks": ratio(snap.get("parallel.chunks", 0), count),
        "parallel.fallbacks": snap.get("parallel.fallback", 0),
        "parallel.speedup_vs_vector":
            ratio(d["atinstant_batch"], d["parallel_atinstant"]),
        "sql.q1_ms": d["sql.q1"],
        "sql.present_ms": d["sql.present"],
        "sql.passes_window_ms": d["sql.passes_window"],
        "sql.plan_us": d["sql.explain"] * 1e3,
        "buffer.hit_share":
            ratio(buffer_hits, buffer_hits + snap.get("buffer.misses", 0)),
        "storage.page_reads_per_row":
            ratio(snap.get("storage.page_reads", 0), rows_scanned),
        "storage.flob_reads_per_row":
            ratio(snap.get("storage.flob_reads", 0), rows_scanned),
        "storage.bytes_per_user_byte": ratio(stored, scan.user_bytes),
    })
    tracer.write(cfg.spans_path)
    result.values = values
    result.notes = {
        "plain_read_p50_ms": median(plain), "traced_read_p50_ms": d["cycle"],
        "plain_samples": len(plain), "workers": WORKERS,
        "speedup_base_ms": d["atinstant_batch"],
        "spans": len(tracer.spans), "storage_stats": stats,
    }
