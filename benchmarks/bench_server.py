"""V7: the query service — sustained qps under concurrent ingest.

Claim under test: snapshot-isolated reads do not collapse when the
write path is live.  With 4 client workers issuing whole-fleet
``SNAPSHOT`` queries over the wire, adding a continuous ``INGEST``
stream (WAL-durable, group-committed) keeps sustained throughput at
**≥ 0.5×** the no-ingest baseline — the lock is held per request, the
column cache splices forward instead of rebuilding, and the group
committer amortizes the fsync.

Two degradation phases ride along (PR 9): a *degraded-mode* run — 10%
of responses dropped after the work (``server.conn_drop``) plus one
SIGKILLed fork worker mid-query — and an *overload* run that saturates
admission control (``max_inflight=2`` against 3× the query workers).
Both record p50/p99 and the shed/retry counters into the JSON; the
claim is that client-visible failures stay at zero (retries + dedup
absorb the chaos) and the p99 of *admitted* requests stays bounded.

Runs both as pytest (the quick ``smoke`` tests — start → ingest →
query → shutdown — are wired into scripts/check.sh) and as a script::

    python benchmarks/bench_server.py --json BENCH_server.json
"""

import argparse
import json
import os
import tempfile
import threading
import time
from typing import Dict, List, Optional

from repro import faults, obs
from repro.server.client import ServerClient
from repro.server.executor import FleetExecutor
from repro.server.session import RunningServer, serve_in_thread
from repro.storage.wal import Wal
from repro.workloads.trajectories import FlightGenerator

FLEET_SIZE = 500
WORKERS = 4
DURATION_S = 2.0
QUERY_T = 60.0

#: Fault plan of the degraded-mode phase: one in ten responses vanishes
#: after the work is done (seeded, so runs are comparable).
DEGRADED_FAULTS = "server.conn_drop=prob:0.1:2026"


def build_mappings(objects: int, seed: int = 2000):
    gen = FlightGenerator(seed=seed)
    return [gen.flight(legs=4) for _ in range(objects)]


def start_server(
    mappings, wal: Optional[Wal] = None, **kwargs
) -> RunningServer:
    executor = FleetExecutor()
    executor.register_fleet("fleet", mappings)
    return serve_in_thread(executor, wal=wal, **kwargs)


def _query_worker(
    port: int, stop: threading.Event, latencies: List[float],
    errors: List[str],
) -> None:
    try:
        with ServerClient("127.0.0.1", port) as client:
            while not stop.is_set():
                tic = time.perf_counter()
                client.snapshot("fleet", QUERY_T)
                latencies.append(time.perf_counter() - tic)
    except Exception as exc:
        errors.append(f"query: {type(exc).__name__}: {exc}")


def _ingest_worker(
    port: int, stop: threading.Event, counter: List[int], objects: int,
    errors: List[str],
) -> None:
    """A continuous WAL-durable ingest stream, rotating over the fleet."""
    t0 = 1.0e6
    try:
        with ServerClient("127.0.0.1", port) as client:
            k = 0
            while not stop.is_set():
                obj = k % objects
                start = t0 + 10.0 * (k // objects)
                client.ingest(
                    "fleet", obj, (start, 0.0, 0.0, start + 8.0, 5.0, 5.0)
                )
                counter[0] += 1
                k += 1
    except Exception as exc:
        errors.append(f"ingest: {type(exc).__name__}: {exc}")


def measure_qps(
    mappings,
    duration: float,
    workers: int,
    with_ingest: bool,
    wal_path: Optional[str] = None,
    fault_spec: Optional[str] = None,
    max_inflight: Optional[int] = None,
) -> Dict[str, float]:
    """One traffic phase; optionally degraded (``fault_spec``) and/or
    admission-limited (``max_inflight``).

    Degraded/limited phases also report the resilience counters:
    ``shed`` (requests answered Overloaded), ``client_retries``,
    ``shed_rate``, and ``client_errors`` (failures the retry budget
    could not absorb — the headline number, expected 0).
    """
    wal = Wal(wal_path) if wal_path else (Wal() if with_ingest else None)
    server_kwargs = {}
    if max_inflight is not None:
        server_kwargs["max_inflight"] = max_inflight
    run = start_server(mappings, wal=wal, **server_kwargs)
    stop = threading.Event()
    latencies: List[List[float]] = [[] for _ in range(workers)]
    ingested = [0]
    errors: List[str] = []
    threads = [
        threading.Thread(
            target=_query_worker,
            args=(run.port, stop, latencies[i], errors),
        )
        for i in range(workers)
    ]
    if with_ingest:
        threads.append(
            threading.Thread(
                target=_ingest_worker,
                args=(run.port, stop, ingested, len(mappings), errors),
            )
        )
    degraded = fault_spec is not None or max_inflight is not None
    if degraded:
        obs.enable()
        shed0 = obs.get("server.shed")
        retries0 = obs.get("client.retries")
    if fault_spec:
        faults.arm_spec(fault_spec)
    try:
        for th in threads:
            th.start()
        time.sleep(duration)
        stop.set()
        for th in threads:
            th.join(timeout=20)
    finally:
        faults.disarm()
    run.stop()
    if wal is not None:
        wal.close()
    samples = sorted(s for lane in latencies for s in lane)
    queries = len(samples)
    out = {
        "queries": queries,
        "qps": queries / duration,
        "p50_ms": 1000.0 * samples[int(0.50 * (queries - 1))] if samples else 0.0,
        "p99_ms": 1000.0 * samples[int(0.99 * (queries - 1))] if samples else 0.0,
    }
    if with_ingest:
        out["units_ingested"] = ingested[0]
    if degraded:
        shed = obs.get("server.shed") - shed0
        out["shed"] = shed
        out["client_retries"] = obs.get("client.retries") - retries0
        total = queries + shed
        out["shed_rate"] = shed / total if total else 0.0
        out["client_errors"] = len(errors)
    return out


def measure_worker_kill(seed: int = 2026) -> Dict[str, float]:
    """Time a parallel window query through one SIGKILLed fork worker.

    The pool must detect the death, respawn, retry the lost chunks,
    and still return the bit-identical result; the entry records the
    recovery cost next to an unfaulted run of the same query.
    """
    import numpy as np

    from repro import config
    from repro.faultmatrix import track as _track
    from repro.parallel import parallel_window_intervals, pool, shmcol
    from repro.spatial.bbox import Rect
    from repro.vector.store import _BUILDERS

    n = max(config.PARALLEL_MIN_OBJECTS, 1024) + 64
    col = _BUILDERS["upoint"]([_track(seed, i) for i in range(n)])
    rect = Rect(0.0, 0.0, 60.0, 60.0)
    obs.enable()
    pool.shutdown()
    shmcol.release_all()
    try:
        tic = time.perf_counter()
        clean = parallel_window_intervals(col, rect, 0.0, 12.0, workers=4)
        clean_s = time.perf_counter() - tic
        deaths0 = obs.get("parallel.worker_deaths")
        retries0 = obs.get("parallel.chunk_retries")
        faults.arm("parallel.worker_kill", "once")
        tic = time.perf_counter()
        killed = parallel_window_intervals(col, rect, 0.0, 12.0, workers=4)
        killed_s = time.perf_counter() - tic
    finally:
        faults.disarm()
        pool.shutdown()
        shmcol.release_all()
    identical = all(np.array_equal(a, b) for a, b in zip(killed, clean))
    return {
        "objects": n,
        "clean_ms": 1000.0 * clean_s,
        "killed_ms": 1000.0 * killed_s,
        "worker_deaths": obs.get("parallel.worker_deaths") - deaths0,
        "chunk_retries": obs.get("parallel.chunk_retries") - retries0,
        "result_identical": identical,
    }


# ---------------------------------------------------------------------------
# pytest: the fast smoke wired into scripts/check.sh
# ---------------------------------------------------------------------------


def test_v7_smoke_lifecycle():
    """Start → ingest → query → shutdown, over the wire, in one breath."""
    mappings = build_mappings(8, seed=7)
    wal = Wal()
    run = start_server(mappings, wal=wal)
    try:
        with ServerClient("127.0.0.1", run.port) as client:
            before = client.snapshot("fleet", QUERY_T)
            assert int(before.fields["objects"]) == 8
            units = client.ingest(
                "fleet", 0, (1.0e6, 0.0, 0.0, 1.0e6 + 8.0, 2.0, 2.0)
            )
            assert units == len(mappings[0].units) + 1
            after = client.snapshot("fleet", 1.0e6 + 4.0)
            assert len(after.rows) == 1  # only the freshly fed object
            assert int(after.fields["version"]) > int(before.fields["version"])
            stats = client.stats()
            assert stats.stat("fleet.fleet.objects") == "8"
    finally:
        run.stop()
        wal.close()


def test_v7_smoke_concurrent_ingest_qps():
    """A short sustained run with live ingest still answers queries."""
    mappings = build_mappings(32, seed=11)
    result = measure_qps(
        mappings, duration=0.5, workers=2, with_ingest=True
    )
    assert result["queries"] > 0
    assert result["units_ingested"] > 0


def test_v7_smoke_degraded_conn_drop():
    """10% dropped responses: retries absorb every one, zero failures."""
    mappings = build_mappings(16, seed=13)
    result = measure_qps(
        mappings, duration=0.5, workers=2, with_ingest=True,
        fault_spec=DEGRADED_FAULTS,
    )
    assert result["queries"] > 0
    assert result["client_errors"] == 0


# ---------------------------------------------------------------------------
# script: the sustained-throughput measurement
# ---------------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--objects", type=int, default=FLEET_SIZE)
    parser.add_argument("--duration", type=float, default=DURATION_S)
    parser.add_argument("--workers", type=int, default=WORKERS)
    parser.add_argument("--json", default=None, metavar="PATH")
    args = parser.parse_args()

    mappings = build_mappings(args.objects)
    print(
        f"fleet: {args.objects} objects; {args.workers} query workers; "
        f"{args.duration:g}s per phase"
    )

    baseline = measure_qps(
        mappings, args.duration, args.workers, with_ingest=False
    )
    print(
        f"baseline (no ingest):   {baseline['qps']:8.1f} qps   "
        f"p50 {baseline['p50_ms']:.2f} ms   p99 {baseline['p99_ms']:.2f} ms"
    )

    tmp = tempfile.mkdtemp(prefix="bench_server_")
    wal_path = os.path.join(tmp, "ingest.wal")
    loaded = measure_qps(
        mappings, args.duration, args.workers, with_ingest=True,
        wal_path=wal_path,
    )
    print(
        f"with concurrent ingest: {loaded['qps']:8.1f} qps   "
        f"p50 {loaded['p50_ms']:.2f} ms   p99 {loaded['p99_ms']:.2f} ms   "
        f"({loaded['units_ingested']} units ingested, WAL-durable)"
    )

    ratio = loaded["qps"] / baseline["qps"] if baseline["qps"] else 0.0
    print(f"qps ratio (ingest / baseline): {ratio:.2f}")
    assert ratio >= 0.5, (
        f"sustained qps under ingest fell to {ratio:.2f}x of baseline"
    )

    degraded = measure_qps(
        mappings, args.duration, args.workers, with_ingest=True,
        wal_path=os.path.join(tmp, "degraded.wal"),
        fault_spec=DEGRADED_FAULTS,
    )
    print(
        f"degraded (10% drops):   {degraded['qps']:8.1f} qps   "
        f"p50 {degraded['p50_ms']:.2f} ms   p99 {degraded['p99_ms']:.2f} ms   "
        f"({degraded['client_retries']} retries, "
        f"{degraded['client_errors']} client errors)"
    )
    assert degraded["client_errors"] == 0, (
        "conn drops leaked through the retry budget: "
        f"{degraded['client_errors']} client-visible failures"
    )

    kill = measure_worker_kill()
    print(
        f"worker kill:            clean {kill['clean_ms']:.1f} ms → "
        f"killed {kill['killed_ms']:.1f} ms   "
        f"({kill['worker_deaths']} death(s), "
        f"{kill['chunk_retries']} chunk(s) retried, "
        f"identical={kill['result_identical']})"
    )
    assert kill["result_identical"], (
        "post-respawn parallel result differs from the clean run"
    )

    overload = measure_qps(
        mappings, args.duration, 3 * args.workers, with_ingest=False,
        max_inflight=2,
    )
    print(
        f"overload (inflight=2):  {overload['qps']:8.1f} qps   "
        f"p50 {overload['p50_ms']:.2f} ms   p99 {overload['p99_ms']:.2f} ms   "
        f"(shed rate {overload['shed_rate']:.2f}, "
        f"{overload['client_errors']} client errors)"
    )
    assert overload["client_errors"] == 0, (
        "admission control produced client-visible failures: "
        f"{overload['client_errors']}"
    )

    if args.json:
        doc = {
            "fleet_size": args.objects,
            "workers": args.workers,
            "duration_s": args.duration,
            "baseline": baseline,
            "with_ingest": loaded,
            "qps_ratio": ratio,
            "degraded": degraded,
            "worker_kill": kill,
            "overload": overload,
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
