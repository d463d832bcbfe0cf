"""V7: the query service — sustained qps under concurrent ingest.

Claim under test: snapshot-isolated reads do not collapse when the
write path is live.  With 4 client workers issuing whole-fleet
``SNAPSHOT`` queries over the wire, adding a continuous ``INGEST``
stream (WAL-durable, group-committed) keeps sustained throughput at
**≥ 0.5×** the no-ingest baseline — the lock is held per request, the
column cache splices forward instead of rebuilding, and the group
committer amortizes the fsync.

A *degraded-mode* run rides along (PR 9): 10% of responses dropped
after the work (``server.conn_drop``); the claim is that client-visible
failures stay at zero (retries + dedup absorb the chaos).  The killed
fork worker and the overload phase are rows of ``python -m repro
chaos-matrix``.

Runs as pytest (the quick ``smoke`` tests — start → ingest → query →
shutdown — are wired into scripts/check.sh); sustained throughput and
latency are the ``wire_*`` workloads of ``benchmarks/e2e/run.py``.
"""

import threading
import time
from typing import Dict, List, Optional

from repro import faults, obs
from repro.server.client import ServerClient
from repro.server.executor import FleetExecutor
from repro.server.session import RunningServer, serve_in_thread
from repro.storage.wal import Wal
from repro.workloads.trajectories import FlightGenerator

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
    fault_spec: Optional[str] = None,
) -> Dict[str, float]:
    """One traffic phase; optionally degraded (``fault_spec``).

    A degraded phase also reports the resilience counters:
    ``shed`` (requests answered Overloaded), ``client_retries``,
    ``shed_rate``, and ``client_errors`` (failures the retry budget
    could not absorb — the headline number, expected 0).
    """
    wal = Wal() if with_ingest else None
    run = start_server(mappings, wal=wal)
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
    degraded = fault_spec is not None
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
