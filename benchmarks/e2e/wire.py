"""The wire workloads: clients of ``repro serve`` over its line protocol.

``wire_snapshot_full``  two closed-loop connections, whole-fleet
                        ``SNAPSHOT`` replies, no ingest.
``wire_window_ingest``  one closed-loop connection issuing ~1 % window
                        reads beside one open-loop ``INGEST`` feed at a
                        fixed rate, WAL-durable; ends with SIGKILL and a
                        restart on the same WAL.

The server is a separate ``python -m repro serve`` process; all load
comes from this one process, one thread per connection.
"""

from __future__ import annotations

import os
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import gen
from lib import (
    CHECK_EVERY, HERE, Config, HostProbe, Result, ServerProc, Tracer, median,
    quantile, ratio, steady, steady_quantile, vm_hwm_mb,
)
from repro import obs
from repro.errors import ReproError
from repro.server.client import ServerClient

FLEET = "fleet"
#: Side of the window reads' square: 1000 x 1000 of the 10k x 10k world,
#: about 1 % of the rows of a whole-fleet reply.
WINDOW_SIDE = 1000.0
#: Units per second of the open-loop feed.  100/s is not sustainable
#: beside reads on two cores (acks queue without bound); 40/s is.
INGEST_RATE = 40.0
#: The rates the traced run tries, and the ack latency that counts as
#: "met" at the 95th percentile (also the bound on generator lateness).
SWEEP_RATES = (20.0, 40.0, 80.0)
ACK_LIMIT_MS = 100.0

perf = time.perf_counter


# ---------------------------------------------------------------------------
# One server and what has been done to it
# ---------------------------------------------------------------------------


@dataclass
class Target:
    """A server under load plus the client-side record of its state:
    the acked units, in order — version ``v`` of the served fleet is the
    boot fleet with the first ``v`` of them appended."""

    server: ServerProc
    wal: Optional[str]
    feed: Optional[Iterator[Tuple[int, gen.Unit]]]
    acked: List[Tuple[int, gen.Unit]] = field(default_factory=list)


@dataclass
class Phase:
    """What one stretch of traffic observed."""

    begin: float
    reads: List[Tuple[float, float, int]] = field(default_factory=list)
    kept: List[Tuple[float, Any, int, List[Dict[str, str]]]] = field(
        default_factory=list
    )
    acks: List[Tuple[float, float]] = field(default_factory=list)  # ack, late
    read_attempts: int = 0
    ingest_attempts: int = 0
    errors: List[str] = field(default_factory=list)

    def latencies(self) -> List[float]:
        return [ms for _done, ms, _rows in self.reads]


def boot(
    cfg: Config, wal: Optional[str] = None, profile: bool = False
) -> Tuple[ServerProc, float]:
    """Start a server; returns it with the seconds from spawn to its
    first whole-fleet reply (fleet generated, R-tree loaded, listener
    up, column built)."""
    server = ServerProc(cfg.wire_objects, cfg.seed, wal=wal, profile=profile)
    try:
        with ServerClient("127.0.0.1", server.port) as client:
            client.snapshot(FLEET, 0.0)
    except (ReproError, OSError):
        server.kill()
        raise
    return server, perf() - server.spawned


def _reader(
    port: int, rng: random.Random, horizon: float, windowed: bool,
    stop_at: float, phase: Phase, lock: threading.Lock,
) -> None:
    """Closed loop: the next read leaves when the previous reply is
    parsed."""
    count = 0
    while perf() < stop_at:
        try:
            with ServerClient("127.0.0.1", port) as client:
                while True:
                    start = perf()
                    if start >= stop_at:
                        return
                    t = rng.uniform(0.0, horizon)
                    window = gen.square(rng, WINDOW_SIDE) if windowed else None
                    with lock:
                        phase.read_attempts += 1
                    reply = client.snapshot(FLEET, t, window)
                    done = perf()
                    count += 1
                    with lock:
                        phase.reads.append(
                            (done, (done - start) * 1e3, len(reply.rows))
                        )
                        if count % CHECK_EVERY == 0:
                            phase.kept.append((
                                t, window, int(reply.fields["version"]),
                                reply.rows,
                            ))
        except (ReproError, OSError) as exc:
            with lock:
                phase.errors.append(f"read: {type(exc).__name__}: {exc}")
            time.sleep(0.05)  # a dead server must not spin the loop


def _feeder(
    target: Target, rate: float, start_at: float, stop_at: float,
    phase: Phase, lock: threading.Lock,
) -> None:
    """Open loop: unit ``i`` is due at ``start_at + i / rate`` whatever
    happened to the ones before it, and its ack is timed from then."""
    assert target.feed is not None
    i = 0
    try:
        with ServerClient("127.0.0.1", target.server.port) as client:
            while True:
                due = start_at + i / rate
                if due >= stop_at:
                    return
                wait = due - perf()
                if wait > 0:
                    time.sleep(wait)
                obj, unit = next(target.feed)
                sent = perf()
                with lock:
                    phase.ingest_attempts += 1
                try:
                    client.ingest(FLEET, obj, unit)
                except ReproError as exc:
                    with lock:
                        phase.errors.append(
                            f"ingest: {type(exc).__name__}: {exc}"
                        )
                else:
                    acked = perf()
                    with lock:
                        phase.acks.append(
                            ((acked - due) * 1e3, (sent - due) * 1e3)
                        )
                        target.acked.append((obj, unit))
                i += 1
    except OSError as exc:
        with lock:
            phase.errors.append(f"ingest: {type(exc).__name__}: {exc}")


def traffic(
    cfg: Config, target: Target, horizon: float, seconds: float,
    salt: int, rate: Optional[float] = None,
) -> Phase:
    """Run the workload's connections against ``target`` for
    ``seconds``; ``salt`` separates the phases' random streams."""
    start_at = perf()
    stop_at = start_at + seconds
    phase = Phase(start_at)
    lock = threading.Lock()
    readers = 1 if cfg.windowed else 2
    threads = [
        threading.Thread(target=_reader, args=(
            target.server.port,
            random.Random(cfg.seed * 1_000_003 + salt * 101 + k),
            horizon, cfg.windowed, stop_at, phase, lock,
        ))
        for k in range(readers)
    ]
    if cfg.windowed:
        threads.append(threading.Thread(target=_feeder, args=(
            target, rate if rate is not None else INGEST_RATE,
            start_at, stop_at, phase, lock,
        )))
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    phase.reads.sort()
    return phase


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def verify_reads(
    fleet: List[Any], target: Target, kept: List[Any], result: Result
) -> None:
    """Compare each kept reply, row for row and digit for digit, with
    the scalar ``value_at`` of the fleet as of the reply's pinned
    version (a reference executor replays the acked units up to it)."""
    from repro.server.executor import FleetExecutor
    from repro.server.ingest import IngestRequest

    ref = FleetExecutor()
    ref.register_fleet(FLEET, fleet, index=False)
    applied = 0
    for t, window, version, rows in sorted(kept, key=lambda k: k[2]):
        result.attempted += 1
        if version > len(target.acked):
            result.fail(f"reply pinned version {version} past the acked units")
            continue
        while applied < version:
            obj, unit = target.acked[applied]
            ref.apply_units([IngestRequest(FLEET, obj, unit)])
            applied += 1
        want = []
        for i, m in enumerate(ref.fleet(FLEET)):
            p = m.value_at(t)
            if p is None:
                continue
            if window is not None and not (
                window[0] <= p.x <= window[2] and window[1] <= p.y <= window[3]
            ):
                continue
            want.append((i, repr(p.x), repr(p.y)))
        got = [(int(r["obj"]), r["x"], r["y"]) for r in rows]
        if got != want:
            result.fail(
                f"SNAPSHOT t={t!r} window={window} version={version}: "
                f"{len(got)} rows differ from the scalar reference "
                f"({len(want)} rows)"
            )


def verify_ingest(fleet: List[Any], target: Target, result: Result) -> None:
    """Every 50th acked unit read back through a point-sized window,
    and the served unit count against boot units + acked units."""
    with ServerClient("127.0.0.1", target.server.port) as client:
        for obj, (t0, x0, y0, t1, x1, y1) in target.acked[::CHECK_EVERY]:
            result.attempted += 1
            xm, ym = (x0 + x1) / 2.0, (y0 + y1) / 2.0
            reply = client.snapshot(
                FLEET, (t0 + t1) / 2.0, (xm - 1.0, ym - 1.0, xm + 1.0, ym + 1.0)
            )
            if not any(int(r["obj"]) == obj for r in reply.rows):
                result.fail(f"acked unit of object {obj} not readable")
        check_units(client, fleet, target, result, "after the run")


def check_units(
    client: ServerClient, fleet: List[Any], target: Target, result: Result,
    when: str,
) -> None:
    want = sum(len(m.units) for m in fleet) + len(target.acked)
    got = int(client.stats().stat(f"fleet.{FLEET}.units") or -1)
    result.attempted += 1
    if got != want:
        # Each missing unit is an acknowledged write that was lost.
        for _ in range(max(1, want - got)):
            result.fail(f"units {when}: served {got}, boot + acked = {want}")


def crash_and_recover(
    cfg: Config, fleet: List[Any], target: Target, result: Result,
    profile: bool = False,
) -> float:
    """SIGKILL the server, restart it on the same WAL; returns seconds
    from the kill to the restarted server listening (WAL replayed).

    SIGKILL leaves the operating system's page cache intact, so this
    checks that replay reconstructs every acked unit, not that the
    device kept them."""
    killed = perf()
    target.server.kill()
    target.server = ServerProc(
        cfg.wire_objects, cfg.seed, wal=target.wal, profile=profile
    )
    recover_s = target.server.listening - killed
    with ServerClient("127.0.0.1", target.server.port) as client:
        check_units(client, fleet, target, result, "after SIGKILL + restart")
    return recover_s


# ---------------------------------------------------------------------------
# The untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def account(result: Result, phase: Phase) -> None:
    result.attempted += phase.read_attempts + phase.ingest_attempts
    for err in phase.errors:
        result.fail(err)


def run(cfg: Config, host: Optional[HostProbe]) -> Result:
    result = Result()
    tic = perf()
    fleet = gen.flights(cfg.seed, cfg.wire_objects)
    generate_s = perf() - tic
    horizon = gen.busy_horizon(fleet)
    if host is None:
        traced(cfg, fleet, horizon, generate_s, result)
    else:
        untraced(cfg, fleet, horizon, result, host)
    return result


def new_target(
    cfg: Config, fleet: List[Any], tag: str, profile: bool = False
) -> Tuple[Target, float]:
    wal = cfg.scratch(f"{tag}.wal") if cfg.windowed else None
    server, ready_s = boot(cfg, wal=wal, profile=profile)
    feed = gen.ingest_units(cfg.seed, fleet) if cfg.windowed else None
    return Target(server, wal, feed), ready_s


def untraced(
    cfg: Config, fleet: List[Any], horizon: float, result: Result,
    host: HostProbe,
) -> None:
    # Set-up is timed three times over (a single 2 s boot is at the
    # mercy of one scheduling hiccup); the third server is the one
    # measured.  Smoke boots once.
    boots: List[float] = []
    target = None
    for i in range(1 if cfg.smoke else 3):
        if target is not None:
            target.server.kill()
        target, ready_s = new_target(cfg, fleet, f"boot{i}")
        spawned = target.server.spawned
        boots.append(ready_s / host.factor(spawned, spawned + ready_s))
    assert target is not None
    try:
        account(result, traffic(cfg, target, horizon, cfg.warmup, salt=0))
        phase = traffic(cfg, target, horizon, cfg.seconds, salt=1)
        account(result, phase)
        rss = vm_hwm_mb(target.server.pid)
        if not phase.reads:
            raise RuntimeError(f"no read completed: {phase.errors[:3]}")
        reads = steady(
            phase.begin, [(done, ms) for done, ms, _rows in phase.reads], host
        )
        result.values = {
            "setup_s": median(boots),
            "read_p50_ms": reads["read_p50_ms"],
            "read_p95_ms": reads["read_p95_ms"],
            "reads_per_s": reads["reads_per_s"],
            "peak_rss_mb": rss,
        }
        result.notes = {
            "boots_s": boots,
            "reads": reads,
            "read_samples": len(phase.reads),
            "rows_per_read": ratio(
                sum(r for _d, _m, r in phase.reads), len(phase.reads)
            ),
            "phase_s": {"warmup": cfg.warmup, "measured": cfg.seconds},
        }
        verify_reads(fleet, target, phase.kept, result)
        if cfg.windowed:
            acks = [a for a, _late in phase.acks]
            late = [late for _a, late in phase.acks]
            result.notes.update({
                "ingest_rate_per_s": INGEST_RATE,
                "ingest_samples": len(acks),
                "ingest_ack_p50_ms": steady_quantile(acks, 0.50),
                "ingest_ack_p95_ms": steady_quantile(acks, 0.95),
                "generator_late_p95_ms": quantile(late, 0.95),
            })
            verify_ingest(fleet, target, result)
            result.notes["recover_s"] = crash_and_recover(
                cfg, fleet, target, result
            )
    finally:
        target.server.kill()


# ---------------------------------------------------------------------------
# The traced run: per-layer metrics, outside in
# ---------------------------------------------------------------------------

#: Per-layer metrics the wire workloads measure; ``INGEST_LAYER`` only
#: on ``wire_window_ingest``.
WIRE_LAYER = (
    "loadgen.samples", "loadgen.rows_per_read",
    "trace.overhead_share", "trace.direct_share",
    "protocol.parse_us", "protocol.frame_us_per_row",
    "session.ttfb_ms", "session.write_ms", "session.overhead_ms",
    "session.shed", "session.errors", "session.timeouts",
    "client.parse_us_per_row", "client.retries",
    "executor.pin_us", "executor.column_fetch_ms", "executor.assembly_ms",
    "executor.rows_examined_per_row", "executor.stats_ms",
    "colcache.hit_share", "cache.build_upoint_ms", "cache.build_bbox_ms",
    "kernels.atinstant_ms", "kernels.rows_per_call",
    "rtree.bulk_load_s", "workloads.generate_s",
)
INGEST_LAYER = (
    "loadgen.late_p95_ms", "loadgen.ingest_rate_met",
    "executor.window_filter_ms", "rtree.nodes_per_search",
    "colcache.extended_share",
    "ingest.apply_us", "ingest.units_per_commit", "ingest.dedup_hits",
    "ingest.replay_s", "wal.append_sync_ms", "wal.syncs_per_unit",
    "wal.bytes_per_unit",
    "ingest_ack_p50_ms", "ingest_ack_p95_ms", "recover_s",
)


def exercised(cfg: Config) -> Tuple[str, ...]:
    return WIRE_LAYER + INGEST_LAYER if cfg.windowed else WIRE_LAYER


def server_counters(port: int) -> Dict[str, float]:
    """The ``STATS`` counters of a ``--profile`` server."""
    with ServerClient("127.0.0.1", port) as client:
        out: Dict[str, float] = {}
        for line in client.stats().lines:
            _stat, name, value = line.split(" ", 2)
            try:
                out[name] = float(value)
            except ValueError:
                pass
        return out


def request_line(t: float, window: Optional[gen.Window]) -> str:
    """The line ``ServerClient.snapshot`` puts on the wire."""
    line = f"SNAPSHOT {FLEET} {t!r}"
    if window is not None:
        line += " " + " ".join(repr(v) for v in window)
    return line


def probe(
    tracer: Tracer, sock: socket.socket, line: str
) -> Tuple[float, float, bytes]:
    """One request on a bare socket: ms to the first byte of the reply,
    ms from the first byte to the last, and the bytes.  No parsing."""
    chunks = []
    with tracer.span("probe"):
        with tracer.span("session.ttfb"):
            start = perf()
            sock.sendall(line.encode("utf-8") + b"\n")
            chunk = sock.recv(1 << 16)
            first = perf()
        with tracer.span("session.write"):
            tail = b""
            while chunk:
                chunks.append(chunk)
                tail = (tail + chunk)[-5:]
                if tail == b"\nEND\n":
                    break
                chunk = sock.recv(1 << 20)
            last = perf()
    if not chunk:
        raise RuntimeError(f"probe of {line!r} got no framed reply")
    return (first - start) * 1e3, (last - first) * 1e3, b"".join(chunks)


def solo_probes(
    cfg: Config, tracer: Tracer, target: Target, horizon: float,
    seconds: float, result: Result,
) -> Dict[str, float]:
    """One read connection, one request at a time: each seeded request
    on a bare socket (first byte, last byte), then through
    ``ServerClient`` (parsed reply); afterwards ``ServerClient`` parses
    the recorded replies again from a listener that does no work
    (``canned.py``).  On ``wire_window_ingest`` the feed runs beside
    the probes as it does beside the workload's reads."""
    port = target.server.port
    feed = Phase(perf())
    feeder = threading.Thread(target=_feeder, args=(
        target, INGEST_RATE, perf(), perf() + seconds, feed, threading.Lock(),
    ))
    if cfg.windowed:
        feeder.start()
    rng = random.Random(cfg.seed * 1_000_003 + 7)
    ttfb: List[float] = []
    write: List[float] = []
    full: List[float] = []
    rows: List[int] = []
    lines: List[str] = []
    recorded = cfg.scratch("replies.bin")
    stop_at = perf() + seconds
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock, \
            ServerClient("127.0.0.1", port) as client, \
            open(recorded, "wb") as sink:
        while perf() < stop_at or not lines:
            tracer.rid += 1
            t = rng.uniform(0.0, horizon)
            window = gen.square(rng, WINDOW_SIDE) if cfg.windowed else None
            lines.append(request_line(t, window))
            a, b, raw = probe(tracer, sock, lines[-1])
            sink.write(raw)
            ttfb.append(a)
            write.append(b)
            with tracer.span("client.snapshot"):
                start = perf()
                reply = client.snapshot(FLEET, t, window)
                full.append((perf() - start) * 1e3)
            rows.append(len(reply.rows))
    if cfg.windowed:
        feeder.join()
        account(result, feed)
    parse: List[float] = []
    canned = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "canned.py"), recorded],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        with ServerClient(
            "127.0.0.1", int(canned.stdout.readline()), max_retries=0
        ) as client:
            for line in lines:
                with tracer.span("client.parse"):
                    start = perf()
                    client.request(line)
                    parse.append((perf() - start) * 1e3)
    finally:
        canned.kill()
        canned.wait()
        canned.stdout.close()
    return {
        "ttfb_ms": median(ttfb),
        "write_ms": median(write),
        "full_ms": median(full),
        "parse_ms": median(parse),
        "rows": median(rows),
        "probes": len(ttfb),
    }


def replay(
    cfg: Config, tracer: Tracer, fleet: List[Any], horizon: float,
    seconds: float, reads_per_ingest: float,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The stages of a request, one public call each, against an
    in-process executor built from the same seed; returns the per-layer
    metrics and, for the notes, the stage times they were made from.

    On ``wire_window_ingest`` units are applied between reads at the
    live ratio, so the column fetch that follows sees the version bump
    the way the server's does.
    """
    from repro.index.rtree import RTree3D
    from repro.server import protocol
    from repro.server.executor import FleetExecutor
    from repro.server.ingest import IngestRequest, encode_record
    from repro.storage import wal as walmod
    from repro.vector.cache import column_for_versioned
    from repro.vector.columns import BBoxColumn, UPointColumn
    from repro.vector.kernels import atinstant_batch

    out: Dict[str, float] = {}
    entries = [
        (u.bounding_cube(), i) for i, m in enumerate(fleet) for u in m.units
    ]
    tic = perf()
    RTree3D.bulk_load(entries)
    out["rtree.bulk_load_s"] = perf() - tic
    del entries
    tic = perf()
    UPointColumn.from_mappings(fleet)
    out["cache.build_upoint_ms"] = (perf() - tic) * 1e3
    tic = perf()
    BBoxColumn.from_mappings(fleet)
    out["cache.build_bbox_ms"] = (perf() - tic) * 1e3

    executor = FleetExecutor()
    executor.register_fleet(FLEET, fleet)
    live = executor.fleet(FLEET)
    executor.snapshot_rows(FLEET, 0.0)  # column built, as on a warm server
    feed = gen.ingest_units(cfg.seed + 1, fleet)
    wal = walmod.Wal(cfg.scratch("replay.wal")) if cfg.windowed else None
    rng = random.Random(cfg.seed * 1_000_003 + 11)
    examined = returned = searches = 0
    owed = 0.0
    stop_at = perf() + seconds
    with obs.capture() as counters:
        while perf() < stop_at:
            tracer.rid += 1
            t = rng.uniform(0.0, horizon)
            window = gen.square(rng, WINDOW_SIDE) if cfg.windowed else None
            line = request_line(t, window)
            owed += 1.0 / reads_per_ingest if cfg.windowed else 0.0
            while owed >= 1.0:
                owed -= 1.0
                obj, unit = next(feed)
                req = IngestRequest(FLEET, obj, unit)
                with tracer.span("ingest"):
                    with tracer.span("wal.append_sync"):
                        scope, payload = encode_record(req)
                        wal.append(walmod.INGEST, payload, scope=scope)
                        wal.sync()
                    with tracer.span("executor.apply_units"):
                        executor.apply_units([req])
            with tracer.span("request"):
                with tracer.span("protocol.parse_request"):
                    request = protocol.parse_request(line)
                with tracer.span("executor.snapshot"):
                    executor.snapshot(request.fleet)
                with tracer.span("column_for_versioned"):
                    _version, col = column_for_versioned(live, "upoint")
                with tracer.span("atinstant_batch"):
                    atinstant_batch(col, request.t)
                with tracer.span("executor.snapshot_rows"):
                    snap, rows = executor.snapshot_rows(
                        request.fleet, request.t, request.window
                    )
                if cfg.windowed:
                    searches += 1
                    with tracer.span("executor.snapshot_rows.unwindowed"):
                        executor.snapshot_rows(request.fleet, request.t)
                with tracer.span("protocol.frame"):
                    # What session._dispatch and session._write do with
                    # the rows: one line each, 256 lines per write.
                    lines = [protocol.ok_line(
                        version=snap.version, objects=len(snap), rows=len(rows)
                    )]
                    lines.extend(
                        protocol.row_line(obj=i, x=repr(x), y=repr(y))
                        for i, x, y in rows
                    )
                    lines.append(protocol.END)
                    for at in range(0, len(lines), 256):
                        ("\n".join(lines[at:at + 256]) + "\n").encode("utf-8")
            examined += len(snap)
            returned += len(rows)
        tic = perf()
        for _ in range(5):
            executor.stats()
        out["executor.stats_ms"] = (perf() - tic) * 1e3 / 5
    if wal is not None:
        wal.close()
    durations = tracer.durations_ms()
    d = {k: median(v) for k, v in durations.items()}
    requests = len(durations["request"])
    rows_per_request = ratio(returned, requests)
    out.update({
        "protocol.parse_us": d["protocol.parse_request"] * 1e3,
        "protocol.frame_us_per_row":
            ratio(d["protocol.frame"] * 1e3, rows_per_request),
        "executor.pin_us": d["executor.snapshot"] * 1e3,
        "executor.column_fetch_ms": d["column_for_versioned"],
        "executor.assembly_ms":
            d["executor.snapshot_rows"] - d["executor.snapshot"]
            - d["atinstant_batch"],
        "executor.rows_examined_per_row": ratio(examined, returned),
        "kernels.atinstant_ms": d["atinstant_batch"],
        "kernels.rows_per_call": ratio(
            counters.get("vector.atinstant_batch.rows"),
            counters.get("vector.atinstant_batch.calls"),
        ),
    })
    stages = {
        "requests": requests,
        "frame_ms": d["protocol.frame"],
        "snapshot_rows_ms": d["executor.snapshot_rows"],
        "stage_ms": d["protocol.parse_request"] + d["column_for_versioned"]
            + d["executor.snapshot_rows"] + d["protocol.frame"],
    }
    if cfg.windowed:
        out.update({
            "executor.window_filter_ms":
                d["executor.snapshot_rows"]
                - d["executor.snapshot_rows.unwindowed"],
            "rtree.nodes_per_search":
                ratio(counters.get("rtree.nodes_visited"), searches),
            "ingest.apply_us": d["executor.apply_units"] * 1e3,
            "wal.append_sync_ms": d["wal.append_sync"],
        })
    return out, stages


def replay_wal(fleet: List[Any], wal_path: str) -> float:
    """Seconds ``replay_ingest`` needs for the dead server's WAL on a
    freshly registered fleet — the replay share of ``recover_s``."""
    from repro.server.executor import FleetExecutor
    from repro.server.ingest import replay_ingest
    from repro.storage.wal import Wal

    executor = FleetExecutor()
    executor.register_fleet(FLEET, fleet)
    with Wal(wal_path) as wal:
        tic = perf()
        replay_ingest(wal, executor)
        return perf() - tic


def traced(
    cfg: Config, fleet: List[Any], horizon: float, generate_s: float,
    result: Result,
) -> None:
    # The phases' shares of ``--seconds``: they add up to one.
    if cfg.windowed:
        share = {"plain": 0.15, "profile": 0.25, "solo": 0.15, "sweep": 0.1,
                 "replay": 0.15}
    else:
        share = {"plain": 0.25, "profile": 0.35, "solo": 0.2, "replay": 0.2}
    s = cfg.seconds
    tracer = Tracer()
    values: Dict[str, float] = {"workloads.generate_s": generate_s}
    notes: Dict[str, Any] = {}
    obs.enable()  # this process's client.retries

    # A. The untraced configuration, briefly: the base of the overhead.
    target, _ready = new_target(cfg, fleet, "plain")
    try:
        account(result, traffic(cfg, target, horizon, cfg.warmup, salt=0))
        plain = traffic(cfg, target, horizon, share["plain"] * s, salt=1)
        account(result, plain)
    finally:
        target.server.kill()

    # B. The same traffic against a --profile server.
    target, _ready = new_target(cfg, fleet, "profile", profile=True)
    try:
        account(result, traffic(cfg, target, horizon, cfg.warmup, salt=0))
        before = server_counters(target.server.port)
        acked_before = len(target.acked)
        phase = traffic(cfg, target, horizon, share["profile"] * s, salt=1)
        account(result, phase)
        after = server_counters(target.server.port)
        delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
        units = len(target.acked) - acked_before
        lat = phase.latencies()
        if not lat or not plain.reads:
            raise RuntimeError(f"no read completed: {phase.errors[:3]}")
        traced_p50 = steady_quantile(lat, 0.50)
        plain_p50 = steady_quantile(plain.latencies(), 0.50)
        hits = delta.get("colcache.hits", 0.0)
        extended = delta.get("colcache.extended", 0.0)
        misses = delta.get("colcache.misses", 0.0)
        values.update({
            "loadgen.samples": len(lat),
            "loadgen.rows_per_read":
                ratio(sum(r for _d, _m, r in phase.reads), len(lat)),
            "trace.overhead_share": traced_p50 / plain_p50 - 1.0,
            "session.shed": delta.get("server.shed", 0.0),
            "session.errors": delta.get("server.errors", 0.0),
            "session.timeouts": delta.get("server.timeouts", 0.0),
            "colcache.hit_share": ratio(hits, hits + extended + misses),
        })
        notes.update({
            "plain_read_p50_ms": plain_p50, "traced_read_p50_ms": traced_p50,
            "plain_samples": len(plain.reads),
        })
        if cfg.windowed:
            acks = [a for a, _late in phase.acks]
            values.update({
                "loadgen.late_p95_ms":
                    quantile([late for _a, late in phase.acks], 0.95),
                "ingest_ack_p50_ms": steady_quantile(acks, 0.50),
                "ingest_ack_p95_ms": steady_quantile(acks, 0.95),
                "colcache.extended_share": ratio(
                    extended,
                    extended + delta.get("colcache.invalidations", 0.0),
                ),
                "ingest.units_per_commit": ratio(
                    delta.get("ingest.units", 0.0),
                    delta.get("ingest.group_commits", 0.0),
                ),
                "ingest.dedup_hits": delta.get("ingest.dedup_hits", 0.0),
                "wal.syncs_per_unit": ratio(
                    delta.get("wal.syncs", 0.0), delta.get("ingest.units", 0.0)
                ),
            })
            notes["ingest_samples"] = len(acks)
        verify_reads(fleet, target, phase.kept, result)

        # C. One request at a time: first byte, last byte, parsed reply.
        solo = solo_probes(
            cfg, tracer, target, horizon, share["solo"] * s, result
        )

        if cfg.windowed:
            # D. The feed at each rate beside the reads.
            met = 0.0
            sweep = {}
            for k, rate in enumerate(SWEEP_RATES):
                leg = traffic(
                    cfg, target, horizon, share["sweep"] * s, salt=2 + k,
                    rate=rate,
                )
                account(result, leg)
                ack95 = quantile([a for a, _l in leg.acks], 0.95)
                late95 = quantile([late for _a, late in leg.acks], 0.95)
                sweep[str(rate)] = {"ack_p95_ms": ack95, "late_p95_ms": late95}
                if ack95 <= ACK_LIMIT_MS and late95 <= ACK_LIMIT_MS:
                    met = max(met, rate)
            values["loadgen.ingest_rate_met"] = met
            notes["rate_sweep"] = sweep
            verify_ingest(fleet, target, result)
            values["wal.bytes_per_unit"] = ratio(
                os.path.getsize(target.wal), len(target.acked)
            )
            values["recover_s"] = crash_and_recover(
                cfg, fleet, target, result, profile=True
            )
    finally:
        target.server.kill()
    values["client.retries"] = obs.get("client.retries")

    # E. The stages, replayed in process.
    reads_per_ingest = ratio(len(lat), units) if cfg.windowed and units else 1.0
    staged, stages = replay(
        cfg, tracer, fleet, horizon, share["replay"] * s, reads_per_ingest
    )
    if cfg.windowed:
        values["ingest.replay_s"] = replay_wal(fleet, target.wal)
    stage_ms = stages["stage_ms"]
    notes["replay"] = stages
    notes["solo"] = solo
    values.update(staged)
    values.update({
        "session.ttfb_ms": solo["ttfb_ms"],
        "session.write_ms": solo["write_ms"],
        # The one residual: what the first byte waited for beyond the
        # replayed stages (loop hop, to_thread, contention for the GIL).
        "session.overhead_ms": solo["ttfb_ms"] - stage_ms,
        "client.parse_us_per_row":
            ratio(solo["parse_ms"] * 1e3, solo["rows"]),
        "trace.direct_share": ratio(
            stage_ms + solo["write_ms"] + solo["parse_ms"], solo["full_ms"]
        ),
    })
    tracer.write(cfg.spans_path)
    notes["spans"] = len(tracer.spans)
    result.values = values
    result.notes = notes
