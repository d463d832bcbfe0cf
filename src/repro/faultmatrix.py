"""The fault matrix: one scenario table, one runner, every failpoint.

For *every* failpoint registered in :mod:`repro.faults` there is one row
in :data:`SCENARIOS`, and the runner proves the system survives it.  The
storage rows kill a process mid-mutation and check what recovery finds:

* every committed tuple is readable and equal to what was committed,
* an interrupted append is either fully absent or (when the crash hit
  after the durable COMMIT) fully present — never partial,
* every page in the page file passes checksum verification, and
* injected read-path corruption is *detected* (typed error), never
  silently returned.

The live rows degrade a *running* service instead — a real
:class:`QueryServer` on a real socket under concurrent query + ingest
traffic, a live fork pool, a budget-squeezed shard scatter — and assert
the resilience contract: client-visible failures are absorbed by bounded
retries, snapshot reads are never torn (a pinned instant reads
byte-identical before, during, and after the chaos), ingest lands
exactly once per sequence token, and the server recovers to healthy
``STATS`` once the fault is disarmed.  ``server.overload`` is the one
row with no failpoint: saturation is reached with real traffic.

The contract between the two halves of this module: a scenario *body*
only builds, acts and verifies.  It wraps its act in ``with
run.armed():``, returns the detail line of a pass and raises
:class:`ScenarioFailed` for a verification that did not hold.  Arming,
the simulated crash, disarming, the did-it-fire judgement and the
:class:`MatrixEntry` belong to :func:`run_matrix` alone.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro import config, faults, obs
from repro.db.catalog import Database
from repro.errors import (
    CorruptPageError,
    InvalidValue,
    ReproError,
    SimulatedCrash,
    StorageError,
)
from repro.parallel import parallel_window_intervals, pool, shmcol
from repro.server.client import ServerClient
from repro.server.executor import FleetExecutor
from repro.server.ingest import IngestRequest, commit, replay_ingest
from repro.server.session import serve_in_thread
from repro.shard import ShardManager, ShardedFleet, sharded_window_intervals
from repro.spatial.bbox import Rect
from repro.storage.pages import PageFile
from repro.storage.tuplestore import TupleStore
from repro.storage.wal import Wal
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint
from repro.vector.cache import Fleet, column_for_versioned
from repro.vector.columns import UPointColumn
from repro.vector.kernels import window_intervals_batch
from repro.vector.store import ColumnStore

__all__ = [
    "MatrixEntry",
    "SCENARIOS",
    "Scenario",
    "ScenarioFailed",
    "format_matrix",
    "run_matrix",
    "track",
]

SCHEMA: List[Tuple[str, str]] = [("name", "string"), ("track", "mpoint")]

#: Store geometry chosen so every mpoint attribute externalizes into a
#: multi-page FLOB chain: small pages, tiny inline threshold.
PAGE_SIZE = 256
INLINE_THRESHOLD = 64
BUFFER_CAPACITY = 8

#: Baseline committed before the failpoint is armed; the checkpoint is
#: taken after the second tuple so replay exercises snapshot + redo.
BASELINE = 3
CHECKPOINT_AFTER = 2

#: Fleet served by the live rows.
FLEET = "fleet"
N_OBJECTS = 48

#: The torn-read probe instant.  Chaos-time ingest appends units at
#: t >= INGEST_T0 only, so the fleet's state at PROBE_T is immutable
#: for the whole run — any two probes that differ are a torn read.
PROBE_T = 5.0
INGEST_T0 = 1.0e6

#: The window the pool and shard rows scatter, against the one-process kernel.
WINDOW = (Rect(0.0, 0.0, 60.0, 60.0), 0.0, 12.0)

TRACK_UNITS = 6

#: What a probe saw: the bytes of the reply's ``(obj, x, y)`` table.
Digest = bytes


# ---------------------------------------------------------------------------
# The runner's side of the contract
# ---------------------------------------------------------------------------


@dataclass
class MatrixEntry:
    """Outcome of one scenario."""

    label: str
    fired: bool
    ok: bool
    detail: str


class ScenarioFailed(ReproError):
    """A scenario's verification did not hold; the message is the detail."""


class Scenario(NamedTuple):
    """One row of the table."""

    label: str
    failpoint: Optional[str]  # None: the fault is real load, not a site
    policy: str  # trigger policy; ``{seed}`` is filled in by the runner
    live: bool  # degrades a running service (the ``chaos-matrix`` view)
    body: Callable[["Run"], str]


#: A policy whose site was never reached would make the scenario
#: vacuous — flagged instead of passing silently.
NEVER_FIRED = "failpoint never fired"


class Run:
    """What the runner hands a scenario body: the row, the scale, the arming."""

    def __init__(self, row: Scenario, seed: int, quick: bool):
        self.row = row
        self.seed = seed
        self.quick = quick
        # faults.fired() is cumulative over the process; only what this
        # scenario adds to it says that *this* scenario reached the site.
        self._fired_before = self._fired_total()

    def _fired_total(self) -> int:
        return faults.fired(self.row.failpoint) if self.row.failpoint else 0

    @property
    def fired(self) -> bool:
        return self.row.failpoint is None or self._fired_total() > self._fired_before

    @contextlib.contextmanager
    def armed(self) -> Iterator[None]:
        """Arm the row's failpoint around the body's act.

        A :class:`SimulatedCrash` ends the block quietly — it is the
        process death the scenario exists to provoke; any other error is
        the body's to interpret.  A block that ends without the failpoint
        having fired stops the scenario there, before it verifies nothing.
        """
        if self.row.failpoint is None:
            yield
            return
        policy = self.row.policy.format(seed=self.seed)
        try:
            with faults.injected(self.row.failpoint, policy):
                yield
        except SimulatedCrash:
            pass
        if not self.fired:
            raise ScenarioFailed(NEVER_FIRED)


def _run_one(row: Scenario, seed: int, quick: bool) -> MatrixEntry:
    run = Run(row, seed, quick)
    try:
        detail = row.body(run)
        ok = run.fired  # a body that never reached ``armed`` proved nothing
        if not ok:
            detail = NEVER_FIRED
    except ScenarioFailed as exc:
        ok, detail = False, str(exc)
    finally:
        faults.disarm()
    return MatrixEntry(row.label, run.fired, ok, detail)


def run_matrix(
    seed: int = 2000,
    quick: bool = True,
    only: Optional[str] = None,
    live_only: bool = False,
    should_stop: Optional[Callable[[], bool]] = None,
) -> List[MatrixEntry]:
    """Run the table's scenarios in label order; returns the outcomes.

    Two views of the one table: by default every row that has a
    failpoint (the whole registry — ``crash-matrix``), with
    ``live_only`` the rows that degrade a running service, the
    failpoint-less overload row included (``chaos-matrix``).  ``quick``
    shrinks the live rows' traffic (fewer clients, fewer ops) for smoke
    use; the assertions are identical.  ``only`` names one label of the
    view.  ``should_stop`` is polled *between* scenarios — a signal
    handler can set it to stop early at a clean boundary, with
    everything already run reported.

    Raises :class:`ReproError` if the table and the failpoint registry
    disagree (MOD006 keeps the registry honest against the sites, this
    check keeps the table honest against the registry), and
    :class:`InvalidValue` for an ``only`` the view does not have.
    """
    covered = {row.failpoint for row in SCENARIOS if row.failpoint is not None}
    if covered != faults.FAILPOINT_NAMES:
        raise ReproError(
            "fault matrix and failpoint registry disagree on: "
            + ", ".join(sorted(covered ^ faults.FAILPOINT_NAMES))
        )
    view = sorted(
        (row for row in SCENARIOS
         if (row.live if live_only else row.failpoint is not None)),
        key=lambda row: row.label,
    )
    if only is not None:
        labels = [row.label for row in view]
        if only not in labels:
            raise InvalidValue(
                f"unknown scenario {only!r}; known scenarios: {', '.join(labels)}"
            )
        view = [row for row in view if row.label == only]
    entries: List[MatrixEntry] = []
    prior = faults.armed()
    faults.disarm()
    try:
        for row in view:
            if should_stop is not None and should_stop():
                break
            entries.append(_run_one(row, seed, quick))
    finally:
        for armed_name, policy in prior.items():
            faults.arm(armed_name, policy)
    return entries


def format_matrix(entries: List[MatrixEntry]) -> str:
    """Render the matrix outcomes as an aligned text table."""
    width = max(len(e.label) for e in entries) if entries else 8
    lines = []
    for e in entries:
        status = "ok" if e.ok else "FAIL"
        lines.append(f"{e.label.ljust(width)}  {status:<4}  {e.detail}")
    passed = sum(1 for e in entries if e.ok)
    lines.append(f"{passed}/{len(entries)} failpoints survived")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# What the bodies build with and verify against
# ---------------------------------------------------------------------------


def track(seed: int, idx: int) -> MovingPoint:
    """A deterministic moving point of ``TRACK_UNITS`` units.

    A few hundred bytes, so the storage rows' tiny pages push it into a
    multi-page FLOB chain; defined across ``PROBE_T``; and starting
    inside an 89 × 53 box whatever ``idx`` is, so ``WINDOW`` catches a
    real share of a fleet of any size.
    """
    units = []
    pos = (float((seed + idx) % 89), float((seed * 7 + idx) % 53))
    for k in range(TRACK_UNITS):
        t0, t1 = k * 2.0, k * 2.0 + 1.5
        nxt = (pos[0] + 1.0 + (seed + idx + k) % 5, pos[1] + 0.5 + k % 3)
        units.append(UPoint.between(t0, pos, t1, nxt, rc=False))
        pos = nxt
    return MovingPoint(units)


def _tracks(seed: int, n: int) -> List[MovingPoint]:
    return [track(seed, i) for i in range(n)]


def _fresh(seed: int) -> Tuple[TupleStore, PageFile, Wal]:
    pf = PageFile(page_size=PAGE_SIZE)
    wal = Wal()
    store = TupleStore(
        SCHEMA,
        pf,
        buffer_capacity=BUFFER_CAPACITY,
        inline_threshold=INLINE_THRESHOLD,
        wal=wal,
        wal_scope="rel:matrix",
    )
    for i in range(BASELINE):
        store.append([f"obj{i}", track(seed, i)])
        if i + 1 == CHECKPOINT_AFTER:
            store.checkpoint()
    return store, pf, wal


def _recover(pf: PageFile, wal: Wal) -> TupleStore:
    """What a restarted process has: the page file and the WAL, nothing cached."""
    return TupleStore.recover(
        SCHEMA,
        pf,
        wal,
        wal_scope="rel:matrix",
        buffer_capacity=BUFFER_CAPACITY,
        inline_threshold=INLINE_THRESHOLD,
    )


def _rows(store: TupleStore) -> List[Tuple[str, int]]:
    """A comparable digest of every tuple: (name, unit count)."""
    return [(row[0].value, len(row[1].units)) for row in store.scan()]


def _expect_column(col, mappings: Sequence[MovingPoint], complaint: str) -> None:
    """``col`` must be byte-identical to a from-scratch build over ``mappings``."""
    ref = UPointColumn.from_mappings(mappings)
    if (col.offsets.tobytes() != ref.offsets.tobytes()
            or col.x0.tobytes() != ref.x0.tobytes()):
        raise ScenarioFailed(complaint)


def _expect_window(results, column, complaint: str) -> None:
    """Every scattered ``WINDOW`` result must equal the one-process
    kernel's over ``column``, bit for bit."""
    reference = window_intervals_batch(column, *WINDOW)
    for result in results:
        for got, want in zip(result, reference):
            if got.tobytes() != want.tobytes():
                raise ScenarioFailed(complaint)


# ---------------------------------------------------------------------------
# Storage rows: crash one mutation, recover, verify
# ---------------------------------------------------------------------------


def _write_crash(run: Run) -> str:
    """Crash one append on a write/commit-path failpoint, then recover."""
    store, pf, wal = _fresh(run.seed)
    with run.armed():
        try:
            store.append(["extra", track(run.seed, BASELINE)])
        except StorageError as exc:
            raise ScenarioFailed(
                f"append died with {type(exc).__name__}: {exc}"
            ) from exc
    wal.crash()  # unsynced WAL buffer evaporates with the process
    expected = [(f"obj{i}", TRACK_UNITS) for i in range(BASELINE)]
    # Every write-path failpoint kills the append before its COMMIT is
    # durable except commit_crash, which fires after the barrier: there
    # recovery MUST resurrect the interrupted tuple.
    if run.row.failpoint == "tuplestore.commit_crash":
        expected.append(("extra", TRACK_UNITS))
    rows = _rows(_recover(pf, wal))
    if rows != expected:
        raise ScenarioFailed(f"recovered rows {rows!r} != committed {expected!r}")
    try:
        pf.verify_all()
    except StorageError as exc:
        raise ScenarioFailed(
            f"page failed post-recovery checksum sweep: {exc}"
        ) from exc
    return f"{len(rows)} tuples intact, {pf.page_count} pages verify"


def _read_transient(run: Run) -> str:
    """A transient read error on a cold scan: the retry loop must absorb it."""
    store, pf, wal = _fresh(run.seed)
    baseline = _rows(store)
    cold = _recover(pf, wal)  # nothing resident: the scan reads physically
    with run.armed():
        try:
            rows = _rows(cold)
        except StorageError as exc:
            raise ScenarioFailed(
                f"transient fault escaped the retry loop: {exc}"
            ) from exc
    if rows != baseline:
        raise ScenarioFailed("retry returned wrong rows")
    return "transient fault retried"


def _read_bitflip(run: Run) -> str:
    """A flipped bit on a cold physical read must raise CorruptPageError."""
    _, pf, wal = _fresh(run.seed)
    cold = _recover(pf, wal)
    with run.armed():
        try:
            _rows(cold)
        except CorruptPageError:
            return "bit flip detected (typed)"
        except StorageError as exc:
            return f"bit flip detected as {type(exc).__name__}"
    raise ScenarioFailed("flipped bit read back silently")


def _catalog_create(run: Run) -> str:
    """Crash a catalog create; recovery must not show the half-made DDL."""
    wal = Wal()
    db = Database(wal=wal)
    db.create_relation("committed", SCHEMA, materialized=True,
                       inline_threshold=INLINE_THRESHOLD)
    db.relation("committed").insert([f"obj{run.seed % 10}", track(run.seed, 0)])
    with run.armed():
        db.create_relation("doomed", SCHEMA, materialized=True)
    wal.crash()
    recovered = Database.recover(wal)
    if "doomed" in recovered:
        raise ScenarioFailed("uncommitted DDL visible after recovery")
    if "committed" not in recovered:
        raise ScenarioFailed("committed relation lost in recovery")
    rows = recovered.relation("committed").rows()
    if len(rows) != 1 or len(rows[0]["track"].units) != TRACK_UNITS:
        raise ScenarioFailed("committed tuple damaged by recovery")
    return "DDL atomic: committed survives, doomed absent"


def _colstore_save(run: Run) -> str:
    """Crash a column-store save mid-generation: the prior generation
    must stay intact (or be *detectably* torn — never torn bytes served),
    and ``load_or_rebuild`` must repair to the new fleet."""
    grown = _tracks(run.seed, 5)
    old = grown[:4]
    old_stamp, grown_stamp = Fleet(old).stamp, Fleet(grown).stamp
    with tempfile.TemporaryDirectory(prefix="faultmatrix_") as root:
        store = ColumnStore(root)
        store.save("upoint", UPointColumn.from_mappings(old), old_stamp)
        with run.armed():
            store.save("upoint", UPointColumn.from_mappings(grown), grown_stamp)
        # Atomicity: either the old generation still verifies and reads
        # back byte-identical, or the damage is typed — never silent.
        try:
            store.verify("upoint")
            _expect_column(store.load("upoint"), old,
                           "torn save served as clean bytes")
        except StorageError:
            pass  # detected — acceptable outcome
        repaired = store.load_or_rebuild("upoint", grown, grown_stamp)
        _expect_column(repaired, grown, "rebuild did not repair to the new fleet")
        store.verify("upoint")
    return "old generation safe; rebuild repaired store"


def _shmcol_pack(run: Run) -> str:
    """Crash mid-``pack``: the shared-memory segment must be reclaimed
    from the OS namespace, not leaked, and a repack must serve
    identical bytes."""
    mappings = _tracks(run.seed, 4)
    col = UPointColumn.from_mappings(mappings)
    try:
        before = set(os.listdir("/dev/shm"))
    except OSError:  # pragma: no cover - non-Linux fallback
        before = None
    with run.armed():
        shmcol.pack(col)
    if shmcol._SEGMENTS:
        raise ScenarioFailed("crashed pack left its segment in the registry")
    if before is not None:
        leaked = set(os.listdir("/dev/shm")) - before
        if leaked:
            raise ScenarioFailed(f"segment leaked into /dev/shm: {leaked}")
    attached = shmcol.attach(shmcol.shared_descriptor(col))
    try:
        _expect_column(attached.column, mappings, "repacked bytes differ")
    finally:
        attached.close()
        shmcol.release_all()
    return "segment reclaimed; repack serves identical bytes"


def _group_commit(run: Run) -> str:
    """Crash the query service's group-commit path, then recover.

    The two failpoints prove the two sides of the durability barrier:
    ``wal.group_commit_crash`` fires *before* the batched ``sync()``, so
    the crashed batch must be absent after replay; ``server.ingest_crash``
    fires *after* it (mid-apply), so replay must resurrect the batch —
    the ingest-path analog of ``tuplestore.commit_crash``.  Either way
    the columns served after recovery must match a from-scratch build:
    no torn columns."""
    baseline = _tracks(run.seed, 4)
    wal = Wal()
    try:
        ex = FleetExecutor()
        fleet = ex.register_fleet(FLEET, baseline)
        column_for_versioned(fleet, "upoint")  # read the served column
        commit(wal, ex, [
            IngestRequest(FLEET, 0, (100.0, 0.0, 0.0, 101.5, 1.0, 1.0))
        ])
        # Read the column the apply published with the ingest in it.
        column_for_versioned(fleet, "upoint")
        with run.armed():
            commit(wal, ex, [
                IngestRequest(FLEET, 1, (200.0, 5.0, 5.0, 201.5, 6.0, 6.0))
            ])
        wal.crash()  # whatever was buffered dies with the process
        # "Restart": drop every live object, rebuild the boot-time
        # fleet, and replay the durable WAL prefix.
        del ex, fleet
        ex2 = FleetExecutor()
        fleet2 = ex2.register_fleet(FLEET, baseline)
        replayed = replay_ingest(wal, ex2)
        counts = [len(m.units) for m in fleet2]
        expected = [TRACK_UNITS] * len(baseline)
        expected[0] += 1  # the first batch was durable before the crash
        durable = run.row.failpoint == "server.ingest_crash"
        if durable:
            expected[1] += 1  # synced pre-apply: replay must resurrect it
        if counts != expected:
            raise ScenarioFailed(
                f"replayed unit counts {counts!r} != expected {expected!r}"
            )
        _, col = column_for_versioned(fleet2, "upoint")
        _expect_column(col, list(fleet2),
                       "post-recovery column differs from rebuild")
    finally:
        wal.close()
    detail = ("durable batch resurrected by replay" if durable
              else "unsynced batch absent after replay")
    return f"{replayed} unit(s) replayed; {detail}"


# ---------------------------------------------------------------------------
# Live rows: degrade a running service, verify it recovers
# ---------------------------------------------------------------------------


def _probe_digest(client: ServerClient) -> Digest:
    """The wire-level digest of the fleet at the probe instant."""
    table = client.snapshot(FLEET, PROBE_T).table
    assert table is not None  # snapshot() asks for the binary frame
    return table.tobytes()


class _Traffic:
    """Concurrent query + ingest clients hammering one server."""

    def __init__(self, port: int, baseline: Digest, clients: int, ops: int):
        self.port = port
        self.baseline = baseline
        self.clients = clients
        self.ops = ops
        self.torn = 0
        self.failures: List[str] = []
        self.ingested = 0
        self._lock = threading.Lock()

    def _client_loop(self, ci: int) -> None:
        torn = 0
        ingested = 0
        errors: List[str] = []
        try:
            client = ServerClient(
                "127.0.0.1", self.port,
                timeout=10.0, request_timeout=10.0, max_retries=10,
                backoff_base_ms=5.0, backoff_cap_ms=200.0,
            )
        except OSError as exc:
            with self._lock:
                self.failures.append(f"client {ci} failed to connect: {exc}")
            return
        try:
            for k in range(self.ops):
                try:
                    if _probe_digest(client) != self.baseline:
                        torn += 1
                except Exception as exc:
                    errors.append(f"snapshot: {type(exc).__name__}: {exc}")
                # Each client owns one object, with strictly increasing
                # times, so ingests never conflict across clients and
                # the per-object unit ordering is always valid.
                t0 = INGEST_T0 + ci * 1.0e4 + k * 10.0
                try:
                    client.ingest(
                        FLEET, ci,
                        (t0, 0.0, 0.0, t0 + 5.0, 1.0, 1.0),
                    )
                    ingested += 1
                except Exception as exc:
                    errors.append(f"ingest: {type(exc).__name__}: {exc}")
        finally:
            try:
                client.close()
            except Exception:
                pass
        with self._lock:
            self.torn += torn
            self.ingested += ingested
            self.failures.extend(errors)

    def run(self) -> None:
        threads = [
            threading.Thread(target=self._client_loop, args=(ci,))
            for ci in range(self.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()


def _expect_recovered(
    port: int, baseline: Digest, baseline_units: int, ingested: int
) -> None:
    """Post-chaos health check, run with every fault disarmed.

    A fresh client must get a clean STATS, an untorn probe, and a unit
    total of exactly baseline plus one unit per *successful* ingest — a
    duplicate that slipped past dedup or a retry that double-applied
    shows up right here.
    """
    try:
        with ServerClient("127.0.0.1", port, timeout=10.0) as client:
            stats = client.stats()
            untorn = _probe_digest(client) == baseline
    except Exception as exc:
        raise ScenarioFailed(
            f"post-recovery STATS failed: {type(exc).__name__}: {exc}"
        ) from exc
    if not untorn:
        raise ScenarioFailed("post-recovery probe differs from baseline (torn)")
    units = stats.stat(f"fleet.{FLEET}.units")
    if units is None or int(units) != baseline_units + ingested:
        raise ScenarioFailed(
            f"unit total {units} != baseline {baseline_units} + "
            f"{ingested} acked ingests (lost or duplicated units)"
        )


def _hammer(
    run: Run,
    absorbed: str,
    must_move: Sequence[Tuple[str, str]] = (),
    **server_kwargs: object,
) -> str:
    """Serve a fleet, hammer it with the row's fault armed, verify recovery.

    ``must_move`` pairs a counter with the complaint for it staying at
    zero: the proof that the mechanism under test, not luck, absorbed
    the fault.
    """
    clients, ops = (2, 4) if run.quick else (4, 10)
    mappings = _tracks(run.seed, N_OBJECTS)
    ex = FleetExecutor()
    ex.register_fleet(FLEET, mappings)
    with obs.capture():
        running = serve_in_thread(ex, **server_kwargs)
        try:
            with ServerClient("127.0.0.1", running.port, timeout=10.0) as c:
                baseline = _probe_digest(c)
            if not baseline:
                raise ScenarioFailed("empty baseline probe")
            traffic = _Traffic(running.port, baseline, clients, ops)
            with run.armed():
                traffic.run()
            if traffic.torn:
                raise ScenarioFailed(f"{traffic.torn} torn snapshot read(s)")
            if traffic.failures:
                raise ScenarioFailed(
                    f"{len(traffic.failures)} unrecovered failure(s): "
                    + traffic.failures[0]
                )
            for counter, complaint in must_move:
                if obs.get(counter) < 1:
                    raise ScenarioFailed(complaint)
            _expect_recovered(
                running.port, baseline,
                TRACK_UNITS * len(mappings), traffic.ingested,
            )
        finally:
            running.stop()
    return (
        f"{absorbed}; {clients * ops} probes untorn, "
        f"{traffic.ingested} ingests exactly-once, STATS healthy"
    )


def _worker_kill(run: Run) -> str:
    """SIGKILL a fork worker mid-query: the dispatcher must respawn the
    pool, retry the lost chunks, and return the bit-identical result."""
    n = max(config.PARALLEL_MIN_OBJECTS, 1024) + 64
    col = UPointColumn.from_mappings(_tracks(run.seed, n))
    pool.shutdown()
    shmcol.release_all()
    with obs.capture():
        try:
            with run.armed():
                result = parallel_window_intervals(col, *WINDOW, workers=4)
        finally:
            pool.shutdown()
            shmcol.release_all()
        deaths = obs.get("parallel.worker_deaths")
        retries = obs.get("parallel.chunk_retries")
        finished_inline = obs.get("parallel.fallback.pool_broken")
    if deaths < 1:
        raise ScenarioFailed("worker died but was never detected")
    if retries < 1 and finished_inline < 1:
        raise ScenarioFailed(
            "lost chunks were neither retried nor finished in-process"
        )
    _expect_window(
        [result], col,
        "post-respawn result differs from the single-process kernel",
    )
    return (
        f"{deaths} death(s) detected, {retries} chunk(s) retried, "
        "result bit-identical"
    )


def _shard_evict(run: Run) -> str:
    """Evict every resident shard mid-scatter: columns already handed to
    the query must stay readable (eviction drops references, not bytes),
    so a budget-squeezed scatter is still bit-identical to the
    single-process kernel — zero torn reads."""
    mappings = _tracks(run.seed, 96 if run.quick else 256)
    with obs.capture():
        manager = ShardManager(ShardedFleet(mappings, 4), budget=1)
        # every:2 → the hook between shard s and s+1 alternates, so the
        # scatter crosses live evictions several times per query.
        with run.armed():
            probes = [sharded_window_intervals(manager, *WINDOW) for _ in range(2)]
        evictions = obs.get("shard.evictions")
    if evictions < 1:
        raise ScenarioFailed("failpoint fired but no shard was ever evicted")
    _expect_window(
        probes, UPointColumn.from_mappings(mappings),
        "a result array differs from the single-process kernel "
        "(torn read through a mid-scatter eviction)",
    )
    return (
        f"{evictions} mid-scatter eviction(s), {len(probes)} probes "
        "bit-identical to the unsharded kernel"
    )


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

#: One row per registered failpoint, plus ``server.overload``.
SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("pagefile.write_crash", "pagefile.write_crash", "once", False,
             _write_crash),
    Scenario("pagefile.torn_write", "pagefile.torn_write", "once", False, _write_crash),
    Scenario("pagefile.read_transient", "pagefile.read_transient", "once", False,
             _read_transient),
    Scenario("pagefile.read_bitflip", "pagefile.read_bitflip", "every:1", False,
             _read_bitflip),
    Scenario("flob.write_crash", "flob.write_crash", "once", False, _write_crash),
    Scenario("wal.append_crash", "wal.append_crash", "once", False, _write_crash),
    Scenario("wal.sync_crash", "wal.sync_crash", "once", False, _write_crash),
    Scenario("wal.torn_tail", "wal.torn_tail", "once", False, _write_crash),
    Scenario("tuplestore.commit_crash", "tuplestore.commit_crash", "once", False,
             _write_crash),
    Scenario("catalog.create_crash", "catalog.create_crash", "once", False,
             _catalog_create),
    Scenario("colstore.write_crash", "colstore.write_crash", "once", False,
             _colstore_save),
    Scenario("colstore.manifest_crash", "colstore.manifest_crash", "once", False,
             _colstore_save),
    Scenario("shmcol.pack_crash", "shmcol.pack_crash", "once", False, _shmcol_pack),
    Scenario("wal.group_commit_crash", "wal.group_commit_crash", "once", False,
             _group_commit),
    Scenario("server.ingest_crash", "server.ingest_crash", "once", False,
             _group_commit),
    # Responses dropped after the work: retries + dedup must absorb it.
    Scenario("server.conn_drop", "server.conn_drop", "prob:0.15:{seed}", True,
             partial(_hammer, absorbed="dropped responses retried")),
    # Stalled response writes park one session, never the server.
    Scenario("server.slow_client", "server.slow_client", "every:5", True,
             partial(_hammer, absorbed="stalled sessions isolated")),
    # Every other ingest delivered twice: dedup must land each once.
    Scenario("ingest.dup_send", "ingest.dup_send", "every:2", True,
             partial(_hammer, absorbed="duplicate sends deduplicated", must_move=[
                 ("ingest.dedup_hits",
                  "duplicates sent but ingest.dedup_hits never moved"),
             ])),
    # Admission control under saturation: shed, hint, retry, recover.
    Scenario("server.overload", None, "", True,
             partial(_hammer, absorbed="shed requests retried after backoff",
                     max_inflight=1, must_move=[
                         ("server.shed",
                          "server never shed under max_inflight=1 saturation"),
                         ("client.retries",
                          "clients never retried a shed request"),
                     ])),
    Scenario("parallel.worker_kill", "parallel.worker_kill", "once", True,
             _worker_kill),
    Scenario("shard.evict_during_query", "shard.evict_during_query", "every:2", True,
             _shard_evict),
)
