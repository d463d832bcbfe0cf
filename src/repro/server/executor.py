"""Execution state of the query service: fleets and snapshots.

The executor owns everything the protocol layer must never touch
directly: the served fleets, the SQL database, and two locks — a writer
lock that serializes ingest applies and registrations, and the executor
lock, which readers take only to find a fleet and writers only to
publish.  Sessions hand it parsed requests and get immutable values
back — statement results, or the kernel's own arrays.

A served fleet is its column
----------------------------
Each fleet is a :class:`~repro.vector.cache.ServedFleet`: one immutable
``upoint`` column (Section 4's root records and unit arrays, for the
whole fleet) and the version it describes — no Python object per unit.
Registration transcribes the members a chunk at a time, so a generated
fleet never exists whole; a read runs its kernel on the column.

Snapshot isolation
------------------
Every read pins a :class:`Snapshot`: the fleet's ``(version, column)``,
one attribute read.  Ingest never changes a column.  An apply
materializes only the objects it appends to, checks each new unit with
:meth:`repro.temporal.mapping.Mapping.appended`, builds the next column
outside the executor lock (``UnitColumn.extended`` splices the changed
objects into a copy), and publishes column, version and idempotency
entries together under it — so a pin keeps describing exactly the fleet
it was taken at, and a read never waits for a splice.  Members
materialize on demand: from the pinned column (``Snapshot.items``) or
from the live one (:meth:`FleetExecutor.fleet`).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import (
    TYPE_CHECKING, Any, Deque, Dict, Iterable, Iterator, List, Optional,
    Sequence, Tuple,
)

import numpy as np

from repro import deadline as deadline_mod
from repro import faults, obs
from repro.analysis import dynlock
from repro.deadline import Deadline
from repro.errors import InvalidValue, QueryError
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint
from repro.vector import backends
from repro.vector.cache import ServedFleet
from repro.vector.columns import UPointColumn

if TYPE_CHECKING:
    from repro.db.catalog import Database
    from repro.db.script import StatementResult

__all__ = ["FleetExecutor", "Snapshot", "SnapshotRows"]

#: Latency samples kept for STATS' ``query_p50_ms`` / ``query_p99_ms``
#: and the shed reply's ``retry_after_ms`` hint (a sliding window).
_LATENCY_WINDOW = 512

#: Idempotency tokens remembered per executor.  Bounded FIFO: a token
#: older than the most recent 64k ingests can no longer collide with a
#: live retry (retries are bounded in time), so evicting it is safe.
_DEDUP_CAPACITY = 65536


class Snapshot:
    """An immutable read view of one served fleet: the ``(version,
    column)`` it held when pinned."""

    __slots__ = ("version", "column")

    def __init__(self, fleet: ServedFleet):
        self.version, self.column = fleet.pin()

    @property
    def items(self) -> Tuple[MovingPoint, ...]:
        """The pinned members, built from the pinned column when asked."""
        return tuple(self.column.to_mappings())

    def __len__(self) -> int:
        return self.column.n_objects


class SnapshotRows:
    """The ``(object index, x, y)`` rows of one read, kept as arrays.

    ``ids``/``xs``/``ys`` are what the kernel produced, masked down to
    the defined (and in-window) lanes; the framing layer renders them
    in blocks without a per-row Python object in between.  As a
    sequence it reads like the list of tuples it replaces: ``len()``,
    iteration yielding ``(int, float, float)``, and ``==`` against such
    a list (or another ``SnapshotRows``).
    """

    __slots__ = ("ids", "xs", "ys")

    def __init__(self, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray):
        self.ids = ids
        self.xs = xs
        self.ys = ys

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Tuple[int, float, float]]:
        return zip(self.ids.tolist(), self.xs.tolist(), self.ys.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (SnapshotRows, list)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"SnapshotRows({list(self)!r})"


class _Draft:
    """One fleet's changes within an apply batch, before they publish.

    ``members`` holds the object each applied unit grew or appended, by
    index; as a sequence (``len``, ``[i]`` for a changed ``i``) the draft
    is what :meth:`UnitColumn.extended` splices into the base column.
    """

    __slots__ = ("fleet", "version", "column", "n_objects", "members")

    def __init__(self, fleet: ServedFleet):
        self.fleet = fleet
        self.version, self.column = fleet.pin()
        self.n_objects = self.column.n_objects
        self.members: Dict[int, MovingPoint] = {}

    def __len__(self) -> int:
        return self.n_objects

    def __getitem__(self, i: int) -> MovingPoint:
        return self.members[i]

    def member(self, i: int) -> Optional[MovingPoint]:
        """Object ``i`` as this batch left it; None past the end."""
        member = self.members.get(i)
        if member is None and i < self.column.n_objects:
            member = self.column.mapping_at(i)
        return member

    def next_column(self) -> UPointColumn:
        """The base column with every changed object spliced in."""
        return self.column.extended(self, self.members)


class FleetExecutor:
    """Owns fleets and the SQL database; executes requests.

    Thread-safe: sessions call in from worker threads while the ingest
    committer applies batches.  Writers (``apply_units``,
    ``register_fleet``) serialize on ``_write_lock`` and take the
    executor lock ``_lock`` only to publish; readers take ``_lock`` only
    to find a fleet and pin it, so a read never waits for a splice.
    Snapshots, columns and statement rows are immutable once returned.
    The lock discipline is declared in the ``GUARDED_BY`` registry
    (repro.analysis.rules) and enforced by lint rule MOD007;
    ``_latencies`` sits under its own micro-lock so recording a sample
    from the event loop never waits behind anything.
    """

    def __init__(self, db: Optional[Database] = None):
        self._lock = dynlock.rlock("server.executor")
        self._write_lock = dynlock.rlock("server.executor.writer")
        self._lat_lock = dynlock.rlock("server.executor.latency")
        self._fleets: Dict[str, ServedFleet] = {}
        # The SQL engine loads with the first QUERY / EXPLAIN (``_database``):
        # a server that only serves SNAPSHOT and INGEST never imports it.
        self._db = db
        self._latencies: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        # Idempotency table: seq token -> the unit count the original
        # apply returned.  Only writers read it.  Replay repopulates it
        # (tokens ride in the WAL record), so dedup survives restarts.
        self._dedup: "OrderedDict[str, int]" = OrderedDict()

    @property
    def db(self) -> Database:
        """The server's SQL database, the same object on every call."""
        with self._lock:
            return self._database()

    def _database(self) -> Database:
        """The database, created on first use.  Caller holds the lock."""
        if self._db is None:
            from repro.db.catalog import Database

            self._db = Database("server")
        return self._db

    # -- fleet registry ---------------------------------------------------

    def register_fleet(
        self,
        name: str,
        mappings: Iterable[MovingPoint],
        index: bool = True,
    ) -> ServedFleet:
        """Serve ``mappings`` as the fleet ``name``.

        ``mappings`` is any iterable of moving points (a list, or a
        generator that never holds the whole fleet): it is transcribed a
        chunk at a time into the fleet's column
        (:meth:`ServedFleet.from_mappings`), and a member no ``upoint``
        column can hold raises :class:`InvalidValue` with nothing
        registered.  Re-registering a name replaces the fleet.
        ``index`` is accepted and ignored: the executor keeps no spatial
        index (a window is a mask on the kernel's output, see DESIGN.md).
        """
        fleet = ServedFleet.from_mappings(mappings)
        with self._write_lock:
            with self._lock:
                self._fleets[name] = fleet
        return fleet

    def fleet_names(self) -> List[str]:
        with self._lock:
            return sorted(self._fleets)

    def _fleet(self, name: str) -> ServedFleet:
        fleet = self._fleets.get(name)
        if fleet is None:
            raise QueryError(f"no fleet named {name!r}")
        return fleet

    def fleet(self, name: str) -> ServedFleet:
        """The live fleet ``name``: a read-only sequence whose members
        are built from the served column when asked."""
        with self._lock:
            return self._fleet(name)

    # -- snapshot-isolated reads ------------------------------------------

    def snapshot(self, name: str) -> Snapshot:
        """Pin an immutable view of fleet ``name`` at its current version."""
        with self._lock:
            return Snapshot(self._fleet(name))

    def snapshot_rows(
        self,
        name: str,
        t: float,
        window: Optional[Tuple[float, float, float, float]] = None,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[Snapshot, SnapshotRows]:
        """Defined positions of fleet ``name`` at instant ``t``.

        Returns ``(snapshot, rows)`` with one ``(object index, x, y)``
        row per member defined at ``t`` — filtered to ``window`` (a
        closed ``xmin ymin xmax ymax`` rectangle) when given.  The
        window is a mask over the kernel's output arrays, not an index
        probe: the whole-fleet kernel is cheaper than any search that
        could stand in front of it.  The rows describe the pinned
        column exactly: ingest published after the pin is invisible.

        ``deadline`` is checked before pinning; the framing layer
        checks it again per block of rows it renders.
        """
        if deadline is not None:
            deadline.check()
        with self._lock:
            snap = Snapshot(self._fleet(name))
        # The ``atinstant`` table entry over the pinned column, in process.
        xs, ys, defined = backends.on_column(
            "atinstant", snap.column, (t,), backend="vector"
        )
        if window is not None:
            xmin, ymin, xmax, ymax = window
            defined = (
                defined
                & (xmin <= xs) & (xs <= xmax)
                & (ymin <= ys) & (ys <= ymax)
            )
        ids = np.flatnonzero(defined)
        return snap, SnapshotRows(ids, xs[ids], ys[ids])

    # -- SQL --------------------------------------------------------------

    def query_sql(
        self, sql: str, deadline: Optional[Deadline] = None
    ) -> List[StatementResult]:
        """Run a SQL script against the server's database.

        When a ``deadline`` is given it is checked on entry and bound
        thread-locally for the duration, so nested layers (the planner's
        parallel dispatch in particular) inherit the budget without the
        SQL machinery growing a parameter.
        """
        if deadline is not None:
            deadline.check()
        from repro.db.script import run_script

        with self._lock:
            with deadline_mod.active(deadline):
                return run_script(self._database(), sql)

    def explain_sql(
        self, sql: str, deadline: Optional[Deadline] = None
    ) -> str:
        """The plan for a SELECT (EXPLAIN is prepended when missing)."""
        stmt = sql.strip()
        if not stmt.lower().startswith("explain"):
            stmt = f"EXPLAIN {stmt}"
        results = self.query_sql(stmt, deadline=deadline)
        return results[-1].message if results else ""

    # -- ingest apply ------------------------------------------------------

    def apply_units(self, requests: Sequence[Any]) -> List[Any]:
        """Apply one durable ingest batch to the live fleets, in order.

        Each element of ``requests`` is an
        :class:`repro.server.ingest.IngestRequest`; the result list
        carries, positionally, the appended object's new unit count or
        the error that rejected it — :class:`QueryError` for an unknown
        fleet, :class:`InvalidValue` for a bad object index or unit (a
        rejection is deterministic, so recovery replay re-derives it
        instead of failing on a record the live path refused).  The
        ``server.ingest_crash`` failpoint fires *inside* the apply loop
        — after the WAL barrier — so the crash matrix can prove that
        recovery resurrects a durable batch the process died applying.

        The batch runs under the writer lock and stages its changes: the
        objects it grew or appended (:class:`_Draft`) and its idempotency
        tokens.  Each changed fleet's next column is spliced outside the
        executor lock, and the columns, versions and tokens are published
        together under it.  A batch that raises publishes nothing.
        """
        out: List[Any] = []
        with self._write_lock:
            drafts: Dict[str, _Draft] = {}
            tokens: Dict[str, int] = {}
            for req in requests:
                if faults.active:
                    faults.fail("server.ingest_crash")
                try:
                    out.append(self._apply_one(req, drafts, tokens))
                except (InvalidValue, QueryError) as exc:
                    out.append(exc)
            spliced = [
                (draft, draft.next_column())
                for draft in drafts.values() if draft.members
            ]
            with self._lock:
                for draft, column in spliced:
                    draft.fleet.publish(draft.version, column, draft.members)
                self._dedup.update(tokens)
                while len(self._dedup) > _DEDUP_CAPACITY:
                    self._dedup.popitem(last=False)
        return out

    def _apply_one(
        self, req: Any, drafts: Dict[str, _Draft], tokens: Dict[str, int]
    ) -> int:
        """One request of a batch.  Caller holds the writer lock."""
        seq = getattr(req, "seq", "")
        if seq:
            cached = tokens.get(seq)
            if cached is None:
                cached = self._dedup.get(seq)
            if cached is not None:
                # A retry of an ingest that already applied (the ack was
                # lost, or the WAL record replayed twice): answer from
                # the table instead of appending a duplicate slice.
                if obs.enabled:
                    obs.add("ingest.dedup_hits")
                return cached
        draft = drafts.get(req.fleet)
        if draft is None:
            with self._lock:
                draft = drafts[req.fleet] = _Draft(self._fleet(req.fleet))
        count = self._append_unit(req, draft)
        if seq:
            tokens[seq] = count
        return count

    @staticmethod
    def _append_unit(req: Any, draft: _Draft) -> int:
        t0, x0, y0, t1, x1, y1 = req.unit
        obj = req.obj
        if not 0 <= obj <= len(draft):
            raise InvalidValue(
                f"object index {obj} outside fleet "
                f"{req.fleet!r} ({len(draft)} objects)"
            )
        prior = draft.member(obj)
        lc = True
        if prior is not None and prior.units:
            last = prior.units[-1].interval
            if last.rc and t0 <= last.e:
                # Streaming continuation: the previous slice owns the
                # shared boundary instant, so the new one opens left.
                lc = False
        unit = UPoint.between(t0, (x0, y0), t1, (x1, y1), lc=lc, rc=True)
        grown = MovingPoint([unit]) if prior is None else prior.appended(unit)
        draft.members[obj] = grown
        draft.version += 1
        if obj == draft.n_objects:
            draft.n_objects += 1
        if obs.enabled:
            obs.add("ingest.units")
        return len(grown.units)

    # -- latency + stats ---------------------------------------------------

    def record_latency(self, ms: float) -> None:
        """Record one query's wall time (milliseconds).

        Cheap enough to call straight from the event loop: an O(1)
        append under a dedicated lock that is never held across real
        work.  (Bare ``deque.append`` + ``sorted(self._latencies)``
        happens to be safe on today's CPython only because both run as
        single C calls under the GIL with float elements — an
        implementation detail, not a contract; the lock makes the
        invariant explicit and survives free-threaded builds.)
        """
        with self._lat_lock:
            self._latencies.append(ms)

    def latency_percentiles(self) -> Tuple[float, float]:
        """``(p50, p99)`` over the sliding window, in milliseconds."""
        with self._lat_lock:
            lat = sorted(self._latencies)
        if not lat:
            return 0.0, 0.0
        p50 = lat[int(0.50 * (len(lat) - 1))]
        p99 = lat[int(0.99 * (len(lat) - 1))]
        return p50, p99

    def stats(self) -> Dict[str, object]:
        """A flat name → value map for the STATS response."""
        out: Dict[str, object] = {}
        with self._lock:
            pins = {name: self._fleets[name].pin() for name in sorted(self._fleets)}
        for name, (version, column) in pins.items():
            out[f"fleet.{name}.objects"] = column.n_objects
            out[f"fleet.{name}.units"] = column.n_units
            out[f"fleet.{name}.version"] = version
        p50, p99 = self.latency_percentiles()
        out["query_p50_ms"] = round(p50, 3)
        out["query_p99_ms"] = round(p99, 3)
        if obs.enabled:
            counts = obs.snapshot()["counters"]
            for key in sorted(counts):
                if key.startswith(("server.", "ingest.", "colcache.",
                                   "wal.", "parallel.")):
                    out[key] = counts[key]
        return out
