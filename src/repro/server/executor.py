"""Execution state of the query service: fleets and snapshots.

The executor owns everything the protocol layer must never touch
directly: the live :class:`~repro.vector.cache.Fleet` containers, the
SQL database, and the mutation lock that serializes ingest against
column builds.  Sessions hand it parsed requests and get immutable
values back — statement results, or the kernel's own arrays.

Snapshot isolation
------------------
Every read pins a :class:`Snapshot` at start: the fleet's version stamp
plus an immutable tuple of its members (``fleet.members()`` — built once
per version and shared by every pin taken at it, so pinning costs the
same at any fleet size).  Ingest never mutates a
``Mapping`` in place — it *replaces* the member with a new mapping that
shares the old unit slices (:meth:`repro.temporal.mapping.Mapping.
appended`) — so a pinned tuple keeps describing exactly the pre-ingest
fleet no matter how far the live fleet moves on.  Columns are pinned by
version: a cached column whose stamp equals the pin is served as-is;
otherwise the column is rebuilt from the pinned members, never from the
moved-on fleet.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import (
    TYPE_CHECKING, Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro import deadline as deadline_mod
from repro import faults, obs
from repro.analysis import dynlock
from repro.deadline import Deadline
from repro.errors import InvalidValue, QueryError, StorageError
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint
from repro.vector import backends
from repro.vector.cache import Fleet, advance_column, column_for_versioned
from repro.vector.columns import KINDS

if TYPE_CHECKING:
    from repro.db.catalog import Database
    from repro.db.script import StatementResult

__all__ = ["FleetExecutor", "Snapshot", "SnapshotRows"]

#: Latency samples kept for the p50/p99 gauges (a sliding window).
_LATENCY_WINDOW = 512

#: Idempotency tokens remembered per executor.  Bounded FIFO: a token
#: older than the most recent 64k ingests can no longer collide with a
#: live retry (retries are bounded in time), so evicting it is safe.
_DEDUP_CAPACITY = 65536


class Snapshot:
    """An immutable read view of one fleet, pinned at a version stamp."""

    __slots__ = ("version", "items")

    def __init__(self, fleet: Fleet):
        self.version = fleet.version
        self.items: Tuple[Any, ...] = fleet.members()

    def __len__(self) -> int:
        return len(self.items)


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


class FleetExecutor:
    """Owns fleets and the SQL database; executes requests.

    Thread-safe: sessions call in from worker threads while the ingest
    committer applies batches — every state access runs under one
    re-entrant lock, and the computed results (snapshots, columns,
    statement rows) are immutable once returned.  The lock discipline
    is declared in the ``GUARDED_BY`` registry (repro.analysis.rules)
    and enforced by lint rule MOD007; ``_latencies`` sits under its own
    micro-lock so recording a sample from the event loop never waits
    behind an ingest apply holding the main lock.
    """

    def __init__(self, db: Optional[Database] = None):
        self._lock = dynlock.rlock("server.executor")
        self._lat_lock = dynlock.rlock("server.executor.latency")
        self._fleets: Dict[str, Fleet] = {}
        # Units per fleet, kept incrementally so STATS is O(fleets).
        self._unit_counts: Dict[str, int] = {}
        # The SQL engine loads with the first QUERY / EXPLAIN (``_database``):
        # a server that only serves SNAPSHOT and INGEST never imports it.
        self._db = db
        self._latencies: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        # Idempotency table: seq token -> the unit count the original
        # apply returned.  Replay repopulates it (tokens ride in the WAL
        # record), so dedup survives restarts.
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
        mappings: Sequence[MovingPoint],
        index: bool = True,
    ) -> Fleet:
        """Adopt ``mappings`` as the live fleet ``name``.

        Re-registering a name replaces the fleet.  ``index`` is accepted
        and ignored: the executor keeps no spatial index (a window is a
        mask on the kernel's output, see DESIGN.md).
        """
        fleet = Fleet(mappings)
        units = sum(len(m.units) for m in fleet.members())
        with self._lock:
            self._fleets[name] = fleet
            self._unit_counts[name] = units
        return fleet

    def fleet_names(self) -> List[str]:
        with self._lock:
            return sorted(self._fleets)

    def _fleet(self, name: str) -> Fleet:
        fleet = self._fleets.get(name)
        if fleet is None:
            raise QueryError(f"no fleet named {name!r}")
        return fleet

    def fleet(self, name: str) -> Fleet:
        with self._lock:
            return self._fleet(name)

    # -- snapshot-isolated reads ------------------------------------------

    def snapshot(self, name: str) -> Snapshot:
        """Pin an immutable view of fleet ``name`` at its current version."""
        with self._lock:
            return Snapshot(self._fleet(name))

    def _pinned_column(
        self, fleet: Fleet, snap: Snapshot, kind: str
    ) -> Optional[Any]:
        """The ``kind`` column describing exactly ``snap``, or None when
        only the scalar path can evaluate the pinned members.

        Must run under the lock: the shared column cache may build here,
        and a build that interleaved with an ingest apply could pair the
        pinned stamp with post-ingest bytes.
        """
        try:
            version, col = column_for_versioned(fleet, kind)
            if version == snap.version:
                return col
            # The fleet moved on past the pin: build from the pinned
            # members themselves (immutable, so always consistent).
            return KINDS[kind].from_mappings(snap.items)
        except (InvalidValue, StorageError):
            return None

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
        snapshot exactly: ingest applied after the pin is invisible.

        ``deadline`` is checked before pinning; the framing layer
        checks it again per block of rows it renders.
        """
        if deadline is not None:
            deadline.check()
        with self._lock:
            fleet = self._fleet(name)
            snap = Snapshot(fleet)
            col = self._pinned_column(fleet, snap, "upoint")
        # The ``atinstant`` table entry over the pinned column, in
        # process; its scalar reference loop when no column can describe
        # the pin.
        if col is not None:
            xs, ys, defined = backends.on_column(
                "atinstant", col, (t,), backend="vector"
            )
        else:
            xs, ys, defined = backends.evaluate(
                "atinstant", snap.items, (t,), backend="scalar", arrays=True
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

        The apply is the one writer of the served fleets, so it also
        advances their cached ``upoint`` columns: after the loop, each
        fleet the batch changed has its column spliced forward over the
        objects the batch replaced or appended
        (:func:`repro.vector.cache.advance_column`), before the ack and
        under this lock, so the next read is a hit.  A batch that raises
        advances nothing; the next read rebuilds.
        """
        out: List[Any] = []
        # fleet name -> (fleet, version before its first change, objects
        # changed in order: one version bump each).
        touched: Dict[str, Tuple[Fleet, int, List[int]]] = {}
        with self._lock:
            for req in requests:
                if faults.active:
                    faults.fail("server.ingest_crash")
                fleet = self._fleets.get(req.fleet)
                since = fleet.version if fleet is not None else 0
                try:
                    out.append(self._apply_one(req))
                except (InvalidValue, QueryError) as exc:
                    out.append(exc)
                if fleet is not None and fleet.version != since:
                    touched.setdefault(req.fleet, (fleet, since, []))[2].append(
                        req.obj
                    )
            for fleet, since, objs in touched.values():
                # Anything but this loop moving the fleet leaves its
                # column to the next read.
                if fleet.version == since + len(objs):
                    advance_column(fleet, since, objs)
        return out

    def _apply_one(self, req: Any) -> int:
        seq = getattr(req, "seq", "")
        if seq:
            cached = self._dedup.get(seq)
            if cached is not None:
                # A retry of an ingest that already applied (the ack was
                # lost, or the WAL record replayed twice): answer from
                # the table instead of appending a duplicate slice.
                if obs.enabled:
                    obs.add("ingest.dedup_hits")
                return cached
        count = self._append_unit(req)
        if seq:
            self._dedup[seq] = count
            while len(self._dedup) > _DEDUP_CAPACITY:
                self._dedup.popitem(last=False)
        return count

    def _append_unit(self, req: Any) -> int:
        fleet = self._fleet(req.fleet)
        t0, x0, y0, t1, x1, y1 = req.unit
        obj = req.obj
        if not 0 <= obj <= len(fleet):
            raise InvalidValue(
                f"object index {obj} outside fleet "
                f"{req.fleet!r} ({len(fleet)} objects)"
            )
        prior = fleet[obj] if obj < len(fleet) else None
        lc = True
        if prior is not None and prior.units:
            last = prior.units[-1].interval
            if last.rc and t0 <= last.e:
                # Streaming continuation: the previous slice owns the
                # shared boundary instant, so the new one opens left.
                lc = False
        unit = UPoint.between(t0, (x0, y0), t1, (x1, y1), lc=lc, rc=True)
        if prior is None:
            grown: MovingPoint = MovingPoint([unit])
            fleet.append(grown)
        else:
            grown = prior.appended(unit)
            fleet[obj] = grown
        self._unit_counts[req.fleet] += 1
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
        if obs.enabled:
            obs.high_water("server.query_p50_ms", p50)
            obs.high_water("server.query_p99_ms", p99)
        return p50, p99

    def stats(self) -> Dict[str, object]:
        """A flat name → value map for the STATS response."""
        out: Dict[str, object] = {}
        with self._lock:
            for name in sorted(self._fleets):
                fleet = self._fleets[name]
                out[f"fleet.{name}.objects"] = len(fleet)
                out[f"fleet.{name}.units"] = self._unit_counts[name]
                out[f"fleet.{name}.version"] = fleet.version
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
