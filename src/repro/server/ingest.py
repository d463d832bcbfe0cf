"""WAL-durable ingestion: group commit, recovery replay.

The write path of the query service in one place, shaped so the crash
matrix can drive it without a running event loop:

* :func:`commit` — the synchronous core.  Appends one ``INGEST`` WAL
  record per request, crosses the durability barrier with a *single*
  ``sync()`` for the whole batch (group commit), then applies the batch
  to the live fleets.  Two failpoints bracket the barrier:
  ``wal.group_commit_crash`` fires before the sync (the batch must be
  lost on recovery) and ``server.ingest_crash`` fires after it, inside
  the apply loop (the batch is durable, so recovery must resurrect it)
  — the same two-sided contract ``tuplestore.commit_crash`` proves for
  relation commits.
* :class:`GroupCommitter` — the asyncio wrapper sessions talk to.  One
  background task drains a queue, coalescing concurrent ``INGEST``
  requests into batches so N clients pay one fsync, not N.
* :func:`replay_ingest` — recovery: re-applies the durable ``INGEST``
  prefix in log order.  Application is deterministic (a pure function
  of fleet state and record), so units rejected live are re-rejected on
  replay and accepted ones land bit-identically.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro import faults, obs
from repro.errors import SimulatedCrash
from repro.storage import wal as walmod
from repro.storage.wal import Wal, WalRecord

__all__ = ["GroupCommitter", "IngestRequest", "commit", "replay_ingest"]

_SCOPE_PREFIX = "fleet:"


@dataclass(frozen=True)
class IngestRequest:
    """One unit slice bound for object ``obj`` of fleet ``fleet``.

    ``seq`` is the client's idempotency token (empty when the client
    did not supply one).  It rides in the WAL record, so the executor's
    dedup table is rebuilt by replay and a retry deduplicates across a
    restart just as it does live.
    """

    fleet: str
    obj: int
    unit: Tuple[float, float, float, float, float, float]  # t0 x0 y0 t1 x1 y1
    seq: str = ""


def encode_record(req: IngestRequest) -> Tuple[str, bytes]:
    """``(scope, payload)`` of the WAL record logging ``req``."""
    scope = _SCOPE_PREFIX + req.fleet
    doc = {"obj": req.obj, "unit": list(req.unit)}
    if req.seq:
        doc["seq"] = req.seq
    payload = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    return scope, payload


def decode_record(rec: WalRecord) -> IngestRequest:
    """Rebuild the request an ``INGEST`` record logged.

    The WAL's CRC framing already vouches for the bytes, so a payload
    that fails to decode here is a logic error, not corruption — it is
    allowed to raise.
    """
    doc = json.loads(rec.payload.decode("utf-8"))
    fleet = rec.scope[len(_SCOPE_PREFIX):] if rec.scope.startswith(
        _SCOPE_PREFIX
    ) else rec.scope
    t0, x0, y0, t1, x1, y1 = (float(v) for v in doc["unit"])
    return IngestRequest(
        fleet, int(doc["obj"]), (t0, x0, y0, t1, x1, y1),
        seq=str(doc.get("seq", "")),
    )


def commit(
    wal: Optional[Wal], executor: Any, requests: List[IngestRequest]
) -> List[Any]:
    """Durably commit and apply one ingest batch; the synchronous core.

    Returns one result per request, positionally: the object's new unit
    count, or the error that rejected it (see ``apply_units``).
    With a WAL, the whole batch becomes durable under a single fsync
    before any of it is applied; without one the server is memory-only
    and the batch applies directly.
    """
    if not requests:
        return []
    if wal is not None:
        for req in requests:
            scope, payload = encode_record(req)
            wal.append(walmod.INGEST, payload, scope=scope)
        if faults.active:
            try:
                faults.fail("wal.group_commit_crash")
            except SimulatedCrash:
                # Died before the barrier: the buffered batch evaporates
                # exactly as an un-fsynced page cache would.
                wal.crash()
                raise
        wal.sync()
    if obs.enabled:
        obs.add("ingest.group_commits")
    return executor.apply_units(requests)


def replay_ingest(wal: Wal, executor: Any) -> int:
    """Re-apply the durable ``INGEST`` prefix; recovery's ingest half.

    Returns the number of units that landed.  Records the live path
    rejected are re-rejected here (deterministically), so replay never
    invents state a client was told did not exist.
    """
    requests = [
        decode_record(rec)
        for rec in wal.records()
        if rec.rec_type == walmod.INGEST
    ]
    if not requests:
        return 0
    applied = 0
    for result in executor.apply_units(requests):
        if not isinstance(result, Exception):
            applied += 1
    if obs.enabled and applied:
        obs.add("ingest.replayed", applied)
    return applied


class GroupCommitter:
    """Coalesces concurrent ``INGEST`` requests into group commits.

    Sessions :meth:`submit` requests and await their individual result;
    one background task drains the queue, gathers up to ``max_batch``
    requests (waiting at most ``max_delay`` seconds for stragglers once
    the first arrives), and runs :func:`commit` in a worker thread so
    the event loop never blocks on fsync.
    """

    def __init__(
        self,
        wal: Optional[Wal],
        executor: Any,
        max_batch: int = 64,
        max_delay: float = 0.002,
    ):
        self._wal = wal
        self._executor = executor
        self._max_batch = max_batch
        self._max_delay = max_delay
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    def depth(self) -> int:
        """Requests queued but not yet batched (the backlog gauge the
        admission controller reads; ``asyncio.Queue.qsize`` is a plain
        loop-confined read, safe to call synchronously)."""
        return self._queue.qsize()

    async def submit(self, request: IngestRequest) -> int:
        """Enqueue one request; resolves once its batch is durable and
        applied (with the unit count), or raises its rejection."""
        self.start()
        fut = asyncio.get_running_loop().create_future()
        await self._queue.put((request, fut))
        return await fut

    async def stop(self) -> None:
        """Drain everything already queued, then stop the batcher."""
        if self._task is None:
            return
        await self._queue.put(None)
        await self._task
        self._task = None

    async def _run(self) -> None:
        while True:
            item = await self._queue.get()
            if item is None:
                return
            batch = [item]
            stopping = False
            while len(batch) < self._max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    if self._max_delay <= 0:
                        break
                    try:
                        nxt = await asyncio.wait_for(
                            self._queue.get(), self._max_delay
                        )
                    except asyncio.TimeoutError:
                        break
                if nxt is None:
                    stopping = True
                    break
                batch.append(nxt)
            await self._commit_batch(batch)
            if stopping:
                return

    async def _commit_batch(self, batch: List[Tuple[IngestRequest, Any]]) -> None:
        requests = [req for req, _ in batch]
        futures = [fut for _, fut in batch]
        try:
            results = await asyncio.to_thread(
                commit, self._wal, self._executor, requests
            )
        except BaseException as exc:  # includes SimulatedCrash
            for fut in futures:
                if not fut.done():
                    fut.set_exception(exc)
            return
        for fut, result in zip(futures, results):
            if fut.done():
                continue
            if isinstance(result, Exception):
                fut.set_exception(result)
            else:
                fut.set_result(result)
