"""The asyncio session layer: sockets in, protocol lines out.

One task per connection reads request lines, parses them with
:mod:`repro.server.protocol`, and dispatches to the executor or the
group committer (ingest).  A read runs *whole* in a worker thread —
execution and the rendering of its reply into encoded blocks — so the
loop only ever writes bytes and drains; no row is formatted on it.  The
session layer holds **no** execution state of its own — a malformed or
failing request answers with a single ``ERR`` line and the session
keeps going.

Graceful shutdown: :meth:`QueryServer.stop` closes the listener, lets
in-flight requests drain (bounded), cancels sessions idling in
``readline``, stops the committer (which commits everything already
queued), and syncs the WAL one last time.  Nothing durable is lost by a
polite shutdown; everything durable survives an impolite one.

Overload and deadlines
----------------------
The session layer is also the admission controller.  Requests that do
work are counted in-flight; past ``max_inflight`` (or past the ingest
queue watermark) the server answers ``ERR Overloaded`` with a
``retry_after_ms`` hint instead of queueing without bound — shedding
early keeps the p99 of admitted requests flat while clients back off.
A request carrying ``DEADLINE=<ms>`` gets a monotonic
:class:`~repro.deadline.Deadline`: the executor checks it at chunk
boundaries (cooperative) and the session wraps the await in
``asyncio.wait_for`` (wall-clock backstop), so the client always hears
``ERR DeadlineExceeded`` near the budget even when the work is stuck
somewhere non-cooperative.  STATS and CLOSE bypass admission so an
operator can always inspect an overloaded server.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Awaitable, Dict, List, Optional, TypeVar

from repro import faults, obs
from repro.deadline import Deadline
from repro.errors import DeadlineExceeded, Overloaded, ProtocolError, ReproError
from repro.server import protocol
from repro.server.executor import FleetExecutor
from repro.server.ingest import GroupCommitter, IngestRequest
from repro.storage.wal import Wal

_T = TypeVar("_T")

__all__ = ["QueryServer", "RunningServer", "serve_in_thread"]

#: How long ``stop()`` waits for in-flight requests before cancelling.
_DRAIN_DEADLINE = 5.0

#: Ceiling on the ``retry_after_ms`` backoff hint handed to shed
#: clients — the hint scales with observed latency and queue excess,
#: but a wild p99 sample must not park clients for seconds.
_RETRY_AFTER_CAP_MS = 2000

#: How long one ``server.slow_client`` firing stalls a response write
#: (seconds) — long enough to overlap concurrent traffic, short enough
#: to keep the chaos matrix quick.
_SLOW_CLIENT_STALL_S = 0.05


class QueryServer:
    """The always-on query service: one listener, many sessions."""

    def __init__(
        self,
        executor: FleetExecutor,
        wal: Optional[Wal] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 64,
        max_delay: float = 0.002,
        max_inflight: int = 64,
        ingest_watermark: int = 1024,
    ):
        self._executor = executor
        self._wal = wal
        self._host = host
        self._requested_port = port
        self._committer = GroupCommitter(wal, executor, max_batch, max_delay)
        self._server: Optional[asyncio.AbstractServer] = None
        self._sessions: set = set()
        # Loop-confined admission state: only event-loop callbacks read
        # or write these, so no lock is needed (or wanted — MOD008).
        self._inflight = 0
        self._max_inflight = max(1, int(max_inflight))
        self._ingest_watermark = max(1, int(ingest_watermark))
        self._stopping = False

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` — ask the OS)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def executor(self) -> FleetExecutor:
        return self._executor

    async def start(self) -> None:
        self._committer.start()
        self._server = await asyncio.start_server(
            self._handle_session, self._host, self._requested_port
        )

    async def stop(self) -> None:
        """Drain and shut down; durable state is synced, never torn."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + _DRAIN_DEADLINE
        while self._inflight and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for task in list(self._sessions):
            task.cancel()
        if self._sessions:
            await asyncio.gather(*self._sessions, return_exceptions=True)
        await self._committer.stop()
        if self._wal is not None:
            # fsync is a blocking barrier; never run it on the loop.
            await asyncio.to_thread(self._wal.sync)

    # -- per-session loop --------------------------------------------------

    async def _handle_session(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if obs.enabled:
            obs.add("server.sessions")
        task = asyncio.current_task()
        if task is not None:
            self._sessions.add(task)
        try:
            while not self._stopping:
                raw = await reader.readline()
                if not raw:
                    break
                line = raw.decode("utf-8", "replace")
                self._inflight += 1
                if obs.enabled:
                    obs.high_water("server.inflight", float(self._inflight))
                try:
                    closing = await self._serve_line(line, writer)
                finally:
                    self._inflight -= 1
                if closing:
                    break
        except (asyncio.CancelledError, ConnectionResetError):
            pass
        finally:
            if task is not None:
                self._sessions.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _serve_line(
        self, line: str, writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one request line; True when the session should end."""
        try:
            request = protocol.parse_request(line)
            if request.command == "CLOSE":
                await _write(writer, protocol.frame_lines([protocol.BYE]))
                return True
            self._admit(request)
            deadline = (
                Deadline.after(request.deadline_ms)
                if request.deadline_ms is not None
                else None
            )
            blocks = await self._dispatch(request, deadline)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # ERR answers; the session survives
            if obs.enabled:
                if isinstance(exc, DeadlineExceeded):
                    obs.add("server.timeouts")
                elif not isinstance(exc, Overloaded):
                    # shed requests were already counted by _admit
                    obs.add("server.errors")
            await _write(writer, protocol.frame_lines([protocol.err_line(exc)]))
            return False
        if faults.active and faults.should_fire("server.conn_drop"):
            # The degraded path the chaos matrix drives: the work is
            # done (an INGEST may already be durable) but the response
            # never reaches the wire.  A client retry of that INGEST is
            # what the seq-token dedup table must absorb.
            writer.close()
            return True
        await _write(writer, blocks)
        return False

    def _admit(self, request: protocol.Request) -> None:
        """Admission control: shed instead of queueing without bound.

        ``_inflight`` already counts this request, so the comparison is
        against ``max_inflight`` admitted peers *plus* this one.  INGEST
        is additionally shed when the committer's backlog is past the
        watermark — queries and ingest saturate different resources.
        The ``retry_after_ms`` hint scales with the observed p50 and
        how far past the limit we are, so backoff tracks actual drain
        speed rather than a magic constant.
        """
        if request.command in ("STATS", "CLOSE"):
            return
        excess = self._inflight - self._max_inflight - 1
        if request.command == "INGEST":
            excess = max(
                excess, self._committer.depth() - self._ingest_watermark
            )
        if excess < 0:
            return
        if obs.enabled:
            obs.add("server.shed")
        p50, _ = self._executor.latency_percentiles()
        hint = min(
            _RETRY_AFTER_CAP_MS, max(1, int(max(p50, 1.0) * (excess + 1)))
        )
        raise Overloaded(
            f"server overloaded retry_after_ms={hint}", retry_after_ms=hint
        )

    async def _dispatch(
        self, request: protocol.Request, deadline: Optional[Deadline] = None
    ) -> List[bytes]:
        """The reply to ``request`` as encoded blocks."""
        command = request.command
        if command == "INGEST":
            units = await _bounded(
                self._committer.submit(
                    IngestRequest(
                        request.fleet, request.obj, request.unit,
                        seq=request.seq,
                    )
                ),
                deadline,
            )
            return protocol.frame_lines(
                [protocol.ok_line(units=units), protocol.END]
            )
        reply = asyncio.to_thread(_reply, self._executor, request, deadline)
        if command == "STATS":
            return await reply
        # The read commands: timed, counted, snapshot-isolated.
        started = time.perf_counter()
        blocks = await _bounded(reply, deadline)
        self._executor.record_latency(
            (time.perf_counter() - started) * 1000.0
        )
        if obs.enabled:
            obs.add("server.queries")
            obs.add("server.reply_bytes", sum(map(len, blocks)))
        return blocks


def _reply(
    executor: FleetExecutor,
    request: protocol.Request,
    deadline: Optional[Deadline],
) -> List[bytes]:
    """Execute a read or STATS request and frame its reply.

    Runs under ``asyncio.to_thread``: the executor call and the framing
    of its result share one thread hop, and the event loop sees only
    finished byte blocks (MOD008 keeps row formatting out of
    coroutines).
    """
    command = request.command
    if command == "SNAPSHOT":
        snap, rows = executor.snapshot_rows(
            request.fleet, request.t, request.window, deadline
        )
        return protocol.frame_snapshot(
            snap.version, len(snap), rows.ids, rows.xs, rows.ys, deadline,
            request.format,
        )
    if command == "QUERY":
        results = executor.query_sql(request.sql, deadline)
        lines = [protocol.ok_line(statements=len(results))]
        for res in results:
            if res.rows is None:
                lines.append(f"MSG {protocol._clean(res.message)}")
                continue
            for row in res.rows:
                lines.append(protocol.row_line(
                    **{k: _format_field(v) for k, v in row.items()}
                ))
    elif command == "EXPLAIN":
        plan = executor.explain_sql(request.sql, deadline)
        lines = [protocol.ok_line()]
        lines.extend(f"PLAN {pl}" for pl in plan.splitlines() if pl)
    else:  # STATS
        stats = executor.stats()
        lines = [protocol.ok_line(stats=len(stats))]
        lines.extend(
            protocol.stat_line(name, stats[name]) for name in stats
        )
    lines.append(protocol.END)
    return protocol.frame_lines(lines)


async def _bounded(aw: Awaitable[_T], deadline: Optional[Deadline]) -> _T:
    """Await ``aw`` under the request deadline (wall-clock backstop).

    The executor's cooperative checks normally fire first; this wrapper
    catches the cases they cannot — work parked in a queue, or stuck in
    a chunk between checks.  Cancelling a ``to_thread`` future does not
    stop the thread, but the abandoned work still holds a thread-local
    deadline that is already expired, so its own next check aborts it.
    """
    if deadline is None:
        return await aw
    try:
        return await asyncio.wait_for(aw, timeout=deadline.remaining_s())
    except asyncio.TimeoutError:
        raise DeadlineExceeded(
            f"request deadline of {deadline.budget_ms:g}ms exceeded"
        ) from None


def _format_field(value: object) -> str:
    """Unwrap query-result values the way the CLI's tables do."""
    from repro.base.instant import Instant
    from repro.base.values import BaseValue

    if isinstance(value, BaseValue):
        return str(value.value) if value.defined else "⊥"
    if isinstance(value, Instant):
        return f"{value.value:g}" if value.defined else "⊥"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


async def _write(writer: asyncio.StreamWriter, blocks: List[bytes]) -> None:
    """Write reply blocks with backpressure.

    ``StreamWriter.write`` only buffers; without ``drain()`` a client
    that stops reading lets a big SNAPSHOT/QUERY response grow the
    transport buffer without bound.  Draining after every block
    (``protocol.BLOCK_ROWS`` lines) parks *this* session (and only this
    session) until the peer catches up.
    """
    for block in blocks:
        if faults.active and faults.should_fire("server.slow_client"):
            # A peer that stops reading: park this session mid-response
            # the way a full transport buffer would.  Only this session
            # stalls — the chaos matrix asserts concurrent sessions
            # keep answering.
            await asyncio.sleep(_SLOW_CLIENT_STALL_S)
        writer.write(block)
        await writer.drain()


# -- running the server off-thread (tests, benchmarks, the CLI) -----------


class RunningServer:
    """Handle on a :class:`QueryServer` running in a background thread."""

    def __init__(self, holder: Dict[str, Any], thread: threading.Thread):
        self._holder = holder
        self._thread = thread

    @property
    def port(self) -> int:
        return self._holder["server"].port

    @property
    def server(self) -> QueryServer:
        return self._holder["server"]

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful shutdown; returns once the thread has exited."""
        loop = self._holder.get("loop")
        stopper = self._holder.get("stopper")
        if loop is not None and stopper is not None and self._thread.is_alive():
            loop.call_soon_threadsafe(stopper.set)
        self._thread.join(timeout)


def serve_in_thread(
    executor: FleetExecutor,
    wal: Optional[Wal] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: Any,
) -> RunningServer:
    """Start a :class:`QueryServer` on a daemon thread with its own loop.

    Blocks until the listener is bound, so ``.port`` is valid on return.
    Call :meth:`RunningServer.stop` for a graceful drain + shutdown.
    """
    holder: Dict[str, Any] = {}
    ready = threading.Event()

    def runner() -> None:
        async def main() -> None:
            server = QueryServer(
                executor, wal=wal, host=host, port=port, **kwargs
            )
            await server.start()
            holder["server"] = server
            holder["loop"] = asyncio.get_running_loop()
            holder["stopper"] = asyncio.Event()
            ready.set()
            await holder["stopper"].wait()
            await server.stop()

        try:
            asyncio.run(main())
        except BaseException as exc:
            holder["error"] = exc
        finally:
            ready.set()

    thread = threading.Thread(target=runner, name="repro-server", daemon=True)
    thread.start()
    ready.wait(10.0)
    if "error" in holder:
        raise holder["error"]
    if "server" not in holder:
        raise RuntimeError("query server failed to start within 10s")
    return RunningServer(holder, thread)
