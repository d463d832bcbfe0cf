"""A small blocking client for the query-service line protocol.

For tests, benchmarks, and shell scripting — one socket, synchronous
request/response, responses returned as parsed :class:`Reply` values.
Not an ORM: rows come back as the ``key=value`` dictionaries the wire
carries.

:meth:`ServerClient.snapshot` asks for the binary frame
(``FORMAT=bin``, see :mod:`repro.server.protocol`): the table arrives as
the bytes the server's arrays were and becomes :attr:`Reply.table`, a
read-only structured array (``obj``, ``x``, ``y``), with one
``np.frombuffer`` and no string in between — ``reply.table["x"]`` is
the column.  :attr:`Reply.rows` of such a reply is a lazy read-only
sequence over that table yielding the very dictionaries a text reply
parses to (float64 round-trips through ``repr`` exactly), so a caller
written against rows does not care which framing it was served.  What is
parsed is decided by the reply header, not by what was asked: the text
framing, for debugging, is ``request("SNAPSHOT <fleet> <t>")``.

Resilience
----------
The client owns the retry half of the service's overload contract:

* Every read is bounded by a per-request socket deadline; a server
  that stops answering surfaces as the typed :class:`ClientTimeout`
  (counted ``client.timeouts``) rather than a hang.
* ``ERR Overloaded`` answers carry a ``retry_after_ms`` hint; the
  client honours it, padded with capped jittered exponential backoff
  (:func:`jittered_backoff`) so a thundering herd decorrelates.
  Shed requests did no work, so they retry unconditionally.
* Timeouts and dropped connections are retried only for *idempotent*
  requests.  :meth:`ingest` is always idempotent: the client stamps
  each unit with a ``SEQ=<client_id>:<n>`` token, and the server's
  dedup table makes a retry of an applied-but-unacked ingest
  exactly-once.
* A reply that timed out, tore or did not parse leaves bytes of unknown
  meaning on the socket, so the client hangs up and the next request
  (a retry or the caller's own) opens a fresh connection — or raises
  :class:`ConnectionLost` at once when the server refuses it.  A client
  the caller closed stays closed.
"""

from __future__ import annotations

import itertools
import os
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, obs
from repro.errors import ProtocolError, ReproError
from repro.server.protocol import ROW_DTYPE

__all__ = [
    "ClientTimeout",
    "ConnectionLost",
    "Reply",
    "ServerClient",
    "ServerError",
    "jittered_backoff",
]


class ServerError(ReproError):
    """The server answered ``ERR``; carries the remote type and text."""

    def __init__(self, remote_type: str, message: str):
        super().__init__(message)
        self.remote_type = remote_type

    def retry_after_ms(self) -> Optional[int]:
        """The backoff hint of an ``Overloaded`` answer, if present."""
        for part in str(self).split():
            if part.startswith("retry_after_ms="):
                try:
                    return int(part.partition("=")[2])
                except ValueError:
                    return None
        return None


class ClientTimeout(ReproError):
    """The per-request socket deadline expired waiting on the server."""


class ConnectionLost(ProtocolError):
    """The connection died mid-response (EOF or reset)."""


def jittered_backoff(
    attempt: int,
    base_ms: float = 25.0,
    cap_ms: float = 1000.0,
    factor: float = 0.5,
    u: float = 0.5,
) -> float:
    """The capped, jittered exponential backoff for retry ``attempt``.

    Pure so the property tests can pin it down: with ``ideal =
    min(cap_ms, base_ms * 2**attempt)`` the result lies in
    ``[ideal * (1 - factor), min(cap_ms, ideal * (1 + factor))]`` —
    never past the cap, never more than ``factor`` away from the ideal
    curve.  ``u`` is the caller's uniform sample in ``[0, 1)``.
    """
    ideal = min(cap_ms, base_ms * (2.0 ** attempt))
    jittered = ideal * (1.0 - factor + 2.0 * factor * u)
    return min(cap_ms, jittered)


class _TableRows(Sequence[Dict[str, str]]):
    """``Reply.rows`` of a binary reply: the dictionaries the text parse
    would have built, made when asked for."""

    __slots__ = ("_table",)

    def __init__(self, table: np.ndarray):
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return _TableRows(self._table[index])
        i, x, y = self._table[index].item()
        return {"obj": str(i), "x": repr(x), "y": repr(y)}

    def __iter__(self) -> Iterator[Dict[str, str]]:
        t = self._table
        for i, x, y in zip(t["obj"].tolist(), t["x"].tolist(), t["y"].tolist()):
            yield {"obj": str(i), "x": repr(x), "y": repr(y)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (_TableRows, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class Reply:
    """One parsed response: the OK header fields plus the data lines.

    ``table`` is set for a binary SNAPSHOT reply only; ``rows`` then
    reads from it (same dictionaries, built on demand).
    """

    fields: Dict[str, str] = field(default_factory=dict)
    rows: Sequence[Dict[str, str]] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)  # PLAN / MSG / STAT text
    table: Optional[np.ndarray] = field(default=None, compare=False)

    def stat(self, name: str) -> Optional[str]:
        """The value of a ``STAT <name> <value>`` line, if present."""
        prefix = f"STAT {name} "
        for line in self.lines:
            if line.startswith(prefix):
                return line[len(prefix):]
        return None


def _parse_kv(text: str, sep: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for part in text.split(sep):
        key, eq, value = part.partition("=")
        if eq:
            out[key] = value
    return out


#: Bytes asked of the socket per bulk read of a reply body.
_READ_CHUNK = 1 << 18

#: Distinguishes clients within a process for seq-token namespacing.
_CLIENT_IDS = itertools.count(1)


class ServerClient:
    """A synchronous connection to a running :class:`QueryServer`.

    ``timeout`` bounds the initial connect *and* is the default
    per-request read deadline; ``request_timeout`` overrides the latter.
    ``max_retries`` bounds the retry loop (0 disables retrying).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        request_timeout: Optional[float] = None,
        max_retries: int = 5,
        backoff_base_ms: float = 25.0,
        backoff_cap_ms: float = 1000.0,
        client_id: Optional[str] = None,
    ):
        self._host = host
        self._port = port
        self._connect_timeout = timeout
        self._request_timeout = (
            request_timeout if request_timeout is not None else timeout
        )
        self._max_retries = max(0, int(max_retries))
        self._backoff_base_ms = backoff_base_ms
        self._backoff_cap_ms = backoff_cap_ms
        # Seq tokens must be unique per logical client across its own
        # reconnects, so the namespace is pid + client ordinal, not the
        # socket.
        self.client_id = (
            client_id
            if client_id is not None
            else f"c{os.getpid()}-{next(_CLIENT_IDS)}"
        )
        self._seq_n = itertools.count(1)
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._connect_timeout
        )
        self._file = self._sock.makefile("rwb")
        self._dropped = False

    def _drop(self) -> None:
        """Hang up without ceremony; the next request reconnects.  (A
        client the caller closed is not dropped: it stays closed.)"""
        self._dropped = True
        try:
            self._file.close()
        except OSError:
            pass
        finally:
            self._sock.close()

    def close(self) -> None:
        """End the session politely (``CLOSE`` → ``BYE``), then hang up."""
        try:
            self._file.write(b"CLOSE\n")
            self._file.flush()
            self._file.readline()  # BYE
        except (OSError, ValueError):
            pass
        finally:
            self._file.close()
            self._sock.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- the wire ----------------------------------------------------------

    def request(
        self,
        line: str,
        idempotent: bool = False,
        timeout: Optional[float] = None,
    ) -> Reply:
        """Send one request line with retries; read one framed response.

        Raises :class:`ServerError` for ``ERR`` responses the retry
        budget cannot absorb, :class:`ClientTimeout` when the read
        deadline expires, and :class:`ConnectionLost` /
        :class:`ProtocolError` when the framing dies.  ``Overloaded``
        answers always retry (the server did no work); timeouts and
        lost connections retry only when ``idempotent`` — a non-
        idempotent request that may already have applied must surface
        to the caller instead of silently applying twice.  A server
        that refuses the reconnect is down: that raises at once.
        """
        attempt = 0
        while True:
            if self._dropped:  # by the previous request or attempt
                try:
                    self._connect()
                except OSError as exc:
                    raise ConnectionLost(f"cannot reconnect: {exc}") from None
            try:
                return self._request_once(line, timeout)
            except ServerError as exc:
                if (
                    exc.remote_type != "Overloaded"
                    or attempt >= self._max_retries
                ):
                    raise
                hint_ms = exc.retry_after_ms() or 0
                delay_ms = max(hint_ms, self._backoff_ms(attempt))
            except (ClientTimeout, ConnectionLost):
                if not idempotent or attempt >= self._max_retries:
                    raise
                delay_ms = self._backoff_ms(attempt)
            if obs.enabled:
                obs.add("client.retries")
            time.sleep(delay_ms / 1000.0)
            attempt += 1

    def _backoff_ms(self, attempt: int) -> float:
        # int.from_bytes(os.urandom) rather than the random module: the
        # decorrelation must survive forked benchmark workers that
        # inherit identical RNG state.
        u = int.from_bytes(os.urandom(4), "big") / 2.0 ** 32
        return jittered_backoff(
            attempt, self._backoff_base_ms, self._backoff_cap_ms, u=u
        )

    def _request_once(self, line: str, timeout: Optional[float]) -> Reply:
        self._sock.settimeout(
            timeout if timeout is not None else self._request_timeout
        )
        try:
            self._file.write(line.rstrip("\n").encode("utf-8") + b"\n")
            self._file.flush()
            return self._read_reply()
        except (OSError, UnicodeDecodeError, ProtocolError) as exc:
            # What is left of this reply would be read as the next one.
            # (A ServerError is a whole reply: the connection is in step.)
            self._drop()
            if isinstance(exc, socket.timeout):
                if obs.enabled:
                    obs.add("client.timeouts")
                raise ClientTimeout(
                    f"no response within the read deadline for {line.split()[0]}"
                ) from None
            if isinstance(exc, OSError):
                raise ConnectionLost(
                    f"connection lost mid-request: {exc}"
                ) from None
            if isinstance(exc, UnicodeDecodeError):
                raise ProtocolError(f"reply is not UTF-8: {exc}") from None
            raise

    def _read_reply(self) -> Reply:
        reply = Reply()
        raw = self._file.readline()
        if not raw:
            raise ConnectionLost("connection closed mid-response")
        text = raw.decode("utf-8").rstrip("\n")
        if text.startswith("ERR "):
            _, _, detail = text.partition(" ")
            rtype, _, message = detail.partition(" ")
            raise ServerError(rtype, message)
        if text == "BYE":
            reply.lines.append(text)
            return reply
        if not (text == "OK" or text.startswith("OK ")):
            raise ProtocolError(f"unexpected response header {text!r}")
        reply.fields = _parse_kv(text[3:], " ")
        if reply.fields.pop("format", "text") == "bin":
            # The frame's own keys describe the bytes, not the result.
            reply.table = self._read_table(
                reply.fields.pop("bytes", ""), reply.fields.get("rows", "")
            )
            reply.rows = _TableRows(reply.table)
            return reply
        # Everything up to the bare END line in as few reads as the
        # socket allows, then one decode, one split, one loop.  (A data
        # line always carries its ROW/PLAN/MSG/STAT prefix, so only the
        # terminator can be a whole line reading "END".)
        chunks: List[bytes] = []
        tail = b"\n"
        while tail != b"\nEND\n":
            chunk = self._file.read1(_READ_CHUNK)
            if not chunk:
                if not tail.endswith(b"\nEND"):
                    raise ConnectionLost("connection closed mid-response")
                chunk = b"\n"  # END then EOF: complete, as readline had it
            chunks.append(chunk)
            tail = (tail + chunk[-5:])[-5:]
        rows: List[Dict[str, str]] = []
        for text in b"".join(chunks).decode("utf-8").split("\n")[:-2]:
            if text.startswith("ROW "):
                rows.append(_parse_kv(text[4:], "\t"))
            else:
                reply.lines.append(text)
        reply.rows = rows
        return reply

    def _read_table(self, nbytes_text: str, rows_text: str) -> np.ndarray:
        """The body of a ``format=bin`` reply: ``bytes`` bytes — an
        ``<u8`` count and that many ``ROW_DTYPE`` records — then ``END``."""
        try:
            nbytes, rows = int(nbytes_text), int(rows_text)
        except ValueError:
            raise ProtocolError(
                "binary reply header needs integer rows= and bytes="
            ) from None
        if rows < 0 or nbytes != 8 + ROW_DTYPE.itemsize * rows:
            raise ProtocolError(
                f"binary reply declares bytes={nbytes} for rows={rows}"
            )
        body = self._file.read(nbytes)
        if len(body) < nbytes:
            raise ConnectionLost("connection closed mid-table")
        count = int.from_bytes(body[:8], "little")
        if count != rows:
            raise ProtocolError(
                f"binary table holds {count} records, header says rows={rows}"
            )
        end = self._file.readline()
        if not end:
            raise ConnectionLost("connection closed before END")
        if end.rstrip(b"\n") != b"END":
            raise ProtocolError(f"expected END after the table, got {end!r}")
        # bytes are immutable, so the array is read-only.
        return np.frombuffer(body, dtype=ROW_DTYPE, count=rows, offset=8)

    # -- command helpers ---------------------------------------------------

    @staticmethod
    def _attrs(deadline_ms: Optional[float], seq: str = "") -> str:
        parts = []
        if deadline_ms is not None:
            parts.append(f"DEADLINE={deadline_ms:g}")
        if seq:
            parts.append(f"SEQ={seq}")
        return (" ".join(parts) + " ") if parts else ""

    def query(self, sql: str, deadline_ms: Optional[float] = None) -> Reply:
        return self.request(
            f"QUERY {self._attrs(deadline_ms)}{sql}", idempotent=True
        )

    def explain(self, sql: str, deadline_ms: Optional[float] = None) -> Reply:
        return self.request(
            f"EXPLAIN {self._attrs(deadline_ms)}{sql}", idempotent=True
        )

    def ingest(
        self,
        fleet: str,
        obj: int,
        unit: Tuple[float, float, float, float, float, float],
        deadline_ms: Optional[float] = None,
        seq: Optional[str] = None,
    ) -> int:
        """Append one unit slice; returns the object's new unit count.

        Idempotent: each call is stamped with a fresh
        ``<client_id>:<n>`` sequence token (or the caller's ``seq``),
        so a retry after a lost ack lands exactly once.
        """
        if seq is None:
            seq = f"{self.client_id}:{next(self._seq_n)}"
        t0, x0, y0, t1, x1, y1 = unit
        line = (
            f"INGEST {self._attrs(deadline_ms, seq)}{fleet} {obj} "
            f"{t0!r} {x0!r} {y0!r} {t1!r} {x1!r} {y1!r}"
        )
        reply = self.request(line, idempotent=True)
        if faults.active and faults.should_fire("ingest.dup_send"):
            # The chaos matrix's duplicate-delivery fault: re-send the
            # acked request verbatim.  The dedup table must answer the
            # copy without appending a second slice.
            reply = self.request(line, idempotent=True)
        return int(reply.fields.get("units", "0"))

    def snapshot(
        self,
        fleet: str,
        t: float,
        window: Optional[Tuple[float, float, float, float]] = None,
        deadline_ms: Optional[float] = None,
    ) -> Reply:
        """Fleet positions at ``t``, asked for as the binary frame:
        ``Reply.table`` is set and ``rows`` is lazy.  (The ``ROW`` lines
        a bare socket gets: ``request("SNAPSHOT <fleet> <t>")``.)"""
        line = f"SNAPSHOT FORMAT=bin {self._attrs(deadline_ms)}{fleet} {t!r}"
        if window is not None:
            line += " " + " ".join(repr(v) for v in window)
        return self.request(line, idempotent=True)

    def stats(self) -> Reply:
        return self.request("STATS", idempotent=True)
