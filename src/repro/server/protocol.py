"""The query-service line protocol: parsing and response framing.

One request per line, UTF-8, ``\\n``-terminated::

    QUERY <sql ...>                          run a SQL script statement(s)
    EXPLAIN <select ...>                     show the plan for a query
    INGEST <fleet> <obj> <t0> <x0> <y0> <t1> <x1> <y1>
                                             append one unit slice
    SNAPSHOT <fleet> <t> [<xmin> <ymin> <xmax> <ymax>]
                                             fleet positions at instant t,
                                             optionally window-filtered
    STATS                                    server + store counters
    CLOSE                                    end the session

Requests that do work (everything but STATS/CLOSE) accept *attributes*
— ``KEY=value`` tokens between the command and its arguments::

    DEADLINE=<ms>   per-request budget; past it the server answers a
                    typed ``ERR DeadlineExceeded`` (counted
                    ``server.timeouts``) instead of finishing late
    SEQ=<token>     INGEST only: a client-supplied idempotency token.
                    Retrying an INGEST with the same token is
                    exactly-once — a duplicate is answered from the
                    dedup table (``ingest.dedup_hits``), on live retry
                    and across WAL-replay restarts alike.
    FORMAT=bin      SNAPSHOT only: frame the rows of *this* reply as
                    the binary table below.  Without it a reply is the
                    line framing — text is the absence of the attribute,
                    not a second value of it.

Responses are line-framed as well: a single ``OK key=value ...`` header,
zero or more data lines (``ROW``/``PLAN``/``MSG``/``STAT``), and a bare
``END`` terminator.  Errors are a single ``ERR <Type> <message>`` line
(no terminator — the line *is* the whole response) and never tear the
session down; ``CLOSE`` answers with a single ``BYE``.

The binary SNAPSHOT frame replaces the ``ROW`` lines with one table, the
arrays the executor produced written as the bytes they are::

    OK version=<v> objects=<n> rows=<N> format=bin bytes=<B>\n
    <B bytes>        B = 8 + 24·N:  <u8 N, then N records of ROW_DTYPE
                     (<i8 obj, <f8 x, <f8 y), all little-endian
    END\n

The header says what follows (``format=bin`` present or not), so a reply
is parsed by what it declares, never by what was asked: an ``ERR`` is
the one text line above whatever the request's ``FORMAT``, and a request
without the attribute is answered with exactly the text bytes it always
was.  The attribute is per request — the session holds no format state.

Replies leave this module as a list of encoded *blocks* of at most
``BLOCK_ROWS`` rows (:func:`frame_lines`, :func:`frame_snapshot`): the
session renders them in its worker thread and only writes and drains
on the event loop, one block at a time.

This module never touches fleets, sockets, or execution state — the
session layer feeds it lines and arrays and writes back whatever it
returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.deadline import Deadline
from repro.errors import ProtocolError

__all__ = [
    "BLOCK_ROWS",
    "BYE",
    "END",
    "ROW_DTYPE",
    "Request",
    "err_line",
    "frame_lines",
    "frame_snapshot",
    "ok_line",
    "parse_request",
    "row_line",
    "stat_line",
]

END = "END"
BYE = "BYE"

#: Lines per encoded reply block.  The session drains after each block,
#: so this bounds both the strings alive while a reply is rendered and
#: the bytes buffered ahead of a slow reader (~200 KB of rows).  Measured
#: on a 9.6k-row reply under two clients: rendering the reply as one
#: block costs +7 MB of server peak RSS (82 -> 89 MB); 256 and 2048 are
#: level on memory and latency, and fewer blocks are fewer loop wake-ups.
BLOCK_ROWS = 2048

#: One row of a binary SNAPSHOT table — a fixed-size little-endian
#: record, the idiom of ``UPointColumn.UNIT_DTYPE`` and the column store.
ROW_DTYPE = np.dtype([("obj", "<i8"), ("x", "<f8"), ("y", "<f8")])

#: Commands and the argument counts ``parse_request`` enforces.
COMMANDS = ("QUERY", "EXPLAIN", "INGEST", "SNAPSHOT", "STATS", "CLOSE")


@dataclass(frozen=True)
class Request:
    """One parsed request line."""

    command: str
    sql: str = ""
    fleet: str = ""
    obj: int = -1
    unit: Tuple[float, float, float, float, float, float] = (
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    )  # t0 x0 y0 t1 x1 y1
    t: float = 0.0
    window: Optional[Tuple[float, float, float, float]] = None
    deadline_ms: Optional[float] = None  # DEADLINE=<ms> attribute
    seq: str = ""                        # SEQ=<token> attribute (INGEST)
    format: str = "text"                 # "bin" under FORMAT=bin (SNAPSHOT)


#: Attribute keys ``parse_request`` understands (KEY=value tokens
#: between the command and its arguments).
_ATTR_KEYS = ("DEADLINE", "SEQ", "FORMAT")


def _split_attrs(rest: str) -> Tuple[Optional[float], str, str, str]:
    """Strip leading ``KEY=value`` attribute tokens off a request tail.

    Returns ``(deadline_ms, seq, fmt, remainder)``; ``seq`` and ``fmt``
    are empty when not given.  Only *leading* tokens are consumed, so
    attribute-shaped text inside a SQL statement is never touched.
    """
    deadline_ms: Optional[float] = None
    seq = ""
    fmt = ""
    while rest:
        head, _, tail = rest.partition(" ")
        key, eq, value = head.partition("=")
        key = key.upper()
        if not eq or key not in _ATTR_KEYS:
            break
        if key == "DEADLINE":
            try:
                deadline_ms = float(value)
            except ValueError:
                raise ProtocolError(
                    f"DEADLINE: expected milliseconds, got {value!r}"
                ) from None
            if not math.isfinite(deadline_ms):
                raise ProtocolError(
                    f"DEADLINE: expected a finite number, got {value!r}"
                )
            if deadline_ms <= 0:
                raise ProtocolError("DEADLINE must be > 0 milliseconds")
        elif key == "SEQ":
            if not value:
                raise ProtocolError("SEQ token must be non-empty")
            seq = value
        else:  # FORMAT
            fmt = value.lower()
            if fmt != "bin":
                raise ProtocolError(f"FORMAT: expected bin, got {value!r}")
        rest = tail.strip()
    return deadline_ms, seq, fmt, rest


def _floats(parts: List[str], what: str) -> List[float]:
    """The finite numbers ``parts`` spell: an instant, a window or a unit
    with ``nan`` / ``inf`` in it is refused here, before admission and
    before the WAL."""
    out: List[float] = []
    for p in parts:
        try:
            value = float(p)
        except ValueError:
            raise ProtocolError(
                f"{what}: expected a number, got {p!r}"
            ) from None
        if not math.isfinite(value):
            raise ProtocolError(f"{what}: expected a finite number, got {p!r}")
        out.append(value)
    return out


def parse_request(line: str) -> Request:
    """Parse one request line; raises :class:`ProtocolError` on misuse."""
    stripped = line.strip()
    if not stripped:
        raise ProtocolError("empty request line")
    head, _, rest = stripped.partition(" ")
    command = head.upper()
    rest = rest.strip()
    if command not in COMMANDS:
        raise ProtocolError(
            f"unknown command {head!r}; expected one of {', '.join(COMMANDS)}"
        )
    if command in ("STATS", "CLOSE"):
        if rest:
            raise ProtocolError(f"{command} takes no arguments")
        return Request(command)
    deadline_ms, seq, fmt, rest = _split_attrs(rest)
    if seq and command != "INGEST":
        raise ProtocolError("SEQ only applies to INGEST")
    if fmt and command != "SNAPSHOT":
        raise ProtocolError("FORMAT only applies to SNAPSHOT")
    if command in ("QUERY", "EXPLAIN"):
        if not rest:
            raise ProtocolError(f"{command} needs a SQL statement")
        return Request(command, sql=rest, deadline_ms=deadline_ms)
    parts = rest.split()
    if command == "INGEST":
        if len(parts) != 8:
            raise ProtocolError(
                "INGEST needs <fleet> <obj> <t0> <x0> <y0> <t1> <x1> <y1>"
            )
        fleet = parts[0]
        try:
            obj = int(parts[1])
        except ValueError:
            raise ProtocolError(
                f"INGEST: object index must be an integer, got {parts[1]!r}"
            ) from None
        if obj < 0:
            raise ProtocolError("INGEST: object index must be >= 0")
        t0, x0, y0, t1, x1, y1 = _floats(parts[2:], "INGEST")
        return Request(
            "INGEST", fleet=fleet, obj=obj, unit=(t0, x0, y0, t1, x1, y1),
            deadline_ms=deadline_ms, seq=seq,
        )
    # SNAPSHOT <fleet> <t> [<xmin> <ymin> <xmax> <ymax>]
    if len(parts) not in (2, 6):
        raise ProtocolError(
            "SNAPSHOT needs <fleet> <t> [<xmin> <ymin> <xmax> <ymax>]"
        )
    fleet = parts[0]
    values = _floats(parts[1:], "SNAPSHOT")
    window: Optional[Tuple[float, float, float, float]] = None
    if len(values) == 5:
        xmin, ymin, xmax, ymax = values[1:]
        if xmin > xmax or ymin > ymax:
            raise ProtocolError("SNAPSHOT: malformed window rectangle")
        window = (xmin, ymin, xmax, ymax)
    return Request(
        "SNAPSHOT", fleet=fleet, t=values[0], window=window,
        deadline_ms=deadline_ms, format=fmt or "text",
    )


def _clean(text: str) -> str:
    """One-line form of arbitrary message text (the framing is per-line)."""
    return " ".join(str(text).split())


def ok_line(**fields: object) -> str:
    """The ``OK key=value ...`` response header."""
    if not fields:
        return "OK"
    return "OK " + " ".join(f"{k}={_clean(str(v))}" for k, v in fields.items())


def err_line(exc: BaseException) -> str:
    """The single-line error response: ``ERR <Type> <message>``."""
    return f"ERR {type(exc).__name__} {_clean(str(exc)) or '(no detail)'}"


def row_line(**fields: object) -> str:
    """One ``ROW`` data line; fields are tab-separated ``key=value``."""
    return "ROW " + "\t".join(f"{k}={_clean(str(v))}" for k, v in fields.items())


def stat_line(name: str, value: object) -> str:
    """One ``STAT`` data line."""
    return f"STAT {name} {_clean(str(value))}"


def _block(lines: Sequence[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def frame_lines(lines: Sequence[str]) -> List[bytes]:
    """Reply lines as wire bytes, ``BLOCK_ROWS`` lines to a block."""
    return [
        _block(lines[at:at + BLOCK_ROWS])
        for at in range(0, len(lines), BLOCK_ROWS)
    ]


def _row_lines(ids: Any, xs: Any, ys: Any) -> bytes:
    """One block of ``ROW`` lines: ``tolist()`` → one formatted line per
    row → one join and one encode."""
    return "".join(
        f"ROW obj={i}\tx={x!r}\ty={y!r}\n"
        for i, x, y in zip(ids.tolist(), xs.tolist(), ys.tolist())
    ).encode("utf-8")


def _records(ids: Any, xs: Any, ys: Any) -> bytes:
    """One block of ``ROW_DTYPE`` records: three column stores into one
    structured array, whose buffer is the wire bytes."""
    block = np.empty(len(ids), dtype=ROW_DTYPE)
    block["obj"] = ids
    block["x"] = xs
    block["y"] = ys
    return block.tobytes()


def frame_snapshot(
    version: int,
    objects: int,
    ids: Any,
    xs: Any,
    ys: Any,
    deadline: Optional[Deadline] = None,
    fmt: str = "text",
) -> List[bytes]:
    """The whole SNAPSHOT reply — header, rows, ``END`` — as blocks.

    ``ids``/``xs``/``ys`` are the executor's parallel arrays, rendered
    ``BLOCK_ROWS`` rows to a block.  As ``text`` the bytes are those of
    ``row_line(obj=i, x=repr(x), y=repr(y))`` per row (``tolist`` yields
    Python floats, so ``repr`` is the float's own, never
    ``np.float64(...)``); as ``bin`` the header gains ``format=bin
    bytes=B`` and the rows are one table, an ``<u8`` count and
    ``ROW_DTYPE`` records, with no per-row Python at all.
    ``deadline.check()`` runs once per block, so an abandoned request
    stops rendering; every block exists before the first is written, so
    a reply is whole or an ``ERR`` line, never a torn table.
    """
    n = len(ids)
    if fmt == "bin":
        render = _records
        lead = _block([ok_line(
            version=version, objects=objects, rows=n,
            format=fmt, bytes=8 + ROW_DTYPE.itemsize * n,
        )]) + n.to_bytes(8, "little")
    else:
        render = _row_lines
        lead = _block([ok_line(version=version, objects=objects, rows=n)])
    blocks: List[bytes] = []
    for at in range(0, max(n, 1), BLOCK_ROWS):
        if deadline is not None:
            deadline.check()
        stop = at + BLOCK_ROWS
        # (bytes + b"" is the same object: only the first and the last
        # block are copied to take the header and the terminator.)
        blocks.append(
            lead
            + render(ids[at:stop], xs[at:stop], ys[at:stop])
            + (_block([END]) if stop >= n else b"")
        )
        lead = b""
    return blocks
