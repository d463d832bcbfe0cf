"""Write-ahead log: redo records, fsync barriers, torn-tail-safe replay.

Section 4 places values "under control of the DBMS" precisely so they
survive; this module supplies the durability half of that contract.
Mutations of the tuple store and catalog are logged *before* they touch
the in-memory structures: physical page images (redo for the FLOB
pages a tuple externalized), the serialized tuple bytes, and catalog
operations, bracketed by BEGIN/COMMIT.  Replay after a crash re-applies
exactly the committed transactions since the last CHECKPOINT.

On-disk framing, one record::

    length  I   bytes of scope + payload
    crc     I   CRC-32 over type + scope + payload
    type    B   record type (BEGIN..CATALOG)
    scope   H   scope length (scope names the logged store, "rel:ships")

The log is append-only and *prefix-valid*: a crash can tear or truncate
only its tail, and :meth:`Wal.records` stops at the first record whose
length runs past the end of the file or whose CRC fails — everything
before that point is trusted, everything after is discarded
(``wal.truncated_tails`` counts such stops).  ``append`` only buffers;
:meth:`Wal.sync` is the fsync barrier that makes the buffered records
durable, so a simulated crash before ``sync`` loses exactly the
unflushed suffix, the same failure model as a real ``fsync``.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Iterator, List, Optional, Tuple

from repro import faults, obs
from repro.errors import SimulatedCrash, WalError

__all__ = [
    "BEGIN",
    "CATALOG",
    "CHECKPOINT",
    "COLSTORE",
    "COMMIT",
    "INGEST",
    "PAGE",
    "TUPLE",
    "Wal",
    "WalRecord",
]

# Record types.
BEGIN = 1       # start of a transaction (payload: empty)
PAGE = 2        # physical redo image (payload: <I page_no> + page payload)
TUPLE = 3       # logical tuple-directory append (payload: tuple bytes)
COMMIT = 4      # transaction end; replay applies BEGIN..COMMIT atomically
CHECKPOINT = 5  # consistent snapshot (payload: store-specific state)
CATALOG = 6     # catalog operation (payload: JSON document)
COLSTORE = 7    # reserved: relation column checkpoints written by earlier
                # versions, skipped on replay; still a known type, so such
                # a log is not cut short at its first one
INGEST = 8      # one unit appended to a live fleet; scope "fleet:<name>",
                # payload a JSON document naming the object and the unit's
                # interval endpoints — replay re-appends the slice

_NAMES = {
    BEGIN: "BEGIN",
    PAGE: "PAGE",
    TUPLE: "TUPLE",
    COMMIT: "COMMIT",
    CHECKPOINT: "CHECKPOINT",
    CATALOG: "CATALOG",
    COLSTORE: "COLSTORE",
    INGEST: "INGEST",
}

_FRAME = struct.Struct("<IIBH")  # length, crc, type, scope_len


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    rec_type: int
    scope: str
    payload: bytes

    @property
    def type_name(self) -> str:
        return _NAMES.get(self.rec_type, f"?{self.rec_type}")


class Wal:
    """An append-only redo log over a file (or memory, for tests).

    ``append`` buffers records; ``sync`` writes and fsyncs them — the
    durability barrier.  A crash (simulated via :meth:`crash` or a
    failpoint) loses the unsynced buffer and possibly tears the last
    synced batch; :meth:`records` tolerates both.
    """

    def __init__(self, path: Optional[str] = None):
        self._path = path
        if path is None:
            self._file: BinaryIO = io.BytesIO()
        else:
            mode = "r+b" if os.path.exists(path) else "w+b"
            self._file = open(path, mode)
        self._pending: List[bytes] = []
        # Find the end of the valid prefix so reopening an existing log
        # appends after the last intact record, not after a torn tail.
        self._append_pos = self._scan_end()

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "Wal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- write path -------------------------------------------------------

    def append(self, rec_type: int, payload: bytes = b"", scope: str = "") -> None:
        """Buffer one record; durable only after the next :meth:`sync`."""
        if rec_type not in _NAMES:
            raise WalError(f"unknown WAL record type {rec_type}")
        if faults.active:
            faults.fail("wal.append_crash")
        raw_scope = scope.encode("utf-8")
        if len(raw_scope) > 0xFFFF:
            raise WalError(f"WAL scope {scope!r} too long")
        body = bytes([rec_type]) + raw_scope + payload
        crc = zlib.crc32(body) & 0xFFFFFFFF
        frame = _FRAME.pack(len(raw_scope) + len(payload), crc, rec_type,
                            len(raw_scope))
        self._pending.append(frame + raw_scope + payload)
        if obs.enabled:
            obs.counters.add("wal.records")
            if rec_type == COMMIT:
                obs.counters.add("wal.commits")
            elif rec_type == CHECKPOINT:
                obs.counters.add("wal.checkpoints")

    def sync(self) -> None:
        """Flush buffered records and fsync: the durability barrier."""
        if faults.active:
            # Crash *at* the barrier: nothing buffered reaches the disk.
            try:
                faults.fail("wal.sync_crash")
            except SimulatedCrash:
                self._pending.clear()
                raise
        data = b"".join(self._pending)
        self._file.seek(self._append_pos)
        if faults.active and faults.should_fire("wal.torn_tail"):
            # Power loss mid-flush: only half the tail hits the disk.
            torn = data[: len(data) // 2]
            self._file.write(torn)
            self._file.truncate(self._append_pos + len(torn))
            self._flush_os()
            self._pending.clear()
            self._append_pos += len(torn)
            raise SimulatedCrash("failpoint wal.torn_tail fired")
        self._file.write(data)
        self._flush_os()
        self._append_pos += len(data)
        self._pending.clear()
        if obs.enabled:
            obs.counters.add("wal.syncs")

    def _flush_os(self) -> None:
        self._file.flush()
        if self._path is not None:
            os.fsync(self._file.fileno())

    def crash(self) -> None:
        """Test helper: the process dies — unsynced records evaporate."""
        self._pending.clear()

    @property
    def pending_records(self) -> int:
        """Buffered records not yet made durable."""
        return len(self._pending)

    @property
    def durable_bytes(self) -> int:
        """Bytes of the valid, synced log prefix."""
        return self._append_pos

    # -- read path --------------------------------------------------------

    def records(self) -> Iterator[WalRecord]:
        """Replay the durable log prefix, stopping at the first tear.

        A record whose frame is short, whose declared length runs past
        the end of the file, or whose CRC fails marks the torn tail:
        iteration stops there (counted in ``wal.truncated_tails``) and
        everything after it is ignored.
        """
        self._file.seek(0, io.SEEK_END)
        end = self._file.tell()
        pos = 0
        while pos < end:
            rec = self._read_one(pos, end)
            if rec is None:
                if obs.enabled:
                    obs.counters.add("wal.truncated_tails")
                return
            record, pos = rec
            yield record

    def _read_one(
        self, pos: int, end: int
    ) -> Optional[Tuple[WalRecord, int]]:
        if pos + _FRAME.size > end:
            return None
        self._file.seek(pos)
        frame = self._file.read(_FRAME.size)
        length, crc, rec_type, scope_len = _FRAME.unpack(frame)
        if rec_type not in _NAMES or scope_len > length:
            return None
        if pos + _FRAME.size + length > end:
            return None
        body = self._file.read(length)
        if zlib.crc32(bytes([rec_type]) + body) & 0xFFFFFFFF != crc:
            return None
        scope = body[:scope_len].decode("utf-8", errors="replace")
        payload = body[scope_len:]
        return WalRecord(rec_type, scope, payload), pos + _FRAME.size + length

    def _scan_end(self) -> int:
        """Offset just past the last intact record (reopen support)."""
        self._file.seek(0, io.SEEK_END)
        end = self._file.tell()
        pos = 0
        while pos < end:
            rec = self._read_one(pos, end)
            if rec is None:
                break
            pos = rec[1]
        return pos
