"""Heap files of tuples with embedded attribute values.

A tuple is a sequence of attribute values; each value's root record is
stored inside the tuple, and each of its database arrays goes through
the FLOB placement decision (inline when small, separate pages when
large), following [DG98] as described in Section 4.

When a :class:`repro.storage.wal.Wal` is attached, every append is a
logged transaction — BEGIN, a physical redo image of every FLOB page
the tuple externalized, the serialized tuple bytes, COMMIT, then one
fsync barrier — and :meth:`TupleStore.recover` replays the committed
transactions since the last checkpoint after a crash.  The crash model:
the page file and the WAL survive; the in-memory tuple directory and
the buffer pool do not.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro import faults, obs
from repro.errors import CorruptRecordError, StorageError
from repro.storage import wal as walmod
from repro.storage.buffer import BufferPool
from repro.storage.darray import DatabaseArray
from repro.storage.flob import FlobRef, FlobStore
from repro.storage.pages import PageFile
from repro.storage.records import StoredValue, codec_for, pack_value, safe_unpack
from repro.storage.wal import Wal

_PAGE_IMG = struct.Struct("<I")  # page number prefix of a PAGE payload


class TupleStore:
    """An append-only heap of tuples, each a list of typed attribute values.

    Tuples are serialized as: per attribute, the type name, the root
    record, and per database array either the inline bytes or a FLOB
    reference.  The serialized tuples themselves are kept in an
    in-memory directory of byte strings plus the shared page file for
    externalized arrays — the aspect under study (Section 4) is the
    *value* representation, not the slotted-page tuple layout.  The
    attached WAL (optional) makes the directory itself recoverable.
    """

    def __init__(
        self,
        schema: Sequence[Tuple[str, str]],
        pagefile: Optional[PageFile] = None,
        buffer_capacity: int = 64,
        inline_threshold: Optional[int] = None,
        wal: Optional[Wal] = None,
        wal_scope: str = "",
    ):
        self.schema = list(schema)
        for _name, type_name in self.schema:
            codec_for(type_name)  # fail fast on unknown types
        self._pf = pagefile if pagefile is not None else PageFile()
        self._pool = BufferPool(self._pf, buffer_capacity)
        kwargs = {}
        if inline_threshold is not None:
            kwargs["inline_threshold"] = inline_threshold
        self._flobs = FlobStore(self._pool, **kwargs)
        self._tuples: List[bytes] = []
        #: Bumped after every append becomes visible: what a reader saw
        #: at one stamp is what the directory holds while it stands.
        self.version = 0
        self._wal = wal
        self._wal_scope = wal_scope
        self.inline_arrays = 0
        self.external_arrays = 0

    @property
    def buffer_pool(self) -> BufferPool:
        return self._pool

    @property
    def pagefile(self) -> PageFile:
        return self._pf

    @property
    def wal(self) -> Optional[Wal]:
        return self._wal

    def __len__(self) -> int:
        return len(self._tuples)

    # -- write path -----------------------------------------------------------

    def _serialize(self, values: Sequence) -> Tuple[bytes, List[int]]:
        """Pack one tuple; returns its bytes and the FLOB pages written."""
        out = bytearray()
        touched: List[int] = []
        for (_name, type_name), value in zip(self.schema, values):
            if isinstance(value, (bool, int, float, str)):
                from repro.base.values import wrap

                value = wrap(value)
            stored = pack_value(type_name, value)
            tname = stored.type_name.encode("ascii")
            out.extend(struct.pack("<H", len(tname)))
            out.extend(tname)
            out.extend(struct.pack("<I", len(stored.root)))
            out.extend(stored.root)
            out.extend(struct.pack("<H", len(stored.arrays)))
            for arr in stored.arrays:
                blob = arr.to_bytes()
                if len(blob) <= self._flobs.inline_threshold:
                    self.inline_arrays += 1
                    out.extend(struct.pack("<BI", 1, len(blob)))
                    out.extend(blob)
                else:
                    self.external_arrays += 1
                    ref, pages = self._flobs.write_chain(blob)
                    touched.extend(pages)
                    out.extend(
                        struct.pack("<Bqq", 0, ref.first_page, ref.length)
                    )
        return bytes(out), touched

    def append(self, values: Sequence) -> int:
        """Pack and append one tuple; returns its tuple id.

        With a WAL attached this is one durable transaction: the FLOB
        page images and tuple bytes are logged and synced *before* the
        tuple becomes visible in the directory, so a crash at any point
        either loses the whole tuple (no COMMIT durable) or recovery
        resurrects all of it (COMMIT durable).
        """
        if len(values) != len(self.schema):
            raise StorageError(
                f"tuple arity {len(values)} does not match schema "
                f"arity {len(self.schema)}"
            )
        data, touched = self._serialize(values)
        if self._wal is not None:
            self._wal.append(walmod.BEGIN, scope=self._wal_scope)
            # Physical redo: flush the chain pages, then log their images.
            self._pool.flush()
            for page_no in touched:
                img = self._pf.read_page(page_no)
                self._wal.append(
                    walmod.PAGE,
                    _PAGE_IMG.pack(page_no) + img,
                    scope=self._wal_scope,
                )
            self._wal.append(walmod.TUPLE, data, scope=self._wal_scope)
            self._wal.append(walmod.COMMIT, scope=self._wal_scope)
            self._wal.sync()
            if faults.active:
                # Crash after the commit is durable but before the
                # in-memory apply: recovery must resurrect this tuple.
                faults.fail("tuplestore.commit_crash")
        self._tuples.append(data)
        self.version += 1
        return len(self._tuples) - 1

    def checkpoint(self) -> None:
        """Flush all dirty pages and log a consistent directory snapshot.

        Replay after a crash starts from the latest durable checkpoint
        instead of the beginning of the log.
        """
        if self._wal is None:
            raise StorageError("checkpoint requires an attached WAL")
        self._pool.flush()
        snap = bytearray(struct.pack("<I", len(self._tuples)))
        for t in self._tuples:
            snap.extend(struct.pack("<I", len(t)))
            snap.extend(t)
        self._wal.append(walmod.CHECKPOINT, bytes(snap), scope=self._wal_scope)
        self._wal.sync()

    # -- recovery -------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        schema: Sequence[Tuple[str, str]],
        pagefile: PageFile,
        wal: Wal,
        wal_scope: str = "",
        buffer_capacity: int = 64,
        inline_threshold: Optional[int] = None,
    ) -> "TupleStore":
        """Rebuild a store from its surviving page file and WAL.

        Replays the durable log prefix for ``wal_scope``: the latest
        CHECKPOINT resets the tuple directory to its snapshot, then
        every BEGIN..COMMIT transaction after it re-applies its page
        images and directory appends.  Transactions without a durable
        COMMIT — including any torn tail — are discarded, so no partial
        write becomes visible.
        """
        store = cls(
            schema,
            pagefile,
            buffer_capacity=buffer_capacity,
            inline_threshold=inline_threshold,
            wal=wal,
            wal_scope=wal_scope,
        )
        directory: List[bytes] = []
        txn: Optional[List[walmod.WalRecord]] = None
        applied = 0
        for rec in wal.records():
            if rec.scope != wal_scope:
                continue
            if rec.rec_type == walmod.CHECKPOINT:
                directory = _decode_snapshot(rec.payload)
                txn = None
            elif rec.rec_type == walmod.BEGIN:
                txn = []
            elif rec.rec_type == walmod.COMMIT:
                if txn is not None:
                    for r in txn:
                        if r.rec_type == walmod.PAGE:
                            _apply_page_image(pagefile, r.payload)
                        elif r.rec_type == walmod.TUPLE:
                            directory.append(r.payload)
                    applied += 1
                txn = None
            elif txn is not None:
                txn.append(rec)
        # Scavenge: a page that fails verification now belonged to an
        # uncommitted transaction (every committed page write logged a
        # redo image, which the loop above already re-applied), so it is
        # provably garbage — re-seal it as a zero page rather than leave
        # a land mine for later reads.
        for page_no in range(pagefile.page_count):
            try:
                pagefile.read_page(page_no)
            except StorageError:
                pagefile.write_page(page_no, b"")
        store._tuples = directory
        if obs.enabled and applied:
            obs.counters.add("wal.recovered", applied)
        return store

    # -- read path ---------------------------------------------------------------

    def fetch_stored(self, tuple_id: int) -> List[StoredValue]:
        """Read one tuple back as its per-attribute stored values.

        The storage half of :meth:`fetch`: every length and offset is
        validated before slicing and every FLOB chain is read, so a
        mangled tuple raises :class:`CorruptRecordError` naming the
        tuple, never a bare ``struct.error`` and never a silently short
        value — but no attribute is unpacked.  Columnar readers
        reinterpret the unit arrays in bulk and unpack only the rows
        they return.
        """
        return list(self._walk(tuple_id))

    def _walk(self, tuple_id: int) -> Iterator[StoredValue]:
        if not 0 <= tuple_id < len(self._tuples):
            raise StorageError(f"tuple id {tuple_id} out of range")
        data = self._tuples[tuple_id]
        end = len(data)

        def need(off: int, n: int, what: str) -> None:
            if off + n > end:
                raise CorruptRecordError(
                    f"tuple {tuple_id}: truncated while reading {what} "
                    f"(need {n} bytes at offset {off} of {end})"
                )

        off = 0
        for attr_name, _type in self.schema:
            need(off, 2, f"type tag of {attr_name!r}")
            (tname_len,) = struct.unpack_from("<H", data, off)
            off += 2
            need(off, tname_len, f"type name of {attr_name!r}")
            tname = data[off : off + tname_len].decode("ascii", errors="replace")
            off += tname_len
            need(off, 4, f"root length of {attr_name!r}")
            (root_len,) = struct.unpack_from("<I", data, off)
            off += 4
            need(off, root_len, f"root record of {attr_name!r}")
            root = data[off : off + root_len]
            off += root_len
            need(off, 2, f"array count of {attr_name!r}")
            (narrays,) = struct.unpack_from("<H", data, off)
            off += 2
            arrays = []
            for _ in range(narrays):
                need(off, 1, f"array placement flag of {attr_name!r}")
                (inline,) = struct.unpack_from("<B", data, off)
                if inline:
                    need(off + 1, 4, f"inline array length of {attr_name!r}")
                    (blob_len,) = struct.unpack_from("<I", data, off + 1)
                    off += 5
                    need(off, blob_len, f"inline array of {attr_name!r}")
                    blob = data[off : off + blob_len]
                    off += blob_len
                else:
                    need(off + 1, 16, f"FLOB reference of {attr_name!r}")
                    first_page, length = struct.unpack_from("<qq", data, off + 1)
                    off += 17
                    blob = self._flobs.read(FlobRef(first_page, length))
                arrays.append(DatabaseArray.from_bytes(blob))
            yield StoredValue(tname, bytes(root), arrays)

    def fetch(self, tuple_id: int) -> List:
        """Read one tuple back, unpacking every attribute value.

        :meth:`fetch_stored` plus the codecs, attribute by attribute; a
        mangled tuple raises :class:`CorruptRecordError`.
        """
        return [safe_unpack(stored) for stored in self._walk(tuple_id)]

    def _scan(self, read: Callable[[int], List], strict: bool) -> Iterator[Tuple[int, List]]:
        for tid in range(len(self._tuples)):
            if strict:
                yield tid, read(tid)
                continue
            try:
                row = read(tid)
            except StorageError:
                if obs.enabled:
                    obs.counters.add("storage.quarantined")
                continue
            yield tid, row

    def scan(self, strict: bool = True) -> Iterator[List]:
        """Iterate over all tuples in insertion order.

        With ``strict=False`` a tuple whose bytes, FLOB chain, or pages
        fail verification is *quarantined* — skipped and counted under
        ``storage.quarantined`` — instead of aborting the scan; with the
        default ``strict=True`` the :class:`StorageError` propagates.
        """
        for _tid, row in self._scan(self.fetch, strict):
            yield row

    def scan_stored(
        self, strict: bool = True
    ) -> Iterator[Tuple[int, List[StoredValue]]]:
        """:meth:`scan` at the :meth:`fetch_stored` seam: ``(tuple id,
        stored values)`` pairs, the id kept so that a quarantined tuple
        leaves a gap instead of shifting its successors."""
        return self._scan(self.fetch_stored, strict)

    # -- statistics -----------------------------------------------------------------

    def storage_stats(self) -> dict:
        """Layout statistics: tuple bytes, placement counts, pool stats."""
        return {
            "tuples": len(self._tuples),
            "tuple_bytes": sum(len(t) for t in self._tuples),
            "inline_arrays": self.inline_arrays,
            "external_arrays": self.external_arrays,
            **self._pool.stats(),
        }


def _decode_snapshot(payload: bytes) -> List[bytes]:
    """Decode a CHECKPOINT directory snapshot."""
    if len(payload) < 4:
        raise CorruptRecordError("checkpoint snapshot shorter than its header")
    (count,) = struct.unpack_from("<I", payload, 0)
    off = 4
    out: List[bytes] = []
    for i in range(count):
        if off + 4 > len(payload):
            raise CorruptRecordError(
                f"checkpoint snapshot truncated at tuple {i} of {count}"
            )
        (n,) = struct.unpack_from("<I", payload, off)
        off += 4
        if off + n > len(payload):
            raise CorruptRecordError(
                f"checkpoint snapshot truncated inside tuple {i} of {count}"
            )
        out.append(payload[off : off + n])
        off += n
    return out


def _apply_page_image(pagefile: PageFile, payload: bytes) -> None:
    """Redo one PAGE record: write its image back into the page file."""
    if len(payload) < _PAGE_IMG.size:
        raise CorruptRecordError("PAGE record shorter than its header")
    (page_no,) = _PAGE_IMG.unpack_from(payload, 0)
    img = payload[_PAGE_IMG.size :]
    while pagefile.page_count <= page_no:
        pagefile.allocate()
    pagefile.write_page(page_no, img)
