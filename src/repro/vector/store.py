"""Persistent mmap-backed column store: Section-4 root records on disk.

Section 4 of the paper makes unit records fixed-size and array-packed
precisely so they can live on external storage and be scanned without
deserialization.  This module takes the in-memory fleet columns of
:mod:`repro.vector.columns` the final step: each column kind persists
as the little-endian files of fixed-size records its class declares
(``KINDS[kind].FILES``: ``upoint.bin``, ``ureal.bin``, ``bbox.bin``,
plus CSR ``offsets.bin`` files — the stacked root records), with a small
header and a CRC-checked JSON manifest tying the files together.  What a
kind is — builder, record layout, file names — is read from that table;
nothing here names one.  Because the file payload is byte-identical to the
numpy struct dtypes the batch kernels already consume, opening a stored
column maps each file once (one descriptor: header ``pread``, ``fstat``,
read-only ``mmap``, ``np.frombuffer``) and builds nothing.

A store is a derived copy of its fleet's units, so a column is served
only to the fleet that wrote it: its manifest entry carries the
writer's :attr:`~repro.vector.cache.Fleet.stamp` (``fleet_version=`` —
opaque here, compared for equality), and :meth:`ColumnStore.load_current`
answers only a caller showing that same stamp, the same fleet object at
the same version.  A :class:`~repro.shard.manager.ShardManager` is the
owner that opens stores this way.  A mapped column is an ordinary
column: it reaches pool workers, like any other, through the
shared-memory copy of :mod:`repro.parallel.shmcol`.

File layout (all little-endian)::

    <16-byte header> <count × record>
    header = magic b"MODC" | u16 format version | u16 reserved | i64 count

The 16-byte header keeps the payload 8-byte aligned for mapped views.
The manifest (``manifest.json``) records the format version, the stamp
each column was written under, and per-file record counts, CRCs,
and dtype hashes; the manifest itself carries a CRC over its payload so
a torn manifest write is detected, not misread.

Validation is two-tier, mirroring the page-checksum design of PR 4:

* :meth:`ColumnStore.load` does the *cheap* checks (manifest CRC, header
  magic/version, count and dtype-hash agreement, file size) — enough to
  reject torn writes and stale layouts without touching the payload;
* :meth:`ColumnStore.verify` additionally CRCs the full payload bytes,
  the check ``ShardManager.verify_and_repair`` and the fault matrix run
  so a bit-flipped file is rebuilt instead of served.

Any failure raises the typed :class:`~repro.errors.CorruptColumnError`;
the store never serves bytes that failed validation.  Callers degrade
through :meth:`ColumnStore.load_or_rebuild`, which rebuilds from the
live mappings (counted under ``colstore.rebuilds``) — the same
quarantine-style "detect, degrade, repair" posture the tuple store
takes for corrupt pages.
"""

from __future__ import annotations

import copy
import functools
import json
import mmap
import os
import struct
import zlib
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro import faults, obs
from repro.errors import CorruptColumnError, InvalidValue
from repro.vector.columns import KINDS, column_class

__all__ = ["ColumnStore"]

#: Column-file header: magic, format version, reserved, record count.
#: 16 bytes so the record payload starts 8-byte aligned.
HEADER = struct.Struct("<4sHHq")
MAGIC = b"MODC"
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"


@functools.lru_cache(maxsize=None)
def _dtype_hash(dtype: np.dtype) -> int:
    """CRC32 of the dtype's field description — a layout fingerprint.

    Two processes agree on this iff their in-memory struct layout is
    byte-identical, so a file written by an older field layout is
    rejected before a mapped view can misinterpret it.
    """
    return zlib.crc32(str(dtype.descr).encode("utf-8"))


def _check_header(name: str, head: bytes, count: int) -> None:
    """Reject a column-file header that is torn, foreign, from another
    format version, or disagrees with the manifest's record count."""
    if len(head) != HEADER.size:
        raise CorruptColumnError(f"{name}: truncated header")
    magic, version, _reserved, file_count = HEADER.unpack(head)
    if magic != MAGIC:
        raise CorruptColumnError(f"{name}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CorruptColumnError(
            f"{name}: format v{version} != supported v{FORMAT_VERSION}"
        )
    if file_count != count:
        raise CorruptColumnError(
            f"{name}: header count {file_count} != manifest count {count}"
        )


@functools.lru_cache(maxsize=128)
def _parse_manifest(raw: bytes) -> dict:
    """The payload of manifest bytes ``raw``, CRC-verified.

    Memoised on the bytes themselves — identical bytes get the identical
    verdict, which no mtime/size/inode key can promise — so a column map
    pays for the JSON parse and the CRC re-serialisation once per
    manifest generation, not once per map.  A raise is not cached.  The
    returned payload is shared between callers and must not be mutated.
    """
    try:
        doc = json.loads(raw)
        payload = doc["payload"]
        declared = int(doc["crc32"])
        columns = payload["columns"]
        fmt = int(payload["format"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptColumnError(
            "column store manifest is not valid JSON of the expected shape"
        ) from exc
    actual = zlib.crc32(json.dumps(payload, sort_keys=True).encode("utf-8"))
    if actual != declared:
        raise CorruptColumnError(
            f"column store manifest CRC mismatch "
            f"(declared {declared:#010x}, computed {actual:#010x})"
        )
    if fmt != FORMAT_VERSION:
        raise CorruptColumnError(
            f"column store format v{fmt} != supported v{FORMAT_VERSION}"
        )
    if not isinstance(columns, dict):
        raise CorruptColumnError("column store manifest: columns not a map")
    return payload


class ColumnStore:
    """One directory of column files plus their CRC-checked manifest."""

    __slots__ = ("root",)

    def __init__(self, root: str):
        self.root = os.fspath(root)

    # -- paths ------------------------------------------------------------

    def path(self, name: str) -> str:
        """Absolute path of one file inside the store directory."""
        return os.path.join(self.root, name)

    def exists(self) -> bool:
        """True when the store directory holds a manifest."""
        return os.path.exists(self.path(MANIFEST_NAME))

    # -- manifest ---------------------------------------------------------

    def _manifest(self) -> dict:
        """The manifest payload, CRC-verified.

        The file is read on every call — that read is the staleness
        check — but the payload is the memoised, *shared* parse of those
        bytes: read it, never change it (writers take a deep copy).
        """
        try:
            with open(self.path(MANIFEST_NAME), "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise CorruptColumnError(
                f"column store manifest unreadable: {exc}"
            ) from exc
        return _parse_manifest(raw)

    def manifest(self) -> dict:
        """The manifest payload, the caller's own copy (raises
        :class:`CorruptColumnError`)."""
        return copy.deepcopy(self._manifest())

    def fleet_version(self, kind: str) -> Optional[int]:
        """Fleet version column ``kind`` was built from, or None."""
        try:
            payload = self._manifest()
        except CorruptColumnError:
            return None
        entry = payload["columns"].get(kind)
        if entry is None:
            return None
        v = entry.get("fleet_version")
        return int(v) if v is not None else None

    # -- writing ----------------------------------------------------------

    def _replace(self, name: str, *chunks: bytes) -> None:
        """Write file ``name`` whole: temporary, fsync, rename into place
        (a fresh inode, so views of the old file keep their bytes)."""
        tmp = self.path(name + ".tmp")
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path(name))

    def save(
        self, kind: str, column, fleet_version: Optional[int] = None
    ) -> None:
        """Persist one column kind, then atomically update the manifest.

        Column files are written to temporaries and renamed into place;
        the manifest goes last, so a crash at any point leaves either
        the old consistent generation (manifest not yet replaced ⇒ file
        counts/CRCs disagree with the new files and validation rejects
        them) or the new one.  Failpoints ``colstore.write_crash`` (fires
        between column-file writes) and ``colstore.manifest_crash``
        (fires before the manifest update) let the crash matrix pin
        both torn-store shapes.
        """
        layout = column_class(kind).FILES
        arrays = column.records()
        os.makedirs(self.root, exist_ok=True)
        try:
            payload = self.manifest()
        except CorruptColumnError:
            payload = {"format": FORMAT_VERSION, "columns": {}}
        files: Dict[str, dict] = {}
        for (name, dtype), rec in zip(layout, arrays):
            if faults.active:
                faults.fail("colstore.write_crash")
            records = np.ascontiguousarray(rec, dtype=dtype).tobytes()
            self._replace(
                name, HEADER.pack(MAGIC, FORMAT_VERSION, 0, len(rec)), records
            )
            files[name] = {
                "count": len(rec),
                "crc32": zlib.crc32(records),
                "dtype_crc32": _dtype_hash(dtype),
            }
        entry: Dict[str, object] = {"files": files}
        if fleet_version is not None:
            entry["fleet_version"] = int(fleet_version)
        payload["format"] = FORMAT_VERSION
        payload["columns"][kind] = entry
        if faults.active:
            faults.fail("colstore.manifest_crash")
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._replace(
            MANIFEST_NAME,
            json.dumps(
                {"crc32": zlib.crc32(body), "payload": payload}, sort_keys=True
            ).encode("utf-8"),
        )

    # -- reading ----------------------------------------------------------

    def _open_file(self, name: str, dtype: np.dtype, finfo: dict) -> np.ndarray:
        """Map one column file after the cheap validation tier.

        One descriptor does all of it — header, size, mapping — and is
        closed before returning.  The result is a plain read-only
        ``ndarray`` over the mapping; the mapping lives exactly as long
        as the arrays viewing it, so dropping the last view unmaps.
        """
        declared_dtype = int(finfo["dtype_crc32"])
        if declared_dtype != _dtype_hash(dtype):
            raise CorruptColumnError(
                f"{name}: stored dtype hash {declared_dtype:#010x} does not "
                f"match the in-memory record layout"
            )
        count = int(finfo["count"])
        try:
            fd = os.open(self.path(name), os.O_RDONLY)
            try:
                head = os.pread(fd, HEADER.size, 0)
                actual = os.fstat(fd).st_size
                _check_header(name, head, count)
                expected = HEADER.size + count * dtype.itemsize
                if actual != expected:
                    raise CorruptColumnError(
                        f"{name}: file size {actual} != expected {expected}"
                    )
                if count == 0:
                    return np.empty(0, dtype=dtype)
                # Not MAP_POPULATE: over ten alternating runs it moved
                # neither the median nor the spread of a cold read, and
                # it maps pages a pruned read never touches.
                buf = mmap.mmap(
                    fd, actual, flags=mmap.MAP_SHARED, prot=mmap.PROT_READ
                )
            finally:
                os.close(fd)
        except OSError as exc:
            raise CorruptColumnError(f"{name}: unreadable: {exc}") from exc
        if obs.enabled:
            obs.add("colstore.bytes_mapped", count * dtype.itemsize)
        return np.frombuffer(buf, dtype=dtype, count=count, offset=HEADER.size)

    def _load(self, kind: str) -> Tuple[Any, dict]:
        """``(memmap-backed column, its manifest entry)`` for ``kind``
        (cheap validation tier) — the entry is the one the column was
        mapped from, so staleness is judged against the same read."""
        entry = self._manifest()["columns"].get(kind)
        cls = KINDS.get(kind)
        if entry is None or cls is None:
            raise CorruptColumnError(
                f"column store has no {kind!r} column"
            )
        try:
            arrays = [
                self._open_file(name, dtype, entry["files"][name])
                for name, dtype in cls.FILES
            ]
        except (KeyError, TypeError) as exc:
            raise CorruptColumnError(
                f"column store manifest entry for {kind!r} is malformed"
            ) from exc
        try:
            col = cls.from_records(arrays)
        except InvalidValue as exc:
            # e.g. an offsets array that does not cover the unit file —
            # internally inconsistent data that passed the cheap checks.
            raise CorruptColumnError(
                f"{kind} column files are mutually inconsistent: {exc}"
            ) from exc
        if obs.enabled:
            obs.add("colstore.validations")
        return col, entry

    def load(self, kind: str):
        """Open column ``kind`` from disk (counted ``colstore.hits``).

        Raises :class:`CorruptColumnError` when the manifest or any
        backing file fails the cheap validation tier.
        """
        col, _entry = self._load(kind)
        if obs.enabled:
            obs.add("colstore.hits")
        return col

    def load_current(self, kind: str, fleet_version: int):
        """The stored ``kind`` column (counted ``colstore.hits``), or None
        when it is missing, corrupt or stale.

        Stale: the manifest does not record ``fleet_version`` for it —
        the bytes were written by another fleet, or by this one at
        another version.
        """
        try:
            col, entry = self._load(kind)
        except CorruptColumnError:
            return None
        if entry.get("fleet_version") != fleet_version:
            return None
        if obs.enabled:
            obs.add("colstore.hits")
        return col

    def verify(self, kind: Optional[str] = None) -> None:
        """Full-CRC verification of stored columns (the repair tier).

        Checks everything :meth:`load` checks plus a CRC over each
        file's payload bytes, so bit flips inside the record payload are
        caught.  Raises :class:`CorruptColumnError` on the first
        failure.
        """
        payload = self._manifest()
        kinds = [kind] if kind is not None else sorted(payload["columns"])
        for k in kinds:
            entry = payload["columns"].get(k)
            if entry is None:
                raise CorruptColumnError(f"column store has no {k!r} column")
            if k not in KINDS:
                raise CorruptColumnError(f"manifest lists unknown kind {k!r}")
            for name, dtype in KINDS[k].FILES:
                try:
                    finfo = entry["files"][name]
                    declared = int(finfo["crc32"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise CorruptColumnError(
                        f"column store manifest entry for {k!r} is malformed"
                    ) from exc
                actual = zlib.crc32(
                    self._open_file(name, dtype, finfo).view(np.uint8)
                )
                if actual != declared:
                    raise CorruptColumnError(
                        f"{name}: payload CRC mismatch "
                        f"(declared {declared:#010x}, computed {actual:#010x})"
                    )
                if obs.enabled:
                    obs.add("colstore.validations")

    # -- the degrade path --------------------------------------------------

    def rebuild(
        self, kind: str, mappings: Sequence, fleet_version: int, **build_kwargs
    ):
        """Build ``kind`` from ``mappings``, save it under
        ``fleet_version`` (counted ``colstore.rebuilds``) and re-open it
        from disk so the caller gets a memmap-backed column; if even the
        re-open fails (disk gone), the built column itself is returned —
        degraded, never wrong."""
        built = column_class(kind).from_mappings(mappings, **build_kwargs)
        if obs.enabled:
            obs.add("colstore.rebuilds")
        self.save(kind, built, fleet_version)
        try:
            return self._load(kind)[0]
        except CorruptColumnError:
            return built

    def load_or_rebuild(
        self, kind: str, mappings: Sequence, fleet_version: int, **build_kwargs
    ):
        """Serve ``kind`` from disk (:meth:`load_current`), rebuilding
        from ``mappings`` (:meth:`rebuild`) if the stored column is
        missing, corrupt, or stale."""
        col = self.load_current(kind, fleet_version)
        if col is None:
            col = self.rebuild(kind, mappings, fleet_version, **build_kwargs)
        return col
