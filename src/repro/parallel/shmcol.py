"""Shared-memory packing of columnar fleets (zero-copy worker access).

A column is a handful of contiguous numpy arrays (:mod:`repro.vector.
columns`).  To hand a column to pool workers without pickling megabytes
per task, the arrays are copied **once** into a ``multiprocessing.
shared_memory`` segment; what crosses the process boundary afterwards is
a tiny *descriptor* — ``(kind, segment name, field layout)`` — from
which a worker reconstructs the column as numpy views over the mapped
segment.  This module is transport only: which arrays a kind consists
of, and how a column is rebuilt from them, is the kind's row of
``repro.vector.columns.KINDS`` (``ARRAYS`` / ``arrays()`` /
``from_arrays``).  Workers therefore read the exact bytes the parent packed:
zero copies, bit-identical kernel inputs.

Lifetime: the parent keeps a registry entry per packed column, tied to
the column's lifetime with ``weakref.finalize`` — when the column is
garbage collected (or the interpreter exits) the segment is closed and
unlinked.  Workers unregister their attachments from multiprocessing's
resource tracker: the *owner* unlinks, an attaching process must not.

Columns backed by the persistent store (:mod:`repro.vector.store`)
skip shared memory entirely: their descriptor carries an ``mmap://``
scheme naming the store directory and manifest generation, and each
worker memory-maps the same files the parent did (counted under
``colstore.mmap_direct``).  When the store on disk no longer matches
the column's generation the dispatch falls back to the shm copy path
(counted under ``colstore.mmap_fallback``) — same bytes, higher cost.
"""

from __future__ import annotations

import multiprocessing
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import faults, obs
from repro.errors import CorruptColumnError, InvalidValue
from repro.vector.columns import Column, column_class

#: A picklable shared-column handle: (kind, segment name, field layout),
#: the layout being ``(field, dtype, length, byte offset)`` tuples.
#: Persistent-store columns use the name ``mmap://<crc>:<root>`` with an
#: empty layout — workers reconstruct the column from the files, not
#: from a segment.
Descriptor = Tuple[str, str, Tuple[Tuple[str, str, int, int], ...]]

_MMAP_PREFIX = "mmap://"


def _scheme_of(name: str) -> str:
    """Transport scheme of a descriptor name: ``"mmap"`` or ``"shm"``."""
    return "mmap" if name.startswith(_MMAP_PREFIX) else "shm"


def _mmap_fallback(reason: str) -> None:
    """Count one mmap→shm dispatch downgrade (store stale or unreadable)."""
    if obs.enabled:
        obs.add("colstore.mmap_fallback")
        obs.add(f"colstore.mmap_fallback.{reason}")


def _align8(n: int) -> int:
    return (n + 7) & ~7


def pack(col: Any) -> Tuple[Descriptor, shared_memory.SharedMemory]:
    """Copy ``col``'s arrays into a fresh shared-memory segment.

    Returns the descriptor plus the owning segment handle; the caller is
    responsible for eventually ``close()`` + ``unlink()`` (see
    :func:`shared_descriptor` for the registry that automates this).
    """
    if not isinstance(col, Column):
        raise InvalidValue(f"cannot share a {type(col).__name__}")
    layout: List[Tuple[str, str, int, int]] = []
    arrays: List[Tuple[int, np.ndarray]] = []
    offset = 0
    for field, arr in zip(col.ARRAYS, col.arrays()):
        arr = np.ascontiguousarray(arr)
        offset = _align8(offset)
        layout.append((field, arr.dtype.str, len(arr), offset))
        arrays.append((offset, arr))
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    # From here the segment exists in the OS namespace: if the copy loop
    # dies (a dtype surprise, an injected crash) before the caller gets
    # the handle, nobody would ever close()+unlink() it — a leak that
    # outlives the process.  Reclaim on *any* failure, then re-raise.
    try:
        for off, arr in arrays:
            if faults.active:
                faults.fail("shmcol.pack_crash")
            # memoryview slice assignment leaves no exported pointer
            # into the segment behind, so the reclaim path below can
            # still close() it.
            shm.buf[off : off + arr.nbytes] = arr.tobytes()
    except BaseException:
        if obs.enabled:
            obs.add("parallel.shm_reclaimed")
        try:
            shm.unlink()
        except OSError:  # pragma: no cover - best-effort reclaim
            pass
        try:
            shm.close()
        except (OSError, BufferError):  # pragma: no cover - best-effort
            pass
        raise
    return (col.KIND, shm.name, tuple(layout)), shm


class AttachedColumn:
    """A column whose arrays are views over an attached shared segment,
    or over memory-mapped store files (``shm is None``)."""

    __slots__ = ("shm", "column")

    def __init__(self, shm: Optional[shared_memory.SharedMemory], column: Any):
        self.shm = shm
        self.column = column

    def close(self) -> None:
        if self.shm is None:
            return  # mmap-backed: the memmap closes with the column
        try:
            self.shm.close()
        except (OSError, BufferError):
            # BufferError: column views over the segment are still
            # referenced; the map is released when they are collected.
            pass


def _attach_mmap(kind: str, name: str) -> AttachedColumn:
    """Open an ``mmap://`` descriptor: map the store files directly.

    The descriptor pins the manifest generation (its CRC); if the store
    on disk was rebuilt since the parent dispatched, the generation no
    longer matches and this raises :class:`CorruptColumnError` rather
    than serving bytes from a different fleet.
    """
    from repro.vector.store import ColumnStore

    crc_text, _, root = name[len(_MMAP_PREFIX):].partition(":")
    try:
        crc = int(crc_text)
    except ValueError as exc:
        raise CorruptColumnError(f"malformed mmap descriptor {name!r}") from exc
    column, _entry = ColumnStore(root)._load(kind)
    if column.source is None or column.source.manifest_crc != crc:
        raise CorruptColumnError(
            f"column store at {root!r} is no longer generation {crc:#010x}"
        )
    return AttachedColumn(None, column)


def attach(descriptor: Descriptor) -> AttachedColumn:
    """Open a packed column in this process (typically a pool worker)."""
    kind, name, layout = descriptor
    cls = column_class(kind)
    if _scheme_of(name) == "mmap":
        return _attach_mmap(kind, name)
    shm = shared_memory.SharedMemory(name=name)
    # Fork-context pool workers share the parent's resource tracker, so
    # the attach-side registration is an idempotent no-op there and the
    # segment stays owned (and eventually unlinked) by the packing
    # parent.  Under a spawn context each child has its own tracker,
    # which would unlink the parent's segment at child exit — drop the
    # child-side registration in that case only.
    if multiprocessing.get_start_method(allow_none=True) == "spawn":  # pragma: no cover
        try:
            resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:
            pass
    fields = {
        field: np.frombuffer(shm.buf, dtype=np.dtype(dt), count=n, offset=off)
        for field, dt, n, off in layout
    }
    return AttachedColumn(shm, cls.from_arrays([fields[f] for f in cls.ARRAYS]))


# ---------------------------------------------------------------------------
# Parent-side registry: one segment per live column
# ---------------------------------------------------------------------------


class _Segment:
    __slots__ = ("descriptor", "ref", "finalizer")

    def __init__(
        self,
        descriptor: Descriptor,
        ref: "weakref.ref[Any]",
        finalizer: weakref.finalize,
    ):
        self.descriptor = descriptor
        self.ref = ref
        self.finalizer = finalizer


_SEGMENTS: Dict[int, _Segment] = {}


def _release(key: int, shm: shared_memory.SharedMemory) -> None:
    _SEGMENTS.pop(key, None)
    try:
        shm.close()
        shm.unlink()
    except OSError:
        pass


def _mmap_descriptor(col: Any) -> Optional[Descriptor]:
    """An ``mmap://`` descriptor for a store-backed column, if still valid.

    Re-checks the store's manifest CRC against the column's generation:
    a store rebuilt on disk since this column was opened must not be
    dispatched (workers would map different bytes than the parent
    holds).  Returns None — after counting the downgrade — when the
    store cannot serve, and the caller packs to shared memory instead.
    """
    source = getattr(col, "source", None)
    if source is None:
        return None
    from repro.vector.store import ColumnStore

    try:
        crc = ColumnStore(source.root).manifest_crc()
    except CorruptColumnError:
        _mmap_fallback("manifest")
        return None
    if crc != source.manifest_crc:
        _mmap_fallback("stale")
        return None
    if obs.enabled:
        obs.add("colstore.mmap_direct")
    return (
        col.KIND,
        f"{_MMAP_PREFIX}{source.manifest_crc}:{source.root}",
        (),
    )


def shared_descriptor(col: Any) -> Descriptor:
    """The (cached) transport descriptor of ``col``.

    Store-backed columns get an ``mmap://`` descriptor — workers map
    the same files, no copy.  Everything else packs into shared memory
    on first call; subsequent calls for the same live column reuse the
    segment, which is released when the column is collected.
    """
    key = id(col)
    seg = _SEGMENTS.get(key)
    if seg is not None and seg.ref() is col:
        return seg.descriptor
    descriptor = _mmap_descriptor(col)
    if descriptor is not None:
        return descriptor
    descriptor, shm = pack(col)
    finalizer = weakref.finalize(col, _release, key, shm)
    _SEGMENTS[key] = _Segment(descriptor, weakref.ref(col), finalizer)
    return descriptor


def release_all() -> None:
    """Unlink every registered segment now (tests, benchmarks)."""
    for seg in list(_SEGMENTS.values()):
        seg.finalizer()
    _SEGMENTS.clear()
