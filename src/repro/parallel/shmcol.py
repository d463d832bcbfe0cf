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

This is the only way a column reaches a worker: a column mapped from
the persistent store (:mod:`repro.vector.store`) is packed like any
other, the copy reading its read-only views once.
"""

from __future__ import annotations

import multiprocessing
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Tuple

import numpy as np

from repro import faults, obs
from repro.errors import InvalidValue
from repro.vector.columns import Column, column_class

#: A picklable shared-column handle: (kind, segment name, field layout),
#: the layout being ``(field, dtype, length, byte offset)`` tuples.
Descriptor = Tuple[str, str, Tuple[Tuple[str, str, int, int], ...]]


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
    """A column whose arrays are views over an attached shared segment."""

    __slots__ = ("shm", "column")

    def __init__(self, shm: shared_memory.SharedMemory, column: Any):
        self.shm = shm
        self.column = column

    def close(self) -> None:
        try:
            self.shm.close()
        except (OSError, BufferError):
            # BufferError: column views over the segment are still
            # referenced; the map is released when they are collected.
            pass


def attach(descriptor: Descriptor) -> AttachedColumn:
    """Open a packed column in this process (typically a pool worker)."""
    kind, name, layout = descriptor
    cls = column_class(kind)
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


def shared_descriptor(col: Any) -> Descriptor:
    """The (cached) transport descriptor of ``col``.

    Packs into shared memory on first call; subsequent calls for the
    same live column reuse the segment, which is released when the
    column is collected.
    """
    key = id(col)
    seg = _SEGMENTS.get(key)
    if seg is not None and seg.ref() is col:
        return seg.descriptor
    descriptor, shm = pack(col)
    finalizer = weakref.finalize(col, _release, key, shm)
    _SEGMENTS[key] = _Segment(descriptor, weakref.ref(col), finalizer)
    return descriptor


def release_all() -> None:
    """Unlink every registered segment now (tests, benchmarks)."""
    for seg in list(_SEGMENTS.values()):
        seg.finalizer()
    _SEGMENTS.clear()
