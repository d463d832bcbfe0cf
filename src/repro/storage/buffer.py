"""A buffer pool over a page file: CLOCK replacement with pin counts.

The DBMS "places values under control of the DBMS into memory"
(Section 4); this pool is that control point.  Replacement is the
shared second-chance policy of :mod:`repro.residency`, one unit of cost
per frame: a frame with a positive pin count is never a victim, a dirty
victim is written back, and — unlike strict LRU — a looping scan
slightly larger than the pool does not evict every page on every lap.

It exposes hit/miss statistics so the benchmarks can report logical vs
physical I/O.  Hit/miss bookkeeping is unified with :mod:`repro.obs`:
the pool's own ``hits``/``misses`` attributes stay authoritative (and
always on), and when the observability layer is enabled the same events
also land in the global counters (``buffer.hits`` / ``buffer.misses``)
so one ``--profile`` report covers kernels and I/O alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict

from repro import obs
from repro.config import BUFFER_RETRY_BASE_DELAY, BUFFER_RETRY_LIMIT
from repro.errors import StorageError, TransientIOError
from repro.residency import Residency
from repro.storage.pages import PageFile


@dataclass
class _Frame:
    page_no: int
    data: bytearray
    pin_count: int = 0
    dirty: bool = False


class BufferPool:
    """Caches up to ``capacity`` pages of a :class:`PageFile`."""

    def __init__(self, pagefile: PageFile, capacity: int = 64):
        if capacity < 1:
            raise StorageError("buffer pool needs capacity >= 1")
        self._pf = pagefile
        self._capacity = capacity
        self._frames: Residency[int, _Frame] = Residency(
            is_pinned=lambda frame: frame.pin_count > 0,
            on_evict=self._write_back,
        )
        self.hits = 0
        self.misses = 0

    @property
    def page_size(self) -> int:
        """Usable bytes per page (the page file's payload size)."""
        return self._pf.payload_size

    @property
    def page_count(self) -> int:
        """Number of pages in the underlying file."""
        return self._pf.page_count

    # -- pin/unpin protocol -------------------------------------------------

    def pin(self, page_no: int) -> bytearray:
        """Fetch a page into the pool and pin it; returns its mutable frame."""
        frame = self._frames.get(page_no)
        if frame is not None:
            self.hits += 1
            if obs.enabled:
                obs.counters.add("buffer.hits")
        else:
            self.misses += 1
            if obs.enabled:
                obs.counters.add("buffer.misses")
            # Make room first: the incoming frame is not a candidate of
            # the sweep that admits it.
            if not self._frames.fit(self._capacity - 1):
                raise StorageError("buffer pool exhausted: all frames pinned")
            frame = _Frame(page_no, bytearray(self._read_with_retry(page_no)))
            self._frames.put(page_no, frame, 1)
        frame.pin_count += 1
        return frame.data

    def _read_with_retry(self, page_no: int) -> bytes:
        """Read a page, retrying transient faults with bounded backoff.

        Only :class:`TransientIOError` is retried; corruption
        (:class:`CorruptPageError`) propagates immediately — rereading a
        torn page cannot un-tear it.  No frame entry exists while a read
        is in flight, so a concurrent eviction pass never sees a
        half-filled frame.
        """
        delay = BUFFER_RETRY_BASE_DELAY
        for attempt in range(BUFFER_RETRY_LIMIT + 1):
            try:
                return self._pf.read_page(page_no)
            except TransientIOError:
                if attempt == BUFFER_RETRY_LIMIT:
                    raise
                if obs.enabled:
                    obs.counters.add("buffer.retries")
                time.sleep(delay)
                delay *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    def unpin(self, page_no: int, dirty: bool = False) -> None:
        """Release a pin; mark the frame dirty if the caller modified it."""
        frame = self._frames.get(page_no)  # a pinned frame's bit is already set
        if frame is None or frame.pin_count == 0:
            raise StorageError(f"unpin of page {page_no} that is not pinned")
        frame.pin_count -= 1
        if dirty:
            frame.dirty = True

    def new_page(self) -> int:
        """Allocate a fresh page in the file (not yet resident)."""
        return self._pf.allocate()

    # -- maintenance --------------------------------------------------------

    def _write_back(self, page_no: int, frame: _Frame) -> None:
        if frame.dirty:
            self._pf.write_page(page_no, bytes(frame.data))
            frame.dirty = False

    def flush(self) -> None:
        """Write back all dirty frames (keeps them resident)."""
        for frame in self._frames.values():
            self._write_back(frame.page_no, frame)

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters plus the page file's physical I/O counts."""
        reads, writes = self._pf.io_stats
        return {
            "hits": self.hits,
            "misses": self.misses,
            "physical_reads": reads,
            "physical_writes": writes,
            "resident": len(self._frames),
        }
