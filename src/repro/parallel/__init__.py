"""Process-pool execution layer over the columnar backend.

The third fleet backend (``--backend parallel``): columns are packed
into ``multiprocessing.shared_memory`` segments once and pool workers
run the operator table's kernels (:mod:`repro.vector.backends`)
zero-copy on unit-balanced chunks; when the pool cannot help — small
fleets, one-worker configurations, pool failures — the table's ladder
takes the single-process rung, counted (``parallel.fallback.*``).  See
DESIGN.md for how a chunk maps back to a contiguous run of Section-4
stacked root records.
"""

from __future__ import annotations

from repro.parallel.exec import (
    chunk_bounds,
    parallel_atinstant,
    parallel_bbox_filter,
    parallel_count_inside,
    parallel_present,
    parallel_window_intervals,
)
from repro.parallel.pool import (
    effective_workers,
    get_workers,
    set_workers,
    shutdown,
)
from repro.parallel.shmcol import attach, pack, release_all, shared_descriptor

__all__ = [
    "attach",
    "chunk_bounds",
    "effective_workers",
    "get_workers",
    "pack",
    "parallel_atinstant",
    "parallel_bbox_filter",
    "parallel_count_inside",
    "parallel_present",
    "parallel_window_intervals",
    "release_all",
    "set_workers",
    "shared_descriptor",
    "shutdown",
]
