"""The fork pool's side of the operator table.

:func:`pool_chunks` is the pool's instantiation of
:func:`repro.vector.backends.scatter_gather`: the column is packed into
shared memory once (:mod:`repro.parallel.shmcol`), split into per-worker
chunks balanced by *unit* count (objects differ in unit count, so an
even object split would skew the work), and every worker runs the
operation's table kernel zero-copy on its chunk.  Chunk boundaries fall
*between* objects and a kernel's per-object output never spans chunks,
so the table's order-stable merge is exactly the single-process output.

The pool rung declines — counted under ``parallel.fallback`` plus a
per-reason counter, leaving the caller to run the in-process kernel —
when the worker count is ≤ 1 (``.workers``), the fleet is below
``config.PARALLEL_MIN_OBJECTS`` (``.small_fleet``), the pool or segment
cannot be created (``.no_pool``), or a dispatched task fails for a
non-library reason (``.error``/``.pool_broken``; library errors such as
``InvalidValue`` re-raise, matching the single-process behaviour).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from repro import config, obs
from repro.errors import ReproError
from repro.parallel import pool, shmcol
from repro.spatial.bbox import Cube, Rect
from repro.spatial.region import Region
from repro.vector.backends import (
    Operation,
    count_fallback,
    on_column,
    scatter_gather,
)
from repro.vector.columns import BBoxColumn, UPointColumn


def chunk_bounds(
    offsets: Optional[np.ndarray], n_items: int, chunks: int
) -> List[Tuple[int, int]]:
    """Split ``n_items`` objects into ≤ ``chunks`` ranges, unit-balanced.

    With a CSR ``offsets`` array the cut points aim at equal *unit*
    counts per chunk (the kernels' real cost driver); without one the
    split is an even item split.  Empty ranges are dropped.
    """
    if chunks <= 1 or n_items <= 1:
        return [(0, n_items)] if n_items else []
    if offsets is not None and int(offsets[-1]) > 0:
        total = int(offsets[-1])
        targets = [round(i * total / chunks) for i in range(chunks + 1)]
        cuts = np.searchsorted(offsets, targets, side="left").tolist()
        cuts[0], cuts[-1] = 0, n_items
    else:
        cuts = [round(i * n_items / chunks) for i in range(chunks + 1)]
    return [(int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]


def pool_chunks(
    entry: Operation, col: Any, args: Tuple[Any, ...], n_workers: int
) -> Optional[Any]:
    """``entry`` over ``col`` chunked across the pool; ``None`` = the
    caller runs the in-process kernel (the reason has been counted)."""
    n_items = len(col)
    if n_workers <= 1:
        count_fallback("parallel", "workers")
        return None
    if n_items < config.PARALLEL_MIN_OBJECTS:
        count_fallback("parallel", "small_fleet")
        return None
    try:
        descriptor = shmcol.shared_descriptor(col)
        pool.get_pool(n_workers)
    except (OSError, ValueError):
        count_fallback("parallel", "no_pool")
        return None
    bounds = chunk_bounds(getattr(col, "offsets", None), n_items, n_workers)

    def run(ranges: Any) -> List[Any]:
        payloads = [
            (entry.name, descriptor, lo, hi, args, obs.enabled)
            for lo, hi in ranges
        ]
        results = pool.run_tasks(n_workers, payloads)
        if obs.enabled:
            obs.counters.add("parallel.chunks", len(payloads))
            for _out, snap in results:
                if snap is not None:
                    pool._merge_counters(snap)
        return [out for out, _snap in results]

    try:
        return scatter_gather(
            n_items,
            [(slice(lo, hi), (lo, hi)) for lo, hi in bounds],
            run,
            entry.merge,
        )
    except ReproError:
        raise  # library errors behave exactly as in-process
    except pool.PoolBroken:
        # Workers kept dying after a full respawn: stop betting on the
        # pool and finish the query in-process (correct, just slower).
        count_fallback("parallel", "pool_broken")
        return None
    except Exception:
        pool.shutdown()  # the pool may be wedged; rebuild lazily
        count_fallback("parallel", "error")
        return None


# ---------------------------------------------------------------------------
# The table's ``parallel`` column over one already-built column
# ---------------------------------------------------------------------------


def parallel_atinstant(
    col: UPointColumn, t: float, workers: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chunked :func:`repro.vector.kernels.atinstant_batch`."""
    return on_column("atinstant", col, (float(t),), "parallel", workers)


def parallel_present(
    col: UPointColumn, t: float, workers: Optional[int] = None
) -> np.ndarray:
    """Chunked definedness test (:func:`locate_units`'s ``defined``)."""
    return on_column("present", col, (float(t),), "parallel", workers)


def parallel_bbox_filter(
    col: BBoxColumn, cube: Cube, workers: Optional[int] = None
) -> np.ndarray:
    """Chunked :func:`repro.vector.kernels.bbox_filter_batch`."""
    return on_column("bbox_filter", col, (cube,), "parallel", workers)


def parallel_window_intervals(
    col: UPointColumn,
    rect: Rect,
    t0: float,
    t1: float,
    workers: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Chunked :func:`repro.vector.kernels.window_intervals_batch`."""
    return on_column(
        "window_intervals", col, (rect, float(t0), float(t1)), "parallel",
        workers,
    )


def parallel_count_inside(
    col: UPointColumn,
    region: Region,
    t: float,
    workers: Optional[int] = None,
) -> int:
    """Chunked snapshot count: atinstant + plumbline prefilter per chunk."""
    mask = on_column(
        "count_inside", col, (float(t), region), "parallel", workers
    )
    return int(np.count_nonzero(mask))
