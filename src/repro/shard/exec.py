"""The shard executor's side of the operator table.

:func:`sharded` runs one row of the physical operator table
(:mod:`repro.vector.backends`) over a
:class:`~repro.shard.manager.ShardManager`, in process on the
``vector`` kernels; :func:`sharded_window_intervals` binds the window
row.  What this module owns is the *partitioning*: lazy generators of
``(global ids, shard column)`` parts that
:func:`repro.vector.backends.scatter_gather` consumes one at a time — so
a memory budget below the working set holds — and merges back into the
exact arrays the unsharded kernel would have produced:

* Outputs come back in *local* lanes; the table's merge places them
  through the shard's global-id array.  Every object lives in exactly
  one shard and that array is strictly ascending (the two invariants
  of :class:`~repro.shard.fleet.ShardedFleet`'s tiling), which restores
  the unsharded order exactly — bit for bit (NaN ⊥ lanes, open/closed
  flags, float payloads), pinned by the hypothesis properties in
  ``tests/test_shard_properties.py``.
* Window scatters prune twice before touching unit data: shard-level
  bounding cubes first (:meth:`ShardManager.prune` — no column mapped
  at all; the shards are spatial tiles, so a selective window keeps the
  one or two it overlaps), then the shard's bbox column selects
  candidate objects whose units are gathered into a compact sub-column
  for the kernel.  Both filters test against the query cube widened by
  ``EPSILON`` — the window kernel's slab tolerance — so dropped objects
  are exactly those the full kernel would emit no rows for.

The ``shard.evict_during_query`` failpoint fires between per-shard
kernel runs, so the chaos matrix can evict every resident shard
mid-scatter and assert the gathered result is still bit-identical
(columns are immutable; eviction only drops references).
"""

from __future__ import annotations

from typing import Any, Iterator, Tuple

import numpy as np

from repro import faults
from repro.config import EPSILON
from repro.shard.manager import ShardManager
from repro.spatial.bbox import Cube, Rect
from repro.vector.backends import IntervalRows, evaluate
from repro.vector.columns import UnitColumn

Part = Tuple[np.ndarray, Any]


def _evict_failpoint(manager: ShardManager) -> None:
    """Chaos hook: evict every resident shard mid-scatter when armed."""
    if faults.active and faults.should_fire("shard.evict_during_query"):
        manager.evict_all()


# ---------------------------------------------------------------------------
# Partitioners: what each operation scatters over
# ---------------------------------------------------------------------------


def _all_shards(manager: ShardManager, *_args: Any) -> Iterator[Part]:
    """Every non-empty shard's unit column."""
    fleet = manager.fleet
    for s in range(fleet.n_shards):
        if len(fleet.shards[s]) == 0:
            continue
        yield fleet.globals_of(s), manager.column(s, "upoint")
        _evict_failpoint(manager)


def _bbox_shards(manager: ShardManager, cube: Cube) -> Iterator[Part]:
    """The bbox columns of the shards whose bounds survive ``cube``,
    each entry mapped to its object's global id."""
    for s in manager.prune(cube):
        col = manager.column(s, "bbox")
        yield manager.fleet.globals_of(s)[col.keys], col
        _evict_failpoint(manager)


def _window_shards(
    manager: ShardManager, rect: Rect, t0: float, t1: float
) -> Iterator[Part]:
    """Surviving shards' candidate objects, as whole or gathered columns."""
    cube = Cube.from_rect(rect, float(t0), float(t1))
    # The window kernel tolerates positions within EPSILON of the slab,
    # so the candidate prefilters must be at least that wide or they
    # drop objects whose rows the kernel would emit.  The kernels
    # themselves still get the exact rect/t0/t1.
    pad = Cube(
        cube.xmin - EPSILON, cube.ymin - EPSILON, cube.tmin - EPSILON,
        cube.xmax + EPSILON, cube.ymax + EPSILON, cube.tmax + EPSILON,
    )
    for s in manager.prune(pad):
        bbox = manager.column(s, "bbox")
        cand = bbox.keys[bbox.overlap_mask(pad)]
        _evict_failpoint(manager)
        if cand.size == 0:
            continue
        col = manager.column(s, "upoint")
        gids = manager.fleet.globals_of(s)
        if 2 * int((col.offsets[cand + 1] - col.offsets[cand]).sum()) >= col.n_units:
            # Broad window: gathering would copy most of the column
            # anyway — run the kernel over it whole.
            yield gids, col
        else:
            yield gids[cand], _gather_candidates(col, cand)
        _evict_failpoint(manager)


_PARTITIONERS = {
    "bbox_filter": _bbox_shards,
    "window_intervals": _window_shards,
}


def sharded(op: str, manager: ShardManager, args: Tuple[Any, ...]) -> Any:
    """Table operation ``op`` scattered over ``manager``'s shards in
    process on the ``vector`` kernels (the scalar loop is the counted
    fallback), answered as arrays in global lanes."""
    parts = _PARTITIONERS.get(op, _all_shards)(manager, *args)
    return evaluate(op, manager.fleet, args, "vector", parts=parts, arrays=True)


def _gather_candidates(col: UnitColumn, cand: np.ndarray) -> UnitColumn:
    """A compact sub-column holding ``cand``'s objects, units intact.

    ``cand`` is ascending local object positions; whole objects are
    copied with their unit order preserved, so every kernel run over the
    sub-column emits exactly the rows it would have emitted for those
    objects in the full column (run merging never crosses objects).
    """
    off = col.offsets
    lens = off[cand + 1] - off[cand]
    total = int(lens.sum())
    suboff = np.zeros(len(cand) + 1, dtype=np.int64)
    np.cumsum(lens, out=suboff[1:])
    if total == 0:
        idx = np.empty(0, dtype=np.int64)
    else:
        idx = np.repeat(off[cand] - suboff[:-1], lens) + np.arange(total)
    return type(col)(suboff, *(a[idx] for a in col.arrays()[1:]))


# ---------------------------------------------------------------------------
# The window row over a shard manager
# ---------------------------------------------------------------------------


def sharded_window_intervals(
    manager: ShardManager, rect: Rect, t0: float, t1: float
) -> IntervalRows:
    """Window-clipped in-rect intervals, scattered and gathered.

    Bit-identical to ``window_intervals_batch`` over the unsharded
    column: shard-level bounds and per-shard bbox candidates only ever
    drop objects that produce no rows, and the gather is a stable
    permutation back to global owner order.
    """
    return sharded("window_intervals", manager, (rect, t0, t1))
