"""Sharded fleets: spatial tiling, scatter-gather, memory budget.

The Section-4 sliced representation was designed for *large* sets of
moving objects; this package is the scale step past one shared-memory
segment per fleet.  A :class:`ShardedFleet` packs the root records into
equal-count spatial tiles of their bounding cubes — whole objects, each
in exactly one shard, global ids ascending within it — so a window
query's shard-level cube test rules out every tile it does not overlap;
a :class:`ShardManager` gives each shard its own column-store directory
and column set under the byte budget it is built with (CLOCK
residency); and :mod:`repro.shard.exec` partitions each operator table
row (:mod:`repro.vector.backends`) across the shards, whose outputs
gather bit-identical to the unsharded kernel's.  A sharded fleet is an
operand, not a backend: its scatter runs under whichever columnar
backend is asked for.  It is a library: the query service serves plain
fleets only.
"""

from __future__ import annotations

from repro.shard.exec import (
    sharded_atinstant,
    sharded_bbox_filter,
    sharded_count_inside,
    sharded_window_intervals,
)
from repro.shard.fleet import ShardedFleet
from repro.shard.manager import ShardManager

__all__ = [
    "ShardManager",
    "ShardedFleet",
    "sharded_atinstant",
    "sharded_bbox_filter",
    "sharded_count_inside",
    "sharded_window_intervals",
]
