"""Sharded fleets: spatial tiling, scatter-gather, memory budget.

The Section-4 sliced representation was designed for *large* sets of
moving objects; this package is the scale step past one shared-memory
segment per fleet.  A :class:`ShardedFleet` packs the root records, once
and for good, into equal-count spatial tiles of their bounding cubes —
whole objects, each in exactly one shard, global ids ascending within it
— so a window query's shard-level cube test rules out every tile it does
not overlap; a :class:`ShardManager` gives each shard its own
column-store directory and column set under the byte budget it is built
with (CLOCK residency, the columns' only owner); and
:mod:`repro.shard.exec` scatters each operator table row
(:mod:`repro.vector.backends`) across the shards in process on the
``vector`` kernels, whose outputs gather bit-identical to the unsharded
kernel's.  It is a library: the query service serves plain fleets only.
"""

from __future__ import annotations

from repro.shard.exec import sharded, sharded_window_intervals
from repro.shard.fleet import ShardedFleet
from repro.shard.manager import ShardManager

__all__ = [
    "ShardManager",
    "ShardedFleet",
    "sharded",
    "sharded_window_intervals",
]
