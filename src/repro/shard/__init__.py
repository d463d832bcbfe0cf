"""Sharded fleets: spatial tiling, scatter-gather, memory budget.

The Section-4 sliced representation was designed for *large* sets of
moving objects; this package is the scale step past one shared-memory
segment per fleet.  A :class:`ShardedFleet` packs the root records into
equal-count spatial tiles of their bounding cubes — whole objects, each
in exactly one shard, global ids ascending within it — so a window
query's shard-level cube test rules out every tile it does not overlap;
a :class:`ShardManager` gives each shard its own column-store directory
and column set under a byte-budgeted CLOCK residency policy; and
:mod:`repro.shard.exec` partitions each operator table row
(:mod:`repro.vector.backends`) across the shards, whose outputs gather
bit-identical to the unsharded kernel's.  A sharded fleet is an operand,
not a backend: its scatter runs under whichever columnar backend is
asked for.

Process-wide defaults (the CLI's ``--shards`` / ``--memory-budget``
flags land here): ``set_shards`` picks how many shards newly registered
fleets get (1 = unsharded, the default), ``set_memory_budget`` bounds
every manager that does not carry an explicit budget.
"""

from __future__ import annotations

from typing import Optional

from repro import config
from repro.errors import InvalidValue
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
    "get_memory_budget",
    "get_shards",
    "set_memory_budget",
    "set_shards",
    "sharded_atinstant",
    "sharded_bbox_filter",
    "sharded_count_inside",
    "sharded_window_intervals",
]

_shards: int = config.DEFAULT_SHARDS
_memory_budget: Optional[int] = config.SHARD_MEMORY_BUDGET


def set_shards(n: int) -> None:
    """Select the process-wide default shard count (1 = unsharded)."""
    global _shards
    if n < 1:
        raise InvalidValue(f"shard count must be >= 1, got {n}")
    _shards = int(n)


def get_shards() -> int:
    """The current process-wide default shard count."""
    return _shards


def set_memory_budget(nbytes: Optional[int]) -> None:
    """Select the process-wide shard memory budget (None = unbounded)."""
    global _memory_budget
    if nbytes is not None and nbytes < 1:
        raise InvalidValue(f"memory budget must be >= 1 byte, got {nbytes}")
    _memory_budget = None if nbytes is None else int(nbytes)


def get_memory_budget() -> Optional[int]:
    """The current process-wide shard memory budget (None = unbounded)."""
    return _memory_budget
