"""Byte-budgeted shard residency: CLOCK eviction over mapped columns.

A :class:`ShardManager` owns the physical side of a
:class:`~repro.shard.fleet.ShardedFleet`: one column-store directory
(``<root>/shard_NNN``) and one column set per shard.  Columns are mapped
lazily — a query maps only the shards its window survives :meth:`prune`,
which for a fleet of spatial tiles is the few tiles the window overlaps
— and stay resident until the memory budget forces them out.

Eviction is the shared CLOCK policy (:mod:`repro.residency`): a resident
shard costs its mapped column bytes, and whenever that cost is charged
or grows the table is fitted back to the budget, cold shards first.
The manager is a shard column's only owner — nothing it maps or builds
is kept in the shard's :class:`~repro.vector.cache.Fleet`.  Eviction drops its *reference*, never
bytes under a live reader: columns are immutable, so a scatter that
obtained a column before the eviction keeps reading consistent data
(the ``shard.evict_during_query`` chaos scenario pins exactly this).

Recovery is per shard: each shard directory has its own CRC'd manifest,
so :meth:`verify_and_repair` rebuilds a corrupt shard alone
(``shard.rebuilds``) while its siblings' files are untouched.  A store
is stamped with its shard fleet's :attr:`~repro.vector.cache.Fleet.stamp`
and served only to that fleet object at that version: files another
fleet wrote — in an earlier process, under another placement, or a
second fleet over an old root — are rebuilt and overwritten, never
served.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.analysis import dynlock
from repro.errors import CorruptColumnError, StorageError
from repro.residency import Residency
from repro.shard.fleet import ShardedFleet
from repro.spatial.bbox import Cube
from repro.vector.columns import column_class
from repro.vector.store import ColumnStore


def _derive_from(kind: str, built: Dict[str, Any]) -> Dict[str, Any]:
    """Build arguments for ``kind`` given the shard's columns ``built``
    so far: the boxes derive from the unit column when that is in hand,
    not from a second walk over the shard's units."""
    if kind == "bbox" and "upoint" in built:
        return {"upoint": built["upoint"]}
    return {}


class _Resident:
    """One shard's mapped state: columns by kind and their cost."""

    __slots__ = ("columns", "nbytes")

    def __init__(self) -> None:
        self.columns: Dict[str, Any] = {}
        self.nbytes = 0


class ShardManager:
    """Residency, pruning, and recovery for one sharded fleet.

    ``root`` selects persistent per-shard column stores (None builds
    every column in memory).  ``budget`` bounds the resident bytes
    (None: unbounded, shards stay mapped once touched); the high-water
    mark of the mapped bytes is the ``shard.resident_bytes`` gauge.
    """

    def __init__(
        self,
        fleet: ShardedFleet,
        root: Optional[str] = None,
        budget: Optional[int] = None,
    ):
        self.fleet = fleet
        self.root = os.fspath(root) if root is not None else None
        self._budget = budget
        self._lock = dynlock.rlock("shard.manager")
        self._resident: Residency[int, _Resident] = Residency(on_evict=self._dropped)
        self._stores: Dict[int, ColumnStore] = {}

    # -- configuration ------------------------------------------------------

    def _store(self, s: int) -> Optional[ColumnStore]:
        if self.root is None:
            return None
        st = self._stores.get(s)
        if st is None:
            st = ColumnStore(os.path.join(self.root, f"shard_{s:03d}"))
            self._stores[s] = st
        return st

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._resident.total

    def resident_shards(self) -> List[int]:
        with self._lock:
            return sorted(self._resident)

    # -- column residency ---------------------------------------------------

    def column(self, s: int, kind: str) -> Any:
        """The ``kind`` column of shard ``s``, mapping it if cold.

        Any access sets the shard's CLOCK reference bit.  Hits count
        ``shard.hits``; misses map or build the column (``shard.maps``),
        charge its bytes, and evict cold shards until the budget fits.
        """
        with self._lock:
            res = self._resident.get(s) or _Resident()
            col = res.columns.get(kind)
            if col is not None:
                if obs.enabled:
                    obs.counters.add("shard.hits")
                return col
            col = res.columns[kind] = self._map_column(s, kind)
            res.nbytes += col.nbytes
            if obs.enabled:
                obs.counters.add("shard.maps")
            self._charge(s, res)
            return col

    def _map_column(self, s: int, kind: str) -> Any:
        """One shard's ``kind`` column, preferring its store.  Caller
        holds the lock."""
        shard = self.fleet.shards[s]
        st = self._store(s)
        if st is not None:
            try:
                return st.load_or_rebuild(kind, shard, fleet_version=shard.stamp)
            except (OSError, StorageError):
                pass  # store unusable: degrade to the in-memory build
        return column_class(kind).from_mappings(shard)

    def _charge(self, s: int, res: _Resident) -> None:
        """Enter shard ``s`` at its current cost, then CLOCK-evict until
        the resident bytes fit the budget.  Caller holds the lock."""
        self._resident.put(s, res, res.nbytes)
        if self._budget is not None:
            self._resident.fit(self._budget)
        obs.high_water("shard.resident_bytes", float(self._resident.total))

    def _dropped(self, s: int, res: _Resident) -> None:
        """Shard ``s`` left residency (counted)."""
        if obs.enabled:
            obs.counters.add("shard.evictions")

    def evict_all(self) -> int:
        """Evict every resident shard (chaos: ``shard.evict_during_query``).

        Returns how many shards were dropped.  Columns already handed to
        callers stay valid — eviction is reference-dropping only.
        """
        with self._lock:
            shards = list(self._resident)
            for s in shards:
                self._resident.evict(s)
            obs.high_water("shard.resident_bytes", 0.0)
            return len(shards)

    # -- pruning ------------------------------------------------------------

    def prune(self, cube: Cube) -> List[int]:
        """Shards that may intersect ``cube``, by shard-level bounds.

        Consults only the fleet's per-shard bounding cubes — O(shards),
        no column is mapped — and counts every shard it rules out
        (``shard.pruned``).  Empty shards are skipped for free; shards
        with unknowable bounds are always kept.
        """
        keep: List[int] = []
        ruled_out = 0
        for s in range(self.fleet.n_shards):
            if len(self.fleet.shards[s]) == 0:
                continue
            bound = self.fleet.bounds(s)
            if bound is not None and not bound.intersects(cube):
                ruled_out += 1
                continue
            keep.append(s)
        if obs.enabled and ruled_out:
            obs.counters.add("shard.pruned", ruled_out)
        return keep

    # -- persistence & recovery ---------------------------------------------

    def persist(self, kinds: Tuple[str, ...] = ("upoint",)) -> None:
        """Write every shard's columns to its store directory (no-op
        without a root).  Used to stage a cold fleet for budgeted runs."""
        if self.root is None:
            return
        for s in range(self.fleet.n_shards):
            st = self._store(s)
            assert st is not None
            shard = self.fleet.shards[s]
            built: Dict[str, Any] = {}
            for kind in kinds:
                built[kind] = st.load_or_rebuild(
                    kind, shard, fleet_version=shard.stamp,
                    **_derive_from(kind, built),
                )

    def verify_and_repair(self, kinds: Tuple[str, ...] = ("upoint",)) -> List[int]:
        """Verify every shard store's payload CRCs; rebuild corrupt ones.

        A shard that fails deep verification, or whose store does not
        carry its fleet's current stamp, is rebuilt
        *alone* from its shard fleet (``shard.rebuilds``) — sibling
        directories are never touched, let alone invalidated.  Returns
        the rebuilt shard ids.
        """
        rebuilt: List[int] = []
        with self._lock:
            for s in range(self.fleet.n_shards):
                st = self._store(s)
                if st is None or not st.exists():
                    continue
                shard = self.fleet.shards[s]
                try:
                    st.verify()
                    if all(st.fleet_version(k) == shard.stamp for k in kinds):
                        continue
                except (CorruptColumnError, StorageError, OSError):
                    pass
                built: Dict[str, Any] = {}
                for kind in kinds:
                    built[kind] = column_class(kind).from_mappings(
                        shard, **_derive_from(kind, built)
                    )
                    st.save(kind, built[kind], shard.stamp)
                # The rebuilt files replace whatever the resident entry
                # was mapped over; drop it so the next map is clean.
                self._resident.evict(s)
                rebuilt.append(s)
                if obs.enabled:
                    obs.counters.add("shard.rebuilds")
        return rebuilt

    # -- introspection ------------------------------------------------------

    def total_column_bytes(self, kind: str = "upoint") -> int:
        """Bytes the full fleet's ``kind`` columns would occupy if every
        shard were mapped at once (the budget's comparison point) — by
        arithmetic on the members, so that asking maps and caches
        nothing."""
        cls = column_class(kind)
        return sum(cls.stored_nbytes(shard) for shard in self.fleet.shards)

    def globals_of(self, s: int) -> np.ndarray:
        return self.fleet.globals_of(s)
