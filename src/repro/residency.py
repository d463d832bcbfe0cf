"""One residency policy: a cost-budgeted second-chance (CLOCK) table.

Pool frames, mapped shard files and a worker's attached segments are
the same Section-4 thing — keyed entries with a cost, brought into
memory on demand and resident until the budget needs the room
(DESIGN.md) — so what goes next is decided here, once.  A column a
fleet or relation built is no entry: it lives in its owner and leaves
with it (:mod:`repro.vector.cache`).  The table
takes no lock and stores no budget: its owner serializes access and
passes the budget to :meth:`Residency.fit` after every insert and every
cost change.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Iterator, List, Optional, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class _Slot(Generic[K, V]):
    __slots__ = ("key", "value", "cost", "ref")

    def __init__(self, key: K, value: V, cost: int):
        self.key = key
        self.value = value
        self.cost = cost
        self.ref = True  # second chance: set on insert and on every hit


class Residency(Generic[K, V]):
    """Keyed entries with a cost, evicted by CLOCK to fit a budget.

    Every entry carries a reference bit, set on insertion and on every
    hit (a dict lookup and an attribute store, against LRU's
    move-to-end); a persistent hand sweeps the entries in insertion
    order and evicts the first whose bit is already clear, so a looping
    scan slightly larger than the budget keeps its hot entries.  A sweep
    skips entries for which ``is_pinned(value)`` holds (in use by
    definition, bit untouched); ``on_evict(key, value)`` runs once an
    entry has left, whether :meth:`fit` or :meth:`evict` took it.
    """

    __slots__ = ("_slots", "_ring", "_hand", "_is_pinned", "_on_evict", "total")

    def __init__(
        self,
        is_pinned: Callable[[V], bool] = lambda value: False,
        on_evict: Callable[[K, V], None] = lambda key, value: None,
    ):
        self._slots: Dict[K, _Slot[K, V]] = {}
        self._ring: List[_Slot[K, V]] = []  # clock order (insertion order)
        self._hand = 0  # persists across sweeps — that is the point
        self._is_pinned = is_pinned
        self._on_evict = on_evict
        self.total = 0  # sum of the resident costs: the budgeted quantity

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[K]:
        return iter(self._slots)

    def values(self) -> Iterator[V]:
        """Resident values in clock order; reading them is not a use."""
        return (slot.value for slot in self._ring)

    def get(self, key: K) -> Optional[V]:
        """The resident value for ``key``; a hit sets its reference bit."""
        slot = self._slots.get(key)
        if slot is None:
            return None
        slot.ref = True
        return slot.value

    def put(self, key: K, value: V, cost: int) -> None:
        """Append ``key`` to the ring with its bit set, or give a resident
        key a new value and cost in place.  Follow with :meth:`fit`."""
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = _Slot(key, value, cost)
            self._ring.append(slot)
            self.total += cost
        else:
            self.total += cost - slot.cost
            slot.value, slot.cost = value, cost

    def fit(self, budget: int) -> bool:
        """Evict until the total cost is at most ``budget``; False when
        it still is not and every entry left is pinned.

        Two revolutions bound each victim search: the first may only be
        clearing bits, the second must then find any unpinned entry.
        The hand stops on the victim's slot, which the removal vacates,
        so the next sweep resumes with the entry that followed it.
        """
        while self.total > budget:
            n = len(self._ring)
            for _ in range(2 * n):
                p = self._hand % n
                slot = self._ring[p]
                if not self._is_pinned(slot.value):
                    if not slot.ref:
                        break
                    slot.ref = False  # second chance spent
                self._hand = p + 1
            else:
                return False
            self.evict(slot.key)
        return True

    def evict(self, key: K) -> None:
        """Evict ``key`` now, whatever its bit (a no-op if not resident)."""
        slot = self._slots.pop(key, None)
        if slot is not None:
            self._ring.remove(slot)
            if self._ring and self._hand >= len(self._ring):
                self._hand = 0
            self.total -= slot.cost
            self._on_evict(key, slot.value)

    def clear(self) -> None:
        """Forget every entry without evicting it (no ``on_evict``)."""
        self._slots.clear()
        self._ring.clear()
        self.total = 0
