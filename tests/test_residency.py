"""The shared residency policy (:mod:`repro.residency`) and its owners.

Three layers of evidence that one CLOCK table replaced four hand-written
eviction loops without changing what gets evicted:

* a differential test of :class:`Residency` against the parent commit's
  eviction loop, kept below as the oracle, on generated traces;
* the invariants every owner relies on (pins respected, budget held,
  running total exact, one ``on_evict`` per eviction);
* fixed-seed traces through the real :class:`BufferPool` (counters
  recorded on the commit before the policy was shared) and
  :class:`ShardManager` (column accesses under a three-shard budget,
  counters pinned);
* second-chance behaviour itself, by hit count through the pool: a loop
  that fits stays resident, and a re-referenced hot set survives a
  looping scan larger than the pool (LRU's worst case).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.residency import Residency
from repro.shard import ShardedFleet, ShardManager
from repro.storage.buffer import BufferPool
from repro.storage.pages import PageFile
from repro.workloads.trajectories import random_flights


# ---------------------------------------------------------------------------
# The oracle: the parent commit's eviction loop
# ---------------------------------------------------------------------------


class _Entry:
    def __init__(self, key, cost):
        self.key, self.cost, self.ref, self.pins = key, cost, True, 0


class ParentClock:
    """``BufferPool._clock_victim_index`` / ``_evict_if_needed`` as they
    stood before the shared class, with ``ShardManager``'s byte total in
    place of the frame count.  The two parent loops differed in one
    token — the pool stored ``(p + 1) % n``, the manager ``p + 1`` — and
    only the manager could observe it (after its sole, over-budget shard
    is evicted the hand rests at 1), so the manager's form is kept."""

    def __init__(self):
        self.ring, self.hand, self.victims = [], 0, []

    def find(self, key):
        return next((e for e in self.ring if e.key == key), None)

    def victim_index(self):
        n = len(self.ring)
        for _ in range(2 * n):
            p = self.hand % n
            entry = self.ring[p]
            if entry.pins > 0:
                self.hand = p + 1
                continue
            if entry.ref:
                entry.ref = False
                self.hand = p + 1
                continue
            return p
        return None

    def remove(self, idx):
        self.victims.append(self.ring.pop(idx).key)
        if self.ring and self.hand >= len(self.ring):
            self.hand = 0

    def fit(self, budget):
        while sum(e.cost for e in self.ring) > budget:
            idx = self.victim_index()
            if idx is None:
                return False
            self.remove(idx)
        return True


class _Value:
    def __init__(self):
        self.pins = 0


_KEYS = st.integers(0, 7)
_OPS = st.one_of(
    st.tuples(st.just("get"), _KEYS),
    st.tuples(st.just("put"), _KEYS, st.integers(0, 5)),
    st.tuples(st.just("pin"), _KEYS),
    st.tuples(st.just("unpin"), _KEYS),
    st.tuples(st.just("evict"), _KEYS),
)


@settings(max_examples=300, deadline=None)
@given(budget=st.integers(0, 12), ops=st.lists(_OPS, max_size=60))
def test_matches_parent_loop_and_keeps_invariants(budget, ops):
    victims = []
    table = Residency(
        is_pinned=lambda v: v.pins > 0,
        on_evict=lambda key, value: victims.append((key, value)),
    )
    oracle = ParentClock()
    values = {}  # key -> resident _Value, read without counting as a use
    for op, key, *rest in ops:
        entry = oracle.find(key)
        if op == "get":
            assert (table.get(key) is not None) == (entry is not None)
            if entry is not None:
                entry.ref = True
        elif op == "put":  # insert, or replace with a new cost; then fit
            cost = rest[0]
            if entry is None:
                oracle.ring.append(_Entry(key, cost))
                values[key] = _Value()
            else:
                entry.cost = cost
            table.put(key, values[key], cost)
            before = len(victims)
            fitted = table.fit(budget)
            assert fitted == oracle.fit(budget)
            # A sweep never takes a pinned entry ...
            assert all(v.pins == 0 for _k, v in victims[before:])
            # ... and holds the budget unless everything left is pinned.
            assert fitted == (table.total <= budget)
            if not fitted:
                assert all(v.pins > 0 for v in table.values())
        elif op in ("pin", "unpin"):
            if entry is not None:
                value = values[key]
                delta = 1 if op == "pin" else -min(1, value.pins)
                value.pins += delta
                entry.pins += delta
        else:
            table.evict(key)  # a no-op when not resident
            if entry is not None:
                oracle.remove(oracle.ring.index(entry))
        # Same victims in the same order, same ring, same hand.
        assert [k for k, _v in victims] == oracle.victims
        assert list(table) == [e.key for e in oracle.ring]
        n = max(len(table), 1)
        assert table._hand % n == oracle.hand % n
        assert table.total == sum(e.cost for e in oracle.ring)
    # on_evict fired exactly once per departed entry (values are unique
    # objects, so a double callback would repeat one).
    assert len({id(v) for _k, v in victims}) == len(victims)


def test_clear_forgets_without_evicting():
    fired = []
    table = Residency(on_evict=lambda k, v: fired.append(k))
    for k in range(3):
        table.put(k, object(), 2)
    table.clear()
    assert len(table) == 0 and table.total == 0 and fired == []
    assert table.fit(0)


# ---------------------------------------------------------------------------
# Fixed-seed traces through the real owners (numbers from the parent commit)
# ---------------------------------------------------------------------------


def buffer_trace(seed=2000, pages=40, capacity=8, steps=4000):
    """Skewed random pin/unpin traffic with up to three pages held
    pinned across other accesses and a third of the unpins dirty."""
    rng = random.Random(seed)
    pf = PageFile()
    pool = BufferPool(pf, capacity=capacity)
    page_nos = [pool.new_page() for _ in range(pages)]
    held = []
    for _ in range(steps):
        if held and (len(held) == 3 or rng.random() < 0.4):
            pool.unpin(held.pop(rng.randrange(len(held))), rng.random() < 0.33)
        else:
            hot = rng.random() < 0.6
            page = page_nos[rng.randrange(6) if hot else rng.randrange(pages)]
            pool.pin(page)
            held.append(page)
    for page in held:
        pool.unpin(page)
    return pool.stats()


def test_buffer_pool_trace_equals_parent():
    stats = buffer_trace()
    assert (stats["hits"], stats["misses"]) == (1042, 959)
    assert (stats["physical_reads"], stats["physical_writes"]) == (959, 473)


def looping_scan(pages, capacity, laps, hot_pages=0):
    """``laps`` sequential sweeps over ``pages`` cold pages after one
    warming lap, one of ``hot_pages`` hot pages touched (round-robin)
    after every cold access.  Returns the pool and the hot hit count."""
    pool = BufferPool(PageFile(), capacity=capacity)
    page_nos = [pool.new_page() for _ in range(pages + hot_pages)]
    hot, cold = page_nos[:hot_pages], page_nos[hot_pages:]

    def touch(page_no):
        pool.pin(page_no)
        pool.unpin(page_no)

    for p in page_nos:  # first lap: all compulsory misses
        touch(p)
    pool.hits = pool.misses = 0
    hot_hits = touched = 0
    for _ in range(laps):
        for p in cold:
            touch(p)
            if hot:
                before = pool.hits
                touch(hot[touched % len(hot)])
                touched += 1
                hot_hits += pool.hits - before
    return pool, hot_hits


def test_looping_scan_that_fits_stays_resident():
    pool, _hot = looping_scan(pages=48, capacity=64, laps=10)
    assert (pool.hits, pool.misses) == (480, 0)


def test_hot_pages_survive_a_scan_larger_than_the_pool():
    """Second chances keep a re-referenced hot set resident while a
    larger-than-pool cold scan streams past."""
    pool, hot_hits = looping_scan(pages=96, capacity=32, laps=10, hot_pages=8)
    assert pool.hits + pool.misses == 2 * 960
    assert hot_hits >= 0.9 * 960


def test_looping_scan_counts_every_touch_once():
    pool, _hot = looping_scan(pages=72, capacity=64, laps=3)
    assert pool.hits + pool.misses == 72 * 3


def shard_trace(seed=2026, steps=600):
    """Random column accesses over 8 shards, half of them to three hot
    ones, under a budget of three fully loaded shards' worth."""
    rng = random.Random(seed)
    fleet = ShardedFleet(random_flights(160, seed=11), 8)
    probe = ShardManager(fleet)
    for s in range(8):
        probe.column(s, "upoint")
        probe.column(s, "bbox")
    budget = 3 * probe.resident_bytes // 8
    manager = ShardManager(fleet, budget=budget)
    with obs.capture() as counters:
        for _ in range(steps):
            s = rng.randrange(3) if rng.random() < 0.5 else rng.randrange(8)
            manager.column(s, "upoint" if rng.random() < 0.7 else "bbox")
        assert manager.resident_bytes <= budget
    return {
        name: counters.get(name)
        for name in ("shard.hits", "shard.maps", "shard.evictions")
    }


def test_shard_manager_trace_is_pinned():
    """Every access is a hit or a map, the budget holds throughout (the
    trace asserts it), and the counters repeat exactly."""
    counts = shard_trace()
    assert counts["shard.hits"] + counts["shard.maps"] == 600
    assert counts == {
        "shard.hits": 261, "shard.maps": 339, "shard.evictions": 258,
    }
