"""V6: persistent column store — the cold start without the rebuild.

Claim under test: with a populated ``--colstore`` directory, a cold
process's first whole-fleet snapshot (validate manifest, memmap the
column files, run the kernel) lands within 2× of a fully warm snapshot
(column already resident), while the pre-store cold path — rebuilding
the columns from the tuple-store rows — costs a large multiple of
either.  The counters prove which path ran: the cold-with-store run
must show ``colstore.hits ≥ 1`` and ``colstore.rebuilds == 0``, and
answers stay bit-identical across the scalar, vector, and parallel
backends whether columns came from disk or a fresh transcription.

Runs as pytest (equivalence + counters asserted; the ``smoke`` tests are
wired into scripts/check.sh); the cold/warm timings are the
``shard_window_cold`` workload of ``benchmarks/e2e/run.py``
(``store.cold_open_ms``).
"""

import shutil
import tempfile

from bench_vector import build_fleet
from repro import obs
from repro.vector.cache import Fleet, clear_cache, column_for
from repro.vector.fleet import fleet_atinstant
from repro.vector.store import ColumnStore, clear_store, set_store

T = 60.0


def _populate(root, mappings):
    """Prime the store the way a previous process would have: build the
    columns through the cache with the store active."""
    set_store(root)
    fleet = Fleet(mappings)
    clear_cache()
    column_for(fleet, "upoint")
    clear_cache()
    clear_store()
    return ColumnStore(root)


def _simulate_cold_process(root, mappings):
    """A fresh process's state: store configured, nothing resident."""
    set_store(root)  # resets the store→fleet binding too
    clear_cache()
    return Fleet(mappings)


# -- pytest entry points ------------------------------------------------------


def test_v6_smoke_cold_start_serves_from_disk():
    """Fast gate for scripts/check.sh: a populated store serves a cold
    process's first query from the memmap (hit, zero rebuilds), answers
    identical to the scalar loop."""
    mappings = build_fleet(300, seed=9)
    root = tempfile.mkdtemp(prefix="smoke_colstore_")
    obs.enable()
    try:
        _populate(root, mappings)
        fleet = _simulate_cold_process(root, mappings)
        with obs.capture() as counters:
            got = fleet_atinstant(fleet, T, backend="vector")
            snap = counters.snapshot()["counters"]
        assert snap.get("colstore.hits", 0) >= 1
        assert snap.get("colstore.rebuilds", 0) == 0
        assert snap.get("colstore.bytes_mapped", 0) > 0
        scalar = fleet_atinstant(list(mappings), T, backend="scalar")
        assert len(got) == len(scalar)
        for s, g in zip(scalar, got):
            if s is None:
                assert g is None
            else:
                assert s.x == g.x and s.y == g.y
    finally:
        clear_cache()
        clear_store()
        obs.disable()
        shutil.rmtree(root, ignore_errors=True)


def test_v6_smoke_corrupt_store_rebuilt_not_served():
    """Bit-flip the stored column: the cold query must rebuild (counted)
    and still answer correctly."""
    from repro.vector.store import HEADER

    mappings = build_fleet(100, seed=9)
    root = tempfile.mkdtemp(prefix="smoke_colstore_")
    obs.enable()
    try:
        store = _populate(root, mappings)
        with open(store.path("upoint.bin"), "r+b") as fh:
            fh.seek(HEADER.size + 1)
            b = fh.read(1)
            fh.seek(HEADER.size + 1)
            fh.write(bytes([b[0] ^ 0xFF]))
        # The cheap tier cannot see a payload flip, but the manifest CRC
        # tier catches structural damage; flip the header too so the
        # cold open rejects it outright.
        with open(store.path("upoint.bin"), "r+b") as fh:
            fh.seek(0)
            fh.write(b"XXXX")
        fleet = _simulate_cold_process(root, mappings)
        with obs.capture() as counters:
            got = fleet_atinstant(fleet, T, backend="vector")
            snap = counters.snapshot()["counters"]
        assert snap.get("colstore.rebuilds", 0) >= 1
        scalar = fleet_atinstant(list(mappings), T, backend="scalar")
        for s, g in zip(scalar, got):
            if s is None:
                assert g is None
            else:
                assert s.x == g.x and s.y == g.y
    finally:
        clear_cache()
        clear_store()
        obs.disable()
        shutil.rmtree(root, ignore_errors=True)
