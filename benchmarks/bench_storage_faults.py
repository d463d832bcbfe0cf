"""S1: crash-safe storage — recovery equivalence and the crash matrix.

Claims under test: recovery replays a committed log back into an
equivalent store (equivalence asserted in the same run), and every row
of the crash matrix survives.  Runs as pytest (equivalence assertions,
no wall-clock thresholds); timings live in ``benchmarks/e2e/run.py``
(``ingest.replay_s``, ``recover_s``, ``wal.append_sync_ms``).
"""

import random
import time

from repro.faultmatrix import format_matrix, run_matrix
from repro.storage.pages import PageFile
from repro.storage.tuplestore import TupleStore
from repro.storage.wal import Wal
from repro.temporal.mapping import MovingPoint

TUPLES = 200
LEGS = 6
SCHEMA = [("name", "string"), ("track", "mpoint")]
PAGE_SIZE = 1024
INLINE_THRESHOLD = 64


def build_tracks(count: int = TUPLES, legs: int = LEGS, seed: int = 2000):
    """Deterministic multi-unit tracks that externalize into FLOB chains."""
    rng = random.Random(seed)
    tracks = []
    for _ in range(count):
        t = rng.uniform(0.0, 50.0)
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        wps = [(t, (x, y))]
        for _leg in range(legs):
            t += rng.uniform(5.0, 30.0)
            x += rng.uniform(-200, 200)
            y += rng.uniform(-200, 200)
            wps.append((t, (x, y)))
        tracks.append(MovingPoint.from_waypoints(wps))
    return tracks


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        tic = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - tic)
    return best


def _fill(store: TupleStore, tracks) -> None:
    for i, track in enumerate(tracks):
        store.append([f"obj{i}", track])


def _store(wal):
    return TupleStore(
        SCHEMA,
        PageFile(page_size=PAGE_SIZE),
        inline_threshold=INLINE_THRESHOLD,
        wal=wal,
        wal_scope="rel:bench" if wal is not None else "",
    )


def measure_recovery(tracks) -> dict:
    """Time a full recovery replay AND assert equivalence, same run."""
    wal = Wal()
    store = _store(wal)
    _fill(store, tracks)
    original = [(r[0].value, len(r[1].units)) for r in store.scan()]
    pf = store.pagefile

    recovered = TupleStore.recover(
        SCHEMA, pf, wal, wal_scope="rel:bench",
        inline_threshold=INLINE_THRESHOLD,
    )
    replayed = [(r[0].value, len(r[1].units)) for r in recovered.scan()]
    mismatches = sum(a != b for a, b in zip(original, replayed))
    mismatches += abs(len(original) - len(replayed))

    recover_s = _best_of(
        lambda: TupleStore.recover(
            SCHEMA, pf, wal, wal_scope="rel:bench",
            inline_threshold=INLINE_THRESHOLD,
        )
    )
    checkpoint_s = _best_of(store.checkpoint)
    return {
        "tuples": len(tracks),
        "wal_bytes": wal.durable_bytes,
        "pages": pf.page_count,
        "recover_s": recover_s,
        "checkpoint_s": checkpoint_s,
        "mismatches": mismatches,
    }


# -- pytest entry points (assertions only, no wall-clock thresholds) -------


def test_s1_recovery_equivalence():
    res = measure_recovery(build_tracks(40))
    assert res["mismatches"] == 0
    assert res["pages"] > 0 and res["wal_bytes"] > 0


def test_s1_crash_matrix_survives():
    entries = run_matrix(seed=2000)
    assert all(e.ok for e in entries), format_matrix(entries)
