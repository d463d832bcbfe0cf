"""S1: crash-safe storage — logging overhead and recovery cost.

Claims under test: (1) the WAL makes tuple appends durably atomic at a
bounded, measured cost over the unlogged store; (2) recovery replays a
committed log back into an equivalent store (equivalence asserted in
the same run); (3) with every failpoint disarmed the fault machinery is
one module-attribute branch per site — the disarmed crash matrix
machinery itself runs in milliseconds.

Runs both as pytest (equivalence assertions, no wall-clock flakiness)
and as a script: ``python benchmarks/bench_storage_faults.py --json
BENCH_storage.json``.
"""

import json
import random
import time

from repro import faults
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


def measure_append(tracks) -> dict:
    """Time unlogged vs WAL-logged appends of the same workload."""
    plain_s = _best_of(lambda: _fill(_store(None), tracks))
    logged_s = _best_of(lambda: _fill(_store(Wal()), tracks))
    return {
        "tuples": len(tracks),
        "plain_append_s": plain_s,
        "wal_append_s": logged_s,
        "wal_overhead_x": logged_s / plain_s,
    }


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


def measure_disarmed_reads(tracks) -> dict:
    """Scan cost with the fault machinery present but disarmed."""
    store = _store(None)
    _fill(store, tracks)
    faults.disarm()
    scan_s = _best_of(lambda: list(store.scan()))
    return {"tuples": len(tracks), "scan_s": scan_s}


def run_all(count: int = TUPLES) -> dict:
    tracks = build_tracks(count)
    tic = time.perf_counter()
    matrix = run_matrix(seed=2000)
    matrix_s = time.perf_counter() - tic
    return {
        "append": measure_append(tracks),
        "recovery": measure_recovery(tracks),
        "disarmed_scan": measure_disarmed_reads(tracks),
        "crash_matrix": {
            "wall_s": matrix_s,
            "survived": sum(e.ok for e in matrix),
            "total": len(matrix),
        },
    }


# -- pytest entry points (assertions only, no wall-clock thresholds) -------


def test_s1_recovery_equivalence():
    res = measure_recovery(build_tracks(40))
    assert res["mismatches"] == 0
    assert res["pages"] > 0 and res["wal_bytes"] > 0


def test_s1_crash_matrix_survives():
    entries = run_matrix(seed=2000)
    assert all(e.ok for e in entries), format_matrix(entries)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tuples", type=int, default=TUPLES,
                        help=f"workload size (default {TUPLES})")
    parser.add_argument("--json", default=None, help="write results to this file")
    args = parser.parse_args()

    results = run_all(args.tuples)
    app, rec = results["append"], results["recovery"]
    print(f"appends ({app['tuples']} tuples): "
          f"plain {app['plain_append_s']:.4f}s, "
          f"wal {app['wal_append_s']:.4f}s "
          f"({app['wal_overhead_x']:.2f}x)")
    print(f"recovery: {rec['recover_s']:.4f}s over {rec['wal_bytes']} WAL "
          f"bytes / {rec['pages']} pages, "
          f"checkpoint {rec['checkpoint_s']:.4f}s, "
          f"{rec['mismatches']} mismatches")
    cm = results["crash_matrix"]
    print(f"crash matrix: {cm['survived']}/{cm['total']} survived "
          f"in {cm['wall_s']:.2f}s")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(results, f, indent=2)
        print(f"wrote {args.json}")
