"""Regression tests for the lifecycle bugs fixed alongside the column
store:

* a crash mid-``pack`` used to leak the freshly created shared-memory
  segment (it exists in the OS namespace before the caller ever gets
  the handle) — now reclaimed and counted ``parallel.shm_reclaimed``;
* ``ColumnCache`` returned columns validated at *build* time only, so a
  fleet mutated between obtaining the column and dispatching a kernel
  (even by its own ``__getitem__`` during the build) silently fed the
  kernel a stale column — now closed by ``get_versioned`` +
  ``revalidate`` at use time;
* ``--workers 0``/negative fell through the CLI into the pool layer,
  and ``--workers`` without ``--backend parallel`` was silently
  ignored — now a one-line ``repro:`` error / warning.
"""

import os

import pytest

from repro import faults, obs
from repro.cli import main as cli_main
from repro.errors import SimulatedCrash
from repro.parallel import shmcol
from repro.vector.cache import (
    Fleet,
    column_for_versioned,
    revalidate,
)
from repro.vector.columns import UPointColumn
from repro.vector.fleet import fleet_atinstant, set_backend
from repro.workloads.trajectories import random_flights


@pytest.fixture(autouse=True)
def _clean_state():
    faults.disarm()
    faults.reset_fired()
    obs.enable()
    obs.reset()
    set_backend("scalar")
    yield
    faults.disarm()
    faults.reset_fired()
    set_backend("scalar")
    shmcol.release_all()
    obs.reset()
    obs.disable()


def counters():
    return obs.snapshot()["counters"]


def shm_entries():
    """Names of live shared-memory segments (Linux tmpfs mount)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # pragma: no cover - non-Linux fallback
        return set()


class TestShmLeakOnPackCrash:
    def test_crash_mid_pack_reclaims_segment(self):
        col = UPointColumn.from_mappings(random_flights(8, seed=3))
        before = shm_entries()
        faults.arm("shmcol.pack_crash")
        with pytest.raises(SimulatedCrash):
            shmcol.pack(col)
        faults.disarm()
        assert shm_entries() == before  # nothing leaked into the OS
        assert counters()["parallel.shm_reclaimed"] == 1

    def test_crash_mid_pack_leaves_registry_clean(self):
        col = UPointColumn.from_mappings(random_flights(4, seed=3))
        faults.arm("shmcol.pack_crash")
        with pytest.raises(SimulatedCrash):
            shmcol.shared_descriptor(col)
        faults.disarm()
        assert shmcol._SEGMENTS == {}
        # And the same column packs fine once the fault is gone.
        desc = shmcol.shared_descriptor(col)
        attached = shmcol.attach(desc)
        try:
            assert attached.column.offsets.tobytes() == \
                col.offsets.tobytes()
        finally:
            attached.close()
        shmcol.release_all()

    def test_mid_loop_crash_also_reclaims(self):
        # after:1 fires on the second array copy — the segment is
        # already partially written when the crash lands.
        col = UPointColumn.from_mappings(random_flights(8, seed=3))
        before = shm_entries()
        faults.arm("shmcol.pack_crash", "after:1")
        with pytest.raises(SimulatedCrash):
            shmcol.pack(col)
        faults.disarm()
        assert shm_entries() == before
        assert counters()["parallel.shm_reclaimed"] == 1


class _SelfMutatingFleet(Fleet):
    """A fleet whose own read path mutates it once, mid-iteration —
    the pathological client the use-time revalidation exists for."""

    __slots__ = ("_armed", "_extra")

    def __init__(self, items, extra):
        super().__init__(items)
        self._armed = True
        self._extra = extra

    def __getitem__(self, i):
        if self._armed and i == 1:
            self._armed = False
            self.append(self._extra)
        return super().__getitem__(i)


class TestCacheUseTimeValidation:
    def test_mutation_between_get_and_use_is_caught(self):
        flights = random_flights(6, seed=5)
        fleet = Fleet(flights[:5])
        version, col = column_for_versioned(fleet, "upoint")
        assert len(col.offsets) == 6  # 5 objects + 1
        fleet.append(flights[5])  # the TOCTOU window
        fresh = revalidate(fleet, "upoint", version, col)
        assert len(fresh.offsets) == len(fleet) + 1
        # The stale column was caught: a full invalidation.
        assert counters().get("colcache.invalidations", 0) >= 1

    def test_unchanged_fleet_keeps_column(self):
        fleet = Fleet(random_flights(4, seed=5))
        version, col = column_for_versioned(fleet, "upoint")
        assert revalidate(fleet, "upoint", version, col) is col

    def test_plain_sequences_pass_through(self):
        flights = random_flights(3, seed=5)
        version, col = column_for_versioned(flights, "upoint")
        assert version is None
        assert revalidate(flights, "upoint", version, col) is col

    def test_query_over_self_mutating_fleet_matches_scalar(self):
        flights = random_flights(7, seed=5)
        fleet = _SelfMutatingFleet(flights[:6], flights[6])
        result = fleet_atinstant(fleet, 1.5, backend="vector")
        # By dispatch time the fleet holds all 7 members; the result
        # must describe that final membership, not the stale column
        # built while the mutation was happening.
        assert len(fleet) == 7
        assert len(result) == 7
        scalar = [m.value_at(1.5) for m in list(fleet)]
        for got, want in zip(result, scalar):
            if want is None:
                assert got is None
            else:
                assert got.x == want.x and got.y == want.y


class TestWorkersFlagValidation:
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_non_positive_workers_rejected(self, n, capsys):
        rc = cli_main(["--backend", "parallel", "--workers", n,
                       "snapshot", "--objects", "4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: InvalidValue: --workers")
        assert f"got {n}" in err

    def test_workers_without_parallel_backend_warns(self, capsys):
        rc = cli_main(["--backend", "vector", "--workers", "2",
                       "snapshot", "--objects", "4"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "repro: warning: --workers only affects" in err
        assert "vector" in err

    def test_workers_without_any_backend_warns_default(self, capsys):
        rc = cli_main(["--workers", "2", "snapshot", "--objects", "4"])
        assert rc == 0
        assert "default backend ignores it" in capsys.readouterr().err

    def test_parallel_backend_with_workers_silent(self, capsys):
        rc = cli_main(["--backend", "parallel", "--workers", "2",
                       "snapshot", "--objects", "4"])
        assert rc == 0
        assert "warning" not in capsys.readouterr().err
