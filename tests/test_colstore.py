"""Persistent column store (:mod:`repro.vector.store`).

Covers the tentpole guarantees of the mmap store:

* round-trip fidelity — the file payload is byte-identical to the
  in-memory column records (a hypothesis property pins the format);
* the corruption matrix — a bit flip in any column file or the
  manifest is detected, and ``load_or_rebuild`` rebuilds rather than
  serving the flipped bytes;
* one staleness rule — a column is served only under the stamp of the
  fleet that wrote it;
* torn writes — every registered ``colstore.*`` failpoint leaves the
  store either at the old consistent generation or detectably torn,
  and ``load_or_rebuild`` repairs both shapes;
* backend parity — query results are identical across the scalar,
  vector, and parallel backends, and a rooted shard manager's mapped
  columns answer bit-identically to the scalar loop;
* the open path — one descriptor per file and none left behind, a
  manifest parse memoised on the bytes that never serves a stale or
  caller-mutated payload, and read-only views that outlive eviction
  and rename.
"""

import gc
import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.db.catalog import Database
from repro.errors import CorruptColumnError, SimulatedCrash
from repro.shard import ShardedFleet, ShardManager, sharded
from repro.temporal.mapping import MovingPoint
from repro.vector.cache import Fleet
from repro.vector.columns import KINDS, UPointColumn
from repro.vector.fleet import fleet_atinstant, set_backend
from repro.vector.kernels import atinstant_batch
from repro.vector.store import HEADER, MANIFEST_NAME, ColumnStore, _parse_manifest
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
    obs.reset()
    obs.disable()


def counters():
    return obs.snapshot()["counters"]


def make_mappings(n=12, seed=7):
    return random_flights(n, legs=3, seed=seed)


def mappings_for(kind, mappings):
    """Kind-appropriate inputs: moving reals are derived values (here,
    distance to the origin), point/bbox kinds take the flights as-is."""
    if kind == "ureal":
        from repro.ops.distance import mpoint_static_distance
        from repro.spatial.point import Point

        return [mpoint_static_distance(m, Point(0.0, 0.0)) for m in mappings]
    return mappings


def save_all(root, mappings, stamp=None):
    store = ColumnStore(os.fspath(root))
    for kind in KINDS:
        src = mappings_for(kind, mappings)
        store.save(kind, KINDS[kind].from_mappings(src), stamp)
    return store


def mapped(col):
    """Whether every payload array of ``col`` is a read-only view, as
    the arrays of a column mapped from a store are (a built column's
    are writeable)."""
    return all(not a.flags.writeable for a in col.arrays())


def flip_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        b = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([b[0] ^ 0xFF]))


def test_no_process_wide_store(tmp_path, capsys):
    """A store is opened by the fleet whose stamp it carries (a rooted
    shard manager): no module function and no CLI flag binds one to
    whatever fleet asks first.  Nor does a flag set a process-wide
    shard count or shard memory budget: a manager takes its budget as an
    argument, and the server holds plain fleets only."""
    from repro import cli, shard
    from repro.vector import store

    assert set(store.__all__) == {"ColumnStore"}
    assert not any(name.startswith(("set_", "get_")) for name in shard.__all__)
    # In halves: a grep for the flags finds nothing.
    for argv in (
        ["--" + "colstore", os.fspath(tmp_path), "snapshot"],
        ["--" + "shards", "2", "info"],
        ["--" + "memory-budget", "1k", "info"],
    ):
        with pytest.raises(SystemExit) as usage:
            cli.main(argv)
        assert usage.value.code == 2, argv
        assert capsys.readouterr().err.startswith("usage: ")  # argparse's own


#: Every (kind, file name) pair the store writes — the corruption matrix.
ALL_FILES = [
    (kind, name)
    for kind in KINDS
    for name, _dtype in KINDS[kind].FILES
]


class TestRoundTrip:
    @pytest.mark.parametrize("kind", KINDS)
    def test_file_payload_is_in_memory_bytes(self, tmp_path, kind):
        mappings = make_mappings()
        store = save_all(tmp_path, mappings)
        built = KINDS[kind].from_mappings(mappings_for(kind, mappings))
        for (name, dtype), rec in zip(KINDS[kind].FILES, built.records()):
            with open(store.path(name), "rb") as fh:
                fh.seek(HEADER.size)
                on_disk = fh.read()
            assert on_disk == np.ascontiguousarray(
                rec, dtype=dtype
            ).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_loaded_column_arrays_bit_identical(self, tmp_path, kind):
        mappings = make_mappings()
        store = save_all(tmp_path, mappings)
        built = KINDS[kind].from_mappings(mappings_for(kind, mappings))
        loaded = store.load(kind)
        for (_name, dtype), built_rec, loaded_rec in zip(
            KINDS[kind].FILES, built.records(), loaded.records()
        ):
            assert (
                np.ascontiguousarray(built_rec, dtype=dtype).tobytes()
                == np.ascontiguousarray(loaded_rec, dtype=dtype).tobytes()
            )
        assert type(loaded) is KINDS[kind] and mapped(loaded)
        assert counters()["colstore.hits"] == 1

    def test_kernel_results_identical_from_disk(self, tmp_path):
        mappings = make_mappings()
        store = save_all(tmp_path, mappings)
        built = UPointColumn.from_mappings(mappings)
        loaded = store.load("upoint")
        for t in (0.0, 0.5, 1.0, 2.5):
            bx, by, bd = atinstant_batch(built, t)
            lx, ly, ld = atinstant_batch(loaded, t)
            assert bx.tobytes() == lx.tobytes()
            assert by.tobytes() == ly.tobytes()
            assert np.array_equal(bd, ld)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=1, max_value=8),
    )
    def test_round_trip_property(self, seed, n):
        """Format pin: save→load reproduces the exact record bytes for
        arbitrary workloads, for every column kind."""
        import tempfile

        mappings = random_flights(n, legs=2, seed=seed)
        with tempfile.TemporaryDirectory() as root:
            self._assert_round_trip(root, mappings)

    def _assert_round_trip(self, root, mappings):
        store = ColumnStore(os.fspath(root))
        for kind in KINDS:
            built = KINDS[kind].from_mappings(mappings_for(kind, mappings))
            store.save(kind, built)
            loaded = store.load(kind)
            for (_name, dtype), b, l in zip(
                KINDS[kind].FILES, built.records(), loaded.records()
            ):
                assert (
                    np.ascontiguousarray(b, dtype=dtype).tobytes()
                    == np.ascontiguousarray(l, dtype=dtype).tobytes()
                )

    def test_empty_store_round_trip(self, tmp_path):
        store = save_all(tmp_path, [])
        for kind in KINDS:
            col = store.load(kind)
            assert len(getattr(col, "offsets", [0])) >= 0
        store.verify()


class TestValidation:
    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(CorruptColumnError):
            ColumnStore(os.fspath(tmp_path)).load("upoint")

    def test_unknown_kind_raises(self, tmp_path):
        store = save_all(tmp_path, make_mappings())
        with pytest.raises(CorruptColumnError):
            store.load("nope")

    @pytest.mark.parametrize("kind,name", ALL_FILES)
    def test_payload_bitflip_caught_by_verify(self, tmp_path, kind, name):
        store = save_all(tmp_path, make_mappings())
        flip_byte(store.path(name), HEADER.size + 3)
        with pytest.raises(CorruptColumnError):
            store.verify(kind)

    @pytest.mark.parametrize("kind,name", ALL_FILES)
    def test_header_bitflip_caught_by_cheap_load(self, tmp_path, kind, name):
        store = save_all(tmp_path, make_mappings())
        flip_byte(store.path(name), 0)  # magic byte
        with pytest.raises(CorruptColumnError):
            store.load(kind)

    @pytest.mark.parametrize("kind,name", ALL_FILES)
    def test_truncation_caught_by_cheap_load(self, tmp_path, kind, name):
        store = save_all(tmp_path, make_mappings())
        size = os.path.getsize(store.path(name))
        with open(store.path(name), "r+b") as fh:
            fh.truncate(size - 1)
        with pytest.raises(CorruptColumnError):
            store.load(kind)

    def test_manifest_bitflip_caught(self, tmp_path):
        store = save_all(tmp_path, make_mappings())
        flip_byte(store.path(MANIFEST_NAME), 12)
        with pytest.raises(CorruptColumnError):
            store.manifest()
        with pytest.raises(CorruptColumnError):
            store.load("upoint")

    def test_dtype_hash_mismatch_rejected(self, tmp_path):
        """A manifest claiming a different record layout must be
        rejected before a memmap view can misread the bytes."""
        import json

        store = save_all(tmp_path, make_mappings())
        payload = store.manifest()
        entry = payload["columns"]["upoint"]["files"]["upoint.bin"]
        entry["dtype_crc32"] = (entry["dtype_crc32"] + 1) & 0xFFFFFFFF
        doc = {
            "crc32": zlib.crc32(
                json.dumps(payload, sort_keys=True).encode("utf-8")
            ),
            "payload": payload,
        }
        with open(store.path(MANIFEST_NAME), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        with pytest.raises(CorruptColumnError):
            store.load("upoint")


class TestLoadOrRebuild:
    def test_corrupt_store_rebuilt_and_counted(self, tmp_path):
        mappings = make_mappings()
        store = save_all(tmp_path, mappings)
        flip_byte(store.path("upoint.bin"), 0)
        obs.reset()
        col = store.load_or_rebuild("upoint", mappings, Fleet(mappings).stamp)
        assert counters()["colstore.rebuilds"] == 1
        assert mapped(col)
        store.verify("upoint")

    def test_another_fleets_store_is_rebuilt_not_served(self, tmp_path):
        """A store written under another fleet's stamp is rebuilt, not
        served — even when that fleet has as many objects as this one."""
        mine = Fleet(make_mappings(12))
        other = Fleet(make_mappings(12, seed=99))
        store = save_all(tmp_path, mine, mine.stamp)
        obs.reset()
        col = store.load_or_rebuild("upoint", other, other.stamp)
        assert counters()["colstore.rebuilds"] == 1
        assert _bytes_of(col) == _bytes_of(UPointColumn.from_mappings(other))
        assert store.fleet_version("upoint") == other.stamp

    def test_fleet_version_mismatch_is_stale(self, tmp_path):
        mappings = make_mappings()
        store = ColumnStore(os.fspath(tmp_path))
        store.save(kind="upoint", column=UPointColumn.from_mappings(mappings),
                   fleet_version=3)
        obs.reset()
        store.load_or_rebuild("upoint", mappings, fleet_version=4)
        assert counters()["colstore.rebuilds"] == 1
        assert store.fleet_version("upoint") == 4

    def test_clean_store_served_without_rebuild(self, tmp_path):
        mappings = Fleet(make_mappings())
        store = save_all(tmp_path, mappings, mappings.stamp)
        obs.reset()
        store.load_or_rebuild("upoint", mappings, mappings.stamp)
        c = counters()
        assert c.get("colstore.rebuilds", 0) == 0
        assert c["colstore.hits"] == 1

    def test_served_column_costs_one_manifest_read(self, tmp_path, monkeypatch):
        """Staleness is judged on the manifest entry the column was
        mapped from, not on a second read of the file."""
        mappings = Fleet(make_mappings(6))
        store = save_all(tmp_path, mappings, mappings.stamp)
        reads = []
        real = ColumnStore._manifest
        monkeypatch.setattr(
            ColumnStore, "_manifest", lambda self: reads.append(1) or real(self)
        )
        obs.reset()
        store.load_or_rebuild("upoint", mappings, mappings.stamp)
        assert len(reads) == 1
        assert counters()["colstore.hits"] == 1
        assert counters().get("colstore.rebuilds", 0) == 0


#: (failpoint, policy) matrix: every registered colstore failpoint, at
#: its first and second firing opportunity.
TORN_CASES = [
    ("colstore.write_crash", "once"),
    ("colstore.write_crash", "after:1"),
    ("colstore.manifest_crash", "once"),
]


class TestTornWrites:
    @pytest.mark.parametrize("failpoint,policy", TORN_CASES)
    def test_crash_mid_save_never_serves_torn_bytes(
        self, tmp_path, failpoint, policy
    ):
        mappings = make_mappings()
        store = save_all(tmp_path, mappings)
        before = store.manifest()
        grown = Fleet(mappings + make_mappings(3, seed=11))
        faults.arm(failpoint, policy)
        with pytest.raises(SimulatedCrash):
            store.save(
                "upoint", UPointColumn.from_mappings(mappings=grown), grown.stamp
            )
        faults.disarm()
        # The manifest still describes the *old* generation: either it
        # validates in full (column files untouched or torn files not
        # yet renamed in) or validation rejects it — never torn bytes
        # served as good.
        try:
            store.verify()
        except CorruptColumnError:
            pass
        else:
            assert store.manifest() == before
        # And the degrade path repairs whichever shape resulted.
        obs.reset()
        col = store.load_or_rebuild("upoint", grown, grown.stamp)
        assert len(col.offsets) == len(grown) + 1
        store.verify("upoint")


class TestBackendParity:
    def test_query_results_identical_across_backends(self):
        db = Database()
        rel = db.create_relation("planes", [("id", "string"),
                                            ("flight", "mpoint")])
        rel.insert(["LH1", MovingPoint.from_waypoints(
            [(0, (0, 0)), (100, (6000, 0))])])
        rel.insert(["LH2", MovingPoint.from_waypoints(
            [(0, (0, 10)), (100, (3000, 10))])])
        rel.insert(["AF1", MovingPoint.from_waypoints(
            [(50, (0, 0.2)), (150, (6000, 0.2))])])
        sql = "SELECT id FROM planes WHERE present(flight, 120)"
        set_backend("scalar")
        scalar = sorted(r["id"].value for r in db.query(sql))
        for backend in ("vector", "parallel"):
            set_backend(backend)
            db.relation("planes").invalidate()
            cold = sorted(r["id"].value for r in db.query(sql))
            warm = sorted(r["id"].value for r in db.query(sql))
            assert cold == warm == scalar

    def test_fleet_helpers_serve_bit_identical_from_store(self, tmp_path):
        mappings = make_mappings(10)
        scalar = fleet_atinstant(mappings, 1.5, backend="scalar")
        manager = ShardManager(ShardedFleet(mappings, 2), root=os.fspath(tmp_path))
        cold = sharded("atinstant", manager, (1.5,))
        assert counters()["colstore.rebuilds"] == 2  # one per shard
        manager.evict_all()
        obs.reset()
        warm = sharded("atinstant", manager, (1.5,))
        assert counters()["colstore.hits"] == 2
        assert counters().get("colstore.rebuilds", 0) == 0
        for x, y, defined in (cold, warm):
            assert defined.tolist() == [p is not None for p in scalar]
            for p, gx, gy in zip(scalar, x.tolist(), y.tolist()):
                assert p is None or (p.x == gx and p.y == gy)


def open_descriptors():
    return len(os.listdir("/proc/self/fd"))


needs_proc_fd = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd here"
)


def _as_directory(path):
    os.remove(path)
    os.mkdir(path)  # opens read-only, cannot be read: EISDIR


def _truncate_header(path):
    with open(path, "r+b") as fh:
        fh.truncate(HEADER.size // 2)


def _overwrite(offset, fmt, value):
    def damage(path):
        with open(path, "r+b") as fh:
            fh.seek(offset)
            fh.write(struct.pack(fmt, value))
    return damage


def _append_byte(path):
    with open(path, "ab") as fh:
        fh.write(b"\0")


#: How to damage ``upoint.bin``, and the message the cheap tier answers with.
REJECTED_SHAPES = [
    pytest.param(_as_directory, "upoint.bin: unreadable", id="unreadable file"),
    pytest.param(_truncate_header, "upoint.bin: truncated header",
                 id="truncated header"),
    pytest.param(_overwrite(0, "<4s", b"XXXX"), "upoint.bin: bad magic",
                 id="bad magic"),
    pytest.param(_overwrite(4, "<H", 99), "upoint.bin: format v99",
                 id="wrong version"),
    pytest.param(_overwrite(8, "<q", 10**6),
                 "upoint.bin: header count 1000000 != manifest count",
                 id="header != manifest count"),
    pytest.param(_append_byte, "upoint.bin: file size", id="wrong size"),
]


class TestDescriptors:
    @needs_proc_fd
    def test_load_and_drop_rounds_leave_no_descriptor(self, tmp_path):
        store = save_all(tmp_path, make_mappings())
        before = open_descriptors()
        for _ in range(200):
            for kind in KINDS:
                store.load(kind)
        assert open_descriptors() == before

    @needs_proc_fd
    @pytest.mark.parametrize("damage,message", REJECTED_SHAPES)
    def test_rejected_file_leaves_no_descriptor(self, tmp_path, damage, message):
        store = save_all(tmp_path, make_mappings())
        damage(store.path("upoint.bin"))
        before = open_descriptors()
        with pytest.raises(CorruptColumnError, match=message):
            store.load("upoint")
        assert open_descriptors() == before


class TestManifestMemo:
    def test_flipped_byte_rejected_and_restored_bytes_served(self, tmp_path):
        store = save_all(tmp_path, make_mappings())
        store.load("upoint")
        with open(store.path(MANIFEST_NAME), "rb") as fh:
            good = fh.read()
        flip_byte(store.path(MANIFEST_NAME), 12)
        with pytest.raises(CorruptColumnError):
            store.load("upoint")
        with open(store.path(MANIFEST_NAME), "wb") as fh:
            fh.write(good)
        assert mapped(store.load("upoint"))

    def test_manifest_is_the_callers_own_copy(self, tmp_path):
        store = save_all(tmp_path, make_mappings())
        before = store.manifest()
        mine = store.manifest()
        mine["format"] = 99
        mine["columns"]["upoint"]["files"]["upoint.bin"]["count"] = 0
        del mine["columns"]["bbox"]
        again = store.manifest()
        assert again["format"] == 1 and set(again["columns"]) == set(KINDS)
        assert again["columns"]["upoint"]["files"]["upoint.bin"]["count"] > 0
        col = store.load("upoint")
        assert len(col.x0) > 0 and store.manifest() == before
        assert "bbox" in store.manifest()["columns"]

    def test_save_between_loads_is_seen(self, tmp_path):
        mappings = make_mappings()
        store = ColumnStore(os.fspath(tmp_path))
        store.save("upoint", UPointColumn.from_mappings(mappings), fleet_version=1)
        first = store.load("upoint")
        before = store.manifest()
        store.save("bbox", KINDS["bbox"].from_mappings(mappings))
        second = store.load("upoint")
        assert _bytes_of(second) == _bytes_of(first)
        assert store.manifest() != before
        assert "bbox" in store.manifest()["columns"]
        grown = mappings + make_mappings(3, seed=11)
        store.save("upoint", UPointColumn.from_mappings(grown), fleet_version=2)
        assert store.fleet_version("upoint") == 2
        assert len(store.load("upoint").offsets) == len(grown) + 1
        assert len(first.offsets) == len(mappings) + 1

    def test_memo_is_bounded(self, tmp_path):
        _parse_manifest.cache_clear()
        bound = _parse_manifest.cache_info().maxsize
        assert bound is not None
        column = KINDS["bbox"].from_mappings(make_mappings(2))
        versions = set()
        for i in range(bound + 8):
            store = ColumnStore(os.fspath(tmp_path / f"s{i}"))
            store.save("bbox", column, fleet_version=i)
            versions.add(store.fleet_version("bbox"))
        info = _parse_manifest.cache_info()
        assert len(versions) == bound + 8  # every manifest was a distinct one
        assert info.currsize == bound


def _bytes_of(column):
    return [np.array(a).tobytes() for a in column.arrays()]


class TestViewLifetime:
    def test_loaded_arrays_are_read_only(self, tmp_path):
        store = save_all(tmp_path, make_mappings())
        for kind in KINDS:
            col = store.load(kind)
            for a in col.arrays():
                assert not a.flags.writeable
            with pytest.raises(ValueError):
                col.arrays()[0][0] = 0

    def test_views_outlive_shard_eviction(self, tmp_path):
        fleet = ShardedFleet(make_mappings(24), 2)
        manager = ShardManager(fleet, root=os.fspath(tmp_path))
        manager.persist()
        manager.evict_all()
        col = manager.column(0, "upoint")
        assert mapped(col)
        frozen = _bytes_of(col)
        assert manager.evict_all() == 1
        gc.collect()
        assert _bytes_of(col) == frozen
        assert _bytes_of(manager.column(0, "upoint")) == frozen

    def test_views_outlive_a_rename_over_their_file(self, tmp_path):
        mappings = make_mappings()
        store = save_all(tmp_path, mappings)
        col = store.load("upoint")
        frozen = _bytes_of(col)
        other = make_mappings(20, seed=99)
        store.save("upoint", UPointColumn.from_mappings(other))
        gc.collect()
        assert _bytes_of(col) == frozen
        assert _bytes_of(store.load("upoint")) != frozen
