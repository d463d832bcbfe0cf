"""The column-kind table (:data:`repro.vector.columns.KINDS`).

One protocol, checked once over every row of the table on generated
fleets; the layouts that cross a layer (page bytes ↔ column records) or
a process (column files, shm descriptors) pinned as literals; and the
two lookups that used to guess — an unknown kind, a listed kind without
a byte count — failing loudly or answering.
"""

import mmap
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidValue
from repro.ops.distance import mpoint_static_distance
from repro.parallel import shmcol
from repro.ranges.interval import Interval
from repro.shard import ShardedFleet, ShardManager
from repro.spatial.point import Point
from repro.storage.records import MovingPointCodec, MovingRealCodec
from repro.temporal.mapping import MovingPoint, MovingReal
from repro.temporal.mseg import MPoint
from repro.temporal.upoint import UPoint
from repro.temporal.ureal import UReal
from repro.vector.columns import (
    KINDS,
    OFFSETS_DTYPE,
    UPointColumn,
    URealColumn,
    column_class,
)
from repro.vector.store import MANIFEST_NAME, ColumnStore, _dtype_hash
from tests.test_columnar_paths import fleets

PARENT_STORE = os.path.join(os.path.dirname(__file__), "data", "colstore_parent")


def members(kind, fleet):
    """Kind-appropriate inputs: moving reals are derived values (here,
    distance to the origin), point/bbox kinds take the points as-is."""
    if kind == "ureal":
        return [mpoint_static_distance(m, Point(0.0, 0.0)) for m in fleet]
    return list(fleet)


def same_arrays(a, b):
    """Two columns of one kind hold bit-identical payload arrays."""
    assert type(a) is type(b)
    for name, x, y in zip(a.ARRAYS, a.arrays(), b.arrays()):
        assert x.dtype == y.dtype, name
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), name


def _indices(n_old, draw, **kw):
    return set(draw(st.lists(st.integers(0, n_old - 1), **kw))) if n_old else set()


def _run(n_old, draw):
    if not n_old:
        return set()
    lo = draw(st.integers(0, n_old - 1))
    return set(range(lo, draw(st.integers(lo, n_old - 1)) + 1))


#: Change-set shapes ``extended`` has to splice right: shape →
#: ``(n_old, draw)`` → ``(objects replaced, objects merely listed as
#: changed, objects appended)``.  On an empty old column every shape
#: degenerates to "append these".
CHANGE_SHAPES = {
    "first": lambda n, draw: ({0} if n else set(), set(), 0),
    "last": lambda n, draw: ({n - 1} if n else set(), set(), 0),
    "run": lambda n, draw: (_run(n, draw), set(), 0),
    "two_runs": lambda n, draw: (_run(n, draw) | _run(n, draw), set(), 0),
    "scattered": lambda n, draw: (
        _indices(n, draw, max_size=4), set(), draw(st.integers(0, 3))
    ),
    "beside_appended": lambda n, draw: (
        {n - 1} if n else set(), set(), draw(st.integers(1, 3))
    ),
    "append_only": lambda n, draw: (set(), set(), draw(st.integers(1, 3))),
    "everything": lambda n, draw: (
        set(range(n)), set(), draw(st.integers(0, 2))
    ),
    "emptied": lambda n, draw: (_indices(n, draw, min_size=1, max_size=2), set(), 0),
    "listed_not_differing": lambda n, draw: (
        _indices(n, draw, max_size=2), _indices(n, draw, min_size=1, max_size=4),
        draw(st.integers(0, 1)),
    ),
    "nothing": lambda n, draw: (set(), set(), 0),
}


class TestProtocol:
    """Every kind answers the same protocol the same way."""

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @settings(max_examples=40, deadline=None)
    @given(fleet=fleets(), data=st.data())
    def test_protocol(self, kind, fleet, data):
        cls = KINDS[kind]
        mappings = members(kind, fleet)
        col = cls.from_mappings(mappings)
        assert col.KIND == kind and column_class(kind) is cls

        # records() -> from_records: zero-copy, field for field.
        records = col.records()
        assert [r.dtype for r in records] == [dt for _name, dt in cls.FILES]
        again = cls.from_records(records)
        same_arrays(again, col)
        for a in again.arrays():
            assert not a.size or any(np.shares_memory(a, r) for r in records)

        # nbytes is the payload, and the arithmetic count is the files.
        assert col.nbytes == sum(a.nbytes for a in col.arrays())
        assert cls.stored_nbytes(mappings) == sum(r.nbytes for r in records)

        # chunk(lo, hi) is the column of that range alone.
        lo = data.draw(st.integers(0, len(col)))
        hi = data.draw(st.integers(lo, len(col)))
        part = (
            [mappings[k] for k in col.keys[lo:hi]]
            if kind == "bbox" else mappings[lo:hi]
        )
        same_arrays(col.chunk(lo, hi), cls.from_mappings(part))

        # pack -> attach crosses the process boundary intact.
        descriptor, segment = shmcol.pack(col)
        try:
            assert descriptor[0] == kind
            assert [f for f, *_ in descriptor[2]] == list(cls.ARRAYS)
            attached = shmcol.attach(descriptor)
            same_arrays(attached.column, col)
            del attached
        finally:
            segment.close()
            segment.unlink()

    # The unit kinds splice; a bbox column is rebuilt.
    @pytest.mark.parametrize("kind", ["upoint", "ureal"])
    @settings(max_examples=120, deadline=None)
    @given(
        fleet=fleets(min_size=0),
        newer=fleets(max_size=10),
        shape=st.sampled_from(sorted(CHANGE_SHAPES)),
        data=st.data(),
    )
    def test_extended_equals_rebuild(self, kind, fleet, newer, shape, data):
        cls = KINDS[kind]
        old, pool = members(kind, fleet), members(kind, newer)
        replaced, claimed, n_appended = CHANGE_SHAPES[shape](len(old), data.draw)
        current = old + [pool[k % len(pool)] for k in range(n_appended)]
        for k, i in enumerate(sorted(replaced)):
            current[i] = (
                type(current[i])([]) if shape == "emptied"
                else pool[(k + n_appended) % len(pool)]
            )
        changed = replaced | claimed | set(range(len(old), len(current)))
        spliced = cls.from_mappings(old).extended(tuple(current), changed)
        rebuilt = cls.from_mappings(current)
        same_arrays(spliced, rebuilt)


def _record_reference(cls, mappings):
    """The unit records as one structured array built from a tuple per
    unit — the transcription ``from_mappings`` fills field by field."""
    rows = []
    for m in mappings:
        for u in m.units:
            iv = u.interval
            rows.append((iv.s, iv.e, iv.lc, iv.rc, *u.coefficients))
    return np.array(rows, dtype=cls.UNIT_DTYPE)


#: Bounds and coefficients that a value-equal but bit-different
#: transcription would get wrong: signed zeros and infinite bounds.
_BOUND = st.one_of(
    st.floats(-1e6, 1e6), st.sampled_from([-0.0, 0.0, float("inf"), float("-inf")])
)
_COEF = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-0.0, 0.0]))


@st.composite
def _unit_fleets(draw, kind):
    """Mappings of ``kind`` units over disjoint, non-adjacent intervals
    with every closure combination (a degenerate one closed)."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        cuts = sorted(set(draw(st.lists(_BOUND, max_size=6))))
        units = []
        for s, e in zip(cuts[::2], cuts[1::2]):
            if draw(st.booleans()) and abs(s) != float("inf"):
                e, lc, rc = s, True, True
            else:
                lc, rc = draw(st.booleans()), draw(st.booleans())
            iv = Interval(s, e, lc, rc)
            if kind == "upoint":
                units.append(UPoint(iv, MPoint(*draw(st.tuples(*[_COEF] * 4)))))
            else:
                # A root over an unbounded interval cannot be checked
                # nonnegative (0·∞), so the constructor refuses it there.
                r = draw(st.booleans()) and abs(s) != float("inf") != abs(e)
                a, b, c = (0.0, 0.0, draw(st.floats(0, 1e3))) if r else draw(
                    st.tuples(*[_COEF] * 3)
                )
                units.append(UReal(iv, a, b, c, r))
        out.append(KINDS[kind].MAPPING(units))
    return out


@pytest.mark.parametrize("kind", ["upoint", "ureal"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_from_mappings_is_the_record_array_field_by_field(kind, data):
    cls = KINDS[kind]
    mappings = data.draw(_unit_fleets(kind))
    col = cls.from_mappings(mappings)
    ref = _record_reference(cls, mappings)
    assert col.offsets.tolist() == [0, *np.cumsum([len(m) for m in mappings]).tolist()]
    for attr, name in zip(cls.FIELDS, cls.UNIT_DTYPE.names):
        got = getattr(col, attr)
        assert got.dtype == ref.dtype[name], name
        assert got.tobytes() == np.ascontiguousarray(ref[name]).tobytes(), name


def test_from_mappings_keeps_signed_zeros_infinities_and_every_flag_pair():
    flags = [(True, True), (True, False), (False, True), (False, False)]
    inf = float("inf")
    points = MovingPoint([
        UPoint(Interval(-inf, -1.0, lc, rc), MPoint(-0.0, 0.0, 1.0, -0.0))
        if k == 0 else
        UPoint(Interval(2.0 * k, 2.0 * k + 1, lc, rc), MPoint(-0.0, 1.5, -0.0, 0.0))
        for k, (lc, rc) in enumerate(flags)
    ] + [UPoint(Interval(10.0, inf, True, False), MPoint(0.0, -0.0, 3.0, 0.0))])
    reals = MovingReal([
        UReal(Interval(2.0 * k, 2.0 * k + 1, lc, rc), -0.0, 0.0, -0.0)
        for k, (lc, rc) in enumerate(flags)
    ] + [UReal(Interval(8.0, 9.0), 0.0, -0.0, 4.0, r=True),
         UReal(Interval(inf, inf), 0.0, -0.0, 4.0)])
    for cls, m in ((UPointColumn, points), (URealColumn, reals)):
        col = cls.from_mappings([m])
        ref = _record_reference(cls, [m])
        for attr, name in zip(cls.FIELDS, cls.UNIT_DTYPE.names):
            assert getattr(col, attr).tobytes() == np.ascontiguousarray(ref[name]).tobytes()
        assert np.signbit(getattr(col, cls.FIELDS[4])).tolist()[:4] == [True] * 4
        assert col.lc.tolist()[:4] == [lc for lc, _ in flags]
        assert col.rc.tolist()[:4] == [rc for _, rc in flags]


DARRAY_FLEET = [
    MovingPoint([UPoint.between(0, (0, 0), 5, (10, 10)),
                 UPoint.between(5, (10, 10), 10, (10, 0), lc=False)]),
    MovingPoint([]),
    MovingPoint([UPoint.between(3, (2, 2), 4, (3, 3), lc=False, rc=False)]),
    MovingPoint([UPoint.between(1, (-1.5, 0.25), 2.5, (4, -8))]),
]
REALS = [
    MovingReal([UReal(Interval(0, 5), 0.0, 1.0, 2.0)]),
    MovingReal([UReal(Interval(0, 2, True, False), 1.0, 0.0, 0.0),
                UReal(Interval(3, 4), 0.0, 0.0, 9.0, r=True)]),
    MovingReal([]),
]


class TestPinnedLayouts:
    """Bytes other code reinterprets on trust."""

    def test_struct_formats_are_the_codecs(self):
        """``from_unit_arrays`` reads page bytes through ``UNIT_DTYPE``;
        the storage codecs wrote them through these struct formats."""
        assert UPointColumn.UNIT_FORMAT is MovingPointCodec.FORMAT == "<dd??dddd"
        assert URealColumn.UNIT_FORMAT is MovingRealCodec.FORMAT == "<dd??ddd?"

    def test_file_names_and_fingerprints(self):
        """What the manifest of every store ever written records."""
        assert {
            kind: [(name, _dtype_hash(dt), dt.itemsize) for name, dt in cls.FILES]
            for kind, cls in KINDS.items()
        } == {
            "upoint": [("upoint.bin", 0x2E6DB72C, 50), ("offsets.bin", 0xD41E153B, 8)],
            "ureal": [("ureal.bin", 0xA7460ED2, 43), ("ureal_offsets.bin", 0xD41E153B, 8)],
            "bbox": [("bbox.bin", 0x78CE8F79, 56)],
        }
        assert _dtype_hash(OFFSETS_DTYPE) == 0xD41E153B

    def test_shm_descriptor_layout(self):
        """The descriptor a worker of either build can attach."""
        layouts = {}
        for kind, fleet in (("upoint", DARRAY_FLEET), ("ureal", REALS),
                            ("bbox", DARRAY_FLEET)):
            descriptor, segment = shmcol.pack(KINDS[kind].from_mappings(fleet))
            segment.close()
            segment.unlink()
            layouts[descriptor[0]] = descriptor[2]
        assert layouts == {
            "upoint": (
                ("offsets", "<i8", 5, 0), ("starts", "<f8", 4, 40),
                ("ends", "<f8", 4, 72), ("lc", "|b1", 4, 104),
                ("rc", "|b1", 4, 112), ("x0", "<f8", 4, 120),
                ("x1", "<f8", 4, 152), ("y0", "<f8", 4, 184),
                ("y1", "<f8", 4, 216),
            ),
            "ureal": (
                ("offsets", "<i8", 4, 0), ("starts", "<f8", 3, 32),
                ("ends", "<f8", 3, 56), ("lc", "|b1", 3, 80),
                ("rc", "|b1", 3, 88), ("a", "<f8", 3, 96),
                ("b", "<f8", 3, 120), ("c", "<f8", 3, 144),
                ("r", "|b1", 3, 168),
            ),
            "bbox": (
                ("xmin", "<f8", 3, 0), ("ymin", "<f8", 3, 24),
                ("tmin", "<f8", 3, 48), ("xmax", "<f8", 3, 72),
                ("ymax", "<f8", 3, 96), ("tmax", "<f8", 3, 120),
            ),
        }

    def test_store_written_by_the_parent_commit(self, tmp_path):
        """``tests/data/colstore_parent`` was written by the code before
        the table existed (``DARRAY_FLEET`` / ``REALS``, upoint and bbox
        at fleet version 7): it loads, verifies, and a save of the same
        fleet today produces the same bytes, manifest included."""
        parent = ColumnStore(PARENT_STORE)
        parent.verify()
        fleets_by_kind = {"upoint": DARRAY_FLEET, "ureal": REALS, "bbox": DARRAY_FLEET}
        for kind, fleet in fleets_by_kind.items():
            loaded = parent.load(kind)
            same_arrays(loaded, KINDS[kind].from_mappings(fleet))
            for a in loaded.arrays():  # still views of the mapped files
                assert isinstance(list(_bases(a))[-1], mmap.mmap)
        assert parent.load_current("upoint", fleet_version=7) is not None
        assert parent.load_current("upoint", fleet_version=8) is None

        fresh = ColumnStore(os.fspath(tmp_path / "fresh"))
        for kind, version in (("upoint", 7), ("ureal", None), ("bbox", 7)):
            fleet = fleets_by_kind[kind]
            fresh.save(kind, KINDS[kind].from_mappings(fleet), version)
        for name in sorted(os.listdir(PARENT_STORE)):
            if name == MANIFEST_NAME:
                continue
            with open(os.path.join(PARENT_STORE, name), "rb") as a, \
                    open(fresh.path(name), "rb") as b:
                assert a.read() == b.read(), name
        # The parent also recorded each column's object count, which no
        # reader consults any more; apart from that key, the same manifest.
        expected = parent.manifest()
        for entry in expected["columns"].values():
            del entry["n_objects"]
        assert fresh.manifest() == expected


def _bases(a):
    while a is not None:
        yield a
        # np.frombuffer keeps its buffer behind a memoryview
        a = a.obj if isinstance(a, memoryview) else getattr(a, "base", None)


class TestLookupsFailLoudly:
    def test_attach_rejects_an_unknown_kind(self):
        """A descriptor naming no registered kind used to be attached as
        a moving-point column."""
        col = UPointColumn.from_mappings(DARRAY_FLEET)
        (_kind, name, layout), segment = shmcol.pack(col)
        try:
            with pytest.raises(InvalidValue, match="bbox, upoint, ureal"):
                shmcol.attach(("nosuch", name, layout))
        finally:
            segment.close()
            segment.unlink()

    def test_every_listed_kind_has_a_byte_count(self, tmp_path):
        """``total_column_bytes("ureal")`` used to raise for a kind the
        store persists; every row of the table now counts its files."""
        mappings = DARRAY_FLEET * 3  # 12 objects, 9 with units, 12 units
        manager = ShardManager(ShardedFleet(mappings, 2), root=os.fspath(tmp_path))
        assert {kind: manager.total_column_bytes(kind) for kind in KINDS} == {
            "upoint": 12 * 50 + (12 + 2) * 8,
            "ureal": 12 * 43 + (12 + 2) * 8,
            "bbox": 9 * 56,
        }
        with pytest.raises(InvalidValue, match="bbox, upoint, ureal"):
            manager.total_column_bytes("nosuch")
