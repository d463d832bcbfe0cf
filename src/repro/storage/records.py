"""Per-type storage codecs: root records plus database arrays (Section 4).

Every attribute data type is represented by a fixed-size *root record*
(always stored within the tuple) and zero or more *database arrays*.
Set-valued types store their elements in a unique canonical order so
that two values are equal iff their array representations are equal.
All cross-references (cycle membership, face membership, subarrays) are
integer indices, never pointers.

The layouts follow the paper:

* ``line`` — an array of halfsegments in the [GdRS95] total order, with
  the dominating-point flag; the root record carries the count, the
  bounding box, and the total length (Section 4.1).
* ``region`` — the halfsegment array plus ``cycles`` and ``faces``
  arrays; left halfsegments of a cycle are linked in a ring through a
  ``next_in_cycle`` index; cycles of a face are chained through
  ``next_cycle``; the root record carries counts, bounding box, area
  and perimeter (Section 4.1).
* fixed-size units (``const``, ``ureal``, ``upoint``) — a record with an
  interval component and the unit function inline (Section 4.2), declared
  once per type by :class:`UnitsCodec`.
* variable-size units (``upoints``, ``uline``, ``uregion``) — records
  whose function component is one or more *subarray* references (lo/hi
  indices) into arrays shared by the whole mapping, plus a bounding
  cube (Section 4.2).
* ``mapping`` — a ``units`` array ordered by time interval plus the k
  shared arrays of its unit type, all referenced from a single root
  record (Section 4.3 / Figure 7).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from itertools import starmap
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.base.instant import Instant
from repro.base.values import MAX_STRING, BoolVal, IntVal, RealVal, StringVal
from repro.errors import CorruptRecordError, StorageError
from repro.geometry.segment import HalfSegment, Seg, halfsegments_of
from repro.ranges.interval import Interval
from repro.ranges.intime import Intime
from repro.ranges.rangeset import RangeSet
from repro.spatial.line import Line
from repro.spatial.point import Point
from repro.spatial.points import Points
from repro.spatial.region import Cycle, Face, Region
from repro.storage.darray import DatabaseArray
from repro.temporal.mapping import (
    Mapping,
    MovingBool,
    MovingInt,
    MovingLine,
    MovingPoint,
    MovingPoints,
    MovingReal,
    MovingRegion,
    MovingString,
)
from repro.temporal.mseg import MPoint, MSeg
from repro.temporal.uconst import ConstUnit
from repro.temporal.uline import ULine
from repro.temporal.upoint import UPoint
from repro.temporal.upoints import UPoints
from repro.temporal.ureal import UReal
from repro.temporal.uregion import MCycle, MFace, URegion


@dataclass
class StoredValue:
    """The DBMS representation of one attribute value."""

    type_name: str
    root: bytes
    arrays: List[DatabaseArray] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        """Root record size plus all array payloads."""
        return len(self.root) + sum(a.nbytes for a in self.arrays)

    def to_bytes(self) -> bytes:
        """Flatten into a single self-describing byte string.

        The body is prefixed with a CRC-32 so :meth:`from_bytes` can
        detect any truncation or bit damage before decoding — a flipped
        coordinate byte would otherwise round-trip into a silently
        wrong value.
        """
        name = self.type_name.encode("ascii")
        out = bytearray()
        out.extend(struct.pack("<H", len(name)))
        out.extend(name)
        out.extend(struct.pack("<I", len(self.root)))
        out.extend(self.root)
        out.extend(struct.pack("<H", len(self.arrays)))
        for arr in self.arrays:
            blob = arr.to_bytes()
            out.extend(struct.pack("<I", len(blob)))
            out.extend(blob)
        crc = zlib.crc32(out) & 0xFFFFFFFF
        return struct.pack("<I", crc) + bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "StoredValue":
        """Inverse of :meth:`to_bytes`.

        Verifies the CRC prefix and validates every embedded length
        before slicing; damage raises :class:`CorruptRecordError`
        rather than a bare ``struct.error`` or a wrong value.
        """
        end = len(data)

        def need(off: int, n: int, what: str) -> None:
            if off + n > end:
                raise CorruptRecordError(
                    f"stored value truncated while reading {what} "
                    f"(need {n} bytes at offset {off} of {end})"
                )

        need(0, 4, "checksum")
        (crc,) = struct.unpack_from("<I", data, 0)
        body = data[4:]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            if obs.enabled:
                obs.counters.add("storage.checksum_failures")
            raise CorruptRecordError("stored value failed its checksum")
        off = 4
        need(off, 2, "type-name length")
        (name_len,) = struct.unpack_from("<H", data, off)
        off += 2
        need(off, name_len, "type name")
        name = data[off : off + name_len].decode("ascii", errors="replace")
        off += name_len
        need(off, 4, "root length")
        (root_len,) = struct.unpack_from("<I", data, off)
        off += 4
        need(off, root_len, "root record")
        root = data[off : off + root_len]
        off += root_len
        need(off, 2, "array count")
        (narrays,) = struct.unpack_from("<H", data, off)
        off += 2
        arrays = []
        for i in range(narrays):
            need(off, 4, f"length of array {i}")
            (blob_len,) = struct.unpack_from("<I", data, off)
            off += 4
            need(off, blob_len, f"array {i}")
            arrays.append(DatabaseArray.from_bytes(data[off : off + blob_len]))
            off += blob_len
        return cls(name, bytes(root), arrays)


class Codec:
    """Base class: a bidirectional value ↔ StoredValue mapping."""

    type_name: str = ""

    def pack(self, value) -> StoredValue:
        raise NotImplementedError

    def unpack(self, stored: StoredValue):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Base types and time
# ---------------------------------------------------------------------------

_INTERVAL = struct.Struct("<dd??")


class IntCodec(Codec):
    type_name = "int"
    _S = struct.Struct("<q?")

    def pack(self, value: IntVal) -> StoredValue:
        defined = value.defined
        return StoredValue(
            self.type_name, self._S.pack(value.value if defined else 0, defined)
        )

    def unpack(self, stored: StoredValue) -> IntVal:
        v, defined = self._S.unpack(stored.root)
        return IntVal(v) if defined else IntVal()


class RealCodec(Codec):
    type_name = "real"
    _S = struct.Struct("<d?")

    def pack(self, value: RealVal) -> StoredValue:
        defined = value.defined
        return StoredValue(
            self.type_name, self._S.pack(value.value if defined else 0.0, defined)
        )

    def unpack(self, stored: StoredValue) -> RealVal:
        v, defined = self._S.unpack(stored.root)
        return RealVal(v) if defined else RealVal()


class BoolCodec(Codec):
    type_name = "bool"
    _S = struct.Struct("<??")

    def pack(self, value: BoolVal) -> StoredValue:
        defined = value.defined
        return StoredValue(
            self.type_name, self._S.pack(value.value if defined else False, defined)
        )

    def unpack(self, stored: StoredValue) -> BoolVal:
        v, defined = self._S.unpack(stored.root)
        return BoolVal(v) if defined else BoolVal()


class StringCodec(Codec):
    """Fixed-length character array (footnote 3 of the paper)."""

    type_name = "string"
    _S = struct.Struct(f"<{MAX_STRING}sB?")

    def pack(self, value: StringVal) -> StoredValue:
        defined = value.defined
        raw = value.value.encode("utf-8") if defined else b""
        if len(raw) > MAX_STRING:
            raise StorageError("string too long for the fixed-size representation")
        return StoredValue(self.type_name, self._S.pack(raw, len(raw), defined))

    def unpack(self, stored: StoredValue) -> StringVal:
        raw, length, defined = self._S.unpack(stored.root)
        if not defined:
            return StringVal()
        return StringVal(raw[:length].decode("utf-8"))


class InstantCodec(Codec):
    type_name = "instant"
    _S = struct.Struct("<d?")

    def pack(self, value: Instant) -> StoredValue:
        defined = value.defined
        return StoredValue(
            self.type_name, self._S.pack(value.value if defined else 0.0, defined)
        )

    def unpack(self, stored: StoredValue) -> Instant:
        v, defined = self._S.unpack(stored.root)
        return Instant(v) if defined else Instant()


# ---------------------------------------------------------------------------
# Spatial types
# ---------------------------------------------------------------------------


class PointCodec(Codec):
    type_name = "point"
    _S = struct.Struct("<dd?")

    def pack(self, value: Point) -> StoredValue:
        if value.defined:
            return StoredValue(self.type_name, self._S.pack(value.x, value.y, True))
        return StoredValue(self.type_name, self._S.pack(0.0, 0.0, False))

    def unpack(self, stored: StoredValue) -> Point:
        x, y, defined = self._S.unpack(stored.root)
        return Point(x, y) if defined else Point()


class PointsCodec(Codec):
    type_name = "points"
    _ROOT = struct.Struct("<I")

    def pack(self, value: Points) -> StoredValue:
        arr = DatabaseArray("<dd")
        for x, y in value.vecs:  # already in lexicographic order
            arr.append(x, y)
        return StoredValue(self.type_name, self._ROOT.pack(len(arr)), [arr])

    def unpack(self, stored: StoredValue) -> Points:
        return Points(list(stored.arrays[0]))


_HS = struct.Struct("<dddd?")  # (x1, y1, x2, y2, left_dominating)


def _halfsegment_records(segs: Sequence[Seg]) -> List[tuple]:
    return [
        (h.seg[0][0], h.seg[0][1], h.seg[1][0], h.seg[1][1], h.left_dominating)
        for h in halfsegments_of(segs)
    ]


class LineCodec(Codec):
    type_name = "line"
    _ROOT = struct.Struct("<Iddddd")  # count, bbox, total length

    def pack(self, value: Line) -> StoredValue:
        arr = DatabaseArray(_HS.format)
        arr.extend(_halfsegment_records(value.segments))
        if value.segments:
            bbox = value.bbox()
            root = self._ROOT.pack(
                len(value.segments),
                bbox.xmin,
                bbox.ymin,
                bbox.xmax,
                bbox.ymax,
                value.length(),
            )
        else:
            root = self._ROOT.pack(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return StoredValue(self.type_name, root, [arr])

    def unpack(self, stored: StoredValue) -> Line:
        segs = []
        for x1, y1, x2, y2, left in stored.arrays[0]:
            if left:  # each segment appears once per halfsegment pair
                segs.append(((x1, y1), (x2, y2)))
        return Line(segs, validate=False)


class RegionCodec(Codec):
    """Region layout of Section 4.1: halfsegments + cycles + faces arrays."""

    type_name = "region"
    _ROOT = struct.Struct("<IIIdddddd")  # nfaces, ncycles, nsegs, bbox, area, perim
    _HSREC = struct.Struct("<dddd?q")  # halfsegment + next_in_cycle link
    _CYCREC = struct.Struct("<qq")  # first halfsegment, next cycle of face
    _FACEREC = struct.Struct("<q")  # first cycle

    def pack(self, value: Region) -> StoredValue:
        halves = halfsegments_of(value.segments())
        # Index of the *left* halfsegment of each segment.
        left_index: Dict[Seg, int] = {}
        for idx, h in enumerate(halves):
            if h.left_dominating:
                left_index[h.seg] = idx
        next_in_cycle = [-1] * len(halves)
        cycles_arr = DatabaseArray(self._CYCREC.format)
        faces_arr = DatabaseArray(self._FACEREC.format)
        for f in value.faces:
            cycle_ids = []
            for cyc in f.cycles:
                ring = [left_index[s] for s in cyc.segments]
                for a, b in zip(ring, ring[1:] + ring[:1]):
                    next_in_cycle[a] = b
                cycle_ids.append(cycles_arr.append(ring[0], -1))
            # Chain this face's cycles: outer first, then the holes.
            for a, b in zip(cycle_ids, cycle_ids[1:]):
                first, _ = cycles_arr.get(a)
                cycles_arr.set(a, first, b)
            faces_arr.append(cycle_ids[0])
        hs_arr = DatabaseArray(self._HSREC.format)
        for idx, h in enumerate(halves):
            hs_arr.append(
                h.seg[0][0],
                h.seg[0][1],
                h.seg[1][0],
                h.seg[1][1],
                h.left_dominating,
                next_in_cycle[idx],
            )
        if value.faces:
            bbox = value.bbox()
            root = self._ROOT.pack(
                len(value.faces),
                len(cycles_arr),
                len(halves) // 2,
                bbox.xmin,
                bbox.ymin,
                bbox.xmax,
                bbox.ymax,
                value.area(),
                value.perimeter(),
            )
        else:
            root = self._ROOT.pack(0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return StoredValue(self.type_name, root, [hs_arr, cycles_arr, faces_arr])

    def unpack(self, stored: StoredValue) -> Region:
        hs_arr, cycles_arr, faces_arr = stored.arrays
        hs_records = list(hs_arr)

        def walk_cycle(first_hs: int) -> Cycle:
            segs = []
            idx = first_hs
            while True:
                x1, y1, x2, y2, _left, nxt = hs_records[idx]
                segs.append(((x1, y1), (x2, y2)))
                idx = nxt
                if idx == first_hs:
                    break
            return Cycle(segs, validate=False)

        faces = []
        for (first_cycle,) in faces_arr:
            cyc_idx = first_cycle
            cycles: List[Cycle] = []
            while cyc_idx != -1:
                first_hs, nxt_cycle = cycles_arr.get(cyc_idx)
                cycles.append(walk_cycle(first_hs))
                cyc_idx = nxt_cycle
            faces.append(Face(cycles[0], cycles[1:], validate=False))
        return Region(faces, validate=False)


# ---------------------------------------------------------------------------
# Range and intime types
# ---------------------------------------------------------------------------


class RangeSetCodec(Codec):
    """range(real) / range(instant): an ordered array of interval records."""

    type_name = "range"
    _ROOT = struct.Struct("<I")

    def pack(self, value: RangeSet) -> StoredValue:
        arr = DatabaseArray(_INTERVAL.format)
        for iv in value:
            arr.append(float(iv.s), float(iv.e), iv.lc, iv.rc)
        return StoredValue(self.type_name, self._ROOT.pack(len(arr)), [arr])

    def unpack(self, stored: StoredValue) -> RangeSet:
        return RangeSet(
            Interval(s, e, lc, rc) for s, e, lc, rc in stored.arrays[0]
        )


class IntimeCodec(Codec):
    """intime(α): an instant plus a nested attribute value."""

    def __init__(self, inner: Codec):
        self.inner = inner
        self.type_name = f"intime({inner.type_name})"

    _T = struct.Struct("<d")

    def pack(self, value: Intime) -> StoredValue:
        nested = self.inner.pack(value.val)
        root = self._T.pack(value.time) + struct.pack("<I", len(nested.root)) + nested.root
        return StoredValue(self.type_name, root, nested.arrays)

    def unpack(self, stored: StoredValue) -> Intime:
        (t,) = self._T.unpack_from(stored.root, 0)
        (root_len,) = struct.unpack_from("<I", stored.root, self._T.size)
        inner_root = stored.root[self._T.size + 4 : self._T.size + 4 + root_len]
        inner_value = self.inner.unpack(
            StoredValue(self.inner.type_name, inner_root, stored.arrays)
        )
        return Intime(t, inner_value)


# ---------------------------------------------------------------------------
# Mappings of fixed-size units (const, ureal, upoint)
# ---------------------------------------------------------------------------

#: The interval quadruple every fixed-size unit record starts with.
_INTERVAL_RECORD = (
    ("s", "d", "_interval.s"),
    ("e", "d", "_interval.e"),
    ("lc", "?", "_interval.lc"),
    ("rc", "?", "_interval.rc"),
)


class UnitsCodec(Codec):
    """``mapping(α)`` of fixed-size units (Section 4.2): the root record
    is the unit count, one database array holds a record per unit — its
    interval and its unit function inline.

    A subclass declares only its ``MAPPING``, its ``RECORD`` (per field:
    the name, the little-endian ``struct`` code and the unit attribute
    it is read from) and the static ``unit(*fields)``, the way back.
    ``FORMAT`` and ``fields(unit)`` derive from ``RECORD`` (``mstring``
    overrides ``fields``: it stores bytes plus a length).  The column
    kinds of :mod:`repro.vector.columns` read the same declaration.
    """

    _ROOT = struct.Struct("<I")
    MAPPING: type
    RECORD: Tuple[Tuple[str, str, str], ...]
    FORMAT: str
    fields: Callable[[Any], tuple]
    unit: Callable[..., Any]

    def __init_subclass__(cls) -> None:
        cls.FORMAT = "<" + "".join(code for _name, code, _src in cls.RECORD)
        cls._RECORD = struct.Struct(cls.FORMAT)
        if "fields" not in cls.__dict__:
            cls.fields = staticmethod(attrgetter(*(src for *_, src in cls.RECORD)))

    def pack(self, value: Mapping) -> StoredValue:
        units = value.units
        record, fields = self._RECORD.pack, self.fields
        arr = DatabaseArray(self.FORMAT)
        arr.extend_packed(b"".join([record(*fields(u)) for u in units]), len(units))
        return StoredValue(self.type_name, self._ROOT.pack(len(units)), [arr])

    def unpack(self, stored: StoredValue) -> Mapping:
        return self.MAPPING(list(starmap(self.unit, stored.arrays[0])), validate=False)

    def unit_array(self, stored: StoredValue) -> DatabaseArray:
        """The stored units array, for readers that reinterpret its
        payload in bulk (``UPointColumn.from_unit_arrays``) instead of
        unpacking record by record; anything but this codec's layout is
        a :class:`CorruptRecordError`, as it is for :func:`safe_unpack`.
        """
        if (
            codec_for(stored.type_name) is not self
            or not stored.arrays
            or stored.arrays[0].record_format != self.FORMAT
        ):
            raise CorruptRecordError(
                f"value of type {stored.type_name!r} does not hold a "
                f"{self.type_name} units array"
            )
        return stored.arrays[0]


class MovingBoolCodec(UnitsCodec):
    type_name = "mbool"
    MAPPING = MovingBool
    RECORD = _INTERVAL_RECORD + (("value", "?", "_value.value"),)

    @staticmethod
    def unit(s, e, lc, rc, v):
        return ConstUnit(Interval(s, e, lc, rc), BoolVal(v))


class MovingIntCodec(UnitsCodec):
    type_name = "mint"
    MAPPING = MovingInt
    RECORD = _INTERVAL_RECORD + (("value", "q", "_value.value"),)

    @staticmethod
    def unit(s, e, lc, rc, v):
        return ConstUnit(Interval(s, e, lc, rc), IntVal(v))


class MovingStringCodec(UnitsCodec):
    type_name = "mstring"
    MAPPING = MovingString
    RECORD = _INTERVAL_RECORD + (
        ("raw", f"{MAX_STRING}s", "_value.value"),
        ("length", "B", "_value.value"),
    )

    @staticmethod
    def fields(u):
        iv = u.interval
        raw = u.value.value.encode("utf-8")
        return (iv.s, iv.e, iv.lc, iv.rc, raw, len(raw))

    @staticmethod
    def unit(s, e, lc, rc, raw, length):
        return ConstUnit(Interval(s, e, lc, rc), StringVal(raw[:length].decode("utf-8")))


class MovingRealCodec(UnitsCodec):
    type_name = "mreal"
    MAPPING = MovingReal
    RECORD = _INTERVAL_RECORD + (
        ("a", "d", "_a"), ("b", "d", "_b"), ("c", "d", "_c"), ("r", "?", "_r"),
    )

    @staticmethod
    def unit(s, e, lc, rc, a, b, c, r):
        return UReal(Interval(s, e, lc, rc), a, b, c, r)


class MovingPointCodec(UnitsCodec):
    type_name = "mpoint"
    MAPPING = MovingPoint
    RECORD = _INTERVAL_RECORD + tuple(
        (f, "d", f"_motion.{f}") for f in ("x0", "x1", "y0", "y1")
    )

    @staticmethod
    def unit(s, e, lc, rc, x0, x1, y0, y1):
        return UPoint(Interval(s, e, lc, rc), MPoint(x0, x1, y0, y1))


# ---------------------------------------------------------------------------
# Mappings of variable-size units: shared subarrays (Figure 7)
# ---------------------------------------------------------------------------

_CUBE = "dddddd"  # bounding cube fields


class MovingPointsCodec(Codec):
    """mapping(upoints): units array + one shared MPoint array."""

    type_name = "mpoints"
    _ROOT = struct.Struct("<I")
    _UNIT = struct.Struct(f"<dd??qq{_CUBE}")  # interval, subarray lo/hi, cube
    _ELEM = struct.Struct("<dddd")

    def pack(self, value: MovingPoints) -> StoredValue:
        units_arr = DatabaseArray(self._UNIT.format)
        elems = DatabaseArray(self._ELEM.format)
        for u in value.units:
            assert isinstance(u, UPoints)
            lo = len(elems)
            for m in u.motions:
                elems.append(m.x0, m.x1, m.y0, m.y1)
            iv = u.interval
            cube = u.bounding_cube()
            units_arr.append(
                iv.s, iv.e, iv.lc, iv.rc, lo, len(elems),
                cube.xmin, cube.ymin, cube.tmin, cube.xmax, cube.ymax, cube.tmax,
            )
        return StoredValue(
            self.type_name, self._ROOT.pack(len(units_arr)), [units_arr, elems]
        )

    def unpack(self, stored: StoredValue) -> MovingPoints:
        units_arr, elems = stored.arrays
        units = []
        for rec in units_arr:
            s, e, lc, rc, lo, hi = rec[:6]
            motions = [MPoint(*elems.get(i)) for i in range(lo, hi)]
            units.append(UPoints(Interval(s, e, lc, rc), motions, validate=False))
        return MovingPoints(units, validate=False)


class MovingLineCodec(Codec):
    """mapping(uline): units array + one shared MSeg array."""

    type_name = "mline"
    _ROOT = struct.Struct("<I")
    _UNIT = struct.Struct(f"<dd??qq{_CUBE}")
    _ELEM = struct.Struct("<dddddddd")  # two MPoint quadruples

    def pack(self, value: MovingLine) -> StoredValue:
        units_arr = DatabaseArray(self._UNIT.format)
        elems = DatabaseArray(self._ELEM.format)
        for u in value.units:
            assert isinstance(u, ULine)
            lo = len(elems)
            for m in u.msegs:
                elems.append(
                    m.s.x0, m.s.x1, m.s.y0, m.s.y1, m.e.x0, m.e.x1, m.e.y0, m.e.y1
                )
            iv = u.interval
            cube = u.bounding_cube()
            units_arr.append(
                iv.s, iv.e, iv.lc, iv.rc, lo, len(elems),
                cube.xmin, cube.ymin, cube.tmin, cube.xmax, cube.ymax, cube.tmax,
            )
        return StoredValue(
            self.type_name, self._ROOT.pack(len(units_arr)), [units_arr, elems]
        )

    def unpack(self, stored: StoredValue) -> MovingLine:
        units_arr, elems = stored.arrays
        units = []
        for rec in units_arr:
            s, e, lc, rc, lo, hi = rec[:6]
            msegs = []
            for i in range(lo, hi):
                f = elems.get(i)
                msegs.append(MSeg(MPoint(*f[:4]), MPoint(*f[4:])))
            units.append(ULine(Interval(s, e, lc, rc), msegs, validate=False))
        return MovingLine(units, validate=False)


class MovingRegionCodec(Codec):
    """mapping(uregion): units + shared msegments/mcycles/mfaces arrays.

    Every msegment record carries a ``next_in_cycle`` index linking the
    moving segments of one cycle into a ring; ``mcycles`` records point
    to the first msegment of the cycle and chain the cycles of a face;
    ``mfaces`` records point to the first cycle — mirroring the static
    region layout, as Section 4.2 describes.
    """

    type_name = "mregion"
    _ROOT = struct.Struct("<I")
    # interval, mseg lo/hi, mcycle lo/hi, mface lo/hi, bounding cube,
    # and the Section-4.2 summary quadruples for area and perimeter.
    _UNIT = struct.Struct(f"<dd??qqqqqq{_CUBE}ddd?ddd?")
    _MSEG = struct.Struct("<ddddddddq")  # 8 coefficients + next_in_cycle
    _MCYC = struct.Struct("<qq")  # first msegment, next cycle of face
    _MFACE = struct.Struct("<q")  # first cycle

    def pack(self, value: MovingRegion) -> StoredValue:
        units_arr = DatabaseArray(self._UNIT.format)
        msegs_arr = DatabaseArray(self._MSEG.format)
        mcycles_arr = DatabaseArray(self._MCYC.format)
        mfaces_arr = DatabaseArray(self._MFACE.format)
        for u in value.units:
            assert isinstance(u, URegion)
            mseg_lo = len(msegs_arr)
            mcyc_lo = len(mcycles_arr)
            mface_lo = len(mfaces_arr)
            for mface in u.faces:
                cycle_ids = []
                for mcycle in mface.cycles:
                    first = len(msegs_arr)
                    count = len(mcycle.msegs)
                    for k, m in enumerate(mcycle.msegs):
                        nxt = first + (k + 1) % count
                        msegs_arr.append(
                            m.s.x0, m.s.x1, m.s.y0, m.s.y1,
                            m.e.x0, m.e.x1, m.e.y0, m.e.y1,
                            nxt,
                        )
                    cycle_ids.append(mcycles_arr.append(first, -1))
                for a, b in zip(cycle_ids, cycle_ids[1:]):
                    first, _ = mcycles_arr.get(a)
                    mcycles_arr.set(a, first, b)
                mfaces_arr.append(cycle_ids[0])
            iv = u.interval
            cube = u.bounding_cube()
            area = u.area_summary()
            perim = u.perimeter_summary()
            units_arr.append(
                iv.s, iv.e, iv.lc, iv.rc,
                mseg_lo, len(msegs_arr),
                mcyc_lo, len(mcycles_arr),
                mface_lo, len(mfaces_arr),
                cube.xmin, cube.ymin, cube.tmin, cube.xmax, cube.ymax, cube.tmax,
                *area, *perim,
            )
        return StoredValue(
            self.type_name,
            self._ROOT.pack(len(units_arr)),
            [units_arr, msegs_arr, mcycles_arr, mfaces_arr],
        )

    def unpack(self, stored: StoredValue) -> MovingRegion:
        units_arr, msegs_arr, mcycles_arr, mfaces_arr = stored.arrays
        mseg_records = list(msegs_arr)

        def walk_mcycle(first: int) -> MCycle:
            out = []
            idx = first
            while True:
                f = mseg_records[idx]
                out.append(MSeg(MPoint(*f[:4]), MPoint(*f[4:8])))
                idx = f[8]
                if idx == first:
                    break
            return MCycle(out)

        units = []
        for rec in units_arr:
            s, e, lc, rc, _mlo, _mhi, _clo, _chi, flo, fhi = rec[:10]
            area = tuple(rec[16:20])
            perim = tuple(rec[20:24])
            mfaces = []
            for fi in range(flo, fhi):
                (first_cycle,) = mfaces_arr.get(fi)
                cyc_idx = first_cycle
                cycles: List[MCycle] = []
                while cyc_idx != -1:
                    first_mseg, nxt = mcycles_arr.get(cyc_idx)
                    cycles.append(walk_mcycle(first_mseg))
                    cyc_idx = nxt
                mfaces.append(MFace(cycles[0], cycles[1:]))
            unit = URegion(Interval(s, e, lc, rc), mfaces, validate="none")
            unit._prime_summaries(area, perim)
            units.append(unit)
        return MovingRegion(units, validate=False)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_CODECS: Dict[str, Codec] = {}


def _register(codec: Codec) -> None:
    _CODECS[codec.type_name] = codec


for _c in (
    IntCodec(),
    RealCodec(),
    BoolCodec(),
    StringCodec(),
    InstantCodec(),
    PointCodec(),
    PointsCodec(),
    LineCodec(),
    RegionCodec(),
    RangeSetCodec(),
    MovingBoolCodec(),
    MovingIntCodec(),
    MovingStringCodec(),
    MovingRealCodec(),
    MovingPointCodec(),
    MovingPointsCodec(),
    MovingLineCodec(),
    MovingRegionCodec(),
):
    _register(_c)

_register(IntimeCodec(RealCodec()))
_register(IntimeCodec(PointCodec()))

#: Aliases matching the formal type terms of Table 3.
_ALIASES = {
    "mapping(const(bool))": "mbool",
    "mapping(const(int))": "mint",
    "mapping(const(string))": "mstring",
    "mapping(ureal)": "mreal",
    "mapping(upoint)": "mpoint",
    "mapping(upoints)": "mpoints",
    "mapping(uline)": "mline",
    "mapping(uregion)": "mregion",
}


def codec_for(type_name: str) -> Codec:
    """Look up the codec for a type name (aliases of Table 3 accepted)."""
    name = _ALIASES.get(type_name, type_name)
    codec = _CODECS.get(name)
    if codec is None:
        raise StorageError(f"no storage codec registered for type {type_name!r}")
    return codec


def pack_value(type_name: str, value) -> StoredValue:
    """Pack ``value`` with the codec registered for ``type_name``."""
    return codec_for(type_name).pack(value)


def safe_unpack(stored: StoredValue):
    """Unpack a stored value, converting decode blowups to typed errors.

    Codecs assume well-formed input; on damaged bytes they raise bare
    ``struct.error``/``IndexError``/``UnicodeDecodeError``.  This
    wrapper is the boundary the storage read paths go through: any such
    failure (and any codec-raised :class:`StorageError`) surfaces as a
    :class:`CorruptRecordError` naming the value's type.
    """
    codec = codec_for(stored.type_name)
    try:
        return codec.unpack(stored)
    except CorruptRecordError:
        raise
    except (struct.error, IndexError, ValueError, UnicodeDecodeError) as exc:
        raise CorruptRecordError(
            f"value of type {stored.type_name!r} failed to decode: {exc}"
        ) from exc


def unpack_value(stored: StoredValue):
    """Unpack a stored value with the codec its type name designates."""
    return safe_unpack(stored)
