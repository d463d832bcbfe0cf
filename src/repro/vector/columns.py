"""Structure-of-Arrays columns over the units of many moving objects.

The Section-4 representation of one ``mapping`` value is a *root record*
(count + bounding box) pointing into *database arrays* of fixed-size
unit records.  A column generalizes that layout to a whole fleet: the
unit fields of every object live in contiguous numpy arrays, and a
CSR-style ``offsets`` array (the stacked root records) says which slice
of those arrays belongs to which object.  Batched kernels
(:mod:`repro.vector.kernels`) then evaluate all objects per call instead
of interpreting one unit at a time.

Columns are built from, and convert back to, the existing ``Mapping``
objects, and bridge losslessly to :class:`repro.storage.darray.
DatabaseArray` records (same field layout, bulk-packed), so a column is
just another view of the Section-4 on-disk structure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import InvalidValue
from repro.ranges.interval import Interval
from repro.spatial.bbox import Cube
from repro.storage.darray import DatabaseArray
from repro.temporal.mapping import Mapping, MovingPoint, MovingReal
from repro.temporal.mseg import MPoint
from repro.temporal.upoint import UPoint
from repro.temporal.ureal import UReal


#: Record layout of a CSR offsets file (the stacked root records).
OFFSETS_DTYPE = np.dtype("<i8")
#: The interval quadruple every unit record starts with.
_INTERVAL = [("s", "<f8"), ("e", "<f8"), ("lc", "?"), ("rc", "?")]

_STRUCT_CODES = {"<f8": "d", "|b1": "?", "<i8": "q"}


def _struct_format(dtype: np.dtype) -> str:
    """The ``struct`` format whose bytes equal one packed ``dtype`` record."""
    return "<" + "".join(_STRUCT_CODES[dtype[name].str] for name in dtype.names)


def _as_offsets(counts: Union[Sequence[int], np.ndarray]) -> np.ndarray:
    """Cumulative unit counts → CSR offsets (the stacked root records)."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def coordinate_at(
    c0: np.ndarray, c1: np.ndarray, t: Union[float, np.ndarray]
) -> np.ndarray:
    """``c0 + c1·t`` per lane, by ``MPoint.at``'s rule: a zero velocity
    contributes nothing, so at an infinite instant a stationary lane
    keeps ``c0`` instead of becoming ``0·∞ = nan``."""
    with np.errstate(invalid="ignore"):
        v = c0 + c1 * t
    # The coefficients are finite, so a NaN lane is exactly a 0·∞ one.
    still = np.isnan(v)
    if still.any():
        v[still] = c0[still]
    return v


def _sorted_changes(changed: Sequence[int], n_new: int) -> np.ndarray:
    """The distinct changed object indices, ascending, all inside the fleet."""
    out = np.array(sorted({int(i) for i in changed}), dtype=np.int64)
    if out.size and (out[0] < 0 or out[-1] >= n_new):
        raise InvalidValue("changed object index out of range")
    return out


class Column:
    """What every column kind answers (the rows of :data:`KINDS`).

    A kind declares ``KIND``, ``FILES`` — the ordered ``(file name,
    record dtype)`` pairs it persists as — and ``ARRAYS``, the attribute
    names of its payload arrays in constructor order; and implements
    ``from_mappings``, ``records()`` / ``from_records(arrays)`` (one
    array per file), ``from_arrays``, ``stored_nbytes(mappings)`` and
    ``chunk(lo, hi)``.
    """

    # __weakref__ lets the column cache and the shared-memory segment
    # registry key off column/owner identity without keeping it alive.
    __slots__ = ("__weakref__",)

    KIND: str
    FILES: Tuple[Tuple[str, np.dtype], ...]
    ARRAYS: Tuple[str, ...]

    def arrays(self) -> List[np.ndarray]:
        """The payload arrays, in constructor order (``ARRAYS`` names them)."""
        return [getattr(self, name) for name in self.ARRAYS]

    @classmethod
    def from_arrays(cls, arrays: Sequence[np.ndarray]):
        """Inverse of :meth:`arrays`."""
        return cls(*arrays)

    @property
    def nbytes(self) -> int:
        """Resident bytes: the sum of the payload arrays (the unit of
        account of the column cache's and the shard manager's budgets).
        Keys are bookkeeping, not payload."""
        return sum(int(a.nbytes) for a in self.arrays())


class UnitColumn(Column):
    """A fleet of ``mapping(unit)`` values as arrays: CSR ``offsets`` plus
    one array per field of the unit record.

    A subclass declares what its unit is — ``KIND``, ``FILES``, the record
    ``UNIT_DTYPE`` (interval quadruple ``s, e, lc, rc`` first) and its
    ``MAPPING`` class — and the transcription pair ``_rows(units) ->
    rows`` / ``_from_rows(rows) -> units``, called once per fleet so the
    per-unit Python stays one comprehension.  Everything that only moves
    arrays around is written once here, driven by the dtype's field names.
    """

    __slots__ = ("offsets", "starts", "ends", "lc", "rc", "_depth")

    #: numpy layout of one unit record, byte-identical to ``UNIT_FORMAT``.
    UNIT_DTYPE: np.dtype
    MAPPING: type
    #: struct layout of one root record (a unit-count offset).
    ROOT_FORMAT = _struct_format(np.dtype([("n", OFFSETS_DTYPE)]))

    def __init_subclass__(cls) -> None:
        #: Attribute per unit-record field, in record order.
        cls.FIELDS = ("starts", "ends", "lc", "rc") + cls.UNIT_DTYPE.names[4:]
        cls.ARRAYS = ("offsets",) + cls.FIELDS
        #: struct layout of one unit record in a database array.
        cls.UNIT_FORMAT = _struct_format(cls.UNIT_DTYPE)

    def __init__(self, offsets: np.ndarray, *fields: np.ndarray):
        dtype = self.UNIT_DTYPE
        self._assign(
            np.ascontiguousarray(offsets, dtype=np.int64),
            [
                np.ascontiguousarray(a, dtype=dtype[name])
                for name, a in zip(dtype.names, fields, strict=True)
            ],
        )

    def _assign(self, offsets: np.ndarray, fields: Sequence[np.ndarray]) -> None:
        """Adopt arrays as they are (no copy) once the offsets cover them."""
        if offsets.ndim != 1 or len(offsets) == 0:
            raise InvalidValue("offsets must be a 1-D array of length n+1")
        if int(offsets[-1]) != len(fields[0]):
            raise InvalidValue("offsets do not cover the unit arrays")
        self.offsets = offsets
        for attr, a in zip(self.FIELDS, fields):
            setattr(self, attr, a)
        self._depth: Optional[int] = None

    @property
    def n_objects(self) -> int:
        """Number of objects (root records) in the column."""
        return len(self.offsets) - 1

    @property
    def n_units(self) -> int:
        """Total number of units across all objects."""
        return len(self.starts)

    @property
    def depth(self) -> int:
        """Bit length of the longest object's unit count: the sweeps of
        the binary-lifting unit search (:func:`repro.vector.kernels.
        locate_units`).  Read off the offsets on first use and kept — a
        column's arrays never change after construction."""
        if self._depth is None:
            longest = int(np.diff(self.offsets).max()) if self.n_objects else 0
            self._depth = longest.bit_length()
        return self._depth

    def units_of(self, i: int) -> slice:
        """The slice of the unit arrays belonging to object ``i``."""
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def __len__(self) -> int:
        return self.n_objects

    # -- mappings <-> arrays ------------------------------------------------

    @classmethod
    def from_mappings(cls, mappings: Sequence[Mapping]):
        """Transcribe a fleet of mappings into one column."""
        counts: List[int] = []
        units: List = []
        for m in mappings:
            if not isinstance(m, Mapping):
                raise InvalidValue(
                    f"{cls.__name__} holds mappings, got {type(m).__name__}"
                )
            units += m.units
            counts.append(len(m.units))
        for t in set(map(type, units)):
            if not issubclass(t, cls.MAPPING.unit_type):
                raise InvalidValue(
                    f"{cls.__name__} holds {cls.KIND} units, got {t.__name__}"
                )
        rec = np.array(cls._rows(units), dtype=cls.UNIT_DTYPE)
        return cls(_as_offsets(counts), *(rec[name] for name in rec.dtype.names))

    def to_mappings(self) -> List:
        """Materialize the column back into ``MAPPING`` objects."""
        units = self._from_rows(zip(*(getattr(self, f).tolist() for f in self.FIELDS)))
        cuts = self.offsets.tolist()
        # Units come back in CSR order, which is the validated unit
        # order they were transcribed in; revalidating every
        # round-trip would defeat the batch backend's purpose.
        return [
            self.MAPPING(units[lo:hi], validate=False)  # modlint: disable=MOD002 see comment above
            for lo, hi in zip(cuts, cuts[1:])
        ]

    # -- the column-kind protocol (see Column) ------------------------------

    @classmethod
    def stored_nbytes(cls, mappings: Sequence[Mapping]) -> int:
        """Bytes ``from_mappings(mappings)`` occupies, by arithmetic on the
        members alone (nothing is built)."""
        (_units, unit), (_offsets, root) = cls.FILES
        n_units = sum(len(m.units) for m in mappings)
        return n_units * unit.itemsize + (len(mappings) + 1) * root.itemsize

    def records(self) -> List[np.ndarray]:
        """The persistent form, one array per entry of ``FILES``."""
        rec = np.empty(self.n_units, dtype=self.UNIT_DTYPE)
        for attr, name in zip(self.FIELDS, rec.dtype.names):
            rec[name] = getattr(self, attr)
        return [rec, np.ascontiguousarray(self.offsets, dtype=OFFSETS_DTYPE)]

    @classmethod
    def from_records(cls, arrays: Sequence[np.ndarray]):
        """Zero-copy view over :meth:`records`-shaped arrays (e.g. memmaps).

        Unlike the constructor, the strided per-field views of the unit
        records are kept as-is — no contiguous copy — so a memory-mapped
        file stays lazily paged and cold open cost is the mmap, not a
        column-width materialization.  The batch kernels only ever do
        comparisons, reductions and fancy indexing, all of which accept
        strided inputs.
        """
        rec, offsets = arrays
        col = object.__new__(cls)
        col._assign(
            np.asarray(offsets, dtype=np.int64),
            [rec[name] for name in cls.UNIT_DTYPE.names],
        )
        return col

    def chunk(self, lo: int, hi: int):
        """Object-range ``[lo, hi)`` slice, (nearly) zero-copy: the unit
        arrays are plain views, only the small offsets array is rebased."""
        offsets = self.offsets
        u0, u1 = int(offsets[lo]), int(offsets[hi])
        return type(self)(
            offsets[lo : hi + 1] - u0,
            *(getattr(self, f)[u0:u1] for f in self.FIELDS),
        )

    def to_darrays(self) -> Tuple[DatabaseArray, DatabaseArray]:
        """Serialize as Section-4 database arrays ``(root, units)``.

        ``root`` holds the offsets array (one record per object plus the
        final sentinel); ``units`` holds the fixed-size unit records.
        Packing is a single buffer copy — the numpy record layout is
        byte-identical to the struct format.
        """
        rec, offsets = self.records()
        root = DatabaseArray(self.ROOT_FORMAT)
        root.extend_packed(offsets.tobytes(), len(offsets))
        units = DatabaseArray(self.UNIT_FORMAT)
        units.extend_packed(rec.tobytes(), len(rec))
        return root, units

    @classmethod
    def from_darrays(cls, root: DatabaseArray, units: DatabaseArray):
        """Rebuild a column from database arrays written by :meth:`to_darrays`."""
        rec = np.frombuffer(units.payload, dtype=cls.UNIT_DTYPE)
        return cls(
            np.frombuffer(root.payload, dtype=OFFSETS_DTYPE),
            *(rec[name] for name in rec.dtype.names),
        )

    def extended(self, mappings: Sequence[Mapping], changed: Sequence[int]):
        """Splice an updated fleet into a new column without retranscribing.

        ``mappings`` is the fleet's current contents and ``changed`` the
        object indices whose mappings differ from (or did not exist in)
        this column's build input.  Only the changed objects go through
        the Python-level ``from_mappings`` transcription; every
        unchanged object's unit rows are copied as whole array slices,
        so the result is bit-identical to ``from_mappings(mappings)``.

        Cost: Python work is O(changed units) for the transcription plus
        O(runs of consecutive changed objects) for the slice list; what
        grows with the fleet is array work only — one ``cumsum`` over the
        unit counts and one ``concatenate`` per field.

        Raises :class:`InvalidValue` when ``changed`` is inconsistent
        with the new fleet (an index out of range, an appended object
        not marked changed, a shrunk fleet).  The ingest apply's column
        advance (:meth:`repro.vector.cache.ColumnCache.advance`) is the
        serving caller.
        """
        n_new = len(mappings)
        n_old = self.n_objects
        if n_new < n_old:
            raise InvalidValue("column extension cannot shrink the fleet")
        changed_sorted = _sorted_changes(changed, n_new)
        n_changed = len(changed_sorted)
        # Distinct, ascending and below n_new: the appended objects are
        # all there iff the tail from n_old on has one entry each.
        appended = changed_sorted[np.searchsorted(changed_sorted, n_old):]
        if len(appended) != n_new - n_old:
            missing = np.setdiff1d(np.arange(n_old, n_new), appended)
            raise InvalidValue(
                f"appended object {missing[0]} missing from the change set"
            )
        cls = type(self)
        sub = cls.from_mappings([mappings[i] for i in changed_sorted.tolist()])

        counts = np.empty(n_new, dtype=np.int64)
        counts[:n_old] = np.diff(self.offsets)
        counts[changed_sorted] = np.diff(sub.offsets)
        offsets = _as_offsets(counts)

        # A maximal run of consecutive changed objects is one slice of
        # ``sub``; the unchanged objects between two runs are one slice
        # of this column.  A pure tail append is just two pieces.
        run_starts = np.flatnonzero(np.diff(changed_sorted) != 1) + 1
        run_lo = [0, *run_starts.tolist()] if n_changed else []
        run_hi = [*run_lo[1:], n_changed]
        pieces: List[Tuple[UnitColumn, slice]] = []
        done = 0  # old objects below this are spliced
        for lo, hi in zip(run_lo, run_hi):
            # A gap ends at an old object: every appended one is in a
            # run that starts at or before n_old.
            first = int(changed_sorted[lo])
            if first > done:
                pieces.append((self, slice(int(self.offsets[done]),
                                           int(self.offsets[first]))))
            pieces.append((sub, slice(int(sub.offsets[lo]),
                                      int(sub.offsets[hi]))))
            done = int(changed_sorted[hi - 1]) + 1
        if done < n_old:
            pieces.append((self, slice(int(self.offsets[done]),
                                       int(self.offsets[n_old]))))

        spliced = [
            np.concatenate([getattr(src, f)[sl] for src, sl in pieces])
            if pieces else getattr(self, f)[:0]
            for f in cls.FIELDS
        ]
        return cls(offsets, *spliced)


class UPointColumn(UnitColumn):
    """Columnar ``mapping(upoint)`` fleet: motion coefficients per unit.

    The per-unit fields mirror the ``upoint`` unit record of Section 4.2
    — interval ``(s, e, lc, rc)`` plus the MPoint quadruple
    ``(x0, x1, y0, y1)`` with position ``(x0 + x1·t, y0 + y1·t)``.
    """

    KIND = "upoint"
    UNIT_DTYPE = np.dtype(
        _INTERVAL + [("x0", "<f8"), ("x1", "<f8"), ("y0", "<f8"), ("y1", "<f8")]
    )
    FILES = (("upoint.bin", UNIT_DTYPE), ("offsets.bin", OFFSETS_DTYPE))
    MAPPING = MovingPoint
    __slots__ = UNIT_DTYPE.names[4:]

    @staticmethod
    def _rows(units: Sequence[UPoint]) -> List[tuple]:
        return [
            (iv.s, iv.e, iv.lc, iv.rc, mo.x0, mo.x1, mo.y0, mo.y1)
            for u in units
            for iv, mo in [(u.interval, u.motion)]
        ]

    @staticmethod
    def _from_rows(rows: Sequence[tuple]) -> List[UPoint]:
        return [
            UPoint(Interval(s, e, lc, rc), MPoint(x0, x1, y0, y1))
            for s, e, lc, rc, x0, x1, y0, y1 in rows
        ]

    @classmethod
    def from_unit_arrays(
        cls,
        arrays: Sequence[DatabaseArray],
        lanes: np.ndarray,
        n_objects: int,
    ) -> "UPointColumn":
        """Column over stored ``mapping(upoint)`` units arrays — the page
        bytes reinterpreted, no unit object built.

        ``arrays[k]`` holds the units of object ``lanes[k]`` (ascending)
        out of ``n_objects``; an object without an array has no units.  Field for field equal to
        :meth:`from_mappings` over the unpacked values, and what their
        constructors reject (``s > e`` or a NaN bound, a degenerate
        interval not closed on both sides, non-finite coefficients) is the same
        :class:`InvalidValue` here, checked on the whole column at once.
        """
        lens = np.fromiter((len(a) for a in arrays), np.int64, len(arrays))
        counts = np.zeros(n_objects, dtype=np.int64)
        counts[lanes] = lens
        rec = np.frombuffer(
            bytearray().join(a.payload for a in arrays), dtype=cls.UNIT_DTYPE
        )
        for flag in ("lc", "rc"):  # struct's "?" reads any nonzero byte as True
            rec[flag] = rec[flag].view(np.uint8) != 0
        s, e = rec["s"], rec["e"]
        if not np.all(s <= e):
            raise InvalidValue("stored unit interval start exceeds its end")
        if np.any((s == e) & ~(rec["lc"] & rec["rc"])):
            raise InvalidValue("a degenerate interval must be closed on both sides")
        if not all(np.isfinite(rec[f]).all() for f in cls.UNIT_DTYPE.names[4:]):
            raise InvalidValue("MPoint coefficients must be finite")
        owner = np.repeat(np.arange(len(arrays)), lens)
        if np.any((s[1:] < s[:-1]) & (owner[1:] == owner[:-1])):
            # A mapping sorts its units on construction; so does its column.
            rec = rec[np.lexsort((rec["rc"], e, ~rec["lc"], s, owner))]
        return cls.from_records([rec, _as_offsets(counts)])

class URealColumn(UnitColumn):
    """Columnar ``mapping(ureal)`` fleet: ``(a, b, c, r)`` per unit."""

    KIND = "ureal"
    UNIT_DTYPE = np.dtype(
        _INTERVAL + [("a", "<f8"), ("b", "<f8"), ("c", "<f8"), ("r", "?")]
    )
    FILES = (("ureal.bin", UNIT_DTYPE), ("ureal_offsets.bin", OFFSETS_DTYPE))
    MAPPING = MovingReal
    __slots__ = UNIT_DTYPE.names[4:]

    @staticmethod
    def _rows(units: Sequence[UReal]) -> List[tuple]:
        return [
            (iv.s, iv.e, iv.lc, iv.rc, *u.coefficients)
            for u in units
            for iv in [u.interval]
        ]

    @staticmethod
    def _from_rows(rows: Sequence[tuple]) -> List[UReal]:
        return [
            UReal(Interval(s, e, lc, rc), a, b, c, r)
            for s, e, lc, rc, a, b, c, r in rows
        ]


class BBoxColumn(Column):
    """Columnar bounding cubes: one ``(x, y, t)`` box per object.

    ``keys`` is the int64 array of the fleet positions the boxes belong
    to, ascending as the builders emit them; an object without units
    has no bounding cube and no entry.
    """

    KIND = "bbox"
    #: numpy layout of one persisted bbox record: integer key + cube.
    RECORD_DTYPE = np.dtype(
        [
            ("key", "<i8"),
            ("xmin", "<f8"),
            ("ymin", "<f8"),
            ("tmin", "<f8"),
            ("xmax", "<f8"),
            ("ymax", "<f8"),
            ("tmax", "<f8"),
        ]
    )
    #: struct layout with identical bytes.
    RECORD_FORMAT = _struct_format(RECORD_DTYPE)
    FILES = (("bbox.bin", RECORD_DTYPE),)
    #: Names of :meth:`arrays`: the cube coordinates (keys are identity,
    #: not payload — a column rebuilt from its arrays is keyed by position).
    ARRAYS = RECORD_DTYPE.names[1:]
    __slots__ = ("keys", *ARRAYS)

    def __init__(self, keys, *coords):
        self.keys = np.ascontiguousarray(keys, dtype=np.int64)
        for name, a in zip(self.ARRAYS, coords, strict=True):
            setattr(self, name, np.ascontiguousarray(a, dtype=np.float64))
        if len(self.keys) != len(self.xmin):
            raise InvalidValue("BBoxColumn keys and coordinates disagree in length")

    @classmethod
    def from_cubes(cls, entries: Sequence[Tuple[int, Cube]]) -> "BBoxColumn":
        """Build from ``(key, cube)`` pairs."""
        cubes = [c for _k, c in entries]
        return cls(
            [k for k, _c in entries],
            *([getattr(c, f) for c in cubes] for f in cls.ARRAYS),
        )

    @classmethod
    def from_mappings(
        cls,
        mappings: Sequence[Union[MovingPoint, Mapping]],
        upoint: Optional[UPointColumn] = None,
    ) -> "BBoxColumn":
        """One box per member that has units, keyed by its position.

        Empty mappings contribute no entry (they have no bounding cube);
        their keys simply never appear in filter results, matching the
        scalar path, which skips empty operands.  Moving points' boxes
        come from their unit column (:meth:`from_upoint`) — ``upoint``
        when the caller already holds it, one transcription otherwise —
        instead of one ``bounding_cube()`` walk per object.

        Raises :class:`InvalidValue` for members that are not sliced
        mappings, like the other column builders, so backend dispatchers
        can route mixed fleets through the counted scalar fallback.
        """
        if upoint is None and all(isinstance(m, MovingPoint) for m in mappings):
            upoint = UPointColumn.from_mappings(mappings)
        if upoint is not None:
            return cls.from_upoint(upoint)
        entries: List[Tuple[int, Cube]] = []
        for key, m in enumerate(mappings):
            if not isinstance(m, Mapping) or not hasattr(m, "bounding_cube"):
                raise InvalidValue(
                    f"BBoxColumn holds mappings with bounding cubes, "
                    f"got {type(m).__name__}"
                )
            if m.units:
                entries.append((key, m.bounding_cube()))
        return cls.from_cubes(entries)

    @classmethod
    def from_upoint(cls, col: UPointColumn) -> "BBoxColumn":
        """One box per object of ``col`` that has units, from its arrays.

        Each unit's end points are ``x0 + x1·s`` and ``x0 + x1·e`` — the
        two correctly rounded operations ``MPoint.at`` performs, with its
        rule for a stationary coordinate at an infinite bound
        (:func:`coordinate_at`) — and an object's box is the min/max
        over its CSR segment, so every field equals
        ``Mapping.bounding_cube()``'s.  Objects without units contribute
        no entry, as in :meth:`from_mappings`.
        """
        lanes = np.flatnonzero(np.diff(col.offsets))
        if lanes.size == 0:
            return cls(lanes, *([np.empty(0)] * 6))
        # Empty objects own no unit rows, so the segment starts of the
        # non-empty ones are consecutive cuts of the unit arrays.
        cuts = col.offsets[lanes]
        xa, xb = (coordinate_at(col.x0, col.x1, t) for t in (col.starts, col.ends))
        ya, yb = (coordinate_at(col.y0, col.y1, t) for t in (col.starts, col.ends))
        lo, hi = np.minimum.reduceat, np.maximum.reduceat
        return cls(
            lanes,
            lo(np.minimum(xa, xb), cuts), lo(np.minimum(ya, yb), cuts),
            lo(col.starts, cuts),
            hi(np.maximum(xa, xb), cuts), hi(np.maximum(ya, yb), cuts),
            hi(col.ends, cuts),
        )

    # -- the column-kind protocol (see Column) ------------------------------

    @classmethod
    def from_arrays(cls, arrays: Sequence[np.ndarray]) -> "BBoxColumn":
        """Inverse of :meth:`arrays`, keyed by entry position."""
        return cls(np.arange(len(arrays[0])), *arrays)

    @classmethod
    def stored_nbytes(cls, mappings: Sequence[Mapping]) -> int:
        """Bytes ``from_mappings(mappings)`` persists as, by arithmetic on
        the members alone (one record per member that has units)."""
        return sum(1 for m in mappings if m.units) * cls.RECORD_DTYPE.itemsize

    def records(self) -> List[np.ndarray]:
        """The persistent form, one array per entry of ``FILES``."""
        rec = np.empty(len(self), dtype=self.RECORD_DTYPE)
        rec["key"] = self.keys
        for name in self.ARRAYS:
            rec[name] = getattr(self, name)
        return [rec]

    @classmethod
    def from_records(cls, arrays: Sequence[np.ndarray]) -> "BBoxColumn":
        """Zero-copy view over :meth:`records`-shaped arrays (e.g. a memmap):
        every field, keys included, stays a strided view of the records,
        so a cold mmap load costs O(1), not O(entries)."""
        (rec,) = arrays
        col = object.__new__(cls)
        col.keys = rec["key"]
        for name in cls.ARRAYS:
            setattr(col, name, rec[name])
        return col

    def chunk(self, lo: int, hi: int) -> "BBoxColumn":
        """Entry-range ``[lo, hi)`` slice (array views, keys kept)."""
        return BBoxColumn(self.keys[lo:hi], *(a[lo:hi] for a in self.arrays()))

    def __len__(self) -> int:
        return len(self.xmin)

    def overlap_mask(self, cube: Cube) -> np.ndarray:
        """Boolean mask of entries whose box intersects ``cube``.

        Delegates to :func:`repro.vector.kernels.bbox_filter_batch`.
        """
        from repro.vector.kernels import bbox_filter_batch

        return bbox_filter_batch(self, cube)


#: The column kinds: everything outside this module that needs a kind's
#: builder, record layout, file names or byte count reads it from here.
#: Adding a kind is one class answering the protocol plus one entry.
KINDS: Dict[str, type] = {
    cls.KIND: cls for cls in (UPointColumn, URealColumn, BBoxColumn)
}


def column_class(kind: str) -> type:
    """The column class of ``kind``; an unknown kind is :class:`InvalidValue`."""
    try:
        return KINDS[kind]
    except KeyError:
        raise InvalidValue(
            f"unknown column kind {kind!r}; expected one of "
            f"{', '.join(sorted(KINDS))}"
        ) from None
