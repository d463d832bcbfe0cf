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

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import InvalidValue
from repro.ranges.interval import Interval
from repro.spatial.bbox import Cube
from repro.storage.darray import DatabaseArray
from repro.temporal.mapping import Mapping, MovingPoint, MovingReal
from repro.temporal.upoint import UPoint
from repro.temporal.ureal import UReal


def _as_offsets(counts: List[int]) -> np.ndarray:
    """Cumulative unit counts → CSR offsets (the stacked root records)."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


class UnitColumn:
    """Shared interval columns: ``starts``/``ends``/``lc``/``rc`` + offsets."""

    # __weakref__ lets the column cache and the shared-memory segment
    # registry key off column/owner identity without keeping it alive.
    # ``source`` identifies the persistent store a memmap-backed column
    # was opened from (:mod:`repro.vector.store`), or None for columns
    # that live purely in process memory.
    __slots__ = ("offsets", "starts", "ends", "lc", "rc", "source", "__weakref__")

    #: Per-subclass unit fields beyond the shared interval quadruple;
    #: in constructor order, so splicing can rebuild via ``cls(...)``.
    EXTRA_FIELDS: Tuple[str, ...] = ()

    def __init__(
        self,
        offsets: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        lc: np.ndarray,
        rc: np.ndarray,
    ):
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.starts = np.ascontiguousarray(starts, dtype=np.float64)
        self.ends = np.ascontiguousarray(ends, dtype=np.float64)
        self.lc = np.ascontiguousarray(lc, dtype=np.bool_)
        self.rc = np.ascontiguousarray(rc, dtype=np.bool_)
        self.source = None
        if self.offsets.ndim != 1 or len(self.offsets) == 0:
            raise InvalidValue("offsets must be a 1-D array of length n+1")
        if int(self.offsets[-1]) != len(self.starts):
            raise InvalidValue("offsets do not cover the unit arrays")

    @staticmethod
    def _check_offsets(offsets: np.ndarray, n_units: int) -> np.ndarray:
        """Validate a CSR offsets array against ``n_units`` unit records."""
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or len(offsets) == 0:
            raise InvalidValue("offsets must be a 1-D array of length n+1")
        if int(offsets[-1]) != n_units:
            raise InvalidValue("offsets do not cover the unit arrays")
        return offsets

    @property
    def n_objects(self) -> int:
        """Number of objects (root records) in the column."""
        return len(self.offsets) - 1

    @property
    def n_units(self) -> int:
        """Total number of units across all objects."""
        return len(self.starts)

    def units_of(self, i: int) -> slice:
        """The slice of the unit arrays belonging to object ``i``."""
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def __len__(self) -> int:
        return self.n_objects

    def extended(self, mappings: Sequence[Mapping], changed: Sequence[int]):
        """Splice an updated fleet into a new column without retranscribing.

        ``mappings`` is the fleet's current contents and ``changed`` the
        object indices whose mappings differ from (or did not exist in)
        this column's build input.  Only the changed objects go through
        the Python-level ``from_mappings`` transcription; every
        unchanged object's unit rows are copied as whole array slices,
        so the result is bit-identical to ``from_mappings(mappings)`` at
        a cost of O(changed units) transcription + one memcopy.

        Raises :class:`InvalidValue` when ``changed`` is inconsistent
        with the new fleet (an index out of range, an appended object
        not marked changed, a shrunk fleet) — callers degrade to a full
        rebuild.
        """
        n_new = len(mappings)
        n_old = self.n_objects
        if n_new < n_old:
            raise InvalidValue("column extension cannot shrink the fleet")
        changed_sorted = sorted({int(i) for i in changed})
        changed_set = set(changed_sorted)
        if changed_sorted and (
            changed_sorted[0] < 0 or changed_sorted[-1] >= n_new
        ):
            raise InvalidValue("changed object index out of range")
        for i in range(n_old, n_new):
            if i not in changed_set:
                raise InvalidValue(
                    f"appended object {i} missing from the change set"
                )
        cls = type(self)
        sub = cls.from_mappings([mappings[i] for i in changed_sorted])
        rank = {obj: k for k, obj in enumerate(changed_sorted)}

        counts = np.empty(n_new, dtype=np.int64)
        old_counts = np.diff(self.offsets)
        sub_counts = np.diff(sub.offsets)
        for i in range(n_new):
            k = rank.get(i)
            counts[i] = sub_counts[k] if k is not None else old_counts[i]
        offsets = _as_offsets(list(counts))

        # Maximal runs of consecutive same-source objects become single
        # array-slice pieces; a pure tail append is just two pieces.
        pieces: List[Tuple[UnitColumn, slice]] = []
        i = 0
        while i < n_new:
            src: UnitColumn = sub if i in changed_set else self
            j = i
            while j < n_new and (j in changed_set) is (src is sub):
                j += 1
            if src is sub:
                lo, hi = rank[i], rank[j - 1] + 1
                pieces.append((sub, slice(int(sub.offsets[lo]),
                                          int(sub.offsets[hi]))))
            else:
                pieces.append((self, slice(int(self.offsets[i]),
                                           int(self.offsets[j]))))
            i = j

        fields = ("starts", "ends", "lc", "rc") + cls.EXTRA_FIELDS
        spliced = [
            np.concatenate([getattr(src, f)[sl] for src, sl in pieces])
            if pieces else getattr(self, f)[:0]
            for f in fields
        ]
        return cls(offsets, *spliced)


class UPointColumn(UnitColumn):
    """Columnar ``mapping(upoint)`` fleet: motion coefficients per unit.

    The per-unit fields mirror the ``upoint`` unit record of Section 4.2
    — interval ``(s, e, lc, rc)`` plus the MPoint quadruple
    ``(x0, x1, y0, y1)`` with position ``(x0 + x1·t, y0 + y1·t)``.
    """

    __slots__ = ("x0", "x1", "y0", "y1")

    #: struct layout of one unit record in a database array.
    UNIT_FORMAT = "<dd??dddd"
    #: numpy layout with identical bytes (bulk pack/unpack bridge).
    UNIT_DTYPE = np.dtype(
        [
            ("s", "<f8"),
            ("e", "<f8"),
            ("lc", "?"),
            ("rc", "?"),
            ("x0", "<f8"),
            ("x1", "<f8"),
            ("y0", "<f8"),
            ("y1", "<f8"),
        ]
    )
    #: struct layout of one root record (a unit-count offset).
    ROOT_FORMAT = "<q"

    EXTRA_FIELDS = ("x0", "x1", "y0", "y1")

    def __init__(self, offsets, starts, ends, lc, rc, x0, x1, y0, y1):
        super().__init__(offsets, starts, ends, lc, rc)
        self.x0 = np.ascontiguousarray(x0, dtype=np.float64)
        self.x1 = np.ascontiguousarray(x1, dtype=np.float64)
        self.y0 = np.ascontiguousarray(y0, dtype=np.float64)
        self.y1 = np.ascontiguousarray(y1, dtype=np.float64)

    @classmethod
    def from_mappings(cls, mappings: Sequence[MovingPoint]) -> "UPointColumn":
        """Transcribe a fleet of moving points into one column."""
        counts: List[int] = []
        rows: List[Tuple[float, float, bool, bool, float, float, float, float]] = []
        for m in mappings:
            if not isinstance(m, Mapping):
                raise InvalidValue(
                    f"UPointColumn holds mappings, got {type(m).__name__}"
                )
            for u in m.units:
                if not isinstance(u, UPoint):
                    raise InvalidValue(
                        f"UPointColumn holds upoint units, got {type(u).__name__}"
                    )
                iv, mo = u.interval, u.motion
                rows.append(
                    (iv.s, iv.e, iv.lc, iv.rc, mo.x0, mo.x1, mo.y0, mo.y1)
                )
            counts.append(len(m.units))
        rec = np.array(rows, dtype=cls.UNIT_DTYPE) if rows else np.empty(
            0, dtype=cls.UNIT_DTYPE
        )
        return cls(
            _as_offsets(counts),
            rec["s"], rec["e"], rec["lc"], rec["rc"],
            rec["x0"], rec["x1"], rec["y0"], rec["y1"],
        )

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
        constructors reject (``s > e``, a degenerate interval not closed
        on both sides, non-finite coefficients) is the same
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
        if np.any(s > e):
            raise InvalidValue("stored unit interval start exceeds its end")
        if np.any((s == e) & ~(rec["lc"] & rec["rc"])):
            raise InvalidValue("a degenerate interval must be closed on both sides")
        if not all(np.isfinite(rec[f]).all() for f in cls.EXTRA_FIELDS):
            raise InvalidValue("MPoint coefficients must be finite")
        owner = np.repeat(np.arange(len(arrays)), lens)
        if np.any((s[1:] < s[:-1]) & (owner[1:] == owner[:-1])):
            # A mapping sorts its units on construction; so does its column.
            rec = rec[np.lexsort((rec["rc"], e, ~rec["lc"], s, owner))]
        return cls.from_records(_as_offsets(counts), rec)

    def to_mappings(self) -> List[MovingPoint]:
        """Materialize the column back into ``MovingPoint`` objects."""
        from repro.temporal.mseg import MPoint

        out: List[MovingPoint] = []
        for i in range(self.n_objects):
            sl = self.units_of(i)
            units = [
                UPoint(
                    Interval(
                        float(self.starts[j]), float(self.ends[j]),
                        bool(self.lc[j]), bool(self.rc[j]),
                    ),
                    MPoint(
                        float(self.x0[j]), float(self.x1[j]),
                        float(self.y0[j]), float(self.y1[j]),
                    ),
                )
                for j in range(sl.start, sl.stop)
            ]
            # Units come back in CSR order, which is the validated unit
            # order they were transcribed in; revalidating every
            # round-trip would defeat the batch backend's purpose.
            out.append(MovingPoint(units, validate=False))  # modlint: disable=MOD002 see comment above
        return out

    def _unit_records(self) -> np.ndarray:
        rec = np.empty(self.n_units, dtype=self.UNIT_DTYPE)
        rec["s"], rec["e"] = self.starts, self.ends
        rec["lc"], rec["rc"] = self.lc, self.rc
        rec["x0"], rec["x1"] = self.x0, self.x1
        rec["y0"], rec["y1"] = self.y0, self.y1
        return rec

    @classmethod
    def from_records(
        cls, offsets: np.ndarray, rec: np.ndarray
    ) -> "UPointColumn":
        """Zero-copy view over structured unit records (e.g. a memmap).

        Unlike the constructor, the strided per-field views of ``rec``
        are kept as-is — no contiguous copy — so a memory-mapped file
        stays lazily paged and cold open cost is the mmap, not a
        column-width materialization.  The batch kernels only ever do
        comparisons, reductions and fancy indexing, all of which accept
        strided inputs.
        """
        col = object.__new__(cls)
        col.offsets = cls._check_offsets(offsets, len(rec))
        col.starts, col.ends = rec["s"], rec["e"]
        col.lc, col.rc = rec["lc"], rec["rc"]
        col.x0, col.x1 = rec["x0"], rec["x1"]
        col.y0, col.y1 = rec["y0"], rec["y1"]
        col.source = None
        return col

    def to_darrays(self) -> Tuple[DatabaseArray, DatabaseArray]:
        """Serialize as Section-4 database arrays ``(root, units)``.

        ``root`` holds the offsets array (one record per object plus the
        final sentinel); ``units`` holds the fixed-size unit records.
        Packing is a single buffer copy — the numpy record layout is
        byte-identical to the struct format.
        """
        root = DatabaseArray(self.ROOT_FORMAT)
        root.extend_packed(self.offsets.astype("<i8").tobytes(), len(self.offsets))
        units = DatabaseArray(self.UNIT_FORMAT)
        units.extend_packed(self._unit_records().tobytes(), self.n_units)
        return root, units

    @classmethod
    def from_darrays(
        cls, root: DatabaseArray, units: DatabaseArray
    ) -> "UPointColumn":
        """Rebuild a column from database arrays written by :meth:`to_darrays`."""
        offsets = np.frombuffer(root.payload, dtype="<i8").astype(np.int64)
        rec = np.frombuffer(units.payload, dtype=cls.UNIT_DTYPE)
        return cls(
            offsets,
            rec["s"], rec["e"], rec["lc"], rec["rc"],
            rec["x0"], rec["x1"], rec["y0"], rec["y1"],
        )


class URealColumn(UnitColumn):
    """Columnar ``mapping(ureal)`` fleet: ``(a, b, c, r)`` per unit."""

    __slots__ = ("a", "b", "c", "r")

    UNIT_FORMAT = "<dd??ddd?"
    UNIT_DTYPE = np.dtype(
        [
            ("s", "<f8"),
            ("e", "<f8"),
            ("lc", "?"),
            ("rc", "?"),
            ("a", "<f8"),
            ("b", "<f8"),
            ("c", "<f8"),
            ("r", "?"),
        ]
    )
    ROOT_FORMAT = "<q"

    EXTRA_FIELDS = ("a", "b", "c", "r")

    def __init__(self, offsets, starts, ends, lc, rc, a, b, c, r):
        super().__init__(offsets, starts, ends, lc, rc)
        self.a = np.ascontiguousarray(a, dtype=np.float64)
        self.b = np.ascontiguousarray(b, dtype=np.float64)
        self.c = np.ascontiguousarray(c, dtype=np.float64)
        self.r = np.ascontiguousarray(r, dtype=np.bool_)

    @classmethod
    def from_mappings(cls, mappings: Sequence[MovingReal]) -> "URealColumn":
        """Transcribe a fleet of moving reals into one column."""
        counts: List[int] = []
        rows: List[tuple] = []
        for m in mappings:
            if not isinstance(m, Mapping):
                raise InvalidValue(
                    f"URealColumn holds mappings, got {type(m).__name__}"
                )
            for u in m.units:
                if not isinstance(u, UReal):
                    raise InvalidValue(
                        f"URealColumn holds ureal units, got {type(u).__name__}"
                    )
                iv = u.interval
                a, b, c, r = u.coefficients
                rows.append((iv.s, iv.e, iv.lc, iv.rc, a, b, c, r))
            counts.append(len(m.units))
        rec = np.array(rows, dtype=cls.UNIT_DTYPE) if rows else np.empty(
            0, dtype=cls.UNIT_DTYPE
        )
        return cls(
            _as_offsets(counts),
            rec["s"], rec["e"], rec["lc"], rec["rc"],
            rec["a"], rec["b"], rec["c"], rec["r"],
        )

    def to_mappings(self) -> List[MovingReal]:
        """Materialize the column back into ``MovingReal`` objects."""
        out: List[MovingReal] = []
        for i in range(self.n_objects):
            sl = self.units_of(i)
            units = [
                UReal(
                    Interval(
                        float(self.starts[j]), float(self.ends[j]),
                        bool(self.lc[j]), bool(self.rc[j]),
                    ),
                    float(self.a[j]), float(self.b[j]), float(self.c[j]),
                    bool(self.r[j]),
                )
                for j in range(sl.start, sl.stop)
            ]
            # Same as UPointColumn.to_mappings: CSR order preserves the
            # validated unit order of the source mappings.
            out.append(MovingReal(units, validate=False))  # modlint: disable=MOD002 see comment above
        return out

    def _unit_records(self) -> np.ndarray:
        rec = np.empty(self.n_units, dtype=self.UNIT_DTYPE)
        rec["s"], rec["e"] = self.starts, self.ends
        rec["lc"], rec["rc"] = self.lc, self.rc
        rec["a"], rec["b"], rec["c"], rec["r"] = self.a, self.b, self.c, self.r
        return rec

    @classmethod
    def from_records(
        cls, offsets: np.ndarray, rec: np.ndarray
    ) -> "URealColumn":
        """Zero-copy view over structured unit records (e.g. a memmap).

        See :meth:`UPointColumn.from_records` for why the strided field
        views are deliberately not copied.
        """
        col = object.__new__(cls)
        col.offsets = cls._check_offsets(offsets, len(rec))
        col.starts, col.ends = rec["s"], rec["e"]
        col.lc, col.rc = rec["lc"], rec["rc"]
        col.a, col.b, col.c, col.r = rec["a"], rec["b"], rec["c"], rec["r"]
        col.source = None
        return col

    def to_darrays(self) -> Tuple[DatabaseArray, DatabaseArray]:
        """Serialize as Section-4 database arrays ``(root, units)``."""
        root = DatabaseArray(self.ROOT_FORMAT)
        root.extend_packed(self.offsets.astype("<i8").tobytes(), len(self.offsets))
        units = DatabaseArray(self.UNIT_FORMAT)
        units.extend_packed(self._unit_records().tobytes(), self.n_units)
        return root, units

    @classmethod
    def from_darrays(
        cls, root: DatabaseArray, units: DatabaseArray
    ) -> "URealColumn":
        """Rebuild a column from database arrays written by :meth:`to_darrays`."""
        offsets = np.frombuffer(root.payload, dtype="<i8").astype(np.int64)
        rec = np.frombuffer(units.payload, dtype=cls.UNIT_DTYPE)
        return cls(
            offsets,
            rec["s"], rec["e"], rec["lc"], rec["rc"],
            rec["a"], rec["b"], rec["c"], rec["r"],
        )


class BBoxColumn:
    """Columnar bounding cubes: one ``(x, y, t)`` box per entry.

    Entries carry opaque ``keys`` (object identities).  Built either one
    cube per *object* (whole-trajectory boxes, the coarse filter) or one
    cube per *unit* (the tight per-slice boxes the Section-4.2 unit
    records store, exactly what the R-tree indexes).
    """

    __slots__ = (
        "_keys", "_keys_i64", "xmin", "ymin", "tmin", "xmax", "ymax", "tmax",
        "source", "__weakref__",
    )

    #: struct layout of one persisted bbox record: integer key + cube.
    RECORD_FORMAT = "<qdddddd"
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

    def __init__(self, keys, xmin, ymin, tmin, xmax, ymax, tmax):
        self._keys: Optional[List[object]] = list(keys)
        self._keys_i64: Optional[np.ndarray] = None
        self.xmin = np.ascontiguousarray(xmin, dtype=np.float64)
        self.ymin = np.ascontiguousarray(ymin, dtype=np.float64)
        self.tmin = np.ascontiguousarray(tmin, dtype=np.float64)
        self.xmax = np.ascontiguousarray(xmax, dtype=np.float64)
        self.ymax = np.ascontiguousarray(ymax, dtype=np.float64)
        self.tmax = np.ascontiguousarray(tmax, dtype=np.float64)
        self.source = None
        if len(self._keys) != len(self.xmin):
            raise InvalidValue("BBoxColumn keys and coordinates disagree in length")

    @property
    def keys(self) -> List[object]:
        """Entry keys as a list (materialized lazily for record-backed
        columns, where only the int64 array exists until asked for)."""
        if self._keys is None:
            assert self._keys_i64 is not None
            self._keys = self._keys_i64.tolist()
        return self._keys

    def keys_int64(self) -> np.ndarray:
        """Entry keys as an int64 array, cached on the column.

        For record-backed columns this is a zero-copy view of the
        persisted records — O(1), the fast path shard pruning relies on.
        Raises :class:`InvalidValue` for columns with non-integer keys.
        """
        if self._keys_i64 is None:
            assert self._keys is not None
            try:
                self._keys_i64 = np.asarray(
                    [int(k) for k in self._keys], dtype=np.int64
                )
            except (TypeError, ValueError) as exc:
                raise InvalidValue(
                    "BBoxColumn with non-integer keys has no int64 view"
                ) from exc
        return self._keys_i64

    @classmethod
    def from_cubes(cls, entries: Sequence[Tuple[object, Cube]]) -> "BBoxColumn":
        """Build from ``(key, cube)`` pairs."""
        keys = [k for k, _c in entries]
        cubes = [c for _k, c in entries]
        return cls(
            keys,
            [c.xmin for c in cubes],
            [c.ymin for c in cubes],
            [c.tmin for c in cubes],
            [c.xmax for c in cubes],
            [c.ymax for c in cubes],
            [c.tmax for c in cubes],
        )

    @classmethod
    def from_mappings(
        cls,
        mappings: Sequence[Union[MovingPoint, Mapping]],
        keys: Optional[Sequence[object]] = None,
        per_unit: bool = False,
        upoint: Optional[UPointColumn] = None,
    ) -> "BBoxColumn":
        """One box per object (default) or per unit (``per_unit=True``).

        Empty mappings contribute no entry (they have no bounding cube);
        their keys simply never appear in filter results, matching the
        scalar path, which skips empty operands.

        Per-object boxes of moving points come from their unit column
        (:meth:`from_upoint`) — ``upoint`` when the caller already holds
        it, one transcription otherwise — instead of one
        ``bounding_cube()`` walk per object.

        Raises :class:`InvalidValue` for members that are not sliced
        mappings, like the other column builders, so backend dispatchers
        can route mixed fleets through the counted scalar fallback.
        """
        if not per_unit:
            if upoint is None and all(
                isinstance(m, MovingPoint) for m in mappings
            ):
                upoint = UPointColumn.from_mappings(mappings)
            if upoint is not None:
                return cls.from_upoint(upoint, keys)
        if keys is None:
            keys = list(range(len(mappings)))
        entries: List[Tuple[object, Cube]] = []
        for key, m in zip(keys, mappings):
            if not isinstance(m, Mapping) or not hasattr(m, "bounding_cube"):
                raise InvalidValue(
                    f"BBoxColumn holds mappings with bounding cubes, "
                    f"got {type(m).__name__}"
                )
            if not m.units:
                continue
            if per_unit:
                for u in m.units:
                    entries.append((key, u.bounding_cube()))
            else:
                entries.append((key, m.bounding_cube()))
        return cls.from_cubes(entries)

    @classmethod
    def from_upoint(
        cls, col: UPointColumn, keys: Optional[Sequence[object]] = None
    ) -> "BBoxColumn":
        """One box per object of ``col`` that has units, from its arrays.

        Each unit's end points are ``x0 + x1·s`` and ``x0 + x1·e`` — the
        two correctly rounded operations ``MPoint.at`` performs — and an
        object's box is the min/max over its CSR segment, so every field
        equals ``Mapping.bounding_cube()``'s.  Objects without units
        contribute no entry, as in :meth:`from_mappings`; ``keys[i]`` is
        object ``i``'s key (default: its position).
        """
        lanes = np.flatnonzero(np.diff(col.offsets))
        if lanes.size == 0:
            return cls([], *([np.empty(0)] * 6))
        # Empty objects own no unit rows, so the segment starts of the
        # non-empty ones are consecutive cuts of the unit arrays.
        cuts = col.offsets[lanes]
        xa, xb = col.x0 + col.x1 * col.starts, col.x0 + col.x1 * col.ends
        ya, yb = col.y0 + col.y1 * col.starts, col.y0 + col.y1 * col.ends
        lo, hi = np.minimum.reduceat, np.maximum.reduceat
        out = cls(
            lanes.tolist() if keys is None else [keys[i] for i in lanes],
            lo(np.minimum(xa, xb), cuts), lo(np.minimum(ya, yb), cuts),
            lo(col.starts, cuts),
            hi(np.maximum(xa, xb), cuts), hi(np.maximum(ya, yb), cuts),
            hi(col.ends, cuts),
        )
        if keys is None:
            out._keys_i64 = lanes
        return out

    def _records(self) -> np.ndarray:
        """Structured ``RECORD_DTYPE`` array for persistence.

        Only integer keys (the fleet positions the default builders
        assign) can be persisted; columns with opaque keys stay
        in-memory only.
        """
        rec = np.empty(len(self), dtype=self.RECORD_DTYPE)
        try:
            rec["key"] = self.keys_int64()
        except InvalidValue as exc:
            raise InvalidValue(
                "BBoxColumn with non-integer keys cannot be persisted"
            ) from exc
        rec["xmin"], rec["ymin"], rec["tmin"] = self.xmin, self.ymin, self.tmin
        rec["xmax"], rec["ymax"], rec["tmax"] = self.xmax, self.ymax, self.tmax
        return rec

    @classmethod
    def from_records(cls, rec: np.ndarray) -> "BBoxColumn":
        """Zero-copy view over structured bbox records (e.g. a memmap).

        Every field — keys included — stays a strided view of ``rec``;
        the Python key *list* materializes only if :attr:`keys` is
        actually read, so a cold mmap load costs O(1), not O(entries).
        """
        col = object.__new__(cls)
        col._keys = None
        col._keys_i64 = rec["key"]
        col.xmin, col.ymin, col.tmin = rec["xmin"], rec["ymin"], rec["tmin"]
        col.xmax, col.ymax, col.tmax = rec["xmax"], rec["ymax"], rec["tmax"]
        col.source = None
        return col

    def __len__(self) -> int:
        return len(self.xmin)

    def extended(
        self, mappings: Sequence[Mapping], changed: Sequence[int]
    ) -> "BBoxColumn":
        """Splice an updated fleet into a new per-object bbox column.

        Mirror of :meth:`UnitColumn.extended` for the default
        ``from_mappings(mappings)`` build (one box per object, keys =
        fleet positions, empty mappings skipped): only changed objects
        have their bounding cubes recomputed; everything else is merged
        back in key order.  Raises :class:`InvalidValue` for columns
        whose keys are not the ascending integer positions the default
        builder assigns (per-unit or custom-keyed columns), or when
        ``changed`` is inconsistent with the fleet — callers degrade to
        a full rebuild.
        """
        n_new = len(mappings)
        try:
            old_keys = [int(k) for k in self.keys]
        except (TypeError, ValueError) as exc:
            raise InvalidValue(
                "BBoxColumn with non-integer keys cannot be extended"
            ) from exc
        if old_keys != sorted(set(old_keys)):
            raise InvalidValue(
                "BBoxColumn extension needs ascending unique keys "
                "(the default per-object build)"
            )
        changed_sorted = sorted({int(i) for i in changed})
        changed_set = set(changed_sorted)
        if changed_sorted and (
            changed_sorted[0] < 0 or changed_sorted[-1] >= n_new
        ):
            raise InvalidValue("changed object index out of range")
        if any(k >= n_new for k in old_keys):
            raise InvalidValue("column extension cannot shrink the fleet")
        sub = BBoxColumn.from_mappings(
            [mappings[i] for i in changed_sorted], keys=changed_sorted
        )
        keep = [j for j, k in enumerate(old_keys) if k not in changed_set]
        merged_keys = np.concatenate([
            np.asarray([old_keys[j] for j in keep], dtype=np.int64),
            np.asarray([int(k) for k in sub.keys], dtype=np.int64),
        ])
        order = np.argsort(merged_keys, kind="stable")
        fields = ("xmin", "ymin", "tmin", "xmax", "ymax", "tmax")
        merged = [
            np.concatenate(
                [getattr(self, f)[keep], getattr(sub, f)]
            )[order]
            for f in fields
        ]
        return BBoxColumn(merged_keys[order].tolist(), *merged)

    def overlap_mask(self, cube: Cube) -> np.ndarray:
        """Boolean mask of entries whose box intersects ``cube``.

        Delegates to :func:`repro.vector.kernels.bbox_filter_batch`.
        """
        from repro.vector.kernels import bbox_filter_batch

        return bbox_filter_batch(self, cube)

    def candidates(self, cube: Cube) -> List[object]:
        """Keys of entries whose box intersects ``cube`` (with duplicates
        collapsed, preserving first-seen order)."""
        seen = set()
        out: List[object] = []
        for key, hit in zip(self.keys, self.overlap_mask(cube)):
            if hit and key not in seen:
                seen.add(key)
                out.append(key)
        return out
