"""The ``mapping`` type constructor: the sliced representation (Section 3.2.4).

A ``Mapping`` assembles units into a complete moving value.  Its
invariants are exactly those of the paper:

(i)  equal unit intervals imply equal units (no duplicates);
(ii) distinct unit intervals are disjoint, and adjacent intervals carry
     distinct unit functions (otherwise the two units could be merged —
     uniqueness and minimality of the representation).

Units are stored ordered by their time intervals, so ``unit_at`` is a
binary search (the first step of the ``atinstant`` algorithm of
Section 5.1) and pairwise scans such as the refinement partition run in
linear time.

The typed subclasses (``MovingReal``, ``MovingPoint``, ...) add the
operations of the abstract model that are intrinsic to a single moving
value; binary operations (distance, lifted predicates, ``inside``) live
in :mod:`repro.ops`.
"""

from __future__ import annotations

import bisect
from typing import (
    Any,
    Callable,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Type,
    TypeVar,
    Union,
)

from repro import obs
from repro.base.instant import Instant, as_time
from repro.base.values import BoolVal, IntVal, RealVal, StringVal
from repro.errors import InvalidValue, UndefinedValue
from repro.ranges.intime import Intime
from repro.ranges.interval import Interval
from repro.ranges.rangeset import RangeSet
from repro.spatial.bbox import Cube
from repro.spatial.line import Line
from repro.spatial.point import Point
from repro.spatial.points import Points
from repro.spatial.region import Region
from repro.temporal.uconst import ConstUnit
from repro.temporal.uline import ULine
from repro.temporal.unit import Unit, UnitInterval, as_interval
from repro.temporal.upoint import UPoint
from repro.temporal.upoints import UPoints
from repro.temporal.ureal import UReal
from repro.temporal.uregion import URegion

V = TypeVar("V")
U = TypeVar("U", bound=Unit)


class Mapping(Generic[V]):
    """A value of type ``mapping(unit)``: the sliced representation."""

    __slots__ = ("_units", "_starts")

    #: Unit class this mapping accepts; None admits any unit type.
    unit_type: Optional[type] = None

    def __init__(self, units: Iterable[Unit[V]] = (), validate: bool = True):
        unit_list = sorted(units, key=lambda u: u.sort_key())
        if validate:
            self._check_invariants(unit_list)
        object.__setattr__(self, "_units", tuple(unit_list))
        object.__setattr__(
            self, "_starts", [u.interval.s for u in unit_list]
        )

    def __setattr__(self, name, value):
        raise AttributeError("mapping values are immutable")

    def __reduce__(self):
        # Copies and unpickles rebuild through the validating
        # constructor, as units do.
        return (type(self), (self._units,))

    def _check_invariants(self, units: List[Unit[V]]) -> None:
        expected = self.unit_type
        for u in units:
            if expected is not None and not isinstance(u, expected):
                raise InvalidValue(
                    f"{type(self).__name__} holds {expected.__name__} units, "
                    f"got {type(u).__name__}"
                )
        for a, b in zip(units, units[1:]):
            if a.interval == b.interval:
                raise InvalidValue(
                    f"two units share the interval {a.interval!r}"
                )
            if not a.interval.disjoint(b.interval):
                raise InvalidValue(
                    f"unit intervals {a.interval!r} and {b.interval!r} overlap"
                )
            if a.interval.adjacent(b.interval) and a.same_function(b):
                raise InvalidValue(
                    "adjacent units carry the same function; merge them for "
                    "the canonical minimal representation"
                )

    @classmethod
    def normalized(cls, units: Iterable[Unit[V]]) -> "Mapping[V]":
        """Build a mapping from arbitrary units, merging mergeable neighbours."""
        unit_list = sorted(units, key=lambda u: u.sort_key())
        merged: List[Unit[V]] = []
        for u in unit_list:
            if (
                merged
                and merged[-1].interval.adjacent(u.interval)
                and merged[-1].same_function(u)
            ):
                merged[-1] = merged[-1].with_interval(
                    merged[-1].interval.merge(u.interval)
                )
            else:
                merged.append(u)
        return cls(merged)

    def appended(self, unit: Unit[V]) -> "Mapping[V]":
        """A new mapping with ``unit`` appended as the latest slice.

        The live-ingest primitive: Section 4's sliced representation
        grows an evolving history by appending unit records, never by
        mutating existing slices, so this returns a *new* immutable
        mapping sharing every existing unit.  Appending past the end
        only needs the boundary pair checked (O(1) amortized, vs the
        full-scan constructor); a unit that sorts before the current
        last slice falls back to full construction + validation.
        Raises :class:`InvalidValue` exactly where the constructor
        would — overlapping intervals, a mergeable adjacent unit, a
        foreign unit type.
        """
        if self._units and unit.sort_key() < self._units[-1].sort_key():
            return type(self)([*self._units, unit])
        self._check_invariants([*self._units[-1:], unit])
        return self._assembled((*self._units, unit), [*self._starts, unit.interval.s])

    @classmethod
    def _assembled(cls, units: tuple, starts: List[Any]) -> "Mapping[V]":
        """A mapping over ``units`` as given, neither sorted nor checked:
        the caller guarantees they are in unit order and satisfy the
        invariants, and ``starts`` holds their start instants."""
        m = cls.__new__(cls)
        object.__setattr__(m, "_units", units)
        object.__setattr__(m, "_starts", starts)
        return m

    # -- container protocol ------------------------------------------------

    @property
    def units(self) -> Sequence[Unit[V]]:
        """The ordered unit tuple (the ``units`` array of Figure 7)."""
        return self._units

    def __iter__(self) -> Iterator[Unit[V]]:
        return iter(self._units)

    def __len__(self) -> int:
        return len(self._units)

    def __bool__(self) -> bool:
        return bool(self._units)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return type(self) is type(other) and self._units == other._units

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._units))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self._units)} units)"

    # -- temporal domain ------------------------------------------------------

    def deftime(self) -> RangeSet[float]:
        """The times at which the moving value is defined (``deftime``)."""
        return RangeSet.normalized([u.interval for u in self._units])

    def present(self, t: Union[Instant, float]) -> bool:
        """True iff the value is defined at instant ``t``."""
        return self.unit_at(t) is not None

    def start_time(self) -> float:
        """Earliest defined instant; raises on the empty mapping."""
        if not self._units:
            raise UndefinedValue("start time of an empty mapping")
        return self._units[0].interval.s

    def end_time(self) -> float:
        """Latest defined instant; raises on the empty mapping."""
        if not self._units:
            raise UndefinedValue("end time of an empty mapping")
        return max(u.interval.e for u in self._units)

    # -- evaluation --------------------------------------------------------------

    def unit_at(self, t: Union[Instant, float]) -> Optional[Unit[V]]:
        """The unit whose interval contains ``t`` (binary search), or None."""
        tt = as_time(t)
        if obs.enabled:
            # Hand-rolled bisect_right so each halving step is counted:
            # the probe count is the Section-5.1 O(log n) claim.
            starts = self._starts
            lo, hi = 0, len(starts)
            probes = 0
            while lo < hi:
                probes += 1
                mid = (lo + hi) >> 1
                if tt < starts[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            idx = lo
            obs.counters.add("mapping.unit_at.calls")
            obs.counters.add("mapping.unit_at.probes", probes)
        else:
            idx = bisect.bisect_right(self._starts, tt)
        # The containing unit is among the last two units starting at or
        # before tt (a unit may start exactly at tt with an open start
        # while its predecessor still contains tt).
        for i in (idx - 1, idx - 2):
            if 0 <= i < len(self._units) and self._units[i].interval.contains(tt):
                return self._units[i]
        return None

    def value_at(self, t: Union[Instant, float]) -> Optional[V]:
        """The moving value at instant ``t`` (the ``atinstant`` kernel)."""
        unit = self.unit_at(t)
        if unit is None:
            return None
        return unit.value_at(t)

    def at_instant(self, t: Union[Instant, float]) -> Optional[Intime[V]]:
        """``atinstant``: the timestamped value at ``t``, or None."""
        v = self.value_at(t)
        if v is None:
            return None
        return Intime(t, v)

    def initial(self) -> Optional[Intime[V]]:
        """``initial``: value at the earliest defined instant."""
        if not self._units:
            return None
        first = self._units[0]
        t = first.interval.s
        if first.interval.lc:
            return Intime(t, first.value_at(t))
        # Open start: the value at the start instant is the limit; evaluate
        # the unit function there (its ι is defined on the closure).
        return Intime(t, first._iota_start(t))

    def final(self) -> Optional[Intime[V]]:
        """``final``: value at the latest defined instant."""
        if not self._units:
            return None
        last = max(self._units, key=lambda u: (u.interval.e, u.interval.rc))
        t = last.interval.e
        if last.interval.rc:
            return Intime(t, last.value_at(t))
        return Intime(t, last._iota_end(t))

    # -- restriction ----------------------------------------------------------------

    def at_periods(self, periods: RangeSet[float]) -> "Mapping[V]":
        """``atperiods``: restrict the moving value to a set of time intervals.

        Both the unit sequence and the range set are time-ordered, so a
        linear merge-scan pairs every unit with exactly the periods it
        can overlap: each step either emits a restriction or retires the
        operand ending first, giving O(n + m) instead of the nested
        O(n · m) loop.
        """
        out: List[Unit[V]] = []
        units = self._units
        ivs = list(periods)
        i = j = 0
        steps = 0
        while i < len(units) and j < len(ivs):
            steps += 1
            u = units[i]
            iv = ivs[j]
            piece = u.restricted(iv)
            if piece is not None:
                out.append(piece)
            # Retire whichever operand ends first.  On equal end points a
            # closed end outlives an open one: the closed end may still
            # meet the other sequence's next interval at that instant.
            if (u.interval.e, u.interval.rc) <= (iv.e, iv.rc):
                i += 1
            else:
                j += 1
        if obs.enabled:
            obs.counters.add("mapping.at_periods.calls")
            obs.counters.add("mapping.at_periods.steps", steps)
        return type(self)(out, validate=False)

    def restricted_to(self, interval) -> "Mapping[V]":
        """Restrict to a single time interval."""
        iv = as_interval(interval)
        out: List[Unit[V]] = []
        for u in self._units:
            piece = u.restricted(iv)
            if piece is not None:
                out.append(piece)
        return type(self)(out, validate=False)

    def map_units(self, fn: Callable[[Unit[V]], Optional[Unit]]) -> List[Unit]:
        """Apply ``fn`` to every unit, collecting non-None results."""
        out = []
        for u in self._units:
            r = fn(u)
            if r is not None:
                out.append(r)
        return out


# ---------------------------------------------------------------------------
# Typed moving values (Table 3 correspondence)
# ---------------------------------------------------------------------------


class MovingBool(Mapping[BoolVal]):
    """``moving(bool)`` as ``mapping(const(bool))``."""

    unit_type = ConstUnit

    @classmethod
    def piecewise(cls, pieces: Iterable[tuple]) -> "MovingBool":
        """Build from ``(interval, bool)`` pairs, merging where possible."""
        return cls.normalized(
            [ConstUnit(iv, BoolVal(bool(v))) for iv, v in pieces]
        )

    def when(self, expected: bool = True) -> RangeSet[float]:
        """The times at which the value equals ``expected`` (``at`` on mbool)."""
        out = [
            u.interval
            for u in self.units
            if isinstance(u, ConstUnit) and bool(u.value.value) == expected
        ]
        return RangeSet.normalized(out)

    def negated(self) -> "MovingBool":
        """Pointwise logical negation."""
        return MovingBool(
            [
                ConstUnit(u.interval, BoolVal(not u.value.value))
                for u in self.units
                if isinstance(u, ConstUnit)
            ],
            validate=False,
        )


class MovingInt(Mapping[IntVal]):
    """``moving(int)`` as ``mapping(const(int))``."""

    unit_type = ConstUnit


class MovingString(Mapping[StringVal]):
    """``moving(string)`` as ``mapping(const(string))``."""

    unit_type = ConstUnit


class MovingReal(Mapping[RealVal]):
    """``moving(real)`` as ``mapping(ureal)``."""

    unit_type = UReal

    def minimum(self) -> float:
        """Global minimum over all units."""
        if not self.units:
            raise UndefinedValue("minimum of an empty moving real")
        return min(u.minimum() for u in self.units)  # type: ignore[union-attr]

    def maximum(self) -> float:
        """Global maximum over all units."""
        if not self.units:
            raise UndefinedValue("maximum of an empty moving real")
        return max(u.maximum() for u in self.units)  # type: ignore[union-attr]

    def atmin(self) -> "MovingReal":
        """``atmin``: restrict to the instants attaining the global minimum."""
        from repro.ops.aggregates import mreal_atmin

        return mreal_atmin(self)

    def atmax(self) -> "MovingReal":
        """``atmax``: restrict to the instants attaining the global maximum."""
        from repro.ops.aggregates import mreal_atmax

        return mreal_atmax(self)

    def plus(self, other: "MovingReal") -> "MovingReal":
        """Pointwise sum over the common deftime (lifted ``+``)."""
        from repro.ops.lifted import mreal_add

        return mreal_add(self, other)

    def minus(self, other: "MovingReal") -> "MovingReal":
        """Pointwise difference over the common deftime (lifted ``−``)."""
        from repro.ops.lifted import mreal_sub

        return mreal_sub(self, other)

    def compare(self, op: str, other: Union["MovingReal", float]) -> "MovingBool":
        """Lifted comparison producing a moving bool."""
        from repro.ops.lifted import mreal_compare

        return mreal_compare(self, op, other)

    def rangevalues(self) -> RangeSet[float]:
        """``rangevalues``: the set of real values assumed, as a range."""
        out = []
        for u in self.units:
            mn, mx = u.range_on_interval()  # type: ignore[union-attr]
            out.append(Interval(mn, mx, True, True))
        return RangeSet.normalized(out)

    def integral(self) -> float:
        """The time integral of the moving real over its deftime."""
        return sum(u.integral() for u in self.units)  # type: ignore[union-attr]

    def time_weighted_average(self) -> float:
        """The average value, weighted by time (``avg`` of the abstract model)."""
        duration = float(self.deftime().total_length())
        if duration == 0.0:
            raise UndefinedValue("average of a moving real with zero duration")
        return self.integral() / duration


class MovingPoint(Mapping[Point]):
    """``moving(point)`` as ``mapping(upoint)``."""

    unit_type = UPoint

    @classmethod
    def from_waypoints(cls, waypoints: Sequence[tuple]) -> "MovingPoint":
        """Build from time-stamped positions ``[(t, (x, y)), ...]``.

        Consecutive samples are joined by linear units; the track is
        defined on the closed span ``[t0, tn]``.  Repeated positions
        produce stationary units.

        One pass, no re-sort and no pairwise re-check: with strictly
        increasing times the legs ``[t0, t1], (t1, t2], …`` are already
        in unit order, disjoint and each adjacent to the next, so the
        only invariant left is minimality — a leg whose ``MPoint``
        equals the previous unit's (a constant-speed straight run, or
        a repeated stationary position) extends that unit, the merge
        :meth:`Mapping.normalized` would make.
        """
        wps = sorted(waypoints, key=lambda w: w[0])
        if len(wps) < 2:
            raise InvalidValue("a waypoint track needs at least two samples")
        units: List[UPoint] = []
        lc = True
        for (t0, p0), (t1, p1) in zip(wps, wps[1:]):
            if t1 <= t0:
                raise InvalidValue("waypoint times must strictly increase")
            leg = UPoint.between(t0, tuple(p0), t1, tuple(p1), lc=lc, rc=True)
            lc = False
            if units and units[-1].motion == leg.motion:
                last = units[-1]
                units[-1] = last.with_interval(last.interval.merge(leg.interval))
            else:
                units.append(leg)
        return cls._assembled(tuple(units), [u.interval.s for u in units])

    def trajectory(self) -> Line:
        """``trajectory``: the line swept in the plane (Section 2).

        Stationary units project to isolated points, which are not part
        of a ``line`` value and are dropped; overlapping passes are
        merged by ``merge-segs``.
        """
        segs = []
        for u in self.units:
            assert isinstance(u, UPoint)
            p0, p1 = u.start_point(), u.end_point()
            if p0 != p1:
                segs.append((p0, p1))
        return Line.from_unmerged(segs)

    def speed(self) -> MovingReal:
        """``speed``: the scalar speed as a moving real (piecewise constant)."""
        units = [
            UReal.constant(u.interval, u.speed)  # type: ignore[union-attr]
            for u in self.units
        ]
        return MovingReal(units, validate=False)

    def distance(self, other: "MovingPoint") -> MovingReal:
        """Lifted Euclidean ``distance`` to another moving point."""
        from repro.ops.distance import mpoint_distance

        return mpoint_distance(self, other)

    def bounding_cube(self) -> Cube:
        """Bounding cube over all units."""
        if not self.units:
            raise UndefinedValue("bounding cube of an empty moving point")
        cube = None
        for u in self.units:
            c = u.bounding_cube()  # type: ignore[union-attr]
            cube = c if cube is None else cube.union(c)
        assert cube is not None
        return cube

    def length(self) -> float:
        """Total travelled distance (sum of unit displacements)."""
        total = 0.0
        for u in self.units:
            assert isinstance(u, UPoint)
            total += u.speed * u.interval.length
        return total


class MovingPoints(Mapping[Points]):
    """``moving(points)`` as ``mapping(upoints)``."""

    unit_type = UPoints

    def count(self) -> "MovingInt":
        """Lifted ``count``: the cardinality over time as a moving int.

        Within a unit the point count is constant (moving points of one
        unit are pairwise distinct on the open interval), so the result
        is one const(int) unit per upoints unit, merged where possible.
        """
        units = [
            ConstUnit(u.interval, IntVal(len(u)))  # type: ignore[arg-type]
            for u in self.units
        ]
        return MovingInt.normalized(units)


class MovingLine(Mapping[Line]):
    """``moving(line)`` as ``mapping(uline)``."""

    unit_type = ULine

    def length(self) -> MovingReal:
        """Lifted ``length``: total line length over time as a moving real."""
        from repro.ops.numeric import mline_length

        return mline_length(self)


class MovingRegion(Mapping[Region]):
    """``moving(region)`` as ``mapping(uregion)``."""

    unit_type = URegion

    def at_instant_region(self, t: Union[Instant, float]) -> Region:
        """The ``atinstant`` algorithm of Section 5.1, returning a region."""
        from repro.ops.interaction import mregion_atinstant

        return mregion_atinstant(self, t)

    def area(self) -> MovingReal:
        """Lifted ``size``: area over time as a moving real."""
        from repro.ops.numeric import mregion_area

        return mregion_area(self)

    def perimeter(self) -> MovingReal:
        """Lifted ``perimeter`` as a moving real."""
        from repro.ops.numeric import mregion_perimeter

        return mregion_perimeter(self)

    def bounding_cube(self) -> Cube:
        """Bounding cube over all units."""
        if not self.units:
            raise UndefinedValue("bounding cube of an empty moving region")
        cube = None
        for u in self.units:
            c = u.bounding_cube()  # type: ignore[union-attr]
            cube = c if cube is None else cube.union(c)
        assert cube is not None
        return cube
