"""The generic temporal unit (Section 3.2.4).

``Unit(S) = Interval(Instant) × S``: a unit couples a time interval with
a representation of a simple function of time.  Subclasses implement the
``ι`` evaluation function (here ``_iota``) and, where degeneracies can
occur at the interval end points (``uline``, ``uregion``), override the
end point evaluators ``_iota_start``/``_iota_end`` with the cleanup
described in Section 3.2.6.
"""

from __future__ import annotations

from typing import Any, Generic, Optional, Tuple, TypeVar, Union

from repro.base.instant import Instant, as_time
from repro.errors import InvalidValue
from repro.ranges.interval import Interval

V = TypeVar("V")

#: Time intervals are intervals over raw float time coordinates.
UnitInterval = Interval[float]


def as_interval(
    i: Union[UnitInterval, Tuple[float, float], Tuple[float, float, bool, bool]],
) -> UnitInterval:
    """Coerce tuples ``(s, e)`` / ``(s, e, lc, rc)`` into a time interval."""
    if isinstance(i, Interval):
        return i
    if len(i) == 2:
        return Interval(as_time(i[0]), as_time(i[1]), True, True)
    s, e, lc, rc = i
    return Interval(as_time(s), as_time(e), bool(lc), bool(rc))


class Unit(Generic[V]):
    """Base class of all temporal units."""

    __slots__ = ("_interval",)

    def __init__(self, interval) -> None:
        _set_interval(self, as_interval(interval))

    def __setattr__(self, name, value):
        raise AttributeError("unit values are immutable")

    def __reduce__(self):
        # Copies and unpickles rebuild through the validating
        # constructor: the default slot-state restore would assign,
        # which __setattr__ refuses.
        return (type(self), self._constructor_args())

    def _constructor_args(self) -> tuple:
        """The arguments that rebuild this unit through ``type(self)``."""
        raise NotImplementedError

    @property
    def interval(self) -> UnitInterval:
        """The unit interval."""
        return self._interval

    # -- evaluation ------------------------------------------------------

    def _iota(self, t: float) -> V:
        """Evaluate the unit function at ``t`` (no interval check)."""
        raise NotImplementedError

    def _iota_start(self, t: float) -> V:
        """ι_s: evaluation at the start instant, with degeneracy cleanup."""
        return self._iota(t)

    def _iota_end(self, t: float) -> V:
        """ι_e: evaluation at the end instant, with degeneracy cleanup."""
        return self._iota(t)

    def value_at(self, t: Union[Instant, float]) -> Optional[V]:
        """The temporal function of this unit applied at ``t``.

        Returns None outside the unit interval; applies the end point
        evaluators at the interval boundary, per the extended semantics
        definition of Section 3.2.6.
        """
        tt = as_time(t)
        iv = self._interval
        if not iv.contains(tt):
            return None
        if iv.is_degenerate:
            return self._iota_start(tt)
        if tt == iv.s:
            return self._iota_start(tt)
        if tt == iv.e:
            return self._iota_end(tt)
        return self._iota(tt)

    def defined_at(self, t: Union[Instant, float]) -> bool:
        """True iff ``t`` lies in the unit interval."""
        return self._interval.contains(as_time(t))

    # -- structure -------------------------------------------------------

    def unit_function(self) -> Any:
        """The second component of the unit pair (the raw function data)."""
        raise NotImplementedError

    def with_interval(self, interval) -> "Unit[V]":
        """A copy of this unit restricted/moved to another time interval.

        Subclasses must ensure the new interval keeps the unit valid;
        restriction to a sub-interval always does.
        """
        raise NotImplementedError

    def restricted(self, interval) -> Optional["Unit[V]"]:
        """Restrict this unit to the overlap with ``interval`` (or None)."""
        common = self._interval.intersection(as_interval(interval))
        if common is None:
            return None
        return self.with_interval(common)

    # -- comparisons -------------------------------------------------------

    def _function_key(self) -> tuple:
        """A hashable, orderable key of the unit function (for canonical order)."""
        raise NotImplementedError

    def sort_key(self) -> tuple:
        """Canonical order of units: by interval, then by function."""
        iv = self._interval
        return (iv.s, not iv.lc, iv.e, iv.rc) + self._function_key()

    def same_function(self, other: "Unit[V]") -> bool:
        """True iff the two units carry the same unit function."""
        return (
            type(self) is type(other)
            and self._function_key() == other._function_key()
        )

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        assert isinstance(other, Unit)
        return (
            self._interval == other._interval
            and self._function_key() == other._function_key()
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._interval, self._function_key()))

    def __lt__(self, other: "Unit[V]") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._interval.pretty()})"


# Unit.__setattr__ refuses every assignment, so constructors write
# through the slot's member descriptor.
_set_interval = Unit.__dict__["_interval"].__set__
