"""The ``const(α)`` unit type constructor (Section 3.2.5).

A constant unit carries a value of α that holds throughout its time
interval: ``ι(v, t) = v``.  It exists primarily to represent the moving
versions of the discretely changing base types (``int``, ``string``,
``bool``), but — as the paper notes — it can be applied to any type
whose values change in discrete steps.
"""

from __future__ import annotations

from typing import Any, Generic, TypeVar

from repro.base.values import BaseValue, wrap
from repro.errors import InvalidValue
from repro.temporal.unit import Unit

V = TypeVar("V")


class ConstUnit(Unit[V], Generic[V]):
    """A unit whose function is the constant function."""

    __slots__ = ("_value",)

    def __init__(self, interval, value: V):
        super().__init__(interval)
        if value is None:
            raise InvalidValue(
                "const units cannot carry the undefined value; omit the unit instead"
            )
        if isinstance(value, BaseValue) and not value.defined:
            raise InvalidValue(
                "const units cannot carry the undefined value; omit the unit instead"
            )
        object.__setattr__(self, "_value", value)

    def _constructor_args(self) -> tuple:
        return (self._interval, self._value)

    @classmethod
    def of(cls, interval, value: Any) -> "ConstUnit":
        """Build a const unit, wrapping plain Python scalars into base values."""
        if isinstance(value, (bool, int, float, str)):
            return cls(interval, wrap(value))
        return cls(interval, value)

    @property
    def value(self) -> V:
        """The constant the unit carries."""
        return self._value

    def unit_function(self) -> V:
        return self._value

    def _iota(self, t: float) -> V:
        return self._value

    def with_interval(self, interval) -> "ConstUnit[V]":
        return ConstUnit(interval, self._value)

    def same_function(self, other) -> bool:
        """Value equality decides function equality for const units.

        The generic key-based comparison is not enough for arbitrary
        payloads (e.g. two distinct regions can share a ``repr``), so
        const units compare the carried values directly.
        """
        return isinstance(other, ConstUnit) and self._value == other._value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstUnit):
            return NotImplemented
        return self.interval == other.interval and self._value == other._value

    def __hash__(self) -> int:
        try:
            return hash(("const", self.interval, self._value))
        except TypeError:
            return hash(("const", self.interval))

    def _function_key(self) -> tuple:
        """Ordering key only — equality goes through :meth:`same_function`."""
        v = self._value
        if isinstance(v, BaseValue):
            return (v._order_key(),)
        try:
            h = hash(v)
        except TypeError:
            h = 0
        return (type(v).__name__, h, repr(v))

    def __repr__(self) -> str:
        return f"ConstUnit({self.interval.pretty()}, {self._value!r})"
