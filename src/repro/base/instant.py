"""The ``instant`` time type (Section 3.2.1).

Time is isomorphic to the real numbers: ``Instant = real``.  The class is
a thin, ordered, immutable wrapper over a float that supports the handful
of arithmetic operations the temporal algebra needs (difference of
instants is a duration in model time units; instant ± duration shifts).
"""

from __future__ import annotations

import math
from typing import Any, Optional, Union

from repro.errors import InvalidValue, TypeMismatch, UndefinedValue

#: Sentinel for the undefined instant.
UNDEFINED = None


class Instant:
    """A point on the time axis, or the undefined instant ⊥."""

    __slots__ = ("_t",)

    def __init__(self, t: Optional[Union[int, float]] = UNDEFINED):
        if t is not UNDEFINED:
            if isinstance(t, bool) or not isinstance(t, (int, float)):
                raise TypeMismatch(f"instant cannot hold {t!r}")
            t = float(t)
            if not math.isfinite(t):
                raise TypeMismatch("instant must be a finite real number")
        object.__setattr__(self, "_t", t)

    @property
    def defined(self) -> bool:
        """True iff this is not the undefined instant."""
        return self._t is not UNDEFINED

    @property
    def value(self) -> float:
        """The time coordinate; raises :class:`UndefinedValue` on ⊥."""
        if self._t is UNDEFINED:
            raise UndefinedValue("instant is undefined")
        return self._t

    def __setattr__(self, name: str, value: Any):
        raise AttributeError("Instant values are immutable")

    def __float__(self) -> float:
        return self.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Instant):
            return self._t == other._t
        if isinstance(other, (int, float)) and not isinstance(other, bool):
            return self._t == float(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("instant", self._t))

    def _key(self) -> tuple:
        if self._t is UNDEFINED:
            return (0, 0.0)
        return (1, self._t)

    def __lt__(self, other: "Instant") -> bool:
        return self._key() < _as_instant(other)._key()

    def __le__(self, other: "Instant") -> bool:
        return self._key() <= _as_instant(other)._key()

    def __gt__(self, other: "Instant") -> bool:
        return self._key() > _as_instant(other)._key()

    def __ge__(self, other: "Instant") -> bool:
        return self._key() >= _as_instant(other)._key()

    def __add__(self, duration: Union[int, float]) -> "Instant":
        return Instant(self.value + float(duration))

    def __radd__(self, duration: Union[int, float]) -> "Instant":
        return self.__add__(duration)

    def __sub__(self, other: Union["Instant", int, float]) -> Union["Instant", float]:
        if isinstance(other, Instant):
            return self.value - other.value
        return Instant(self.value - float(other))

    def __repr__(self) -> str:
        if self._t is UNDEFINED:
            return "Instant(⊥)"
        return f"Instant({self._t:g})"


def _as_instant(x: Union[Instant, int, float]) -> Instant:
    """Coerce a number to an :class:`Instant` (identity on instants)."""
    if isinstance(x, Instant):
        return x
    return Instant(x)


def as_time(x: Union[Instant, int, float]) -> float:
    """Return the raw float time coordinate of ``x``.

    ``±inf`` are times (before and after every unit); NaN is none —
    every comparison with it is False, so it would fall inside any
    interval — and raises :class:`InvalidValue`.
    """
    if isinstance(x, Instant):
        return x.value
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeMismatch(f"not a time value: {x!r}")
    t = float(x)
    if math.isnan(t):
        raise InvalidValue("time must not be NaN")
    return t
