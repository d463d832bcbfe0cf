"""Intervals over a totally ordered domain (Section 3.2.3).

An interval is the quadruple ``(s, e, lc, rc)`` of its end points and two
closure flags, with ``s <= e`` and the convention that a degenerate
interval (``s == e``) is closed on both sides.  The module implements the
paper's ``disjoint`` and ``adjacent`` predicates verbatim, including the
discrete-domain clause of *r-adjacent* (``[1,3]`` and ``[4,6]`` are
adjacent over ``int`` because no integer lies strictly between 3 and 4).

Interval end points are raw Python comparables (floats for time, ints or
strings for the other range domains); wrapping them in value classes
would buy nothing at this level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generic, Iterator, Optional, TypeVar

from repro.errors import InvalidValue

T = TypeVar("T")


def _is_discrete(value: Any) -> bool:
    """True if the value lives in a discrete domain (int, str)."""
    return isinstance(value, int) and not isinstance(value, bool) or isinstance(
        value, str
    )


def _has_gap(a: Any, b: Any) -> bool:
    """True if some domain value lies strictly between ``a`` and ``b``.

    For dense domains (floats) any two distinct values have a gap.  For
    the integers, ``a`` and ``a + 1`` have none.  Strings form a dense
    order under the usual lexicographic comparison (between any two
    distinct strings another string exists), so they are treated as
    dense as well.
    """
    if isinstance(a, int) and not isinstance(a, bool):
        return b - a > 1
    return a != b


@dataclass(frozen=True, init=False)
class Interval(Generic[T]):
    """An interval ``(s, e, lc, rc)`` over a totally ordered domain.

    A slotted record (see DESIGN.md, "Value records"): the dataclass
    generates eq, hash and the frozen ``__setattr__``; the one
    constructor validates and sets the slots.
    """

    __slots__ = ("s", "e", "lc", "rc")

    s: T
    e: T
    lc: bool
    rc: bool

    def __init__(self, s: T, e: T, lc: bool = True, rc: bool = True) -> None:
        if not s <= e:  # also refuses a NaN bound
            raise InvalidValue(f"interval start {s!r} exceeds end {e!r}")
        if s == e and not (lc and rc):
            raise InvalidValue("a degenerate interval must be closed on both sides")
        _set_s(self, s)
        _set_e(self, e)
        _set_lc(self, lc)
        _set_rc(self, rc)

    def __reduce__(self):
        return (type(self), (self.s, self.e, self.lc, self.rc))

    # -- classification -------------------------------------------------

    @property
    def is_degenerate(self) -> bool:
        """True for a single-value interval ``[v, v]``."""
        return self.s == self.e

    def contains(self, v: T) -> bool:
        """True iff the domain value ``v`` belongs to this interval."""
        if not self.s <= v <= self.e:  # also refuses NaN
            return False
        if v == self.s and not self.lc:
            return False
        if v == self.e and not self.rc:
            return False
        return True

    def contains_open(self, v: T) -> bool:
        """True iff ``v`` lies in the open part of this interval.

        For a degenerate interval the open part is taken to be the single
        value itself (the paper treats point intervals separately; this
        convention keeps unit-constraint checks meaningful for them).
        """
        if self.is_degenerate:
            return v == self.s
        return self.s < v < self.e

    def contains_interval(self, other: "Interval[T]") -> bool:
        """True iff ``other`` is a subset of this interval."""
        if other.s < self.s or other.e > self.e:
            return False
        if other.s == self.s and other.lc and not self.lc:
            return False
        if other.e == self.e and other.rc and not self.rc:
            return False
        return True

    # -- the paper's predicates -----------------------------------------

    def r_disjoint(self, other: "Interval[T]") -> bool:
        """True iff this interval ends before ``other`` begins."""
        return self.e < other.s or (
            self.e == other.s and not (self.rc and other.lc)
        )

    def disjoint(self, other: "Interval[T]") -> bool:
        """True iff the two intervals share no domain value."""
        return self.r_disjoint(other) or other.r_disjoint(self)

    def r_adjacent(self, other: "Interval[T]") -> bool:
        """True iff ``other`` follows this interval with no gap between."""
        if not self.disjoint(other):
            return False
        if self.e == other.s and (self.rc or other.lc):
            return True
        # Discrete-domain clause: closed ends with no domain value between.
        if self.e < other.s and self.rc and other.lc and not _has_gap(self.e, other.s):
            return True
        return False

    def adjacent(self, other: "Interval[T]") -> bool:
        """True iff the intervals are disjoint but touch with no gap."""
        return self.r_adjacent(other) or other.r_adjacent(self)

    # -- constructive operations ----------------------------------------

    def intersects(self, other: "Interval[T]") -> bool:
        """True iff the intervals share at least one domain value."""
        return not self.disjoint(other)

    def intersection(self, other: "Interval[T]") -> Optional["Interval[T]"]:
        """Return the common sub-interval, or None when disjoint."""
        if self.disjoint(other):
            return None
        if self.s > other.s:
            s, lc = self.s, self.lc
        elif self.s < other.s:
            s, lc = other.s, other.lc
        else:
            s, lc = self.s, self.lc and other.lc
        if self.e < other.e:
            e, rc = self.e, self.rc
        elif self.e > other.e:
            e, rc = other.e, other.rc
        else:
            e, rc = self.e, self.rc and other.rc
        if s == e:
            return Interval(s, e, True, True)
        return Interval(s, e, lc, rc)

    def merge(self, other: "Interval[T]") -> "Interval[T]":
        """Return the single interval covering two overlapping/adjacent intervals.

        Raises :class:`InvalidValue` when the union is not an interval.
        """
        if self.disjoint(other) and not self.adjacent(other):
            raise InvalidValue("cannot merge intervals separated by a gap")
        if self.s < other.s:
            s, lc = self.s, self.lc
        elif self.s > other.s:
            s, lc = other.s, other.lc
        else:
            s, lc = self.s, self.lc or other.lc
        if self.e > other.e:
            e, rc = self.e, self.rc
        elif self.e < other.e:
            e, rc = other.e, other.rc
        else:
            e, rc = self.e, self.rc or other.rc
        return Interval(s, e, lc, rc)

    def before(self, other: "Interval[T]") -> bool:
        """Total order on disjoint intervals: this one entirely first."""
        return self.r_disjoint(other)

    # -- numeric helpers (time intervals) --------------------------------

    @property
    def length(self) -> Any:
        """The extent ``e - s`` (meaningful for numeric domains)."""
        return self.e - self.s

    def midpoint(self) -> Any:
        """The central value (numeric domains only)."""
        return self.s + (self.e - self.s) / 2

    def sample_inside(self) -> T:
        """A value guaranteed to lie in the open part of the interval."""
        if self.is_degenerate:
            return self.s
        return self.midpoint()

    def __repr__(self) -> str:
        lb = "[" if self.lc else "("
        rb = "]" if self.rc else ")"
        return f"{lb}{self.s!r}, {self.e!r}{rb}"

    def pretty(self) -> str:
        """Compact human-readable rendering with %g number formatting."""
        lb = "[" if self.lc else "("

        def fmt(v: Any) -> str:
            if isinstance(v, float):
                return f"{v:g}"
            return repr(v)

        rb = "]" if self.rc else ")"
        return f"{lb}{fmt(self.s)}, {fmt(self.e)}{rb}"


# The frozen __setattr__ refuses every assignment, so the constructor
# writes through the slots' member descriptors.
_set_s, _set_e, _set_lc, _set_rc = (
    Interval.__dict__[name].__set__ for name in Interval.__slots__
)


def interval_at(v: T) -> Interval[T]:
    """Return the degenerate closed interval ``[v, v]``."""
    return Interval(v, v, True, True)


def closed(s: T, e: T) -> Interval[T]:
    """Return the closed interval ``[s, e]``."""
    return Interval(s, e, True, True)


def open_interval(s: T, e: T) -> Interval[T]:
    """Return the open interval ``(s, e)``."""
    return Interval(s, e, False, False)
