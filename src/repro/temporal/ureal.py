"""The ``ureal`` unit type (Section 3.2.5).

The unit function is the quadruple ``(a, b, c, r)``:

* ``r = False`` — the polynomial ``a t² + b t + c``;
* ``r = True``  — the square root ``sqrt(a t² + b t + c)``.

This choice makes the lifted ``size``, ``perimeter``, and ``distance``
operations representable while keeping the algebra simple; the price is
that ``derivative`` is not closed (the derivative of a square-root form
is not of either shape), exactly as the paper notes.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.base.values import RealVal
from repro.config import EPSILON, fzero
from repro.errors import InvalidValue, NotClosed
from repro.temporal.quadratics import (
    Quad,
    add_quad,
    eval_quad,
    quad_extremum,
    quad_nonnegative_on,
    quad_range_on,
    roots_in_interval,
    scale_quad,
    solve_quadratic,
    sub_quad,
)
from repro.temporal.unit import Unit


class UReal(Unit[RealVal]):
    """A moving-real unit: quadratic or square-root-of-quadratic in time."""

    __slots__ = ("_a", "_b", "_c", "_r")

    def __init__(self, interval, a: float, b: float, c: float, r: bool = False):
        super().__init__(interval)
        a, b, c = float(a), float(b), float(c)
        if not all(math.isfinite(v) for v in (a, b, c)):
            raise InvalidValue("ureal coefficients must be finite")
        if r and not quad_nonnegative_on((a, b, c), self.interval.s, self.interval.e):
            raise InvalidValue(
                "square-root ureal requires a nonnegative radicand on its interval"
            )
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_b", b)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_r", bool(r))

    def _constructor_args(self) -> tuple:
        return (self._interval, self._a, self._b, self._c, self._r)

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, interval, value: float) -> "UReal":
        """A constant real over the interval."""
        return cls(interval, 0.0, 0.0, value, False)

    @classmethod
    def linear_between(cls, interval, v0: float, v1: float) -> "UReal":
        """Linear interpolation from ``v0`` at interval start to ``v1`` at end."""
        from repro.temporal.unit import as_interval

        iv = as_interval(interval)
        if iv.e == iv.s:
            return cls(iv, 0.0, 0.0, float(v0), False)
        slope = (float(v1) - float(v0)) / (iv.e - iv.s)
        return cls(iv, 0.0, slope, float(v0) - slope * iv.s, False)

    # -- accessors ---------------------------------------------------------

    @property
    def coefficients(self) -> Tuple[float, float, float, bool]:
        """The quadruple ``(a, b, c, r)``."""
        return (self._a, self._b, self._c, self._r)

    @property
    def quad(self) -> Quad:
        """The radicand/polynomial coefficients ``(a, b, c)``."""
        return (self._a, self._b, self._c)

    @property
    def is_sqrt(self) -> bool:
        """True for the square-root form."""
        return self._r

    def unit_function(self):
        return self.coefficients

    def _function_key(self) -> tuple:
        return (self._a, self._b, self._c, self._r)

    def __repr__(self) -> str:
        body = f"{self._a:g}t²+{self._b:g}t+{self._c:g}"
        if self._r:
            body = f"sqrt({body})"
        return f"UReal({self.interval.pretty()}, {body})"

    # -- evaluation ------------------------------------------------------------

    def _checked_radicand(self, v: float, t: float) -> float:
        """Clamp a radicand to zero only within tolerance of zero.

        Rounding can push the radicand of a valid square-root unit a
        hair below zero near its roots; that noise is clamped.  A
        radicand *beyond* the tolerance is a genuinely invalid
        evaluation (e.g. ``eval`` outside the unit interval, where the
        constructor's nonnegativity check does not reach) and raises
        instead of fabricating a zero.  The tolerance is the same
        coefficient-scaled one the constructor's ``quad_nonnegative_on``
        check uses, so every constructible unit evaluates cleanly on its
        own interval.
        """
        if v >= 0.0:
            return v
        tol = 1e-7 * max(abs(self._a), abs(self._b), abs(self._c), 1.0)
        if v < -tol:
            raise InvalidValue(
                f"negative radicand {v:g} of square-root ureal at t={t:g} "
                "(beyond rounding tolerance)"
            )
        return 0.0

    def _iota(self, t: float) -> RealVal:
        v = eval_quad(self.quad, t)
        if self._r:
            v = math.sqrt(self._checked_radicand(v, t))
        return RealVal(v)

    def eval(self, t: float) -> float:
        """Raw float evaluation (no interval check).

        For the square-root form a radicand that is negative beyond
        rounding tolerance raises :class:`InvalidValue` rather than
        silently evaluating to zero.
        """
        v = eval_quad(self.quad, t)
        if self._r:
            v = math.sqrt(self._checked_radicand(v, t))
        return v

    def with_interval(self, interval) -> "UReal":
        return UReal(interval, self._a, self._b, self._c, self._r)

    # -- analysis -----------------------------------------------------------------

    def range_on_interval(self) -> Tuple[float, float]:
        """Minimum and maximum values taken over the unit interval."""
        mn, mx = quad_range_on(self.quad, self.interval.s, self.interval.e)
        if self._r:
            return (math.sqrt(max(mn, 0.0)), math.sqrt(max(mx, 0.0)))
        return (mn, mx)

    def minimum(self) -> float:
        """Smallest value over the unit interval."""
        return self.range_on_interval()[0]

    def maximum(self) -> float:
        """Largest value over the unit interval."""
        return self.range_on_interval()[1]

    def times_at_value(self, v: float) -> List[float]:
        """All instants within the unit interval where the function equals ``v``.

        When the function is constantly ``v`` the whole interval
        qualifies; that case is signalled with the two interval end
        points (callers interested in it should compare min == max
        first).
        """
        if self._r:
            if v < 0:
                return []
            target = sub_quad(self.quad, (0.0, 0.0, v * v))
        else:
            target = sub_quad(self.quad, (0.0, 0.0, v))
        lo, hi = self.interval.s, self.interval.e
        if fzero(target[0]) and fzero(target[1]) and fzero(target[2]):
            return [lo, hi]
        return roots_in_interval(target, lo, hi, open_ends=False)

    def argmin(self) -> float:
        """An instant at which the minimum is attained."""
        lo, hi = self.interval.s, self.interval.e
        best_t, best_v = lo, self.eval(lo)
        for t in (hi,):
            v = self.eval(t)
            if v < best_v:
                best_t, best_v = t, v
        vertex = quad_extremum(self.quad)
        if vertex is not None and lo <= vertex[0] <= hi:
            v = self.eval(vertex[0])
            if v < best_v:
                best_t, best_v = vertex[0], v
        return best_t

    def argmax(self) -> float:
        """An instant at which the maximum is attained."""
        lo, hi = self.interval.s, self.interval.e
        best_t, best_v = lo, self.eval(lo)
        for t in (hi,):
            v = self.eval(t)
            if v > best_v:
                best_t, best_v = t, v
        vertex = quad_extremum(self.quad)
        if vertex is not None and lo <= vertex[0] <= hi:
            v = self.eval(vertex[0])
            if v > best_v:
                best_t, best_v = vertex[0], v
        return best_t

    # -- arithmetic (closed cases only) ------------------------------------------------

    def __neg__(self) -> "UReal":
        if self._r:
            raise NotClosed("negation of a square-root ureal is not representable")
        return UReal(self.interval, -self._a, -self._b, -self._c, False)

    def add_constant(self, k: float) -> "UReal":
        """Add a constant; closed for the polynomial form only."""
        if self._r:
            raise NotClosed("adding a constant to a square-root ureal")
        return UReal(self.interval, self._a, self._b, self._c + k, False)

    def scaled(self, k: float) -> "UReal":
        """Multiply by a constant.

        For the square-root form the radicand is scaled by ``k²`` (so
        ``k`` must be nonnegative to preserve the value).
        """
        if self._r:
            if k < 0:
                raise NotClosed("negative scaling of a square-root ureal")
            q = scale_quad(self.quad, k * k)
            return UReal(self.interval, q[0], q[1], q[2], True)
        q = scale_quad(self.quad, k)
        return UReal(self.interval, q[0], q[1], q[2], False)

    def plus(self, other: "UReal") -> "UReal":
        """Pointwise sum; only polynomial + polynomial is closed.

        The intervals must be identical (use the refinement partition to
        align mappings first).
        """
        if self.interval != other.interval:
            raise InvalidValue("ureal arithmetic requires identical unit intervals")
        if self._r or other._r:
            raise NotClosed("sum involving a square-root ureal is not representable")
        q = add_quad(self.quad, other.quad)
        return UReal(self.interval, q[0], q[1], q[2], False)

    def minus(self, other: "UReal") -> "UReal":
        """Pointwise difference; only polynomial − polynomial is closed."""
        if self.interval != other.interval:
            raise InvalidValue("ureal arithmetic requires identical unit intervals")
        if self._r or other._r:
            raise NotClosed("difference involving a square-root ureal")
        q = sub_quad(self.quad, other.quad)
        return UReal(self.interval, q[0], q[1], q[2], False)

    def squared(self) -> "UReal":
        """Pointwise square.

        Closed for the square-root form (drop the root) and for *linear*
        polynomials; a proper quadratic squared has degree four.
        """
        if self._r:
            return UReal(self.interval, self._a, self._b, self._c, False)
        if not fzero(self._a):
            raise NotClosed("square of a proper quadratic exceeds degree two")
        return UReal(
            self.interval,
            self._b * self._b,
            2.0 * self._b * self._c,
            self._c * self._c,
            False,
        )

    def sqrt(self) -> "UReal":
        """Pointwise square root; closed for nonnegative polynomials."""
        if self._r:
            raise NotClosed("nested square roots are not representable")
        return UReal(self.interval, self._a, self._b, self._c, True)

    def derivative(self) -> "UReal":
        """The time derivative — *not closed* in general (Section 3.1).

        Provided for the polynomial form (derivative is linear); raises
        :class:`NotClosed` for the square-root form, which is the case
        the paper excludes.
        """
        if self._r:
            raise NotClosed("derivative of a square-root ureal is not representable")
        return UReal(self.interval, 0.0, 2.0 * self._a, self._b, False)

    def integral(self) -> float:
        """The integral of the unit function over the unit interval.

        Exact (antiderivative) for the polynomial form; composite
        Simpson quadrature for the square-root form — the radicand is a
        quadratic, so the integrand is smooth and Simpson converges at
        fourth order (refined until stable to ~1e-12 relative).
        """
        lo, hi = self.interval.s, self.interval.e
        if hi == lo:
            return 0.0
        if not self._r:
            a, b, c = self._a, self._b, self._c

            def anti(t: float) -> float:
                return ((a / 3.0 * t + b / 2.0) * t + c) * t

            return anti(hi) - anti(lo)
        # Simpson with interval doubling for sqrt(quadratic).
        prev = None
        n = 8
        while n <= 4096:
            h = (hi - lo) / n
            total = self.eval(lo) + self.eval(hi)
            for k in range(1, n):
                total += self.eval(lo + k * h) * (4.0 if k % 2 else 2.0)
            approx = total * h / 3.0
            if prev is not None and abs(approx - prev) <= 1e-12 * max(
                abs(approx), 1.0
            ):
                return approx
            prev = approx
            n *= 2
        return prev if prev is not None else 0.0

    def compare_times(self, other: "UReal") -> List[float]:
        """Instants within the common interval where the two functions are equal.

        Supports poly/poly (difference of quadratics) and sqrt/sqrt
        (difference of radicands), and poly/sqrt via squaring with a
        sign filter.
        """
        if self.interval != other.interval:
            raise InvalidValue("comparison requires identical unit intervals")
        lo, hi = self.interval.s, self.interval.e
        if self._r == other._r:
            diff = sub_quad(self.quad, other.quad)
            return roots_in_interval(diff, lo, hi, open_ends=False)
        poly, root = (self, other) if other._r else (other, self)
        # poly(t) == sqrt(rad(t))  requires poly >= 0 and poly² == rad.
        if not fzero(poly._a):
            raise NotClosed("comparing a proper quadratic with a square root")
        sq = poly.squared().quad
        diff = sub_quad(sq, root.quad)
        out = []
        for t in roots_in_interval(diff, lo, hi, open_ends=False):
            if poly.eval(t) >= -EPSILON:
                out.append(t)
        return out
