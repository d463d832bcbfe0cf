"""Query expressions: columns, literals, calls into the operation algebra.

The function registry maps SQL-level names onto the operations of
:mod:`repro.ops`, dispatching on the runtime types of the arguments —
the query language sees one overloaded ``distance`` or ``length``, just
as the abstract model's generic operations do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.base.instant import Instant
from repro.base.values import BaseValue
from repro.errors import InvalidValue, QueryError
from repro.ranges.intime import Intime
from repro.ranges.rangeset import RangeSet
from repro.spatial.line import Line
from repro.spatial.point import Point
from repro.spatial.region import Region
from repro.temporal.mapping import (
    Mapping,
    MovingBool,
    MovingPoint,
    MovingReal,
    MovingRegion,
)

Row = Dict[str, Any]


class Expr:
    """Base class of query expressions."""

    def eval(self, row: Row) -> Any:
        raise NotImplementedError

    def columns(self) -> List[str]:
        """All column references in the expression tree."""
        return []


@dataclass(frozen=True)
class Column(Expr):
    """A (possibly qualified) column reference."""

    name: str

    def qualified(self, row: Row) -> List[str]:
        """The qualified keys (alias.column) of ``row`` this name matches."""
        return [k for k in row if k.endswith("." + self.name)]

    def eval(self, row: Row) -> Any:
        if self.name in row:
            return row[self.name]
        matches = self.qualified(row)
        if len(matches) == 1:
            return row[matches[0]]
        if len(matches) > 1:
            raise QueryError(f"ambiguous column {self.name!r}: {sorted(matches)}")
        raise QueryError(f"unknown column {self.name!r}")

    def columns(self) -> List[str]:
        return [self.name]


@dataclass(frozen=True)
class Literal(Expr):
    """A constant (number, string, or boolean)."""

    value: Any

    def eval(self, row: Row) -> Any:
        return self.value


@dataclass(frozen=True)
class Call(Expr):
    """A function application ``f(e1, ..., ek)``."""

    func: str
    args: Tuple[Expr, ...]

    def eval(self, row: Row) -> Any:
        fn = _FUNCTIONS.get(self.func.lower())
        if fn is None:
            raise QueryError(f"unknown function {self.func!r}")
        values = [a.eval(row) for a in self.args]
        try:
            return fn(*values)
        except QueryError:
            raise
        except Exception as exc:
            raise QueryError(f"error evaluating {self.func}: {exc}") from exc

    def columns(self) -> List[str]:
        out: List[str] = []
        for a in self.args:
            out.extend(a.columns())
        return out


def _unwrap(v: Any) -> Any:
    """Strip base-value wrappers for scalar comparisons."""
    if isinstance(v, BaseValue):
        return v.value if v.defined else None
    if isinstance(v, Instant):
        return v.value if v.defined else None
    return v


@dataclass(frozen=True)
class Compare(Expr):
    """A scalar comparison ``left op right``."""

    op: str
    left: Expr
    right: Expr

    def eval(self, row: Row) -> bool:
        lhs = _unwrap(self.left.eval(row))
        rhs = _unwrap(self.right.eval(row))
        if lhs is None or rhs is None:
            return False  # comparisons with undefined are false
        if self.op == "=":
            return lhs == rhs
        if self.op in ("<>", "!="):
            return lhs != rhs
        if self.op == "<":
            return lhs < rhs
        if self.op == "<=":
            return lhs <= rhs
        if self.op == ">":
            return lhs > rhs
        if self.op == ">=":
            return lhs >= rhs
        raise QueryError(f"unknown comparison operator {self.op!r}")

    def columns(self) -> List[str]:
        return self.left.columns() + self.right.columns()


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr

    def eval(self, row: Row) -> bool:
        return bool(self.left.eval(row)) and bool(self.right.eval(row))

    def columns(self) -> List[str]:
        return self.left.columns() + self.right.columns()


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr

    def eval(self, row: Row) -> bool:
        return bool(self.left.eval(row)) or bool(self.right.eval(row))

    def columns(self) -> List[str]:
        return self.left.columns() + self.right.columns()


@dataclass(frozen=True)
class Not(Expr):
    inner: Expr

    def eval(self, row: Row) -> bool:
        return not bool(self.inner.eval(row))

    def columns(self) -> List[str]:
        return self.inner.columns()


def map_columns(expr: Expr, fn: Callable[[Column], Expr]) -> Expr:
    """``expr`` with every column reference ``c`` replaced by ``fn(c)``."""
    if isinstance(expr, Column):
        return fn(expr)
    if isinstance(expr, Call):
        return Call(expr.func, tuple(map_columns(a, fn) for a in expr.args))
    if isinstance(expr, Compare):
        return Compare(
            expr.op, map_columns(expr.left, fn), map_columns(expr.right, fn)
        )
    if isinstance(expr, (And, Or)):
        return type(expr)(map_columns(expr.left, fn), map_columns(expr.right, fn))
    if isinstance(expr, Not):
        return Not(map_columns(expr.inner, fn))
    return expr


def bind(expr: Expr, row: Row) -> Expr:
    """``expr`` for rows keyed like ``row``: an unqualified column that
    names exactly one of the keys becomes that key, so evaluating it is
    one dictionary lookup.  A column that is unknown or ambiguous stays
    as written and raises from :meth:`Column.eval` if and when it is
    evaluated, as it would unbound."""

    def qualify(col: Column) -> Column:
        if col.name in row:
            return col
        matches = col.qualified(row)
        return Column(matches[0]) if len(matches) == 1 else col

    return map_columns(expr, qualify)


def conjuncts(expr: Expr) -> List[Expr]:
    """The operands of ``expr``'s top-level ``AND``s, left to right."""
    if isinstance(expr, And):
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


# ---------------------------------------------------------------------------
# Function registry: SQL names → operation algebra
# ---------------------------------------------------------------------------


def _fn_trajectory(mp: MovingPoint) -> Line:
    return mp.trajectory()


def _fn_length(arg: Any) -> float:
    if isinstance(arg, Line):
        return arg.length()
    if isinstance(arg, MovingPoint):
        return arg.length()
    raise QueryError(f"length() not applicable to {type(arg).__name__}")


def _fn_distance(a: Any, b: Any) -> Any:
    from repro.ops.distance import (
        mpoint_distance,
        mpoint_line_distance,
        mpoint_region_distance,
        mpoint_static_distance,
    )

    if isinstance(b, MovingPoint) and not isinstance(a, MovingPoint):
        a, b = b, a  # the operation is symmetric; normalize dispatch
    if isinstance(a, MovingPoint) and isinstance(b, MovingPoint):
        return mpoint_distance(a, b)
    if isinstance(a, MovingPoint) and isinstance(b, Point):
        return mpoint_static_distance(a, b)
    if isinstance(a, MovingPoint) and isinstance(b, Line):
        return mpoint_line_distance(a, b)
    if isinstance(a, MovingPoint) and isinstance(b, Region):
        return mpoint_region_distance(a, b)
    if isinstance(a, Point) and isinstance(b, Point):
        return a.distance(b)
    raise QueryError(
        f"distance() not applicable to "
        f"({type(a).__name__}, {type(b).__name__})"
    )


def _fn_atmin(m: MovingReal) -> MovingReal:
    return m.atmin()


def _fn_atmax(m: MovingReal) -> MovingReal:
    return m.atmax()


def _fn_initial(m: Mapping) -> Any:
    return m.initial()


def _fn_final(m: Mapping) -> Any:
    return m.final()


def _fn_val(p: Intime) -> Any:
    from repro.ops.aggregates import val

    return val(p)


def _fn_inst(p: Intime) -> Any:
    from repro.ops.aggregates import inst

    return inst(p)


def _fn_atinstant(m: Mapping, t: Any) -> Any:
    return m.at_instant(_unwrap_time(t))


def _unwrap_time(t: Any) -> float:
    if isinstance(t, Instant):
        return t.value
    if isinstance(t, BaseValue):
        return float(t.value)
    return float(t)


def _fn_present(m: Mapping, t: Any) -> bool:
    return m.present(_unwrap_time(t))


def _fn_inside(a: Any, b: Any) -> Any:
    from repro.ops.inside import inside
    from repro.temporal.uregion import URegion

    if isinstance(a, MovingPoint) and isinstance(b, MovingRegion):
        return inside(a, b)
    if isinstance(a, MovingPoint) and isinstance(b, Region):
        span = a.deftime().span()
        if span is None:
            return MovingBool([])
        return inside(a, MovingRegion([URegion.stationary(span, b)]))
    if isinstance(a, Point) and isinstance(b, Region):
        return b.contains_point(a)
    raise QueryError(
        f"inside() not applicable to ({type(a).__name__}, {type(b).__name__})"
    )


def _fn_passes(mp: MovingPoint, r: Region) -> bool:
    from repro.ops.interaction import passes

    return passes(mp, r)


def _fn_area(arg: Any) -> Any:
    if isinstance(arg, Region):
        return arg.area()
    if isinstance(arg, MovingRegion):
        return arg.area()
    raise QueryError(f"area() not applicable to {type(arg).__name__}")


def _fn_perimeter(arg: Any) -> Any:
    if isinstance(arg, Region):
        return arg.perimeter()
    if isinstance(arg, MovingRegion):
        return arg.perimeter()
    raise QueryError(f"perimeter() not applicable to {type(arg).__name__}")


def _fn_speed(mp: MovingPoint) -> MovingReal:
    return mp.speed()


def _fn_deftime(m: Mapping) -> RangeSet:
    return m.deftime()


def _fn_duration(r: RangeSet) -> float:
    return float(r.total_length())


def _fn_minimum(m: MovingReal) -> float:
    return m.minimum()


def _fn_maximum(m: MovingReal) -> float:
    return m.maximum()


def _fn_when(mb: MovingBool) -> RangeSet:
    return mb.when(True)


def _fn_sometimes(mb: MovingBool) -> bool:
    return bool(mb.when(True))


def _fn_always(mb: MovingBool) -> bool:
    return bool(mb) and not mb.when(False)


def _fn_ever_closer_than(a: MovingPoint, b: MovingPoint, d: Any) -> bool:
    """Bounding-cube-filtered "came closer than d" predicate.

    Cheap pre-filter before the exact minimum-distance computation —
    this is the predicate a spatio-temporal join accelerates with the
    R-tree of :mod:`repro.index`.
    """
    threshold = float(_unwrap(d))
    if not a.units or not b.units:
        return False
    ca, cb = a.bounding_cube(), b.bounding_cube()
    grown = type(ca)(
        ca.xmin - threshold,
        ca.ymin - threshold,
        ca.tmin,
        ca.xmax + threshold,
        ca.ymax + threshold,
        ca.tmax,
    )
    if not grown.intersects(cb):
        return False
    from repro.ops.distance import mpoint_distance

    dist = mpoint_distance(a, b)
    if not dist.units:
        return False
    return dist.minimum() < threshold


def _fn_passes_window(
    mp: MovingPoint, xmin: Any, ymin: Any, xmax: Any, ymax: Any, t0: Any, t1: Any
) -> bool:
    """Was the moving point ever inside the rectangle during [t0, t1]?

    The classic spatio-temporal window predicate, exact (closed-form
    per-unit interval intersection, no sampling).  This scalar form is
    the reference; over a :class:`~repro.db.executor.VectorScan` the
    same call is recognized by :func:`compile_batch_predicate` and runs
    as one ``window_intervals`` kernel sweep over the scan's column.
    """
    from repro.ops.window import mpoint_within_rect_times
    from repro.ranges.rangeset import RangeSet
    from repro.ranges.interval import Interval
    from repro.spatial.bbox import Rect

    rect = Rect(
        float(_unwrap(xmin)), float(_unwrap(ymin)),
        float(_unwrap(xmax)), float(_unwrap(ymax)),
    )
    window = RangeSet([Interval(float(_unwrap(t0)), float(_unwrap(t1)))])
    times = mpoint_within_rect_times(mp, rect)
    return bool(times.intersection(window))


def _fn_mmin(a: MovingReal, b: MovingReal) -> MovingReal:
    from repro.ops.lifted import mreal_min

    return mreal_min(a, b)


def _fn_mmax(a: MovingReal, b: MovingReal) -> MovingReal:
    from repro.ops.lifted import mreal_max

    return mreal_max(a, b)


_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "trajectory": _fn_trajectory,
    "length": _fn_length,
    "distance": _fn_distance,
    "atmin": _fn_atmin,
    "atmax": _fn_atmax,
    "initial": _fn_initial,
    "final": _fn_final,
    "val": _fn_val,
    "inst": _fn_inst,
    "atinstant": _fn_atinstant,
    "present": _fn_present,
    "inside": _fn_inside,
    "passes": _fn_passes,
    "area": _fn_area,
    "perimeter": _fn_perimeter,
    "speed": _fn_speed,
    "deftime": _fn_deftime,
    "duration": _fn_duration,
    "minimum": _fn_minimum,
    "maximum": _fn_maximum,
    "when": _fn_when,
    "sometimes": _fn_sometimes,
    "always": _fn_always,
    "ever_closer_than": _fn_ever_closer_than,
    "passes_window": _fn_passes_window,
    "integral": lambda m: m.integral(),
    "avg_value": lambda m: m.time_weighted_average(),
    "mmin": _fn_mmin,
    "mmax": _fn_mmax,
}


def register_function(name: str, fn: Callable[..., Any]) -> None:
    """Extend the query language with a new function."""
    _FUNCTIONS[name.lower()] = fn


# ---------------------------------------------------------------------------
# Batch-expression path (the vector backend)
# ---------------------------------------------------------------------------
#
# A conjunct over a VectorScan's moving-point attribute can sometimes be
# evaluated fleet-wide with one kernel call instead of once per row.  The
# compiler below recognizes those shapes and returns a callable mapping
# the scan to a boolean mask over its rows; ``None`` means "not
# vectorizable — run it row by row" (``Select`` decides over which rows).


@dataclass(frozen=True)
class BatchPredicate:
    """A conjunct compiled onto the operator table: calling it with the
    :class:`~repro.db.executor.VectorScan` answers a numpy boolean mask
    indexed by tuple id; ``op`` names the table row it runs (what
    ``EXPLAIN`` shows)."""

    op: str
    mask: Callable[[Any], Any]

    def __call__(self, scan: Any) -> Any:
        return self.mask(scan)


def _literal_value(e: Expr) -> Any:
    if isinstance(e, Literal):
        return _unwrap(e.value)
    return None


def _refers_to(e: Expr, alias: str, attr: str) -> bool:
    return isinstance(e, Column) and e.name in (attr, f"{alias}.{attr}")


def compile_batch_predicate(
    expr: Expr, alias: str, attr: str
) -> Optional[BatchPredicate]:
    """Compile one conjunct into a fleet-wide mask evaluator, if possible.

    Supported shapes (all arguments other than the scanned attribute
    must be literals):

    * ``present(attr, t)`` — the operator table's ``present`` row;
    * ``passes_window(attr, xmin, ymin, xmax, ymax, t0, t1)`` — the
      ``window_intervals`` row: filter and exact refinement in one
      kernel sweep;
    * ``length(trajectory(attr)) {>, >=, <, <=} c`` — the
      ``path_length`` row decides every lane it can certify, the scalar
      expression the rest (:func:`_length_predicate`).

    ``AND`` is not a shape: :class:`~repro.db.executor.Select` compiles
    each operand of the top-level conjunction on its own.
    """
    if isinstance(expr, Compare):
        return _length_predicate(expr, alias, attr)
    if not isinstance(expr, Call):
        return None
    args = expr.args
    name = expr.func.lower()

    if name == "present" and len(args) == 2 and _refers_to(args[0], alias, attr):
        t = _literal_value(args[1])
        if t is None:
            return None
        t = float(t)
        return BatchPredicate("present", lambda scan: scan.batch("present", t))

    if (
        name == "passes_window"
        and len(args) == 7
        and _refers_to(args[0], alias, attr)
    ):
        bounds = [_literal_value(a) for a in args[1:]]
        if any(b is None for b in bounds):
            return None
        xmin, ymin, xmax, ymax, t0, t1 = (float(b) for b in bounds)

        def run_window(scan):
            import numpy as np

            from repro.spatial.bbox import Rect

            # The window kernel returns exactly the nonempty clipped
            # intervals, so an object passes iff it owns at least one
            # returned run.  A malformed window is answered as
            # Call.eval answers it on the scalar path; what building the
            # column raises is the stored values' error, not the call's.
            mask = np.zeros(scan.n_tuples, dtype=np.bool_)
            scan.column()
            try:
                rect = Rect(xmin, ymin, xmax, ymax)
                owners = scan.batch("window_intervals", rect, t0, t1)[0]
            except InvalidValue as exc:
                raise QueryError(f"error evaluating {expr.func}: {exc}") from exc
            mask[owners] = True
            return mask

        return BatchPredicate("window_intervals", run_window)

    return None


def _length_predicate(
    expr: Compare, alias: str, attr: str
) -> Optional[BatchPredicate]:
    """``length(trajectory(attr)) op c`` as a mask evaluator.

    The ``path_length`` kernel answers ``(length, exact)``: an upper
    bound of the trajectory's length on every lane, the length itself
    (up to summation rounding) where ``exact``.  Inside a band of
    ``EPSILON``, relative as everywhere in the geometry, around ``c``
    the sum decides nothing.  Below it every lane is decided — the
    trajectory is no longer than its bound; above it the exact ones are.
    The remaining lanes evaluate ``expr`` itself on their tuple alone,
    so the scalar path stays the only place geometry is merged.
    """
    outer, c = expr.left, _literal_value(expr.right)
    if (
        expr.op not in ("<", "<=", ">", ">=")
        or isinstance(c, bool)
        or not isinstance(c, (int, float))
        or not (isinstance(outer, Call) and outer.func.lower() == "length")
        or len(outer.args) != 1
    ):
        return None
    inner = outer.args[0]
    if not (
        isinstance(inner, Call)
        and inner.func.lower() == "trajectory"
        and len(inner.args) == 1
        and _refers_to(inner.args[0], alias, attr)
    ):
        return None
    key = inner.args[0].name
    wants_less = expr.op in ("<", "<=")

    def run_length(scan):
        import numpy as np

        from repro.config import EPSILON

        length, exact = scan.batch("path_length")
        band = EPSILON * np.maximum(np.maximum(length, abs(c)), 1.0)
        below = length < c - band
        mask = np.where(below, wants_less, not wants_less)
        for tid in np.flatnonzero(~below & ~(exact & (length > c + band))):
            value = scan.value(int(tid))
            mask[tid] = value is not None and expr.eval({key: value})
        return mask

    return BatchPredicate("path_length", run_length)


def function_names() -> List[str]:
    """All registered function names."""
    return sorted(_FUNCTIONS)
