"""Pull-based query execution operators.

A tiny Volcano-style pipeline: every operator yields rows (dicts keyed
by possibly-qualified column names).  The planner in :mod:`repro.db.sql`
composes scans, a cross product for multi-relation FROM clauses, a
selection, and a projection — all the Section-2 queries need.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import obs
from repro.db.expressions import (
    BatchPredicate,
    Expr,
    Row,
    bind,
    compile_batch_predicate,
    conjuncts,
)
from repro.db.relation import Relation
from repro.errors import QueryError, StorageError
from repro.storage.records import codec_for, safe_unpack
from repro.temporal.mapping import MovingPoint

_MPOINT = codec_for("mpoint")


#: What :meth:`VectorScan._guard` answers for a quarantined value.
_QUARANTINED = object()


def _as_is(value: Any) -> Any:
    return value


class _Bound:
    """An expression as one operator evaluates it: unqualified columns
    are resolved against the first row (every row an operator sees has
    the same keys), not searched for in every row."""

    __slots__ = ("_expr", "_bound")

    def __init__(self, expr: Expr):
        self._expr = expr
        self._bound = False

    def __call__(self, row: Row) -> Any:
        if not self._bound:
            self._expr, self._bound = bind(self._expr, row), True
        return self._expr.eval(row)


class Operator:
    """Base class of executable plan nodes."""

    def rows(self) -> Iterator[Row]:
        raise NotImplementedError

    def execute(self) -> List[Row]:
        """Materialize the operator's output."""
        return list(self.rows())

    def describe(self) -> str:
        """The operator's line in ``EXPLAIN``."""
        return type(self).__name__


class SeqScan(Operator):
    """Scan one relation, qualifying column names with the alias.

    ``strict=False`` quarantines tuples whose storage representation
    fails verification (skipped, counted under ``storage.quarantined``)
    instead of aborting the whole query.
    """

    def __init__(
        self,
        relation: Relation,
        alias: Optional[str] = None,
        strict: bool = True,
    ):
        self.relation = relation
        self.alias = alias or relation.name
        self.strict = strict

    def rows(self) -> Iterator[Row]:
        for row in self.relation.scan(strict=self.strict):
            yield {f"{self.alias}.{k}": v for k, v in row.items()}

    def describe(self) -> str:
        return f"SeqScan({self.relation.name} AS {self.alias})"


class _Held:
    """One read of a relation: the ``version`` it was read at, tuple id →
    the tuple's values in schema order, how many tuples the relation
    had, whether every one of them verified (``clean``), and — from the
    first statement that needs it — the attribute's column built from
    exactly these rows.  Rows and column are one kept value, so a
    statement never pairs the rows of one version with the column of
    another."""

    __slots__ = ("version", "rows", "n", "clean", "column")

    def __init__(self, version: int, rows: Dict[int, List[Any]], n: int):
        self.version, self.rows, self.n = version, rows, n
        self.clean = len(rows) == n
        self.column: Any = None


class VectorScan(SeqScan):
    """A scan that additionally exposes its moving-point attribute as a
    columnar batch (Section-4 layout, :mod:`repro.vector.columns`).

    Behaves exactly like :class:`SeqScan` when iterated.  On top of that
    it keeps what it read, so a parent :class:`Select` can evaluate the
    conjuncts that compile to a batch kernel relation-wide in one call
    each (:meth:`batch`) and then ask for the surviving rows alone
    (:meth:`rows_at`).  Over a materialized relation what is kept is the
    tuples' *stored* values: the attribute's
    :class:`~repro.vector.columns.UPointColumn` is the stored unit
    arrays reinterpreted, and a value is unpacked only for a row that is
    returned.  Column lanes, masks and :meth:`rows_at` arguments are all
    tuple ids; a quarantined tuple is an empty lane that yields no row.

    What is kept outlives the statement.  The values read and the column
    built from them are one value (:class:`_Held`) per attribute, kept
    in the relation itself (:func:`repro.vector.cache.keep`, counted
    under ``colcache.*``) and valid at the relation version it was read
    at, so the next statement on an unchanged relation reads no page, no
    FLOB chain and re-verifies nothing.  The contract is the buffer
    pool's: a tuple is verified when it is read into residency, not on
    every hit — bytes changed behind the relation's back need
    :meth:`Relation.invalidate`.  Only a *clean* read is kept: one that
    quarantined a tuple is this scan's alone, so a damaged relation is
    re-read, raises under ``strict=True`` and counts
    ``storage.quarantined`` on every statement.  A kept read is shared
    between statements and threads: its rows are never mutated, and its
    column is set once, from those rows.

    ``backend`` names the operator-table column
    (:mod:`repro.vector.backends`) the batch predicates run on.
    """

    #: The backend a scan evaluates on unless planned for another.
    backend = "vector"

    def __init__(self, relation: Relation, alias: Optional[str] = None,
                 attr: Optional[str] = None, strict: bool = True,
                 backend: str = backend):
        super().__init__(relation, alias, strict)
        self.attr = attr
        self.backend = backend
        #: Attribute names the rows carry; ``None`` means all.  The
        #: planner starts a single-relation statement's scan from the
        #: empty set and every operator above adds what it names
        #: (:meth:`carry`), so nothing else is unpacked.
        self.columns: Optional[Set[str]] = None
        #: What turns a held value into the attribute value.
        self._decode = safe_unpack if relation.store is not None else _as_is
        self._held: Optional[_Held] = None
        #: Tuples that were read but whose values failed to unpack.
        self._rotten: Set[int] = set()
        self._mappings: Optional[List[Any]] = None

    def _guard(self, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)``; under ``strict=False`` a :class:`StorageError`
        is counted (``storage.quarantined``) and answered with
        ``_QUARANTINED``."""
        if self.strict:
            return fn(*args)
        try:
            return fn(*args)
        except StorageError:
            if obs.enabled:
                obs.counters.add("storage.quarantined")
            return _QUARANTINED

    def carry(self, references: Iterable[str]) -> None:
        """Have the rows carry the attributes that ``references`` (column
        names, possibly qualified by the alias) name."""
        if self.columns is not None:
            prefix = f"{self.alias}."
            self.columns.update(
                name[len(prefix):] if name.startswith(prefix) else name
                for name in references
            )

    def _attr_index(self) -> int:
        if self.attr is None:
            raise QueryError(f"VectorScan over {self.alias!r} has no "
                             "moving-point attribute")
        return self.relation.schema.names.index(self.attr)

    def _read(self) -> _Held:
        """Read the relation: stored values (every length, FLOB chain
        and page verified, the moving-point units array checked for its
        layout, nothing unpacked) for a materialized relation, the live
        values otherwise."""
        version = self.relation.version  # before anything it describes
        store = self.relation.store
        if store is None:
            live = {
                tid: list(row.values())
                for tid, row in enumerate(self.relation.scan())
            }
            return _Held(version, live, len(live))
        n = len(store)
        at = None if self.attr is None else self._attr_index()
        rows = {
            tid: stored
            for tid, stored in store.scan_stored(self.strict)
            if tid < n
            and (
                at is None
                or self._guard(_MPOINT.unit_array, stored[at])
                is not _QUARANTINED
            )
        }
        return _Held(version, rows, n)

    def _state(self) -> _Held:
        """What this scan answers from: the read kept at the relation's
        current version, or one of its own (a read that quarantined a
        tuple is never shared)."""
        if self._held is None:
            from repro.vector import cache

            held = cache.lookup(self.relation, ("scan", self.attr))
            if held is None:
                held = self._read()
                if held.clean:
                    cache.keep(self.relation, ("scan", self.attr),
                               held.version, held)
            self._held = held
        return self._held

    def held(self) -> Dict[int, List[Any]]:
        """Tuple id → the tuple's values in schema order (see
        :meth:`_read`).  The keys are the lane → tuple-id map: ascending,
        and missing exactly the quarantined tuples.  Read-only."""
        return self._state().rows

    @property
    def n_tuples(self) -> int:
        """How many tuples the relation had when it was read: the number
        of lanes of every column and mask of this scan."""
        return self._state().n

    def rows_at(self, tids: Iterable[int]) -> Iterator[Row]:
        """The qualified rows of the tuples ``tids`` that hold one,
        carrying (and, over a materialized relation, unpacking) only
        :attr:`columns`."""
        held = self.held()
        picked = [
            (i, f"{self.alias}.{name}")
            for i, name in enumerate(self.relation.schema.names)
            if self.columns is None or name in self.columns
        ]
        decode = self._decode

        def unpack(values: List[Any]) -> Row:
            return {key: decode(values[i]) for i, key in picked}

        for tid in tids:
            values = held.get(tid)
            if values is None or tid in self._rotten:
                continue
            row = self._guard(unpack, values)
            if row is _QUARANTINED:
                self._rotten.add(tid)
                continue
            yield row

    def value(self, tid: int) -> Any:
        """The moving-point attribute of tuple ``tid``, or None where
        the tuple holds no row."""
        values = self.held().get(tid)
        if values is None or tid in self._rotten:
            return None
        value = self._guard(self._decode, values[self._attr_index()])
        if value is _QUARANTINED:
            self._rotten.add(tid)
            return None
        return value

    def mappings(self) -> List[Any]:
        """The moving-point attribute values by tuple id (the empty
        mapping where a tuple holds no row)."""
        if self._mappings is None:
            empty = MovingPoint()
            values = map(self.value, range(self.n_tuples))
            self._mappings = [empty if v is None else v for v in values]
        return self._mappings

    def _transcribe(self, held: _Held) -> Any:
        """The column of ``held``'s rows: the stored unit arrays
        reinterpreted (nothing unpacked) for a materialized relation,
        the live mappings otherwise."""
        from repro.vector.columns import UPointColumn

        if self.relation.store is None:
            return UPointColumn.from_mappings(self.mappings())
        import numpy as np

        at = self._attr_index()
        return UPointColumn.from_unit_arrays(
            [stored[at].arrays[0] for stored in held.rows.values()],
            lanes=np.fromiter(held.rows, np.int64, len(held.rows)),
            n_objects=held.n,
        )

    def column(self):
        """The attribute's unit column, built by the first statement to
        ask and kept with the rows it was built from."""
        held = self._state()
        column = held.column
        if column is None:
            column = held.column = self._transcribe(held)
        return column

    def batch(self, op: str, *args: Any) -> Any:
        """Operator-table operation ``op`` over the attribute, one lane
        per tuple id."""
        from repro.vector.backends import on_column

        return on_column(op, self.column(), args, self.backend)

    def rows(self) -> Iterator[Row]:
        return self.rows_at(list(self.held()))

    def describe(self) -> str:
        text = f"VectorScan({self.relation.name} AS {self.alias}, attr={self.attr}"
        if self.backend != VectorScan.backend:
            text += f", backend={self.backend}"
        return text + ")"


class CrossProduct(Operator):
    """Nested-loop cross product of two inputs (the spatio-temporal join
    of Section 2 is a cross product plus a lifted selection)."""

    def __init__(self, left: Operator, right: Operator):
        self.left = left
        self.right = right

    def rows(self) -> Iterator[Row]:
        right_rows = self.right.execute()
        for lrow in self.left.rows():
            for rrow in right_rows:
                merged = dict(lrow)
                overlap = set(merged) & set(rrow)
                if overlap:
                    raise QueryError(f"ambiguous columns in join: {sorted(overlap)}")
                merged.update(rrow)
                yield merged


class HashJoin(Operator):
    """Equi-join: build a hash table on the right input's key expression."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_key: Expr,
        right_key: Expr,
    ):
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key

    def rows(self) -> Iterator[Row]:
        from repro.db.expressions import _unwrap

        left_key, right_key = _Bound(self.left_key), _Bound(self.right_key)
        table: Dict[Any, List[Row]] = {}
        for rrow in self.right.rows():
            key = _unwrap(right_key(rrow))
            table.setdefault(key, []).append(rrow)
        for lrow in self.left.rows():
            key = _unwrap(left_key(lrow))
            for rrow in table.get(key, ()):
                merged = dict(lrow)
                overlap = set(merged) & set(rrow)
                if overlap:
                    raise QueryError(
                        f"ambiguous columns in join: {sorted(overlap)}"
                    )
                merged.update(rrow)
                yield merged

    def describe(self) -> str:
        return f"HashJoin({self.left_key!r} = {self.right_key!r})"


class Select(Operator):
    """Filter rows by a boolean expression.

    Over a :class:`VectorScan` the predicate's top-level ``AND`` is
    split: the conjuncts that compile to a batch kernel (see
    ``compile_batch_predicate``) are one fleet-wide mask each —
    :attr:`batch` — and the rest — :attr:`rest` — run row by row over
    the mask's survivors only, which carry just the columns those
    conjuncts name.  When no conjunct compiles the whole predicate runs
    as the scalar row loop and the event is counted.
    """

    def __init__(self, child: Operator, predicate: Expr):
        self.child = child
        self.predicate = predicate
        #: ``(conjunct, its BatchPredicate)`` pairs.
        self.batch: List[Tuple[Expr, BatchPredicate]] = []
        self.rest: List[Expr] = [predicate]
        if isinstance(child, VectorScan) and child.attr is not None:
            compiled = [
                (part, compile_batch_predicate(part, child.alias, child.attr))
                for part in conjuncts(predicate)
            ]
            self.batch = [(part, run) for part, run in compiled if run]
            if self.batch:
                self.rest = [part for part, run in compiled if run is None]

    def rows(self) -> Iterator[Row]:
        scan = self.child
        survivors = None
        if isinstance(scan, VectorScan):
            scan.carry(name for part in self.rest for name in part.columns())
            if self.batch:
                import numpy as np

                mask = np.logical_and.reduce(
                    [run(scan) for _part, run in self.batch]
                )
                if obs.enabled:
                    obs.counters.add("vector.batch_select.calls")
                    obs.counters.add("vector.batch_select.rows", len(mask))
                survivors = scan.rows_at(np.flatnonzero(mask).tolist())
            elif scan.attr is not None:
                from repro.vector.backends import count_fallback

                count_fallback("vector", "predicate")
        tests = [_Bound(part) for part in self.rest]
        for row in scan.rows() if survivors is None else survivors:
            if all(test(row) for test in tests):
                yield row

    def describe(self) -> str:
        batch = ", ".join(f"{run.op}: {part!r}" for part, run in self.batch)
        rows = ", ".join(repr(part) for part in self.rest)
        return f"Select(batch=[{batch}], rows=[{rows}])"


class Project(Operator):
    """Evaluate output expressions, producing named result columns."""

    def __init__(self, child: Operator, outputs: Sequence[Tuple[str, Expr]]):
        self.child = child
        self.outputs = list(outputs)

    def rows(self) -> Iterator[Row]:
        outputs = [(name, _Bound(expr)) for name, expr in self.outputs]
        for row in self.child.rows():
            yield {name: value(row) for name, value in outputs}

    def describe(self) -> str:
        return f"Project({', '.join(name for name, _e in self.outputs)})"


class Sort(Operator):
    """Sort rows by a list of (expression, descending) keys."""

    def __init__(self, child: Operator, keys: Sequence[Tuple[Expr, bool]]):
        self.child = child
        self.keys = list(keys)

    def rows(self) -> Iterator[Row]:
        materialized = self.child.execute()
        # Stable multi-key sort: apply keys last-to-first.
        from repro.db.expressions import _unwrap

        for expr, descending in reversed(self.keys):
            value = _Bound(expr)
            materialized.sort(
                key=lambda row: _unwrap(value(row)), reverse=descending
            )
        return iter(materialized)

    def describe(self) -> str:
        return f"Sort({len(self.keys)} key(s))"


_AGGREGATES = {
    "count": lambda vals: len(vals),
    "min": lambda vals: min(vals),
    "max": lambda vals: max(vals),
    "sum": lambda vals: sum(vals),
    "avg": lambda vals: sum(vals) / len(vals) if vals else None,
}


class Aggregate(Operator):
    """Grouped aggregation.

    ``groups`` are expressions whose values partition the input; each
    output column is either a group expression or an aggregate
    ``(name, func, argument-expression)``.  With no group expressions
    the whole input forms one group (global aggregates).
    """

    def __init__(
        self,
        child: Operator,
        groups: Sequence[Tuple[str, Expr]],
        aggregates: Sequence[Tuple[str, str, Optional[Expr]]],
    ):
        self.child = child
        self.groups = list(groups)
        self.aggregates = list(aggregates)

    def rows(self) -> Iterator[Row]:
        from repro.db.expressions import _unwrap

        buckets: Dict[tuple, List[Row]] = {}
        order: List[tuple] = []
        groups = [_Bound(expr) for _name, expr in self.groups]
        for row in self.child.rows():
            key = tuple(_unwrap(value(row)) for value in groups)
            if key not in buckets:
                buckets[key] = []
                order.append(key)
            buckets[key].append(row)
        if not self.groups and not buckets:
            buckets[()] = []
            order.append(())
        args = {
            name: _Bound(arg)
            for name, _func, arg in self.aggregates if arg is not None
        }
        for key in order:
            members = buckets[key]
            out: Row = {
                name: value for (name, _e), value in zip(self.groups, key)
            }
            for name, func, arg in self.aggregates:
                fn = _AGGREGATES.get(func)
                if fn is None:
                    raise QueryError(f"unknown aggregate {func!r}")
                if func == "count" and arg is None:
                    out[name] = len(members)
                    continue
                if arg is None:
                    raise QueryError(f"aggregate {func} needs an argument")
                vals = [_unwrap(args[name](row)) for row in members]
                vals = [v for v in vals if v is not None]
                out[name] = fn(vals) if vals or func == "count" else None
            yield out

    def describe(self) -> str:
        aggs = ", ".join(f"{f}({n})" for n, f, _a in self.aggregates)
        return f"Aggregate(groups={len(self.groups)}, {aggs})"


class Distinct(Operator):
    """Remove duplicate rows (SELECT DISTINCT)."""

    def __init__(self, child: Operator):
        self.child = child

    def rows(self) -> Iterator[Row]:
        seen: set = set()
        for row in self.child.rows():
            try:
                key = tuple(sorted((k, v) for k, v in row.items()))
                hash(key)
            except TypeError:
                key = tuple(sorted((k, repr(v)) for k, v in row.items()))
            if key in seen:
                continue
            seen.add(key)
            yield row


class Limit(Operator):
    """Stop after ``n`` rows."""

    def __init__(self, child: Operator, n: int):
        self.child = child
        self.n = n

    def rows(self) -> Iterator[Row]:
        count = 0
        for row in self.child.rows():
            if count >= self.n:
                return
            yield row
            count += 1

    def describe(self) -> str:
        return f"Limit({self.n})"


class IndexFilteredProduct(Operator):
    """Cross product pre-filtered by a 3-D R-tree over bounding cubes.

    For each left row, only the right rows whose moving-attribute
    bounding cubes come within ``slack`` of the left one's are paired —
    the candidate set a spatio-temporal join index produces.  The
    remaining predicate still runs afterwards, so results equal the
    plain cross product's (an ablation the benchmarks measure).
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_attr: str,
        right_attr: str,
        slack: float = 0.0,
    ):
        self.left = left
        self.right = right
        self.left_attr = left_attr
        self.right_attr = right_attr
        self.slack = slack

    def rows(self) -> Iterator[Row]:
        from repro.index.rtree import RTree3D
        from repro.spatial.bbox import Cube

        right_rows = self.right.execute()
        tree = RTree3D()
        for idx, rrow in enumerate(right_rows):
            mv = rrow[self.right_attr]
            if not mv:
                continue
            tree.insert(mv.bounding_cube(), idx)
        for lrow in self.left.rows():
            mv = lrow[self.left_attr]
            if not mv:
                continue
            c = mv.bounding_cube()
            probe = Cube(
                c.xmin - self.slack,
                c.ymin - self.slack,
                c.tmin,
                c.xmax + self.slack,
                c.ymax + self.slack,
                c.tmax,
            )
            for idx in tree.search(probe):
                merged = dict(lrow)
                merged.update(right_rows[idx])
                yield merged

    def describe(self) -> str:
        return (
            f"IndexFilteredProduct({self.left_attr} ~ {self.right_attr}, "
            f"slack={self.slack})"
        )
