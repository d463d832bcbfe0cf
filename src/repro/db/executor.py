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
from repro.db.expressions import Expr, Row
from repro.db.relation import Relation
from repro.errors import QueryError, StorageError
from repro.storage.records import codec_for, safe_unpack
from repro.temporal.mapping import MovingPoint

_MPOINT = codec_for("mpoint")


#: What :meth:`VectorScan._guard` answers for a quarantined value.
_QUARANTINED = object()


def _as_is(value: Any) -> Any:
    return value


class Operator:
    """Base class of executable plan nodes."""

    def rows(self) -> Iterator[Row]:
        raise NotImplementedError

    def execute(self) -> List[Row]:
        """Materialize the operator's output."""
        return list(self.rows())


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


class VectorScan(SeqScan):
    """A scan that additionally exposes its moving-point attribute as a
    columnar batch (Section-4 layout, :mod:`repro.vector.columns`).

    Behaves exactly like :class:`SeqScan` when iterated.  On top of that
    it reads the relation once and keeps what it read, so a parent
    :class:`Select` whose predicate compiles to a batch kernel can
    evaluate it relation-wide in one call (:meth:`batch`) and then ask
    for the surviving rows alone (:meth:`rows_at`).  Over a materialized
    relation what is kept is the tuples' *stored* values: the attribute's
    :class:`~repro.vector.columns.UPointColumn` is the stored unit
    arrays reinterpreted, and a value is unpacked only for a row that is
    returned.  Column lanes, masks and :meth:`rows_at` arguments are all
    tuple ids; a quarantined tuple is an empty lane that yields no row.
    """

    #: The operator-table backend (:mod:`repro.vector.backends`) this
    #: scan is planned for and evaluates its batch predicates on.
    backend = "vector"

    def __init__(self, relation: Relation, alias: Optional[str] = None,
                 attr: Optional[str] = None, strict: bool = True,
                 workers: Optional[int] = None):
        super().__init__(relation, alias, strict)
        self.attr = attr
        self.workers = workers
        #: Attribute names the rows carry; ``None`` means all.  The
        #: planner starts a single-relation statement's scan from the
        #: empty set and every operator above adds what it names
        #: (:meth:`carry`), so nothing else is unpacked.
        self.columns: Optional[Set[str]] = None
        #: What turns a held value into the attribute value.
        self._decode = safe_unpack if relation.store is not None else _as_is
        self._held: Optional[Dict[int, List[Any]]] = None
        self._mappings: Optional[List[Any]] = None
        self._column: Any = None

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

    def held(self) -> Dict[int, List[Any]]:
        """Tuple id → the tuple's values in schema order, read once per
        scan: stored values (every length, FLOB chain and page verified,
        the moving-point units array checked for its layout, nothing
        unpacked) for a materialized relation, the live values
        otherwise.  The keys are the lane → tuple-id map: ascending, and
        missing exactly the quarantined tuples."""
        if self._held is None:
            store = self.relation.store
            if store is None:
                self._held = {
                    tid: list(row.values())
                    for tid, row in enumerate(self.relation.scan())
                }
            else:
                at = None if self.attr is None else self._attr_index()
                self._held = {
                    tid: stored
                    for tid, stored in store.scan_stored(self.strict)
                    if at is None
                    or self._guard(_MPOINT.unit_array, stored[at])
                    is not _QUARANTINED
                }
        return self._held

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
            if values is None:
                continue
            row = self._guard(unpack, values)
            if row is _QUARANTINED:
                del held[tid]
                continue
            yield row

    def mappings(self) -> List[Any]:
        """The moving-point attribute values by tuple id (the empty
        mapping where a tuple holds no row)."""
        if self._mappings is None:
            at = self._attr_index()
            held = self.held()
            out: List[Any] = [MovingPoint()] * len(self.relation)
            for tid in list(held):
                value = self._guard(self._decode, held[tid][at])
                if value is _QUARANTINED:
                    del held[tid]
                else:
                    out[tid] = value
            self._mappings = out
        return self._mappings

    def column(self):
        """The attribute's unit column (built lazily, cached)."""
        if self._column is None:
            from repro.vector.columns import UPointColumn

            if self.relation.store is None:
                self._column = UPointColumn.from_mappings(self.mappings())
            else:
                import numpy as np

                at = self._attr_index()
                held = self.held()
                self._column = UPointColumn.from_unit_arrays(
                    [stored[at].arrays[0] for stored in held.values()],
                    lanes=np.fromiter(held, np.int64, len(held)),
                    n_objects=len(self.relation),
                )
        return self._column

    def batch(self, op: str, *args: Any) -> Any:
        """Operator-table operation ``op`` over the attribute, one lane
        per tuple id."""
        from repro.vector.backends import on_column

        return on_column(op, self.column(), args, self.backend, self.workers)

    def rows(self) -> Iterator[Row]:
        return self.rows_at(list(self.held()))


class ParallelScan(VectorScan):
    """A :class:`VectorScan` whose batch predicates run chunked over the
    shared-memory process pool (:mod:`repro.parallel`).

    Identical row output; only the table column differs, and it degrades
    to the single-process kernels (counted under ``parallel.fallback.*``)
    whenever the pool is unavailable or the fleet is too small to
    out-earn dispatch.
    """

    backend = "parallel"


class MmapScan(VectorScan):
    """A :class:`VectorScan` whose columns come from the persistent
    column store (:mod:`repro.vector.store`) instead of a per-process
    transcription of the tuple store.

    Row output is identical; only the column acquisition differs: an
    intact store generation is served as views of the mapped files (the
    cold-start path this operator exists for, counted under
    ``colstore.hits``), a missing/corrupt/stale one is rebuilt from the
    scanned mappings and re-persisted (``colstore.rebuilds``).  Planned
    for the ``parallel`` backend, batch predicates dispatch through the
    pool like a :class:`ParallelScan` — workers then map the same files
    (``colstore.mmap_direct``) rather than receiving a shm copy.
    """

    def __init__(self, relation: Relation, alias: Optional[str] = None,
                 attr: Optional[str] = None, strict: bool = True,
                 store_root: Optional[str] = None,
                 backend: str = VectorScan.backend,
                 workers: Optional[int] = None):
        super().__init__(relation, alias, attr, strict, workers)
        self.store_root = store_root
        self.backend = backend

    def _store_column(self) -> Any:
        from repro.vector.store import ColumnStore

        if self.store_root is None:
            return None
        store = ColumnStore(self.store_root)
        # Serve straight from disk when the stored generation has one
        # lane per tuple of the relation — without building anything,
        # which is the whole cold-start saving.  Anything else is
        # rebuilt from the unpacked mappings.
        try:
            col = store.load_current("upoint", len(self.relation))
            if col is None:
                col = store.rebuild("upoint", self.mappings())
            return col
        except (OSError, StorageError):
            return None  # degraded: in-memory transcription below

    def column(self):
        if self._column is None:
            self._column = self._store_column()
        if self._column is None:
            return super().column()
        return self._column


class ShardedScan(VectorScan):
    """A :class:`VectorScan` tiled into fleet shards, batch predicates
    answered by scatter-gather (:mod:`repro.shard`).

    Row output is identical; the difference is physical: the attribute's
    mappings are packed into ``n_shards`` equal-count spatial tiles of
    their bounding cubes (whole objects, row order kept within a shard),
    each a shard fleet with its own columns held under a byte-budgeted
    :class:`~repro.shard.manager.ShardManager` — window predicates prune
    whole shards by their bounding cubes before any column is mapped,
    and the per-shard kernel outputs gather back bit-identical to the
    unsharded batch (the ``tests/test_shard_properties.py`` identity).
    """

    backend = "sharded"

    def __init__(self, relation: Relation, alias: Optional[str] = None,
                 attr: Optional[str] = None, strict: bool = True,
                 shards: int = 2, workers: Optional[int] = None,
                 memory_budget: Optional[int] = None):
        super().__init__(relation, alias, attr, strict, workers)
        self.n_shards = max(1, int(shards))
        self.memory_budget = memory_budget
        self._manager: Any = None

    def manager(self):
        """The scan's shard manager (partitioned lazily, cached)."""
        if self._manager is None:
            from repro.shard.fleet import ShardedFleet
            from repro.shard.manager import ShardManager

            self._manager = ShardManager(
                ShardedFleet(self.mappings(), self.n_shards),
                budget=self.memory_budget,
            )
        return self._manager

    def batch(self, op: str, *args: Any) -> Any:
        """Operator-table operation ``op`` scattered over the shards,
        gathered into one lane per row."""
        from repro.shard.exec import sharded

        return sharded(op, self.manager(), args, self.workers, self.backend)


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

        table: Dict[Any, List[Row]] = {}
        for rrow in self.right.rows():
            key = _unwrap(self.right_key.eval(rrow))
            table.setdefault(key, []).append(rrow)
        for lrow in self.left.rows():
            key = _unwrap(self.left_key.eval(lrow))
            for rrow in table.get(key, ()):
                merged = dict(lrow)
                overlap = set(merged) & set(rrow)
                if overlap:
                    raise QueryError(
                        f"ambiguous columns in join: {sorted(overlap)}"
                    )
                merged.update(rrow)
                yield merged


class Select(Operator):
    """Filter rows by a boolean expression.

    When the child is a :class:`VectorScan` and the predicate compiles
    to a batch kernel (see ``compile_batch_predicate``), the filter runs
    fleet-wide in one mask evaluation instead of once per row; a
    non-compilable predicate over a VectorScan falls back to the scalar
    row loop and counts the event.
    """

    def __init__(self, child: Operator, predicate: Expr):
        self.child = child
        self.predicate = predicate

    def rows(self) -> Iterator[Row]:
        scan = self.child
        if isinstance(scan, VectorScan):
            if scan.attr is not None:
                from repro.db.expressions import compile_batch_predicate
                from repro.vector.backends import count_fallback

                compiled = compile_batch_predicate(
                    self.predicate, scan.alias, scan.attr
                )
                if compiled is not None:
                    import numpy as np

                    mask = compiled(scan)
                    if obs.enabled:
                        obs.counters.add("vector.batch_select.calls")
                        obs.counters.add("vector.batch_select.rows", len(mask))
                    yield from scan.rows_at(np.flatnonzero(mask).tolist())
                    return
                count_fallback("vector", "predicate")
            scan.carry(self.predicate.columns())
        for row in self.child.rows():
            if self.predicate.eval(row):
                yield row


class Project(Operator):
    """Evaluate output expressions, producing named result columns."""

    def __init__(self, child: Operator, outputs: Sequence[Tuple[str, Expr]]):
        self.child = child
        self.outputs = list(outputs)

    def rows(self) -> Iterator[Row]:
        for row in self.child.rows():
            yield {name: expr.eval(row) for name, expr in self.outputs}


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
            materialized.sort(
                key=lambda row: _unwrap(expr.eval(row)), reverse=descending
            )
        return iter(materialized)


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
        for row in self.child.rows():
            key = tuple(_unwrap(expr.eval(row)) for _name, expr in self.groups)
            if key not in buckets:
                buckets[key] = []
                order.append(key)
            buckets[key].append(row)
        if not self.groups and not buckets:
            buckets[()] = []
            order.append(())
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
                vals = [_unwrap(arg.eval(row)) for row in members]
                vals = [v for v in vals if v is not None]
                out[name] = fn(vals) if vals or func == "count" else None
            yield out


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
