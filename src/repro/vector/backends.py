"""The physical operator table: one dispatch, one ladder, one combinator.

This module owns the decision "which code evaluates operation *op* on
backend *b*, and what it degrades to" — the only place in ``repro``
that compares a value against the backend names ``"vector"`` or
``"parallel"`` (lint rule MOD005); every other module passes names
through.  A backend names a column of the table and nothing else; a
sharded fleet is an *operand*, scattered in process on ``vector``.
DESIGN.md ("Physical operator table") has the operation × backend grid.

* :data:`OPERATIONS` — one :class:`Operation` per fleet operation: the
  column kind it reads, the batch kernel that evaluates one *part* (a
  whole column, a chunk of one, or one shard's column), the
  order-stable merge of the part outputs, and the single per-object
  scalar reference loop.
* :func:`scatter_gather` — split → run → merge over ``(ids, piece)``
  parts.  The fork pool instantiates it with unit-balanced object
  chunks (:func:`repro.parallel.exec.pool_chunks`), the shard executor
  with ``(global ids, shard column)`` parts (:mod:`repro.shard.exec`).
  In-process evaluation over one whole column (:func:`on_column`) has
  nothing to merge and returns the kernel's own arrays.
* :func:`evaluate` — the ladder parallel → vector → scalar, every rung
  taken counted by :func:`count_fallback`.  The pool rung runs if and
  only if the backend resolves to ``parallel`` (:func:`pooled`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

import numpy as np

from repro import config, obs
from repro.errors import InvalidValue, StorageError
from repro.spatial.bbox import Cube, Rect
from repro.spatial.point import Point
from repro.spatial.region import Region
from repro.vector.cache import column_for_versioned, revalidate
from repro.vector.kernels import (
    atinstant_batch,
    bbox_filter_batch,
    inside_prefilter,
    locate_units,
    path_length_batch,
    ureal_atinstant_batch,
    window_intervals_batch,
)

BACKENDS = ("scalar", "vector", "parallel")

#: The process-wide default (the CLI's ``--backend`` flag ends up here).
_backend: str = config.DEFAULT_BACKEND


def _known(name: str) -> str:
    if name not in BACKENDS:
        raise InvalidValue(f"unknown backend {name!r}; choose from {BACKENDS}")
    return name


def set_backend(name: str) -> None:
    """Select the process-wide default backend (see :data:`BACKENDS`)."""
    global _backend
    _backend = _known(name)


def get_backend() -> str:
    """The current process-wide default backend."""
    return _backend


def resolve(backend: Optional[str]) -> str:
    """A per-call ``backend=`` override, or the process-wide default."""
    return _backend if backend is None else _known(backend)


def columnar(backend: Optional[str] = None) -> bool:
    """Whether ``backend`` evaluates over columns (anything but the
    per-object scalar reference)."""
    return resolve(backend) != "scalar"


def pooled(backend: Optional[str] = None) -> bool:
    """Whether evaluation goes through the fork-pool rung (the one
    backend ``workers=`` affects)."""
    return resolve(backend) == "parallel"


#: Rung left behind → counter family; a sharded operand's failed
#: scatter is the ``"sharded"`` stage.
_FALLBACK_FAMILY = {
    "sharded": "shard.fallback",
    "parallel": "parallel.fallback",
    "vector": "vector.fallback_to_scalar",
}


def count_fallback(stage: str, reason: str) -> None:
    """Count one rung taken: ``stage`` is the rung left behind."""
    if obs.enabled:
        family = _FALLBACK_FAMILY[stage]
        obs.counters.add(family)
        obs.counters.add(f"{family}.{reason}")


#: A part's lane map: local lane ``j`` is global lane ``ids.start + j``
#: (a contiguous chunk) or ``ids[j]`` (a shard's ascending global ids).
Ids = Union[slice, np.ndarray]

IntervalRows = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _merge_lanes(*fills: Any) -> Callable[[int, List[Tuple[Ids, Any]]], Any]:
    """A merge for per-lane outputs: every part writes its own lanes.

    ``fills`` gives one fill value per output array (NaN for float
    payloads, False for masks — what the kernels put in ⊥ lanes); a
    single fill means the kernel returns a bare array, not a tuple.
    """

    def merge(n: int, parts: List[Tuple[Ids, Any]]) -> Any:
        outs = [np.full(n, fill) for fill in fills]
        for ids, local in parts:
            arrays = local if len(fills) > 1 else (local,)
            for out, arr in zip(outs, arrays):
                out[ids] = arr
        return tuple(outs) if len(fills) > 1 else outs[0]

    return merge


def _merge_rows(n: int, parts: List[Tuple[Ids, IntervalRows]]) -> IntervalRows:
    """Merge per-part interval rows into global-owner order.

    Owners rebase through each part's lane map; a stable sort by owner
    then interleaves the parts without ever reordering two rows of the
    same owner (each owner lives in exactly one part, and within an
    owner the kernel's time order is already right) — the whole-column
    kernel's grouping, reproduced bit for bit.  Contiguous chunks
    concatenate already sorted and skip the sort.
    """
    if not parts:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0), np.empty(0),
            np.empty(0, dtype=np.bool_), np.empty(0, dtype=np.bool_),
        )
    owner = np.concatenate([
        rows[0] + ids.start if isinstance(ids, slice) else ids[rows[0]]
        for ids, rows in parts
    ]).astype(np.int64, copy=False)
    s, e, lc, rc = (
        np.concatenate([rows[k] for _ids, rows in parts]) for k in (1, 2, 3, 4)
    )
    if np.any(owner[1:] < owner[:-1]):
        order = np.argsort(owner, kind="stable")
        return owner[order], s[order], e[order], lc[order], rc[order]
    return owner, s, e, lc, rc


def _inside_kernel(col: Any, t: float, region: Region) -> np.ndarray:
    """Member mask: one ``atinstant`` plus one batched plumbline call
    over the defined positions."""
    x, y, defined = atinstant_batch(col, t)
    mask = np.zeros(len(defined), dtype=np.bool_)
    idx = np.flatnonzero(defined)
    if idx.size:
        mask[idx] = inside_prefilter(np.column_stack([x[idx], y[idx]]), region)
    return mask


def _scalar_atinstant_real(
    fleet: Sequence[Any], t: float
) -> Tuple[np.ndarray, np.ndarray]:
    values = [m.value_at(t) for m in fleet]
    return (
        np.asarray([np.nan if v is None else float(v.value) for v in values]),
        np.asarray([v is not None for v in values], dtype=np.bool_),
    )


def _scalar_bbox_filter(fleet: Sequence[Any], cube: Cube) -> np.ndarray:
    return np.asarray(
        [bool(m.units and m.bounding_cube().intersects(cube)) for m in fleet],
        dtype=np.bool_,
    )


def _scalar_window_intervals(
    fleet: Sequence[Any], rect: Rect, t0: float, t1: float
) -> IntervalRows:
    from repro.ops.window import mpoint_within_rect_times
    from repro.ranges import Interval, RangeSet

    window = RangeSet([Interval(float(t0), float(t1))])
    owners: List[int] = []
    rows: List[Tuple[float, float, bool, bool]] = []
    for i, m in enumerate(fleet):
        spans = mpoint_within_rect_times(m, rect).intersection(window)
        for iv in spans.intervals:
            owners.append(i)
            rows.append((iv.s, iv.e, iv.lc, iv.rc))
    if not rows:
        return _merge_rows(0, [])
    arr = np.asarray(rows, dtype=np.float64)
    return (
        np.asarray(owners, dtype=np.int64),
        arr[:, 0], arr[:, 1],
        arr[:, 2].astype(np.bool_), arr[:, 3].astype(np.bool_),
    )


def _scalar_count_inside(
    fleet: Sequence[Any], t: float, region: Region
) -> np.ndarray:
    mask = []
    for m in fleet:
        p = m.value_at(t)
        mask.append(bool(p is not None and region.contains_point(p.vec)))
    return np.asarray(mask, dtype=np.bool_)


def _scalar_path_length(fleet: Sequence[Any]) -> Tuple[np.ndarray, np.ndarray]:
    """The merged trajectory's own length: every lane exact."""
    return (
        np.asarray([m.trajectory().length() for m in fleet], dtype=np.float64),
        np.ones(len(fleet), dtype=np.bool_),
    )


def _points(lanes: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> List[Optional[Point]]:
    xs, ys, defined = lanes
    if not (np.isfinite(xs[defined]).all() and np.isfinite(ys[defined]).all()):
        raise InvalidValue("point coordinates must be finite")
    out = cast(List[Optional[Point]], Point.many(xs.tolist(), ys.tolist()))
    for i in np.flatnonzero(~defined).tolist():
        out[i] = None
    return out


def _point_lanes(
    points: Sequence[Optional[Point]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (
        np.asarray([np.nan if p is None else float(p.x) for p in points]),
        np.asarray([np.nan if p is None else float(p.y) for p in points]),
        np.asarray([p is not None for p in points], dtype=np.bool_),
    )


@dataclass(frozen=True)
class Operation:
    """One row of the physical operator table."""

    name: str
    #: Column kind the kernel reads (``repro.vector.cache`` builders);
    #: a failed build counts ``vector.fallback_to_scalar.<kind>_column``.
    kind: str
    #: ``kernel(column, *args)`` → arrays in the column's own lanes.
    kernel: Callable[..., Any]
    #: ``merge(n, [(ids, arrays)])`` → arrays in ``n`` global lanes.
    merge: Callable[[int, List[Tuple[Ids, Any]]], Any]
    #: ``scalar(fleet, *args)`` → the per-object reference answer: the
    #: same arrays, unless ``decode``/``encode`` translate (``atinstant``
    #: answers with whatever the members' own ``value_at`` returns).
    scalar: Callable[..., Any]
    decode: Optional[Callable[[Any], Any]] = None
    encode: Optional[Callable[[Any], Any]] = None
    #: Whether the pool rung may chunk it: moving-real fleets are
    #: derived, query-local values, never worth a pool dispatch.
    chunked: bool = True


OPERATIONS: Dict[str, Operation] = {
    op.name: op
    for op in (
        Operation(
            "atinstant", kind="upoint", kernel=atinstant_batch,
            merge=_merge_lanes(np.nan, np.nan, False),
            scalar=lambda fleet, t: [m.value_at(t) for m in fleet],
            decode=_points, encode=_point_lanes,
        ),
        Operation(
            "atinstant_real", kind="ureal", kernel=ureal_atinstant_batch,
            merge=_merge_lanes(np.nan, False),
            scalar=_scalar_atinstant_real, chunked=False,
        ),
        Operation(
            "present", kind="upoint",
            kernel=lambda col, t: locate_units(col, t)[1],
            merge=_merge_lanes(False),
            scalar=lambda fleet, t: np.asarray(
                [m.present(t) for m in fleet], dtype=np.bool_
            ),
        ),
        Operation(
            "bbox_filter", kind="bbox", kernel=bbox_filter_batch,
            merge=_merge_lanes(False), scalar=_scalar_bbox_filter,
        ),
        Operation(
            "window_intervals", kind="upoint", kernel=window_intervals_batch,
            merge=_merge_rows, scalar=_scalar_window_intervals,
        ),
        Operation(
            "count_inside", kind="upoint", kernel=_inside_kernel,
            merge=_merge_lanes(False), scalar=_scalar_count_inside,
        ),
        Operation(
            "path_length", kind="upoint", kernel=path_length_batch,
            merge=_merge_lanes(0.0, True), scalar=_scalar_path_length,
        ),
    )
}


# ---------------------------------------------------------------------------
# The combinator and the ladder
# ---------------------------------------------------------------------------


def scatter_gather(
    n: int,
    parts: Iterable[Tuple[Ids, Any]],
    run: Callable[[Iterable[Any]], Iterable[Any]],
    merge: Callable[[int, List[Tuple[Ids, Any]]], Any],
) -> Any:
    """Split → run → merge, in stable order.

    ``parts`` yields ``(ids, piece)`` pairs and may be lazy — the shard
    executor maps a shard's column only when ``run`` asks for the next
    piece, so a memory budget below the working set holds.  ``run``
    turns the pieces into their kernel outputs, in order (sequentially
    in process, concurrently over the fork pool); ``merge`` places them
    at their ``ids`` in ``n`` global lanes.
    """
    lanes: List[Ids] = []

    def pieces() -> Iterable[Any]:
        for ids, piece in parts:
            lanes.append(ids)
            yield piece

    outs = list(run(pieces()))
    return merge(n, list(zip(lanes, outs)))


def _column(
    entry: Operation, col: Any, args: Tuple[Any, ...], n_workers: Optional[int]
) -> Any:
    """The parallel → vector rungs over one column (or sub-column)."""
    if n_workers is not None and entry.chunked:
        from repro.parallel.exec import pool_chunks

        chunked = pool_chunks(entry, col, args, n_workers)
        if chunked is not None:
            return chunked
    return entry.kernel(col, *args)


def _workers(backend: Optional[str], workers: Optional[int]) -> Optional[int]:
    """The pool's worker count where ``backend`` is :func:`pooled`;
    ``None`` runs in process."""
    if not pooled(backend):
        return None
    from repro.parallel.pool import effective_workers

    return effective_workers(workers)


def gather(
    op: str,
    n: int,
    parts: Iterable[Tuple[Ids, Any]],
    args: Tuple[Any, ...],
    backend: Optional[str] = "vector",
    workers: Optional[int] = None,
) -> Any:
    """``op`` over ``(ids, column)`` parts, merged into ``n`` global
    lanes; every column goes through the pool rung first where the
    backend is :func:`pooled`."""
    entry = OPERATIONS[op]
    n_workers = _workers(backend, workers)
    run = partial(map, lambda col: _column(entry, col, args, n_workers))
    return scatter_gather(n, parts, run, entry.merge)


def on_column(
    op: str,
    col: Any,
    args: Tuple[Any, ...],
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> Any:
    """``op`` over one already-built column, in that column's own lanes:
    the kernel's own arrays, with nothing to merge (the pool rung merges
    its chunks itself)."""
    return _column(OPERATIONS[op], col, args, _workers(backend, workers))


def evaluate(
    op: str,
    fleet: Sequence[Any],
    args: Tuple[Any, ...],
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    parts: Optional[Iterable[Tuple[Ids, Any]]] = None,
    arrays: bool = False,
) -> Any:
    """Evaluate table operation ``op`` over ``fleet`` on ``backend``.

    A plain fleet acquires its ``kind`` column (``column_for_versioned``
    + ``revalidate``: cached for versioned fleets, transcribed per call
    for plain sequences) and runs :func:`on_column` over it — except
    ``bbox``, whose entries skip empty members and are merged through
    their keys; a sharded operand passes ``parts`` — its lazy ``(global
    ids, shard column)`` scatter.  ``InvalidValue``/``StorageError`` on
    a columnar rung degrade, counted, to the scalar reference loop.
    ``arrays`` asks for the arrays the columnar rungs compute even where
    the reference answer has another form.
    """
    entry = OPERATIONS[op]
    sharded = parts is not None
    if columnar(backend):
        try:
            if parts is not None:
                merged = gather(op, len(fleet), parts, args, backend, workers)
            else:
                version, col = column_for_versioned(fleet, entry.kind)
                col = revalidate(fleet, entry.kind, version, col)
                if entry.kind == "bbox":
                    merged = gather(
                        op, len(fleet), [(col.keys, col)], args, backend, workers
                    )
                else:
                    merged = on_column(op, col, args, backend, workers)
        except (InvalidValue, StorageError):
            if sharded:
                count_fallback("sharded", "column")
            else:
                count_fallback("vector", f"{entry.kind}_column")
        else:
            if sharded and obs.enabled:
                obs.counters.add("shard.scatters")
            if entry.decode is not None and not arrays:
                return entry.decode(merged)
            return merged
    answer = entry.scalar(fleet, *args)
    if entry.encode is not None and arrays:
        return entry.encode(answer)
    return answer
