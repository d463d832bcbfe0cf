"""Space-tiled fleets: Section-4 root records split into spatial tiles.

The paper's sliced representation keeps one *root record* per moving
object and an array of fixed-size unit records per slice; nothing in
that layout requires all root records to live in one array.  A
:class:`ShardedFleet` partitions them into ``n_shards`` independent
:class:`repro.vector.cache.Fleet` sequences — each with its own stamp,
its own columns, and (under a
:class:`repro.shard.manager.ShardManager`) its own column-store
directory — while still presenting the global fleet as one sequence in
the order it was built from.  The tiling is decided once, at
construction; a sharded fleet has no write path.

**Placement.**  Section 4.2 gives every unit a bounding cube so that a
query can discard what it cannot touch before reading it; a shard whose
members share a region of space gives the same test a whole shard to
discard.  Construction therefore computes every member's bounding
cube from its unit column (:meth:`BBoxColumn.from_upoint`) and packs the
members into exactly ``n_shards`` *tiles of equal count* by recursive
bisection on cube centres: ``k`` tiles split ``⌊k/2⌋ + ⌈k/2⌉``, the
members in the same proportion along one axis, recurse.  The axis cut is
the one whose centre spread is largest *relative to the members' mean
extent on it* (how many members fit side by side, at most all of them)
— an axis on which members are as wide as the fleet (time, for
short-lived objects that all start together) separates nothing and is
never cut.

Placement is *object-granular* — an object's units never span shards —
because the window kernel merges adjacent in-rect runs within an object
and the gather requires each owner in one part; for fleets of
world-spanning objects the tile bounds merely overlap and pruning
degrades, the answers stay exact.

Scatter-gather is exact rather than approximate because of **stable
global ids, ascending per shard**: an object's global id is its position
in the member list, and it lives in exactly one shard;
``globals_of(s)`` maps a shard's local positions back to *strictly
ascending* global ids (members are placed shard by shard in id order)
— so per-shard kernel output, owner columns rebased through
``globals_of``, concatenated in shard order and stably sorted by owner,
is *identical* to the unsharded kernel's output (see
:mod:`repro.shard.exec`).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidValue
from repro.spatial.bbox import Cube
from repro.vector.cache import Fleet
from repro.vector.columns import BBoxColumn

#: Members whose cubes are computed per step of construction: the
#: transcription's transient row list stays a few MB instead of growing
#: with the fleet.
_CUBE_CHUNK = 8192


def _cube_of(value: Any) -> Any:
    """``value``'s bounding cube; None for an empty mapping, False for a
    member that is not a sliced mapping (it has no cube, and a bound
    that excludes it would prune rows it should produce)."""
    try:
        return value.bounding_cube() if value.units else None
    except AttributeError:
        return False


def _member_cubes(members: Sequence[Any]) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """``(gids, boxes, unsliced)`` of a member list.

    ``boxes[k]`` is the bounding cube ``(xmin, ymin, tmin, xmax, ymax,
    tmax)`` of member ``gids[k]`` (ascending); empty mappings have none,
    and ``unsliced`` lists the members that are not sliced mappings at
    all.
    """
    gids: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    boxes: List[np.ndarray] = [np.empty((0, 6))]
    unsliced: List[int] = []
    for base in range(0, len(members), _CUBE_CHUNK):
        chunk = members[base:base + _CUBE_CHUNK]
        try:
            col = BBoxColumn.from_mappings(chunk)
        except InvalidValue:
            cubes = [(k, _cube_of(m)) for k, m in enumerate(chunk)]
            unsliced += [base + k for k, c in cubes if c is False]
            col = BBoxColumn.from_cubes([(k, c) for k, c in cubes if c])
        gids.append(col.keys + base)
        boxes.append(np.column_stack(
            [col.xmin, col.ymin, col.tmin, col.xmax, col.ymax, col.tmax]
        ))
    return np.concatenate(gids), np.concatenate(boxes), unsliced


def _tile(boxes: np.ndarray, k: int) -> np.ndarray:
    """Tile index in ``range(k)`` for each cube: ``k`` groups whose
    sizes differ by at most one, by recursive bisection on cube centres.
    """
    # A side at ±∞ is placed at ±1e200, beyond any modelled coordinate:
    # ±∞ has no centre and ∞ − ∞ no extent (finite cubes are untouched).
    boxes = np.clip(boxes, -1e200, 1e200)
    centres = (boxes[:, :3] + boxes[:, 3:]) / 2.0
    extents = boxes[:, 3:] - boxes[:, :3]
    out = np.zeros(len(boxes), dtype=np.int64)

    def split(idx: np.ndarray, first: int, k: int) -> None:
        if k == 1 or idx.size == 0:
            out[idx] = first
            return
        c = centres[idx]
        spread = c.max(axis=0) - c.min(axis=0)
        # How many members fit side by side along each axis — at most
        # all of them, so axes on which the members are (nearly) points
        # tie at "as separable as it gets" and the first one is cut,
        # rather than one with no spread to speak of winning on 1/0.
        width = np.maximum(extents[idx].mean(axis=0), spread / idx.size)
        fit = np.divide(spread, width, out=np.zeros(3), where=width > 0)
        axis = int(np.argmax(fit))
        idx = idx[np.argsort(c[:, axis], kind="stable")]
        left = k // 2
        # The first ``n % k`` tiles of a group take the odd members, so
        # the halves split again into sizes that still differ by <= 1.
        cut = left * (idx.size // k) + min(left, idx.size % k)
        split(idx[:cut], first, left)
        split(idx[cut:], first + left, k - left)

    split(np.arange(len(boxes)), 0, k)
    return out


class ShardedFleet:
    """A fleet of moving objects partitioned into spatial shard fleets.

    Sequence-like in *global* order (``len``/``[]``/iteration are the
    member list the fleet was built from), with the columns built from
    the per-shard :class:`Fleet` instances in :attr:`shards`.  Shard
    membership is decided once, by tiling at construction, so a
    mapping's shard (and its position within it) is fixed for the
    fleet's lifetime.
    """

    __slots__ = ("n_shards", "shards", "_members", "_globals", "_bounds", "__weakref__")

    def __init__(self, mappings: Iterable[Any] = (), n_shards: int = 2):
        if n_shards < 1:
            raise InvalidValue(f"shard count must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        members = self._members = tuple(mappings)
        gids, boxes, unsliced = _member_cubes(members)
        assign = np.full(len(members), -1, dtype=np.int64)
        assign[gids] = _tile(boxes, n_shards)
        # Members without a cube say nothing about where they belong:
        # they even out the counts.
        counts = np.bincount(assign[gids], minlength=n_shards)
        for gid in np.flatnonzero(assign < 0):
            assign[gid] = s = int(np.argmin(counts))
            counts[s] += 1
        order = np.argsort(assign, kind="stable")
        # shard -> ascending global ids of its members
        self._globals: Tuple[np.ndarray, ...] = tuple(
            order[end - n:end] for n, end in zip(counts, np.cumsum(counts))
        )
        self.shards: Tuple[Fleet, ...] = tuple(
            Fleet(members[g] for g in ids.tolist()) for ids in self._globals
        )
        # A member without a bounding cube makes its shard un-prunable:
        # a bound that excludes it would prune rows it should produce.
        poisoned = {int(assign[gid]) for gid in unsliced}
        # shard -> union of member bounding cubes (None: empty or
        # poisoned), consulted by ShardManager.prune *before* any
        # column of the shard is mapped.
        tiles = assign[gids]
        bounds: List[Optional[Cube]] = []
        for s in range(n_shards):
            rows = boxes[tiles == s]
            bounds.append(
                Cube(
                    *rows[:, :3].min(axis=0).tolist(),
                    *rows[:, 3:].max(axis=0).tolist(),
                )
                if len(rows) and s not in poisoned else None
            )
        self._bounds = tuple(bounds)

    # -- sequence protocol (global order) -----------------------------------

    def __len__(self) -> int:
        return len(self._members)

    def __getitem__(self, i: int) -> Any:
        return self._members[i]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._members)

    def __repr__(self) -> str:
        return f"ShardedFleet({len(self)} objects over {self.n_shards} shards)"

    # -- shard views --------------------------------------------------------

    def globals_of(self, s: int) -> np.ndarray:
        """Ascending global ids of shard ``s``'s members (int64)."""
        return self._globals[s]

    def bounds(self, s: int) -> Optional[Cube]:
        """Conservative bounding cube of shard ``s`` (None: unknown —
        the shard is empty or holds members without bounding cubes and
        must never be pruned)."""
        return self._bounds[s]
