"""Spatio-temporal window queries: filter and refine.

"Find all objects inside rectangle W during [t0, t1]" is the classic
moving objects query.  The filter is the time prune of the operator
table's ``window_intervals`` row (:mod:`repro.vector.backends`): only
units whose interval meets the window are refined.  The refinement
step here is *exact*: a linearly moving point lies inside an
axis-aligned rectangle exactly when four linear inequalities hold, so
the time set is an intersection of intervals computed in closed form
per unit — no sampling.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro import obs
from repro.config import feq, fle, fstationary
from repro.errors import InvalidValue, StorageError
from repro.ranges.interval import Interval
from repro.ranges.rangeset import RangeSet
from repro.spatial.bbox import Rect
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint
from repro.vector import backends
from repro.vector.cache import Fleet


def _linear_within(c0: float, c1: float, lo: float, hi: float, t0: float, t1: float):
    """Times in [t0, t1] where ``lo <= c0 + c1·t <= hi`` (None = never).

    A coordinate that is stationary over [t0, t1] (``fstationary``: it
    moves by at most EPSILON) is inside throughout or never, by the
    eps-test of its position at ``t0``.
    """
    if fstationary(c1, t1 - t0):
        p = c0 + c1 * t0 if c1 else c0  # c0 when motionless, whatever t0
        return (t0, t1) if fle(lo, p) and fle(p, hi) else None
    ta = (lo - c0) / c1
    tb = (hi - c0) / c1
    if ta > tb:  # modlint: disable=MOD001 root ordering swap, not a tolerance decision
        ta, tb = tb, ta
    a, b = max(t0, ta), min(t1, tb)
    # Exact comparison: Interval construction requires s <= e exactly,
    # and a graze within eps was already admitted by the fle bounds.
    if a > b:  # modlint: disable=MOD001 see comment above
        return None
    return (a, b)


def upoint_within_rect_times(u: UPoint, rect: Rect) -> Optional[Interval]:
    """The (single) time interval during which the unit is inside ``rect``.

    A linear motion enters and leaves a convex window at most once, so
    the result is one interval or None.  Closure flags are inherited
    from the unit interval where the window condition extends to its
    end points.
    """
    iv = u.interval
    m = u.motion
    x_span = _linear_within(m.x0, m.x1, rect.xmin, rect.xmax, iv.s, iv.e)
    if x_span is None:
        return None
    y_span = _linear_within(m.y0, m.y1, rect.ymin, rect.ymax, iv.s, iv.e)
    if y_span is None:
        return None
    a = max(x_span[0], y_span[0])
    b = min(x_span[1], y_span[1])
    if a > b:  # modlint: disable=MOD001 Interval requires s <= e exactly; empty window
        return None
    # Closure flags inherit from the unit interval whenever the window
    # condition reaches its end points within tolerance — the entry
    # instant is a computed root and may drift by an ulp from the
    # stored end point.
    lc = iv.lc if feq(a, iv.s) else True
    rc = iv.rc if feq(b, iv.e) else True
    # Exact degenerate check, matching Interval.is_degenerate: a tiny
    # but genuine interval must stay a real interval.
    if a == b and not (lc and rc):  # modlint: disable=MOD001 see comment above
        return None
    return Interval(a, b, lc and True, rc and True)


def mpoint_within_rect_times(mp: MovingPoint, rect: Rect) -> RangeSet[float]:
    """All times at which the moving point lies inside the rectangle."""
    out: List[Interval] = []
    for u in mp.units:
        assert isinstance(u, UPoint)
        iv = upoint_within_rect_times(u, rect)
        if iv is not None:
            out.append(iv)
    return RangeSet.normalized(out)


def group_intervals(
    owners: np.ndarray,
    s: np.ndarray,
    e: np.ndarray,
    lc: np.ndarray,
    rc: np.ndarray,
    keys: Sequence[Hashable],
) -> List[Tuple[Hashable, RangeSet[float]]]:
    """Assemble kernel interval rows into ``(key, RangeSet)`` results.

    Rows arrive grouped by owner in canonical time order (see
    ``window_intervals_batch``), so each owner's slice already satisfies
    the ``RangeSet`` ordering/disjointness invariants and goes straight
    through the validating constructor.
    """
    out: List[Tuple[Hashable, RangeSet[float]]] = []
    if len(owners) == 0:
        return out
    split_at = np.flatnonzero(owners[1:] != owners[:-1]) + 1
    starts = np.concatenate(([0], split_at))
    ends = np.concatenate((split_at, [len(owners)]))
    for a, b in zip(starts, ends):
        ivs = [
            Interval(float(s[j]), float(e[j]), bool(lc[j]), bool(rc[j]))
            for j in range(a, b)
        ]
        out.append((keys[int(owners[a])], RangeSet(ivs)))
    return out


class WindowQueryEngine:
    """Window queries by object key over one collection of moving points.

    A keyed view: eagerly registered objects form one versioned
    :class:`Fleet` (so its column is cached across queries), lazily
    registered ones are loaders read per query; filter and refinement
    are the operator table's ``window_intervals`` row on every backend.
    A key is registered once.
    """

    def __init__(self) -> None:
        # Insertion-ordered, so the keys stay index-aligned with the fleet.
        self._objects: Dict[Hashable, MovingPoint] = {}
        self._fleet = Fleet()
        self._loaders: Dict[Hashable, Callable[[], MovingPoint]] = {}

    def _check_new(self, keys: Iterable[Hashable]) -> None:
        """Refuse a key that is already registered (eager or lazy) or
        repeats within ``keys``, before anything is registered."""
        seen: Set[Hashable] = set()
        for key in keys:
            if key in self._objects or key in self._loaders or key in seen:
                raise InvalidValue(f"key {key!r} is already registered")
            seen.add(key)

    def add(self, key: Hashable, mp: MovingPoint) -> None:
        """Register a moving point under ``key``."""
        self.add_fleet([(key, mp)])

    def add_fleet(
        self, items: Iterable[Tuple[Hashable, MovingPoint]]
    ) -> None:
        """Register many moving points at once: all of ``items`` or,
        when one of their keys is taken, none."""
        pairs = list(items)
        self._check_new(key for key, _ in pairs)
        for key, mp in pairs:
            self._objects[key] = mp
        self._fleet.extend(mp for _, mp in pairs)

    def add_lazy(self, key: Hashable, loader: Callable[[], MovingPoint]) -> None:
        """Register a storage-resident moving point under ``key``.

        ``loader`` fetches the value from storage; it is called once now,
        so a broken loader fails at registration, and again by every
        query, so a value that rots on disk afterwards surfaces as a
        :class:`StorageError` the query can quarantine.
        """
        self._check_new([key])
        loader()
        self._loaders[key] = loader

    def __len__(self) -> int:
        return len(self._objects) + len(self._loaders)

    def _members(
        self, strict: bool
    ) -> Tuple[List[Hashable], Sequence[MovingPoint]]:
        """Keys + the moving points they name, index-aligned.

        Without lazy objects the members are the fleet itself (its
        column kept); otherwise a list, the loaders read now (their
        storage may have changed).  With ``strict=False`` loaders that
        fail are quarantined (counted under ``storage.quarantined``) and
        simply excluded.
        """
        keys = list(self._objects)
        if not self._loaders:
            return keys, self._fleet
        members: List[MovingPoint] = list(self._fleet.members())
        for key, loader in self._loaders.items():
            try:
                mp = loader()
            except StorageError:
                if strict:
                    raise
                if obs.enabled:
                    obs.counters.add("storage.quarantined")
                continue
            keys.append(key)
            members.append(mp)
        return keys, members

    def query(
        self,
        rect: Rect,
        t0: float,
        t1: float,
        backend: Optional[str] = None,
        strict: bool = True,
        workers: Optional[int] = None,
    ) -> List[Tuple[Hashable, RangeSet[float]]]:
        """Objects inside ``rect`` at some instant of [t0, t1], with the
        exact time sets of their presence (restricted to the window),
        ordered by ``str(key)``.

        One ``window_intervals`` evaluation over every member on
        ``backend``: on the columnar backends filter *and* refinement
        are one kernel sweep over the units whose time interval meets
        ``[t0, t1]`` (chunked over ``workers`` pool processes where the
        backend has a pool); ``scalar`` refines every object exactly —
        same results.  ``strict=False`` quarantines objects whose
        storage representation fails to load (skipped, counted under
        ``storage.quarantined``) instead of aborting the query.
        """
        Interval(t0, t1)  # a reversed or NaN window is InvalidValue here
        keys, members = self._members(strict)
        rows = backends.evaluate(
            "window_intervals", members, (rect, t0, t1), backend, workers
        )
        grouped = group_intervals(*rows, keys=keys)
        grouped.sort(key=lambda kv: str(kv[0]))
        return grouped

    def query_naive(
        self, rect: Rect, t0: float, t1: float
    ) -> List[Tuple[Hashable, RangeSet[float]]]:
        """The same answer, refined object by object with no operator
        table: the independent reference :meth:`query` is tested
        against."""
        window_times = RangeSet([Interval(t0, t1)])
        results: List[Tuple[Hashable, RangeSet[float]]] = []
        for key in sorted([*self._objects, *self._loaders], key=str):
            loader = self._loaders.get(key)
            mp = self._objects[key] if loader is None else loader()
            times = mpoint_within_rect_times(mp, rect)
            clipped = times.intersection(window_times)
            if clipped:
                results.append((key, clipped))
        return results
