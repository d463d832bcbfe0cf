"""Fleet-level evaluation: the API the rest of the stack calls.

Each helper takes a *fleet* (a sequence of moving values) and evaluates
one operation over all of it.  Which code runs, and what it degrades
to, is decided by the physical operator table
(:mod:`repro.vector.backends`); the helpers here bind one table row
each and shape its answer for callers (``Point`` lists, id lists,
``(count, mask)``).  All backends return identical results.  Versioned
:class:`~repro.vector.cache.Fleet` sequences reuse their columns across
calls (invalidated on mutation), plain sequences are transcribed per
call.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.spatial.bbox import Cube
from repro.spatial.point import Point
from repro.spatial.region import Region
from repro.temporal.mapping import MovingPoint, MovingReal
from repro.vector.backends import evaluate, get_backend, set_backend

__all__ = [
    "fleet_atinstant",
    "fleet_atinstant_real",
    "fleet_bbox_filter",
    "fleet_count_inside",
    "get_backend",
    "set_backend",
]


def fleet_atinstant(
    fleet: Sequence[MovingPoint],
    t: float,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> List[Optional[Point]]:
    """Position of every moving point at instant ``t`` (None where ⊥)."""
    return evaluate("atinstant", fleet, (t,), backend, workers)


def fleet_atinstant_real(
    fleet: Sequence[MovingReal],
    t: float,
    backend: Optional[str] = None,
) -> List[Optional[float]]:
    """Value of every moving real at instant ``t`` (None where ⊥)."""
    values, defined = evaluate("atinstant_real", fleet, (t,), backend)
    return [float(v) if d else None for v, d in zip(values, defined)]


def fleet_bbox_filter(
    fleet: Sequence[MovingPoint],
    cube: Cube,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> List[int]:
    """Indices of fleet members whose bounding cube intersects ``cube``.

    The filter half of filter-and-refine: survivors still need the exact
    per-object check (window refinement, R-tree descent, ...).
    """
    mask = evaluate("bbox_filter", fleet, (cube,), backend, workers)
    return np.flatnonzero(mask).tolist()


def fleet_count_inside(
    fleet: Sequence[MovingPoint],
    t: float,
    region: Region,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> Tuple[int, List[bool]]:
    """How many fleet members are inside ``region`` at instant ``t``?

    Returns ``(count, member_mask)``.
    """
    mask = evaluate("count_inside", fleet, (t, region), backend, workers)
    return int(np.count_nonzero(mask)), mask.tolist()
