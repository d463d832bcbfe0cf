"""Scalar and vector primitives for 2-D computational geometry.

Points are plain ``(x, y)`` tuples of floats throughout the geometry
package; the spatial data types of :mod:`repro.spatial` wrap them in
value classes.  Keeping the kernel tuple-based keeps it allocation-light
and trivially hashable.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.config import EPSILON, fsign, fzero

#: A 2-D point or vector as a plain tuple.
Vec = Tuple[float, float]


def sub(p: Vec, q: Vec) -> Vec:
    """Return the vector ``p - q``."""
    return (p[0] - q[0], p[1] - q[1])


def add(p: Vec, q: Vec) -> Vec:
    """Return the vector ``p + q``."""
    return (p[0] + q[0], p[1] + q[1])


def scale(p: Vec, k: float) -> Vec:
    """Return the vector ``k * p``."""
    return (p[0] * k, p[1] * k)


def cross(u: Vec, v: Vec) -> float:
    """Return the 2-D cross product (z-component) of ``u`` and ``v``."""
    return u[0] * v[1] - u[1] * v[0]


def dot(u: Vec, v: Vec) -> float:
    """Return the dot product of ``u`` and ``v``."""
    return u[0] * v[0] + u[1] * v[1]


def norm(u: Vec) -> float:
    """Return the Euclidean length of ``u``."""
    return math.hypot(u[0], u[1])


def dist(p: Vec, q: Vec) -> float:
    """Return the Euclidean distance between points ``p`` and ``q``."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def dist_sq(p: Vec, q: Vec) -> float:
    """Return the squared Euclidean distance between ``p`` and ``q``."""
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def orientation(p: Vec, q: Vec, r: Vec, eps: float = EPSILON) -> int:
    """Return the orientation of the ordered triple ``(p, q, r)``.

    +1 for a counter-clockwise turn, -1 for clockwise, 0 for collinear
    (within tolerance).  The tolerance is scaled by the magnitude of the
    involved coordinates so that large coordinates do not spuriously
    report proper turns for nearly collinear points.
    """
    val = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    span = max(
        abs(q[0] - p[0]), abs(q[1] - p[1]), abs(r[0] - p[0]), abs(r[1] - p[1]), 1.0
    )
    return fsign(val, eps * span)


def point_eq(p: Vec, q: Vec, eps: float = EPSILON) -> bool:
    """Return True if ``p`` and ``q`` coincide within tolerance."""
    return abs(p[0] - q[0]) <= eps and abs(p[1] - q[1]) <= eps


def point_cmp(p: Vec, q: Vec) -> int:
    """Lexicographic comparison of points as defined in Section 3.2.2.

    ``p < q`` iff ``p.x < q.x`` or (``p.x == q.x`` and ``p.y < q.y``);
    returns -1, 0, or +1.  Uses exact float comparison: canonical
    orderings must be total and deterministic, so no tolerance applies.
    """
    if p[0] < q[0]:
        return -1
    if p[0] > q[0]:
        return 1
    if p[1] < q[1]:
        return -1
    if p[1] > q[1]:
        return 1
    return 0


def point_lt(p: Vec, q: Vec) -> bool:
    """Return True iff ``p`` precedes ``q`` in lexicographic order."""
    return point_cmp(p, q) < 0


def midpoint(p: Vec, q: Vec) -> Vec:
    """Return the midpoint of the segment from ``p`` to ``q``."""
    return ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)


def lerp(p: Vec, q: Vec, t: float) -> Vec:
    """Linearly interpolate from ``p`` (t=0) to ``q`` (t=1)."""
    return (p[0] + (q[0] - p[0]) * t, p[1] + (q[1] - p[1]) * t)


def unit_normal(p: Vec, q: Vec) -> Vec:
    """Return the left unit normal of the direction from ``p`` to ``q``.

    Raises ``ZeroDivisionError`` for coincident input points; callers must
    only pass proper segments.
    """
    d = sub(q, p)
    n = norm(d)
    if fzero(n):
        raise ZeroDivisionError("unit_normal of a degenerate segment")
    return (-d[1] / n, d[0] / n)


def polygon_area(vertices: list[Vec]) -> float:
    """Return the signed area of the polygon given by ``vertices``.

    Positive for counter-clockwise vertex order (shoelace formula).
    """
    area = 0.0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return area / 2.0


def convex_hull(points: list[Vec]) -> list[Vec]:
    """Return the convex hull of ``points`` in counter-clockwise order.

    Andrew's monotone chain; collinear points on the hull boundary are
    dropped.  Returns the input unchanged (deduplicated, sorted) when
    fewer than three distinct points are supplied.  The result is closed
    under ``Region.polygon``: fewer than three points, or a valid cycle.
    """
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    lower: list[Vec] = []
    for p in pts:
        while len(lower) >= 2 and orientation(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Vec] = []
    for p in reversed(pts):
        while len(upper) >= 2 and orientation(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    # The chain judges each turn as (a, v, b); ``touch``, which validates
    # a cycle, judges a vertex against an edge in segment order, (a, b, v)
    # with a < b, and orientation's tolerance scales with whichever pair
    # comes first.  A sliver vertex can pass the first and fail the
    # second, so drop what ``touch`` itself would place inside an edge it
    # is not an end of, and what ``point_eq`` cannot tell from the vertex
    # before it.
    from repro.geometry.segment import point_in_seg_interior

    i = 0
    while len(hull) >= 3 and i < len(hull):
        n = len(hull)
        if point_eq(hull[i], hull[i - 1]) or any(
            point_in_seg_interior(hull[i], sorted((hull[j - 1], hull[j])))
            for j in range(n)
            if j != i and j != (i + 1) % n
        ):
            del hull[i]
            i = 0
        else:
            i += 1
    return hull
