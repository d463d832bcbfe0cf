"""The ``region`` data type: faces with holes (Section 3.2.2, Figure 3).

A region is a set of pairwise edge-disjoint *faces*; a face is an outer
*cycle* with a set of hole cycles.  The constraints of the paper are
enforced at construction:

* cycle: no proper intersections or touches among its segments, every
  end point used exactly twice, and the segments form one single closed
  walk;
* face: holes edge-inside the outer cycle and pairwise edge-disjoint;
* region: faces pairwise edge-disjoint (touching in isolated points is
  allowed, overlapping boundary segments are not).

Condition (iii) of the face definition (unique decomposition into
cycles) holds by construction for values built through
:func:`close_region`, which is the ``close`` operation of Section 4.1:
it takes a segment soup and determines the face/cycle structure.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.config import EPSILON
from repro.errors import InvalidValue
from repro.geometry.plumbline import crossings_above, point_in_segset
from repro.geometry.primitives import (
    Vec,
    point_cmp,
    point_eq,
    polygon_area,
    unit_normal,
)
from repro.geometry.segment import (
    HalfSegment,
    Seg,
    halfsegments_of,
    make_seg,
    meet,
    p_intersect,
    point_on_seg,
    seg_length,
    seg_overlap,
    touch,
)
from repro.geometry.splitting import segment_midpoint, split_at_intersections
from repro.spatial.bbox import Rect
from repro.spatial.point import Point


class Cycle:
    """A simple polygon given as a set of segments (the paper's ``Cycle``)."""

    __slots__ = ("_segs", "_vertices", "_bbox")

    def __init__(self, segments: Iterable[Seg], validate: bool = True):
        segs = sorted({make_seg(s[0], s[1]) for s in segments})
        if len(segs) < 3:
            raise InvalidValue("a cycle needs at least three segments")
        vertices = _trace_single_cycle(segs)
        if validate:
            _check_cycle_segments(segs)
        object.__setattr__(self, "_segs", tuple(segs))
        object.__setattr__(self, "_vertices", tuple(vertices))
        object.__setattr__(
            self, "_bbox", Rect.around([p for s in segs for p in s])
        )

    def __setattr__(self, name, value):
        raise AttributeError("Cycle values are immutable")

    def __getstate__(self):
        return tuple(getattr(self, s) for s in Cycle.__slots__)

    def __setstate__(self, state):
        # Bypass the immutability guard: pickling must restore slots
        # directly (the parallel backend ships regions to pool workers).
        for slot, value in zip(Cycle.__slots__, state):
            object.__setattr__(self, slot, value)

    @classmethod
    def from_vertices(cls, vertices: Sequence[Vec]) -> "Cycle":
        """Build a cycle from a closed vertex ring (first != last)."""
        verts = [tuple(map(float, v)) for v in vertices]
        if len(verts) >= 2 and point_eq(verts[0], verts[-1]):
            verts = verts[:-1]
        if len(verts) < 3:
            raise InvalidValue("a cycle needs at least three vertices")
        segs = [
            make_seg(a, b)
            for a, b in zip(verts, verts[1:] + verts[:1])
        ]
        return cls(segs)

    # -- accessors ---------------------------------------------------------

    @property
    def segments(self) -> Sequence[Seg]:
        """The canonical ordered segment tuple."""
        return self._segs

    @property
    def vertices(self) -> Sequence[Vec]:
        """The vertex ring in walk order (orientation unspecified)."""
        return self._vertices

    def bbox(self) -> Rect:
        return self._bbox

    def __len__(self) -> int:
        return len(self._segs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cycle):
            return NotImplemented
        return self._segs == other._segs

    def __hash__(self) -> int:
        return hash(self._segs)

    def __repr__(self) -> str:
        return f"Cycle({len(self._segs)} segments)"

    # -- geometry ------------------------------------------------------------

    def area(self) -> float:
        """The enclosed (unsigned) area."""
        return abs(polygon_area(list(self._vertices)))

    def perimeter(self) -> float:
        """Total boundary length."""
        return sum(seg_length(s) for s in self._segs)

    def contains_point(self, p: Vec, boundary_counts: bool = True) -> bool:
        """True iff ``p`` is enclosed (boundary included by default)."""
        if not self._bbox.near(p[0], p[1]):
            return False
        return point_in_segset(p, self._segs, boundary_counts=boundary_counts)

    def interior_sample(self) -> Vec:
        """Return a point guaranteed to lie strictly inside the cycle."""
        diag = max(self._bbox.width, self._bbox.height, 1.0)
        for s in self._segs:
            mid = segment_midpoint(s)
            n = unit_normal(s[0], s[1])
            for eps_scale in (1e-6, 1e-9, 1e-4):
                d = eps_scale * diag
                for sign in (1.0, -1.0):
                    cand = (mid[0] + sign * d * n[0], mid[1] + sign * d * n[1])
                    on_any = any(point_on_seg(cand, t) for t in self._segs)
                    if not on_any and crossings_above(cand, self._segs) % 2 == 1:
                        return cand
        raise InvalidValue("could not find an interior point of the cycle")

    # -- the paper's cycle relations ----------------------------------------------

    def edge_inside(self, other: "Cycle") -> bool:
        """True iff this cycle's interior is inside ``other`` with no edge overlap."""
        if not other._bbox.contains_rect(self._bbox):
            return False
        for s in self._segs:
            for t in other._segs:
                if seg_overlap(s, t) or p_intersect(s, t):
                    return False
        return other.contains_point(self.interior_sample(), boundary_counts=False)

    def edge_disjoint(self, other: "Cycle") -> bool:
        """True iff interiors are disjoint and no edges overlap.

        Touching in isolated points is permitted.
        """
        for s in self._segs:
            for t in other._segs:
                if seg_overlap(s, t) or p_intersect(s, t):
                    return False
        if self._bbox.intersects(other._bbox):
            if other.contains_point(self.interior_sample(), boundary_counts=False):
                return False
            if self.contains_point(other.interior_sample(), boundary_counts=False):
                return False
        return True


class Face:
    """A face: outer cycle plus hole cycles (the paper's ``Face``)."""

    __slots__ = ("_outer", "_holes")

    def __init__(
        self,
        outer: Cycle,
        holes: Iterable[Cycle] = (),
        validate: bool = True,
    ):
        hole_list = sorted(holes, key=lambda c: c.segments)
        if validate:
            for h in hole_list:
                if not h.edge_inside(outer):
                    raise InvalidValue("hole cycle is not edge-inside the outer cycle")
            for i, h1 in enumerate(hole_list):
                for h2 in hole_list[i + 1 :]:
                    if not h1.edge_disjoint(h2):
                        raise InvalidValue("hole cycles are not edge-disjoint")
        object.__setattr__(self, "_outer", outer)
        object.__setattr__(self, "_holes", tuple(hole_list))

    def __setattr__(self, name, value):
        raise AttributeError("Face values are immutable")

    def __getstate__(self):
        return tuple(getattr(self, s) for s in Face.__slots__)

    def __setstate__(self, state):
        for slot, value in zip(Face.__slots__, state):
            object.__setattr__(self, slot, value)

    @property
    def outer(self) -> Cycle:
        return self._outer

    @property
    def holes(self) -> Sequence[Cycle]:
        return self._holes

    @property
    def cycles(self) -> Sequence[Cycle]:
        """Outer cycle followed by the holes."""
        return (self._outer, *self._holes)

    def segments(self) -> list[Seg]:
        """All boundary segments of the face."""
        out = list(self._outer.segments)
        for h in self._holes:
            out.extend(h.segments)
        return out

    def bbox(self) -> Rect:
        return self._outer.bbox()

    def area(self) -> float:
        """Outer area minus hole areas."""
        return self._outer.area() - sum(h.area() for h in self._holes)

    def perimeter(self) -> float:
        """Total boundary length including holes."""
        return self._outer.perimeter() + sum(h.perimeter() for h in self._holes)

    def contains_point(self, p: Vec, boundary_counts: bool = True) -> bool:
        """Point-in-face with the semantics of Section 3.2.2.

        The face's point set is ``closure(outer \\ holes)``: hole
        boundaries belong to the face, hole interiors do not.
        """
        if not self._outer.contains_point(p, boundary_counts):
            return False
        for h in self._holes:
            if h.contains_point(p, boundary_counts=not boundary_counts):
                return False
        return True

    def edge_disjoint(self, other: "Face") -> bool:
        """The paper's face relation: disjoint, or nested inside a hole."""
        if self._outer.edge_disjoint(other._outer):
            return True
        if any(self._outer.edge_inside(h) for h in other._holes):
            return True
        if any(other._outer.edge_inside(h) for h in self._holes):
            return True
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Face):
            return NotImplemented
        return self._outer == other._outer and self._holes == other._holes

    def __hash__(self) -> int:
        return hash((self._outer, self._holes))

    def __repr__(self) -> str:
        return f"Face(outer={len(self._outer)} segs, holes={len(self._holes)})"


class Region:
    """A value of type ``region``: pairwise edge-disjoint faces.

    The empty region (no faces) is the ⊥-like empty set value.
    """

    __slots__ = ("_faces", "_bbox")

    def __init__(self, faces: Iterable[Face] = (), validate: bool = True):
        face_list = sorted(faces, key=lambda f: f.outer.segments)
        if validate:
            for i, f1 in enumerate(face_list):
                for f2 in face_list[i + 1 :]:
                    if not f1.edge_disjoint(f2):
                        raise InvalidValue("region faces are not edge-disjoint")
        bbox = None
        for f in face_list:
            bbox = f.bbox() if bbox is None else bbox.union(f.bbox())
        object.__setattr__(self, "_faces", tuple(face_list))
        object.__setattr__(self, "_bbox", bbox)

    def __setattr__(self, name, value):
        raise AttributeError("Region values are immutable")

    def __getstate__(self):
        return tuple(getattr(self, s) for s in Region.__slots__)

    def __setstate__(self, state):
        for slot, value in zip(Region.__slots__, state):
            object.__setattr__(self, slot, value)

    # -- constructors ------------------------------------------------------

    @classmethod
    def polygon(
        cls, vertices: Sequence[Vec], holes: Sequence[Sequence[Vec]] = ()
    ) -> "Region":
        """Build a one-face region from vertex rings."""
        outer = Cycle.from_vertices(vertices)
        hole_cycles = [Cycle.from_vertices(h) for h in holes]
        return cls([Face(outer, hole_cycles)])

    @classmethod
    def box(cls, xmin: float, ymin: float, xmax: float, ymax: float) -> "Region":
        """Build an axis-aligned rectangular region."""
        return cls.polygon([(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)])

    @classmethod
    def from_segments(cls, segments: Iterable[Seg]) -> "Region":
        """Build a region from a boundary segment soup (the ``close`` operation)."""
        return close_region(segments)

    # -- accessors -------------------------------------------------------------

    @property
    def faces(self) -> Sequence[Face]:
        return self._faces

    def segments(self) -> list[Seg]:
        """All boundary segments."""
        out: list[Seg] = []
        for f in self._faces:
            out.extend(f.segments())
        return out

    def halfsegments(self) -> list[HalfSegment]:
        """The ordered halfsegment sequence of Section 4.1."""
        return halfsegments_of(self.segments())

    def cycles(self) -> list[Cycle]:
        """All cycles (outers and holes)."""
        out: list[Cycle] = []
        for f in self._faces:
            out.extend(f.cycles)
        return out

    def __iter__(self) -> Iterator[Face]:
        return iter(self._faces)

    def __len__(self) -> int:
        return len(self._faces)

    def __bool__(self) -> bool:
        return bool(self._faces)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Region):
            return NotImplemented
        return self._faces == other._faces

    def __hash__(self) -> int:
        return hash(self._faces)

    def __repr__(self) -> str:
        nsegs = len(self.segments())
        return f"Region({len(self._faces)} faces, {nsegs} segments)"

    # -- numeric operations --------------------------------------------------------

    def area(self) -> float:
        """Total area (the ``size`` operation of the abstract model)."""
        return sum(f.area() for f in self._faces)

    def perimeter(self) -> float:
        """Total boundary length."""
        return sum(f.perimeter() for f in self._faces)

    def bbox(self) -> Rect:
        """The bounding rectangle; raises on the empty region."""
        if self._bbox is None:
            raise InvalidValue("bounding box of an empty region value")
        return self._bbox

    # -- predicates -------------------------------------------------------------

    def contains_point(
        self, p: Union[Point, Vec], boundary_counts: bool = True
    ) -> bool:
        """Point-in-region (the static ``inside`` predicate)."""
        v = p.vec if isinstance(p, Point) else (float(p[0]), float(p[1]))
        if self._bbox is None or not self._bbox.near(v[0], v[1]):
            return False
        return any(f.contains_point(v, boundary_counts) for f in self._faces)

    def intersects(self, other: "Region") -> bool:
        """True iff the two regions share at least one point."""
        if self._bbox is None or other._bbox is None:
            return False
        if not self._bbox.intersects(other._bbox):
            return False
        return bool(self.intersection(other)) or self._boundaries_touch(other)

    def _boundaries_touch(self, other: "Region") -> bool:
        for s in self.segments():
            for t in other.segments():
                if p_intersect(s, t) or touch(s, t) or meet(s, t) or seg_overlap(s, t):
                    return True
        return False

    # -- set operations ---------------------------------------------------------------

    def union(self, other: "Region") -> "Region":
        """Point-set union of two regions."""
        return _boolean_op(self, other, "union")

    def intersection(self, other: "Region") -> "Region":
        """Point-set intersection (regularized: lower-dimensional slivers drop)."""
        return _boolean_op(self, other, "intersection")

    def difference(self, other: "Region") -> "Region":
        """Point-set difference (regularized)."""
        return _boolean_op(self, other, "difference")


# ---------------------------------------------------------------------------
# Cycle validation and tracing
# ---------------------------------------------------------------------------


def _check_cycle_segments(segs: Sequence[Seg]) -> None:
    """Enforce conditions (i) and (ii) of the ``Cycle`` definition."""
    counts: dict[Vec, int] = {}
    for s in segs:
        for p in s:
            counts[p] = counts.get(p, 0) + 1
    for p, c in counts.items():
        if c != 2:
            raise InvalidValue(
                f"cycle end point {p} occurs {c} times (must be exactly 2)"
            )
    n = len(segs)
    for i in range(n):
        for j in range(i + 1, n):
            if p_intersect(segs[i], segs[j]):
                raise InvalidValue(
                    f"cycle segments {segs[i]} and {segs[j]} properly intersect"
                )
            if touch(segs[i], segs[j]):
                raise InvalidValue(
                    f"cycle segments {segs[i]} and {segs[j]} touch"
                )


def _trace_single_cycle(segs: Sequence[Seg]) -> list[Vec]:
    """Order the segments into one closed walk; raise if impossible.

    Realizes condition (iii) of the ``Cycle`` definition.
    """
    adjacency: dict[Vec, list[int]] = {}
    for idx, s in enumerate(segs):
        adjacency.setdefault(s[0], []).append(idx)
        adjacency.setdefault(s[1], []).append(idx)
    for p, idxs in adjacency.items():
        if len(idxs) != 2:
            raise InvalidValue(f"cycle vertex {p} has degree {len(idxs)}, not 2")
    start = segs[0][0]
    walk = [start]
    used = [False] * len(segs)
    current = start
    for _ in range(len(segs)):
        next_idx = None
        for idx in adjacency[current]:
            if not used[idx]:
                next_idx = idx
                break
        if next_idx is None:
            raise InvalidValue("cycle segments do not form a single closed walk")
        used[next_idx] = True
        s = segs[next_idx]
        current = s[1] if s[0] == current else s[0]
        walk.append(current)
    if walk[-1] != start:
        raise InvalidValue("cycle segments do not close")
    if not all(used):
        raise InvalidValue("cycle segments form more than one closed walk")
    return walk[:-1]


# ---------------------------------------------------------------------------
# The `close` operation: segment soup -> region structure (Section 4.1)
# ---------------------------------------------------------------------------


def close_region(segments: Iterable[Seg]) -> Region:
    """Determine the face/cycle structure of a boundary segment soup.

    This is the ``close`` operation offered by the ``region`` data type
    (Section 4.1): algorithms produce the list of (half)segments and call
    ``close`` to establish faces and cycles.

    The soup must be the boundary of a valid region: the function traces
    cycles (resolving shared vertices of touching cycles by angular
    grouping with backtracking), nests them by containment depth, and
    assembles faces.
    """
    segs = sorted({make_seg(s[0], s[1]) for s in segments})
    if not segs:
        return Region([])
    cycles = _extract_cycles(segs)
    return _assemble_faces(cycles)


def _extract_cycles(segs: list[Seg]) -> list[Cycle]:
    """Partition a segment soup into simple cycles.

    Vertices of degree two force the continuation; at higher-degree
    vertices (isolated touch points of distinct cycles) the walk tries
    candidates in angular order and backtracks on failure.
    """
    adjacency: dict[Vec, list[int]] = {}
    for idx, s in enumerate(segs):
        adjacency.setdefault(s[0], []).append(idx)
        adjacency.setdefault(s[1], []).append(idx)
    for p, idxs in adjacency.items():
        if len(idxs) % 2 != 0:
            raise InvalidValue(f"boundary vertex {p} has odd degree {len(idxs)}")

    used = [False] * len(segs)
    cycles: list[Cycle] = []

    def other_end(idx: int, v: Vec) -> Vec:
        s = segs[idx]
        return s[1] if s[0] == v else s[0]

    def candidates(v: Vec, came_from: Optional[Vec]) -> list[int]:
        cands = [i for i in adjacency[v] if not used[i]]

        def angle_key(i: int) -> float:
            w = other_end(i, v)
            a = math.atan2(w[1] - v[1], w[0] - v[0])
            if came_from is None:
                return a
            back = math.atan2(came_from[1] - v[1], came_from[0] - v[0])
            rel = (a - back) % (2 * math.pi)
            return rel

        cands.sort(key=angle_key)
        return cands

    def walk_cycle(start_idx: int) -> Optional[list[int]]:
        """Trace one simple cycle starting with ``start_idx``; backtracking DFS."""
        start_v = segs[start_idx][0]
        path = [start_idx]
        used[start_idx] = True

        def dfs(current: Vec, came_from: Vec) -> bool:
            if current == start_v:
                return True
            for idx in candidates(current, came_from):
                w = other_end(idx, current)
                used[idx] = True
                path.append(idx)
                if dfs(w, current):
                    return True
                path.pop()
                used[idx] = False
            return False

        first_other = other_end(start_idx, start_v)
        if dfs(first_other, start_v):
            return path
        used[start_idx] = False
        return None

    for idx in range(len(segs)):
        if used[idx]:
            continue
        path = walk_cycle(idx)
        if path is None:
            raise InvalidValue("boundary segments do not decompose into cycles")
        cycles.append(Cycle([segs[i] for i in path]))
    return cycles


def _assemble_faces(cycles: list[Cycle]) -> Region:
    """Nest cycles by containment depth and build faces."""
    n = len(cycles)
    samples = [c.interior_sample() for c in cycles]
    contains = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if cycles[i].bbox().contains_rect(cycles[j].bbox()):
                if cycles[i].contains_point(samples[j], boundary_counts=False):
                    contains[i][j] = True
    depth = [sum(1 for i in range(n) if contains[i][j]) for j in range(n)]
    faces: list[Face] = []
    for j in range(n):
        if depth[j] % 2 != 0:
            continue  # hole cycle
        holes = []
        for k in range(n):
            if depth[k] == depth[j] + 1 and contains[j][k]:
                # Direct child check: no intermediate cycle between j and k.
                direct = not any(
                    contains[j][m] and contains[m][k] for m in range(n) if m not in (j, k)
                )
                if direct:
                    holes.append(cycles[k])
        faces.append(Face(cycles[j], holes, validate=False))
    return Region(faces, validate=False)


# ---------------------------------------------------------------------------
# Boolean set operations via arrangement + midpoint classification
# ---------------------------------------------------------------------------


def _inside_for_sample(region: Region, p: Vec) -> bool:
    """Interior test for offset sample points (never on the boundary)."""
    if region._bbox is None or not region._bbox.contains_point(p):
        return False
    for f in region.faces:
        inside_outer = crossings_above(p, f.outer.segments) % 2 == 1
        if not inside_outer:
            continue
        in_hole = any(
            crossings_above(p, h.segments) % 2 == 1 for h in f.holes
        )
        if not in_hole:
            return True
    return False


def _quantize(p: Vec, grid: float = 1e-9) -> Vec:
    return (round(p[0] / grid) * grid, round(p[1] / grid) * grid)


def _boolean_op(a: Region, b: Region, op: str) -> Region:
    """Compute a regularized boolean operation on two regions.

    All boundary segments are split at mutual intersections; every
    resulting piece is kept iff the result membership differs between
    its two sides (sampled just off the midpoint along the normal).
    The surviving pieces are assembled by ``close_region``.
    """
    asegs = a.segments()
    bsegs = b.segments()
    if not asegs:
        return Region([]) if op != "union" else b
    if not bsegs:
        return Region([]) if op == "intersection" else a
    ra, rb = split_at_intersections(asegs, bsegs)
    # Deduplicate identical pieces arising from shared boundaries.
    seen: set[Seg] = set()
    pieces: list[Seg] = []
    for s in ra + rb:
        key = make_seg(_quantize(s[0]), _quantize(s[1]))
        if key in seen:
            continue
        seen.add(key)
        pieces.append(s)

    diag = 1.0
    boxes = [r.bbox() for r in (a, b) if r._bbox is not None]
    if boxes:
        bb = boxes[0]
        for other in boxes[1:]:
            bb = bb.union(other)
        diag = max(bb.width, bb.height, 1.0)
    offset = 1e-7 * diag

    def in_result(p: Vec) -> bool:
        ia = _inside_for_sample(a, p)
        ib = _inside_for_sample(b, p)
        if op == "union":
            return ia or ib
        if op == "intersection":
            return ia and ib
        return ia and not ib  # difference

    kept: list[Seg] = []
    for s in pieces:
        mid = segment_midpoint(s)
        n = unit_normal(s[0], s[1])
        left = (mid[0] + offset * n[0], mid[1] + offset * n[1])
        right = (mid[0] - offset * n[0], mid[1] - offset * n[1])
        if in_result(left) != in_result(right):
            kept.append(s)
    if not kept:
        return Region([])
    kept = _snap_and_trim(kept, snap_grid=1e-9 * diag)
    if not kept:
        return Region([])
    try:
        return close_region(kept)
    except InvalidValue:
        # Sliver fragments can survive the snap (collinear micro-overlaps
        # straddling a grid boundary): merge collinear runs and retry.
        from repro.geometry.mergesegs import merge_segs

        repaired = _snap_and_trim(merge_segs(kept), snap_grid=1e-9 * diag)
        if not repaired:
            return Region([])
        return close_region(repaired)


def union_all(regions: "list[Region]") -> Region:
    """Point-set union of many regions in a single overlay.

    Far more robust (and faster) than folding binary unions: all
    boundary segments are split against each other once, every piece is
    classified once against all operands, and the structure is built
    once at the end — floating point drift cannot accumulate across
    intermediate results.
    """
    regions = [r for r in regions if r]
    if not regions:
        return Region([])
    if len(regions) == 1:
        return regions[0]

    all_segs: list[Seg] = []
    owners: list[list[Seg]] = []
    for r in regions:
        segs = r.segments()
        owners.append(segs)
        all_segs.extend(segs)

    # Split every segment at its intersections with all others.
    pieces_raw, _ = split_at_intersections(all_segs, [])
    seen: set[Seg] = set()
    pieces: list[Seg] = []
    for s in pieces_raw:
        key = make_seg(_quantize(s[0]), _quantize(s[1]))
        if key not in seen:
            seen.add(key)
            pieces.append(s)

    bb = regions[0].bbox()
    for r in regions[1:]:
        bb = bb.union(r.bbox())
    diag = max(bb.width, bb.height, 1.0)
    offset = 1e-7 * diag

    def in_union(p: Vec) -> bool:
        return any(_inside_for_sample(r, p) for r in regions)

    kept: list[Seg] = []
    for s in pieces:
        mid = segment_midpoint(s)
        n = unit_normal(s[0], s[1])
        left = (mid[0] + offset * n[0], mid[1] + offset * n[1])
        right = (mid[0] - offset * n[0], mid[1] - offset * n[1])
        if in_union(left) != in_union(right):
            kept.append(s)
    kept = _snap_and_trim(kept, snap_grid=1e-9 * diag)
    if not kept:
        return Region([])
    try:
        return close_region(kept)
    except InvalidValue:
        from repro.geometry.mergesegs import merge_segs

        repaired = _snap_and_trim(merge_segs(kept), snap_grid=1e-9 * diag)
        if not repaired:
            return Region([])
        return close_region(repaired)


def _snap_and_trim(segs: list[Seg], snap_grid: float) -> list[Seg]:
    """Repair a near-boundary segment soup before structure building.

    Floating point drift in the arrangement step can leave endpoints of
    adjacent pieces microscopically apart, or strand the odd sliver
    segment whose sides classified inconsistently.  Snapping endpoints
    to a fine grid re-welds coincident vertices; iteratively trimming
    odd-degree (dangling) edges removes slivers.  Both operations move
    the boundary by at most a few grid cells, far below the model's
    tolerance.
    """
    snapped: list[Seg] = []
    seen: set[Seg] = set()
    for s in segs:
        p = _quantize(s[0], snap_grid)
        q = _quantize(s[1], snap_grid)
        if point_cmp(p, q) == 0:
            continue
        canon = make_seg(p, q)
        if canon not in seen:
            seen.add(canon)
            snapped.append(canon)
    while True:
        degree: dict[Vec, int] = {}
        for s in snapped:
            for p in s:
                degree[p] = degree.get(p, 0) + 1
        dangling = {p for p, d in degree.items() if d % 2 != 0}
        if not dangling:
            return snapped
        trimmed = [
            s for s in snapped if s[0] not in dangling and s[1] not in dangling
        ]
        if len(trimmed) == len(snapped):  # pragma: no cover - defensive
            return snapped
        snapped = trimmed
        if not snapped:
            return snapped
