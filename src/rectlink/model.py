"""Problem instances and their validation."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .geometry import (
    COORD_LIMIT,
    OrthoSegment,
    Point,
    Rect,
    RectPolygon,
    bounding_box,
)

POINT = "point"
SEGMENT = "segment"
POLYGON = "polygon"


@dataclass(frozen=True)
class Terminal:
    """Query object: a point, an axis-aligned segment, or a rectilinear polygon."""

    kind: str
    point: Optional[Point] = None
    segment: Optional[OrthoSegment] = None
    polygon: Optional[RectPolygon] = None

    @staticmethod
    def of_point(p: Point) -> "Terminal":
        return Terminal(POINT, point=tuple(p))

    @staticmethod
    def of_segment(p: Point, q: Point) -> "Terminal":
        seg = OrthoSegment(tuple(p), tuple(q))
        if seg.degenerate:
            return Terminal(POINT, point=seg.p)
        return Terminal(SEGMENT, segment=seg)

    @staticmethod
    def of_polygon(vertices: "Sequence[Point] | RectPolygon") -> "Terminal":
        poly = vertices if isinstance(vertices, RectPolygon) else RectPolygon(vertices)
        return Terminal(POLYGON, polygon=poly)

    def coords(self) -> list[Point]:
        if self.kind == POINT:
            return [self.point]
        if self.kind == SEGMENT:
            return [self.segment.p, self.segment.q]
        return list(self.polygon.vertices)

    @property
    def bbox(self) -> Rect:
        return bounding_box(self.coords())


@dataclass(frozen=True)
class Instance:
    """Obstacles plus the two terminals to connect."""

    obstacles: tuple[RectPolygon, ...]
    source: Terminal
    target: Terminal

    def all_coords(self) -> tuple[frozenset[int], frozenset[int]]:
        """Every x and every y of the obstacle vertices and terminals."""
        return self._coords

    @cached_property
    def _coords(self) -> tuple[frozenset[int], frozenset[int]]:
        # the instance is immutable, so ``validate`` and ``solve`` share one
        # computation; frozen sets keep every caller from changing them
        xs: set[int] = set()
        ys: set[int] = set()
        for ob in self.obstacles:
            for x, y in ob.vertices:
                xs.add(x)
                ys.add(y)
        for term in (self.source, self.target):
            for x, y in term.coords():
                xs.add(x)
                ys.add(y)
        return frozenset(xs), frozenset(ys)


# ---------------------------------------------------------------------------
# validation

def validate(instance: Instance) -> list[str]:
    """Return a list of problems; an empty list means the instance is legal."""
    problems: list[str] = []
    obs = instance.obstacles

    xs_all, ys_all = instance.all_coords()
    if max(map(abs, xs_all), default=0) > COORD_LIMIT \
            or max(map(abs, ys_all), default=0) > COORD_LIMIT:
        # name the coordinate the loop meets first
        for c in xs_all | ys_all:
            if abs(c) > COORD_LIMIT:
                problems.append(f"coordinate {c} exceeds |{COORD_LIMIT}|")
                break

    for i, ob in enumerate(obs):
        v = _repeated_vertex(ob)
        if v is not None:
            problems.append(f"obstacle {i} ring passes through vertex {v} twice")

    boxes = [ob.bbox for ob in obs]
    for i, j in _overlapping_boxes(boxes):
        problems.append(f"obstacle boxes {i} and {j} overlap")

    # general position: no two obstacles share a vertex x or y, and terminal
    # coordinates stay off every obstacle's coordinate lines
    seen_x: dict[int, int] = {}
    seen_y: dict[int, int] = {}
    for i, ob in enumerate(obs):
        for x, y in ob.vertices:
            if seen_x.setdefault(x, i) != i:
                problems.append(f"obstacles {seen_x[x]} and {i} share corner x={x}")
            if seen_y.setdefault(y, i) != i:
                problems.append(f"obstacles {seen_y[y]} and {i} share corner y={y}")
    for name, term in (("source", instance.source), ("target", instance.target)):
        for x, y in term.coords():
            if x in seen_x:
                problems.append(f"{name} shares x={x} with obstacle {seen_x[x]}")
            if y in seen_y:
                problems.append(f"{name} shares y={y} with obstacle {seen_y[y]}")

    for name, term in (("source", instance.source), ("target", instance.target)):
        problems.extend(_validate_terminal(name, term, instance))

    return problems


def _repeated_vertex(poly: RectPolygon) -> Optional[Point]:
    """A vertex the ring passes through more than once, if any.

    Such a ring is not simple, and its normalised vertex tuple would depend
    on where the input ring starts.
    """
    if len(set(poly.vertices)) == len(poly.vertices):
        return None
    seen: set[Point] = set()
    for v in poly.vertices:
        if v in seen:
            return v
        seen.add(v)
    return None


def _overlapping_boxes(boxes: Sequence[Rect]) -> list[tuple[int, int]]:
    """Index pairs ``i < j`` of boxes whose interiors meet, in sorted order.

    Sort and sweep on x: a box leaves the active list once its east side is
    at or west of the sweep line, since no box still to come can then meet
    its interior.  Every remaining active box is tested exactly, on plain
    ints: the active list holds ``(index, xlo, xhi, ylo, yhi)`` tuples.
    """
    pairs: list[tuple[int, int]] = []
    active: list[tuple[int, int, int, int, int]] = []
    for j in sorted(range(len(boxes)), key=lambda k: boxes[k].xlo):
        b = boxes[j]
        xlo, xhi, ylo, yhi = b.xlo, b.xhi, b.ylo, b.yhi
        active = [a for a in active if a[2] > xlo]
        # an active box has xlo <= this xlo < its xhi; the interiors meet
        # iff they also meet along x from this side and along y
        for i, axlo, _, aylo, ayhi in active:
            if axlo < xhi and aylo < yhi and ylo < ayhi:
                pairs.append((i, j) if i < j else (j, i))
        active.append((j, xlo, xhi, ylo, yhi))
    pairs.sort()
    return pairs


def _validate_terminal(name: str, term: Terminal, instance: Instance) -> list[str]:
    problems: list[str] = []
    obs = instance.obstacles
    boxes = [ob.bbox for ob in obs]
    if term.kind == POINT:
        for i, ob in enumerate(obs):
            # closed containment implies the closed box holds the point
            if boxes[i].contains(term.point) and ob.contains(term.point):
                problems.append(f"{name} point lies on obstacle {i}")
    elif term.kind == SEGMENT:
        seg = term.segment
        pierced = 0
        for i, ob in enumerate(obs):
            if _segment_meets_interior(seg, ob):
                problems.append(f"{name} segment crosses obstacle {i}")
            if _segment_meets_open_rect(seg, boxes[i]):
                pierced += 1
        if pierced > 2:
            problems.append(f"{name} segment pierces {pierced} bounding boxes")
    else:
        v = _repeated_vertex(term.polygon)
        if v is not None:
            problems.append(f"{name} polygon ring passes through vertex {v} twice")
        tb = term.bbox
        for i, box in enumerate(boxes):
            if not tb.interior_disjoint(box):
                problems.append(f"{name} polygon box overlaps obstacle box {i}")
        other = instance.target
        if name == "source" and other.kind == POLYGON \
                and not tb.interior_disjoint(other.bbox):
            problems.append("terminal polygon boxes overlap")
    return problems


def _segment_meets_interior(seg: OrthoSegment, poly: RectPolygon) -> bool:
    """Does the segment meet the open polygon?  Boundary contact is fine.

    Along the segment the open polygon changes only at the polygon's vertex
    coordinates, so the segment is cut at its ends and at every vertex
    coordinate strictly between them, and the exact midpoint of each span
    decides that span.  Midpoints are tested on the doubled ring, where they
    are integer points.
    """
    if not _segment_meets_open_rect(seg, poly.bbox):
        return False
    axis = 0 if seg.horizontal else 1
    lo, hi = sorted((seg.p[axis], seg.q[axis]))
    cuts = sorted({lo, hi} | {v[axis] for v in poly.vertices if lo < v[axis] < hi})
    ring2 = RectPolygon.from_normalised([(2 * x, 2 * y) for x, y in poly.vertices])
    fixed2 = 2 * seg.p[1 - axis]
    for a, b in zip(cuts, cuts[1:]):
        mid2 = (a + b, fixed2) if axis == 0 else (fixed2, a + b)
        if ring2.locate(mid2) > 0:
            return True
    return False


def _segment_meets_open_rect(seg: OrthoSegment, box: Rect) -> bool:
    lo_x, hi_x = sorted((seg.p[0], seg.q[0]))
    lo_y, hi_y = sorted((seg.p[1], seg.q[1]))
    return not (hi_x <= box.xlo or lo_x >= box.xhi or hi_y <= box.ylo or lo_y >= box.yhi)

