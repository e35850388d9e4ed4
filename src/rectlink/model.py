"""Problem instances and their validation."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import (
    COORD_LIMIT,
    OrthoSegment,
    Point,
    Rect,
    RectPolygon,
    Xform,
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

    def transform(self, t: Xform) -> "Terminal":
        if self.kind == POINT:
            return Terminal.of_point(t.apply(self.point))
        if self.kind == SEGMENT:
            return Terminal.of_segment(t.apply(self.segment.p), t.apply(self.segment.q))
        return Terminal.of_polygon([t.apply(v) for v in self.polygon.vertices])


@dataclass(frozen=True)
class Instance:
    """Obstacles plus the two terminals to connect."""

    obstacles: tuple[RectPolygon, ...]
    source: Terminal
    target: Terminal

    def all_coords(self) -> tuple[set[int], set[int]]:
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
        return xs, ys


# ---------------------------------------------------------------------------
# validation

def validate(instance: Instance) -> list[str]:
    """Return a list of problems; an empty list means the instance is legal."""
    problems: list[str] = []
    obs = instance.obstacles

    xs_all, ys_all = instance.all_coords()
    for c in xs_all | ys_all:
        if abs(c) > COORD_LIMIT:
            problems.append(f"coordinate {c} exceeds |{COORD_LIMIT}|")
            break

    boxes = [ob.bbox for ob in obs]
    for i in range(len(obs)):
        for j in range(i + 1, len(obs)):
            if not boxes[i].interior_disjoint(boxes[j]):
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


def _validate_terminal(name: str, term: Terminal, instance: Instance) -> list[str]:
    problems: list[str] = []
    obs = instance.obstacles
    boxes = [ob.bbox for ob in obs]
    if term.kind == POINT:
        for i, ob in enumerate(obs):
            if ob.contains(term.point):
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
        tb = term.bbox
        for i, box in enumerate(boxes):
            if not tb.interior_disjoint(box):
                problems.append(f"{name} polygon box overlaps obstacle box {i}")
        other = instance.target if name == "source" else instance.source
        if other.kind == POLYGON and name == "source":
            if not tb.interior_disjoint(other.bbox):
                problems.append("terminal polygon boxes overlap")
    return problems


def _segment_meets_interior(seg: OrthoSegment, poly: RectPolygon) -> bool:
    """Does the segment meet the open polygon?  Boundary contact is fine."""
    box = poly.bbox
    lo_x, hi_x = sorted((seg.p[0], seg.q[0]))
    lo_y, hi_y = sorted((seg.p[1], seg.q[1]))
    if hi_x <= box.xlo or lo_x >= box.xhi or hi_y <= box.ylo or lo_y >= box.yhi:
        return False
    # crossing points of the segment with polygon edges split it into spans;
    # test a strict-interior point of each span
    cuts = {0, 2 * seg.length}
    for e in poly.edges():
        c = _cross_param(seg, e)
        if c is not None:
            cuts.update(c)
    for a, b in zip(sorted(cuts), sorted(cuts)[1:]):
        mid = _point_at(seg, (a + b) // 2, half=True)
        if poly.contains_interior(mid):
            return True
    return False


def _cross_param(seg: OrthoSegment, edge: OrthoSegment) -> Optional[list[int]]:
    """Doubled parameters along ``seg`` where it meets ``edge``, if any."""
    out: list[int] = []
    (px, py), (qx, qy) = seg.p, seg.q
    if seg.p == seg.q:
        return None
    horiz = py == qy
    if horiz:
        lo, hi = sorted((px, qx))
        if edge.vertical:
            ex = edge.p[0]
            e_lo, e_hi = sorted((edge.p[1], edge.q[1]))
            if lo <= ex <= hi and e_lo <= py <= e_hi:
                out.append(2 * abs(ex - px))
        else:
            if edge.p[1] == py:
                s_lo, s_hi = sorted((edge.p[0], edge.q[0]))
                a, b = max(lo, s_lo), min(hi, s_hi)
                if a <= b:
                    out.extend((2 * abs(a - px), 2 * abs(b - px)))
    else:
        lo, hi = sorted((py, qy))
        if edge.horizontal:
            ey = edge.p[1]
            e_lo, e_hi = sorted((edge.p[0], edge.q[0]))
            if lo <= ey <= hi and e_lo <= px <= e_hi:
                out.append(2 * abs(ey - py))
        else:
            if edge.p[0] == px:
                s_lo, s_hi = sorted((edge.p[1], edge.q[1]))
                a, b = max(lo, s_lo), min(hi, s_hi)
                if a <= b:
                    out.extend((2 * abs(a - py), 2 * abs(b - py)))
    return out or None


def _point_at(seg: OrthoSegment, t2: int, half: bool = False) -> Point:
    """Point at doubled parameter ``t2`` along the segment (may be a midpoint)."""
    (px, py), (qx, qy) = seg.p, seg.q
    length = seg.length
    if length == 0:
        return seg.p
    # integer midpoint in doubled coordinates; caller only uses the result for
    # strict containment tests, so round toward p when halving
    dx = (qx - px) * t2 // (2 * length)
    dy = (qy - py) * t2 // (2 * length)
    return (px + dx, py + dy)


def _segment_meets_open_rect(seg: OrthoSegment, box: Rect) -> bool:
    lo_x, hi_x = sorted((seg.p[0], seg.q[0]))
    lo_y, hi_y = sorted((seg.p[1], seg.q[1]))
    return not (hi_x <= box.xlo or lo_x >= box.xhi or hi_y <= box.ylo or lo_y >= box.yhi)

