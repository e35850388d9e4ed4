"""Problem instances and their validation."""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Optional, Sequence

from .geometry import (
    COORD_LIMIT,
    GeometryError,
    OrthoSegment,
    Point,
    Rect,
    RectPolygon,
    bounding_box,
)
from .partition import BoxIndex

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
        # computation; frozen sets keep every caller from changing them.  A
        # frozenset copied from a set gets half the table of one grown from
        # an iterator.
        pts = list(chain(
            chain.from_iterable(map(attrgetter("vertices"), self.obstacles)),
            self.source.coords(), self.target.coords()))
        return (frozenset(set(map(itemgetter(0), pts))),
                frozenset(set(map(itemgetter(1), pts))))


# ---------------------------------------------------------------------------
# validation

class InvalidInstance(GeometryError):
    """An instance ``validate`` rejects; ``problems`` is its list."""

    def __init__(self, problems: Sequence[str]):
        super().__init__("invalid instance: " + "; ".join(problems))
        self.problems = list(problems)


def validate(instance: Instance, index: Optional[BoxIndex] = None) -> list[str]:
    """Return a list of problems; an empty list means the instance is legal.

    ``index`` is the obstacles' ``BoxIndex``: a solve passes its world's,
    so the boxes are sorted once per solve, and a call without one builds
    its own.  The index holds the boxes doubled.  Doubling scales every
    coordinate by the same positive factor, so it keeps the outcome of
    every comparison below, strict or not.

    The boxes' interiors are proved disjoint by one sweep over the index's
    xlo order (ties by index).  A box leaves the active list once its xhi
    is at or west of the sweep's xlo: every box still to come starts at or
    east of that xlo, so none can meet its interior, and only active boxes
    can meet the box at hand.  An active box's xlo is at most the current
    one, ties included (a box of positive width stays active at its own
    xlo), and its xhi lies east of it, as the current box's xhi does; so
    the two x-spans meet in an open interval and the interiors meet iff
    the y-spans' interiors meet.  That y test is the only one made.

    On a valid instance the per-vertex checks (coordinate limit, rings
    through a vertex twice, shared obstacle lines, terminals on obstacle
    lines) are proved by counting, and the per-vertex loop runs only to
    name problems.  The count rests on the ring invariant of
    ``RectPolygon``: a ring is normalised, with no repeated or collinear
    consecutive vertices, so consecutive edges are perpendicular.  Hence
    an obstacle with ``v`` vertices has ``v / 2`` vertical edges, every
    vertex ends exactly one of them, and the obstacles' vertex xs number
    at most ``nv`` (half the total vertex count), with equality iff no two
    vertical edges of any obstacles share an x.  With ``Tx`` the set of
    terminal xs, ``len(xs_all) == nv + len(Tx)`` holds iff, besides, no
    terminal x is an obstacle x; the same goes for y.  Both equalities
    rule out a corner x or y shared by two obstacles, a terminal on an
    obstacle's line, and a ring through a vertex twice, since that vertex
    would end two distinct vertical edges with one x.  The least and the
    greatest coordinate, read off the heads of the index's sorted keys and
    the terminals, settle the limit.  The problems are then the box
    overlaps and the terminals' own, in the loop's order.

    When a count falls short the loop runs as it always did and names the
    problems.  Shared xs inside one obstacle, which are legal, fall short
    too, and the loop finds nothing.
    """
    if index is None:
        index = BoxIndex(instance.obstacles)
    problems = [f"obstacle boxes {i} and {j} overlap" for i, j in _overlaps(index)]
    if not _counted(instance, index):
        problems = _vertex_problems(instance, problems)
    for name, term in (("source", instance.source), ("target", instance.target)):
        problems.extend(_validate_terminal(name, term, instance, index))
    return problems


def _overlaps(index: BoxIndex) -> list[tuple[int, int]]:
    """Index pairs ``i < j`` of boxes whose interiors meet, in sorted
    order: the sweep ``validate`` argues, on the index's int lists."""
    xhi, ylo, yhi = index.highs[0], index.lows[2], index.highs[2]
    pairs: list[tuple[int, int]] = []
    active: list[int] = []
    for j, xlo in zip(index.orders[0], index.keys[0]):
        y0, y1 = ylo[j], yhi[j]
        kept = []
        for i in active:
            if xhi[i] > xlo:
                kept.append(i)
                if ylo[i] < y1 and y0 < yhi[i]:
                    pairs.append((i, j) if i < j else (j, i))
        kept.append(j)
        active = kept
    pairs.sort()
    return pairs


def _counted(instance: Instance, index: BoxIndex) -> bool:
    """Do two set sizes per axis and the extreme coordinates prove every
    per-vertex check?  See ``validate``; ``index`` is the obstacles'."""
    xs_all, ys_all = instance.all_coords()
    total = sum(map(len, map(attrgetter("vertices"), instance.obstacles)))
    ends = instance.source.coords() + instance.target.coords()
    if 2 * (len(xs_all) - len(set(map(itemgetter(0), ends)))) != total \
            or 2 * (len(ys_all) - len(set(map(itemgetter(1), ends)))) != total:
        # an odd total breaks the ring invariant, and no count holds then
        return False
    # doubled, as the index is; its sorted keys start with the least xlo,
    # -xhi, ylo and -yhi
    lo = 2 * min(chain.from_iterable(ends))
    hi = 2 * max(chain.from_iterable(ends))
    keys = index.keys
    if keys[0]:
        lo = min(lo, keys[0][0], keys[2][0])
        hi = max(hi, -keys[1][0], -keys[3][0])
    return -2 * COORD_LIMIT <= lo and hi <= 2 * COORD_LIMIT


def _vertex_problems(instance: Instance, overlaps: list[str]) -> list[str]:
    """The per-vertex checks with each problem named: coordinates beyond
    the limit and rings through a vertex twice come before the box
    ``overlaps``, shared lines after them."""
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

    problems.extend(overlaps)

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


def _window(index: BoxIndex, lo: int, hi: int) -> list[int]:
    """The boxes, in obstacle order, whose xlo lies in ``[lo - width, hi]``:
    every box whose closed x-span meets ``[lo, hi]`` is among them.  The
    index's keys are doubled xlos and its width the widest doubled box, so
    the window is bisected from ``2 * lo - width`` to ``2 * hi``."""
    keys = index.keys[0]
    return sorted(index.orders[0][bisect.bisect_left(keys, 2 * lo - index.widths[0]):
                                  bisect.bisect_right(keys, 2 * hi)])


def _validate_terminal(name: str, term: Terminal, instance: Instance,
                       index: BoxIndex) -> list[str]:
    """Problems of one terminal; ``index`` is the obstacles' box index.  A
    box that a terminal's check can flag meets the terminal's closed
    x-span, so only the boxes of that window are read, in obstacle
    order."""
    problems: list[str] = []
    obs = instance.obstacles
    if term.kind == POINT:
        x = term.point[0]
        for i in _window(index, x, x):
            # closed containment implies the closed box holds the point
            if obs[i].bbox.contains(term.point) and obs[i].contains(term.point):
                problems.append(f"{name} point lies on obstacle {i}")
    elif term.kind == SEGMENT:
        seg = term.segment
        pierced = 0
        lo, hi = sorted((seg.p[0], seg.q[0]))
        for i in _window(index, lo, hi):
            ob = obs[i]
            if _segment_meets_interior(seg, ob):
                problems.append(f"{name} segment crosses obstacle {i}")
            if _segment_meets_open_rect(seg, ob.bbox):
                pierced += 1
        if pierced > 2:
            problems.append(f"{name} segment pierces {pierced} bounding boxes")
    else:
        v = _repeated_vertex(term.polygon)
        if v is not None:
            problems.append(f"{name} polygon ring passes through vertex {v} twice")
        tb = term.bbox
        for i in _window(index, tb.xlo, tb.xhi):
            if not tb.interior_disjoint(obs[i].bbox):
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

