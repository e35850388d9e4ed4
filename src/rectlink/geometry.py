"""Exact integer primitives for rectilinear geometry.

All coordinates are Python ints.  Points are plain ``(x, y)`` tuples so the
hot paths stay cheap; richer objects (rectangles, polygons, path results)
are small frozen dataclasses on top of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

Point = tuple[int, int]

COORD_LIMIT = 1 << 30


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# signed-permutation transforms (the 8 axis symmetries)

@dataclass(frozen=True)
class Xform:
    """Orthogonal transform ``(x, y) -> (a*x + b*y, c*x + d*y)``.

    Only the eight signed axis permutations are representable, which is all
    the solver ever needs to map a subproblem into its canonical frame.
    """

    a: int
    b: int
    c: int
    d: int

    def apply(self, p: Point) -> Point:
        x, y = p
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def inverse(self) -> "Xform":
        # signed permutation matrices are orthogonal: inverse == transpose
        return Xform(self.a, self.c, self.b, self.d)

    def then(self, other: "Xform") -> "Xform":
        """Composition: ``self.then(other).apply(p) == other.apply(self.apply(p))``."""
        return Xform(
            other.a * self.a + other.b * self.c,
            other.a * self.b + other.b * self.d,
            other.c * self.a + other.d * self.c,
            other.c * self.b + other.d * self.d,
        )


IDENTITY = Xform(1, 0, 0, 1)
FLIP_X = Xform(-1, 0, 0, 1)
FLIP_Y = Xform(1, 0, 0, -1)
FLIP_XY = Xform(-1, 0, 0, -1)
SWAP = Xform(0, 1, 1, 0)


# ---------------------------------------------------------------------------
# segments and rectangles

@dataclass(frozen=True)
class OrthoSegment:
    """Axis-aligned closed segment.  Degenerate (single point) is allowed."""

    p: Point
    q: Point

    def __post_init__(self) -> None:
        if self.p[0] != self.q[0] and self.p[1] != self.q[1]:
            raise GeometryError(f"segment {self.p}-{self.q} is not axis-aligned")

    @property
    def horizontal(self) -> bool:
        return self.p[1] == self.q[1] and self.p[0] != self.q[0]

    @property
    def vertical(self) -> bool:
        return self.p[0] == self.q[0] and self.p[1] != self.q[1]

    @property
    def degenerate(self) -> bool:
        return self.p == self.q

    @property
    def length(self) -> int:
        return abs(self.p[0] - self.q[0]) + abs(self.p[1] - self.q[1])

    def contains(self, pt: Point) -> bool:
        x, y = pt
        x0, x1 = sorted((self.p[0], self.q[0]))
        y0, y1 = sorted((self.p[1], self.q[1]))
        return x0 <= x <= x1 and y0 <= y <= y1


@dataclass(frozen=True)
class Rect:
    xlo: int
    ylo: int
    xhi: int
    yhi: int

    def __post_init__(self) -> None:
        if self.xlo > self.xhi or self.ylo > self.yhi:
            raise GeometryError(f"empty rect {self}")

    def contains(self, p: Point, strict: bool = False) -> bool:
        if strict:
            return self.xlo < p[0] < self.xhi and self.ylo < p[1] < self.yhi
        return self.xlo <= p[0] <= self.xhi and self.ylo <= p[1] <= self.yhi

    def interior_disjoint(self, other: "Rect") -> bool:
        return (
            self.xhi <= other.xlo
            or other.xhi <= self.xlo
            or self.yhi <= other.ylo
            or other.yhi <= self.ylo
        )

    @property
    def corners(self) -> tuple[Point, Point, Point, Point]:
        return (
            (self.xlo, self.ylo),
            (self.xhi, self.ylo),
            (self.xhi, self.yhi),
            (self.xlo, self.yhi),
        )


def bounding_box(points: Iterable[Point]) -> Rect:
    pts = list(points)
    if not pts:
        raise GeometryError("bounding_box of empty point set")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return Rect(min(xs), min(ys), max(xs), max(ys))


# ---------------------------------------------------------------------------
# rectilinear polygons

def _signed_area2(vertices: Sequence[Point]) -> int:
    s = 0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return s


def _normalize_ring(vertices: Sequence[Point]) -> tuple[Point, ...]:
    """Drop repeated/collinear vertices and rotate to a canonical start.

    One pass: a stack drops each vertex that turns out collinear with its
    neighbours as the ring is read, then the seam between the ring's end
    and its start is closed the same way.
    """
    vs: list[Point] = []
    for v in vertices:
        v = tuple(v)
        if not vs or vs[-1] != v:
            vs.append(v)
    if len(vs) > 1 and vs[0] == vs[-1]:
        vs.pop()
    out: list[Point] = []
    unread = len(vs)
    for v in vs:
        # the ring now holds len(out) + unread vertices; keep at least two
        while len(out) >= 2 and len(out) + unread > 2:
            a, b = out[-2], out[-1]
            if not (a[0] == b[0] == v[0] or a[1] == b[1] == v[1]):
                break
            out.pop()
        out.append(v)
        unread -= 1
    head = 0
    while len(out) - head > 2:
        a, b, c, d = out[-2], out[-1], out[head], out[head + 1]
        if a[0] == b[0] == c[0] or a[1] == b[1] == c[1]:
            out.pop()
        elif b[0] == c[0] == d[0] or b[1] == c[1] == d[1]:
            head += 1
        else:
            break
    out = out[head:]
    start = min(range(len(out)), key=out.__getitem__)
    return tuple(out[start:] + out[:start])


@dataclass(frozen=True)
class RectPolygon:
    """Simple rectilinear polygon, vertices counterclockwise, no collinear runs."""

    vertices: tuple[Point, ...]

    def __init__(self, vertices: Sequence[Point]):
        vs = _normalize_ring(vertices)
        if len(vs) < 4:
            raise GeometryError(f"degenerate polygon {vertices!r}")
        if _signed_area2(vs) < 0:
            # the reversed ring is still normalised; only its start moves
            vs = vs[::-1]
            k = vs.index(min(vs))
            vs = vs[k:] + vs[:k]
        for i in range(len(vs)):
            a, b = vs[i], vs[(i + 1) % len(vs)]
            if a[0] != b[0] and a[1] != b[1]:
                raise GeometryError(f"polygon edge {a}-{b} is not axis-aligned")
        object.__setattr__(self, "vertices", vs)

    @classmethod
    def from_normalised(cls, vertices: Sequence[Point]) -> "RectPolygon":
        """Wrap a ring that is already normalised and counterclockwise.

        Nothing is checked: the caller vouches for the ring, as for the
        image of a polygon's ring under a positive scaling.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "vertices", tuple(vertices))
        return out

    def edges(self) -> Iterator[OrthoSegment]:
        vs = self.vertices
        for i in range(len(vs)):
            yield OrthoSegment(vs[i], vs[(i + 1) % len(vs)])

    @cached_property
    def bbox(self) -> Rect:
        """Bounding box, computed on first use and kept."""
        return bounding_box(self.vertices)

    def contains(self, p: Point) -> bool:
        """Closed containment (boundary points count)."""
        return self.locate(p) >= 0

    def locate(self, p: Point) -> int:
        """1 if strictly inside, 0 on the boundary, -1 outside."""
        x, y = p
        inside = False
        for e in self.edges():
            if e.contains(p):
                return 0
            (x0, y0), (x1, y1) = e.p, e.q
            if e.vertical:
                ylo, yhi = sorted((y0, y1))
                # count crossings of the leftward ray; half-open in y avoids
                # double counting at shared vertices
                if ylo <= y < yhi and x0 < x:
                    inside = not inside
        return 1 if inside else -1

    def vertical_edges(self) -> list[OrthoSegment]:
        return [e for e in self.edges() if e.vertical]


# ---------------------------------------------------------------------------
# rectilinear convex hull

def _staircase(points: list[Point], sx: int, sy: int) -> list[Point]:
    """Maxima of ``(sx*x, sy*y)`` dominance, sorted by sx*x ascending."""
    pts = sorted(set(points), key=lambda p: (sx * p[0], sy * p[1]))
    best = None
    keep: list[Point] = []
    for p in reversed(pts):
        v = sy * p[1]
        if best is None or v > best:
            keep.append(p)
            best = v
    keep.reverse()
    return keep


def _is_orthoconvex(vertices: Sequence[Point]) -> bool:
    """No two consecutive reflex vertices in a counterclockwise ring.

    For a simple rectilinear polygon that is orthogonal convexity: an edge
    between two reflex vertices is a dent, and a line just inside the dent
    parallel to it meets the polygon twice; without such an edge every
    axis-parallel line meets it in one interval.
    """
    vs = list(vertices)
    # a clockwise turn is reflex in a counterclockwise ring
    reflex = [(bx - ax) * (cy - by) - (by - ay) * (cx - bx) < 0
              for (ax, ay), (bx, by), (cx, cy) in zip(vs[-1:] + vs[:-1], vs, vs[1:] + vs[:1])]
    return not any(p and q for p, q in zip(reflex, reflex[1:] + reflex[:1]))


def rectilinear_convex_hull(poly: RectPolygon) -> RectPolygon:
    """Connected orthogonal convex hull of a simple rectilinear polygon.

    Every axis-parallel line meets the result in at most one segment.  The
    hull's convex corners are vertices of the input polygon.  A polygon
    that is already orthogonally convex is its own hull and is returned as
    it is.
    """
    if _is_orthoconvex(poly.vertices):
        return poly
    pts = list(poly.vertices)
    ne = _staircase(pts, 1, 1)        # x asc, y desc
    nw = _staircase(pts, -1, 1)       # x desc, y desc -> reverse: x asc, y asc
    sw = _staircase(pts, -1, -1)
    se = _staircase(pts, 1, -1)

    ring: list[Point] = []

    def walk(chain: list[Point], corner_of) -> None:
        for i, p in enumerate(chain):
            if ring and ring[-1] != p:
                ring.append(corner_of(ring[-1], p))
            ring.append(p)

    # walk the four staircases, dipping to the inner corner between
    # consecutive maxima so notches aligned with a staircase survive
    nw_up = list(reversed(nw))        # x asc, y asc: leftmost to topmost
    walk(nw_up, lambda a, b: (b[0], a[1]))
    walk(ne, lambda a, b: (a[0], b[1]))
    se_down = list(reversed(se))      # x desc, y desc: rightmost to bottommost
    walk(se_down, lambda a, b: (b[0], a[1]))
    walk(sw, lambda a, b: (a[0], b[1]))
    return RectPolygon(ring)


# ---------------------------------------------------------------------------
# path results

@dataclass(frozen=True)
class PathResult:
    """A rectilinear polyline with its L1 length and link count."""

    points: tuple[Point, ...]
    length: int
    links: int

    @staticmethod
    def from_points(points: Sequence[Point]) -> "PathResult":
        pts, length, links = path_metrics(points)
        return PathResult(tuple(pts), length, links)


def first_dir(points: Sequence[Point]) -> Point:
    """Unit direction of a polyline's first step (its first two corners)."""
    (x0, y0), (x1, y1) = points[0], points[1]
    return ((x1 > x0) - (x1 < x0), (y1 > y0) - (y1 < y0))


def path_metrics(points: Sequence[Point]) -> tuple[list[Point], int, int]:
    """Normalize a rectilinear polyline and measure it.

    Returns ``(vertices, length, links)`` where *vertices* has zero-length
    steps dropped and collinear runs merged, *length* is the total L1 length
    and *links* the number of maximal segments.  Raises on diagonal steps.
    """
    if not points:
        raise GeometryError("empty polyline")
    pts = [tuple(p) for p in points]
    out = [pts[0]]
    for p in pts[1:]:
        if p == out[-1]:
            continue
        if p[0] != out[-1][0] and p[1] != out[-1][1]:
            raise GeometryError(f"diagonal step {out[-1]} -> {p}")
        out.append(p)
    merged = [out[0]]
    for p in out[1:]:
        if len(merged) >= 2:
            a, b = merged[-2], merged[-1]
            same_axis = (a[0] == b[0] == p[0]) or (a[1] == b[1] == p[1])
            if same_axis:
                # merge only if the direction is preserved; a reversal ends a link
                forward = (p[0] - b[0]) * (b[0] - a[0]) + (p[1] - b[1]) * (b[1] - a[1]) > 0
                if forward:
                    merged[-1] = p
                    continue
        merged.append(p)
    length = 0
    links = 0
    for a, b in zip(merged, merged[1:]):
        length += abs(a[0] - b[0]) + abs(a[1] - b[1])
        links += 1
    return merged, length, links
