"""Polygon helpers that only tests need.

The package builds polygons from rings and reads their edges as tables, so
these conveniences for writing and inspecting test shapes live here.
"""
from __future__ import annotations

from rectlink.geometry import OrthoSegment, Point, Rect, RectPolygon, _signed_area2


def in_open_box(r: Rect, p: Point) -> bool:
    """Does ``p`` lie in the rectangle's interior (not on its boundary)?"""
    return r.xlo < p[0] < r.xhi and r.ylo < p[1] < r.yhi


def rect_polygon(r: Rect) -> RectPolygon:
    """The rectangle as a four-vertex polygon."""
    return RectPolygon(r.corners)


def area2(poly: RectPolygon) -> int:
    """Twice the polygon's area (its ring is counterclockwise)."""
    return _signed_area2(poly.vertices)


def horizontal_edges(poly: RectPolygon) -> list[OrthoSegment]:
    return [e for e in poly.edges() if e.horizontal]


def spiral_band(arms: int, scale: int) -> RectPolygon:
    """A spiral band of ``arms`` arms, scaled by ``scale``.

    Its centreline starts at the origin and runs right 1, up 1, left 2,
    down 2, ... on a lattice of step 4; the band is 1 wide on each side of
    it and its two ends are square, reaching 1 past the centreline's ends.
    """
    dirs = ((1, 0), (0, 1), (-1, 0), (0, -1))
    steps = [dirs[k % 4] for k in range(arms)]
    line = [(0, 0)]
    for k, (dx, dy) in enumerate(steps):
        x, y = line[-1]
        run = 4 * (k // 2 + 1)
        line.append((x + dx * run, y + dy * run))
    (fx, fy), (lx, ly) = steps[0], steps[-1]
    line[0] = (-fx, -fy)
    line[-1] = (line[-1][0] + lx, line[-1][1] + ly)
    left, right = [], []
    for k, (x, y) in enumerate(line):
        # offset by the left normal of each arm that meets here
        meeting = steps[max(k - 1, 0):k + 1]
        ox = -sum(dy for _, dy in meeting)
        oy = sum(dx for dx, _ in meeting)
        left.append((x + ox, y + oy))
        right.append((x - ox, y - oy))
    return RectPolygon([(x * scale, y * scale) for x, y in left + right[::-1]])
