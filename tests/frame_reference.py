"""Eager reference for a hull's frame tables.

``reference_tables(hull, t)`` builds ``RectPolygon`` of the ring mapped
through the doubling and the frame, ``(x, y) -> t.apply((2x, 2y))``, as a
world reads an instance-coordinate hull.  ``RectPolygon`` normalises it
from scratch, and every column that ``partition._FramePoly`` fills lazily
is derived from that polygon's segments, so the two share no code beyond
the polygon class.
"""
from rectlink.geometry import RectPolygon, bounding_box
from shapes import horizontal_edges

COLUMNS = ("box", "ring", "west_lo", "west_hi", "west", "horiz", "hug",
           "hug_xs", "east_horiz")


def mapped_polygon(hull, t):
    return RectPolygon([t.apply((2 * x, 2 * y)) for x, y in hull.vertices])


def reference_tables(hull, t):
    """Column name -> value for ``hull`` seen in frame ``t``."""
    p = mapped_polygon(hull, t)
    box = bounding_box(p.vertices)
    west = [(e.p[0], e.q[1], e.p[1]) for e in p.vertical_edges()
            if e.q[1] < e.p[1]]
    horiz = [(min(e.p[0], e.q[0]), max(e.p[0], e.q[0]), e.p[1])
             for e in horizontal_edges(p)]
    (wlo, whi), = [(lo, hi) for x, lo, hi in west if x == box.xlo]
    # counterclockwise ring: from the west side's bottom, walk backwards
    # (up the west wall first) to the first vertex on the top wall
    ring = p.vertices
    i = ring.index((box.xlo, wlo))
    hug = [ring[i]]
    while hug[-1][1] < box.yhi:
        i -= 1
        hug.append(ring[i])
    return {
        "box": box,
        "ring": ring,
        "west_lo": wlo,
        "west_hi": whi,
        "west": west,
        "horiz": horiz,
        "hug": hug,
        "hug_xs": frozenset(a[0] for a, b in zip(hug, hug[1:]) if a[0] == b[0]),
        "east_horiz": frozenset((xlo, y) for xlo, _, y in horiz),
    }


def columns(fp):
    """Column name -> value of a ``_FramePoly`` (reading fills it)."""
    return {name: getattr(fp, name) for name in COLUMNS}
