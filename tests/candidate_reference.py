"""Unfiltered candidate enumeration and a scanning ray test, kept as
references for ``rectlink.frontend``.

``candidate_points`` is the enumeration ``frontend`` used before it
filtered candidates: every terminal vertex and every crossing of an
instance line with a terminal edge, each hosted by the box that strictly
contains it (``frontend._host``).  ``attachments`` builds a terminal's attachments from all of
them, with ``frontend._attachments``'s return shape, so that it can stand in
for it (``tests/pair_reference.py`` and the filtered-against-unfiltered test
in ``tests/test_frontend.py`` do).

``ray_kept`` states the filter rule of the ``frontend`` docstring by brute
force: for each plain candidate it scans every obstacle edge and every
terminal edge along the candidate's rays.  It shares no code with the
frontend's ray passes.
"""
from __future__ import annotations

import bisect

from rectlink.engine import _double
from rectlink.frontend import Attachment, _host, _Lines
from rectlink.geometry import OrthoSegment, Point
from rectlink.model import POINT, POLYGON, SEGMENT, Instance, Terminal
from rectlink.partition import INF, World
from rectlink.pockets import BoxGrid, GridSearch


def candidate_points(term: Terminal, lines: _Lines) -> list[Point]:
    """Every grid position on the terminal, sorted."""
    if term.kind == POINT:
        return [term.point]
    if term.kind == SEGMENT:
        return on_segment(term.segment, lines.xs, lines.ys)
    pts: set[Point] = set()
    for e in term.polygon.edges():
        pts.update(on_segment(e, lines.xs, lines.ys))
    return sorted(pts)


def on_segment(seg: OrthoSegment, xs: list[int], ys: list[int]) -> list[Point]:
    pts = {seg.p, seg.q}
    if seg.horizontal:
        lo, hi = sorted((seg.p[0], seg.q[0]))
        y = seg.p[1]
        pts.update((x, y) for x in xs[bisect.bisect_left(xs, lo):
                                      bisect.bisect_right(xs, hi)])
    elif seg.vertical:
        lo, hi = sorted((seg.p[1], seg.q[1]))
        x = seg.p[0]
        pts.update((x, y) for y in ys[bisect.bisect_left(ys, lo):
                                      bisect.bisect_right(ys, hi)])
    return sorted(pts)


def attachments(instance: Instance, term: Terminal, lines: _Lines, world: World):
    """Every candidate's attachments, the per-box searches, the candidates
    and the counts (enumerated, kept), which are equal here."""
    cands = candidate_points(term, lines)
    atts: list[Attachment] = []
    boxed: dict[int, list[Point]] = {}
    for p in cands:
        h = _host(world.index, p)
        if h is None:
            atts.append(Attachment(junction2=_double(p), d2=0, links=0,
                                   out_dir=None))
        else:
            boxed.setdefault(h, []).append(p)
    searches: list[GridSearch] = []
    for h, pts in boxed.items():
        ob = instance.obstacles[h]
        grid = BoxGrid(ob.bbox, ob, extra_xs=lines.xs_set, extra_ys=lines.ys_set)
        gs = GridSearch(grid, pts)
        searches.append(gs)
        for c in gs.crossings():
            jun = (2 * c.point[0] + c.out_dir[0], 2 * c.point[1] + c.out_dir[1])
            atts.append(Attachment(junction2=jun, d2=2 * c.dist + 1,
                                   links=c.links, out_dir=c.out_dir,
                                   crossing=c))
    return atts, searches, cands, (len(cands), len(cands))


def _ring_edges(vertices):
    return list(zip(vertices, vertices[1:] + vertices[:1]))


def _first_hits(edges, p: Point, d: Point) -> tuple[float, float]:
    """Along the ray from ``p`` in unit direction ``d``: the least t >= 0 at
    which it meets an edge lying on its line, and the least t > 0 at which
    it crosses an edge across its line strictly inside that edge."""
    along = 0 if d[0] else 1
    across = 1 - along
    ride = cross = INF
    for a, b in edges:
        if a[across] == b[across] == p[across]:
            ts = sorted((d[along] * (a[along] - p[along]), d[along] * (b[along] - p[along])))
            if ts[1] >= 0:
                ride = min(ride, max(ts[0], 0))
        elif a[along] == b[along] and min(a[across], b[across]) < p[across] < max(a[across], b[across]):
            t = d[along] * (a[along] - p[along])
            if t > 0:
                cross = min(cross, t)
    return ride, cross


def ray_kept(instance: Instance, term: Terminal) -> set[Point]:
    """The candidates of a segment or polygon terminal that the filter
    keeps, by scanning: terminal vertices, candidates on a terminal vertex's
    line, candidates in an obstacle's open box, and every other candidate
    one of whose outward rays meets an obstacle edge on its own line before
    it crosses into an obstacle or into a terminal polygon.  The other
    terminal blocks only when its closed box is clear of this one's."""
    other = instance.target if term is instance.source else instance.source
    lines = _Lines(instance)
    ends = term.coords() + other.coords()
    tlines = ({p[0] for p in ends}, {p[1] for p in ends})
    obstacle_edges = [_ring_edges(ob.vertices) for ob in instance.obstacles]
    blockers = []
    if term.kind == POLYGON:
        blockers.append(_ring_edges(term.polygon.vertices))
    if other.kind == POLYGON:
        tb, ob = term.bbox, other.bbox
        if tb.xhi < ob.xlo or ob.xhi < tb.xlo or tb.yhi < ob.ylo or ob.yhi < tb.ylo:
            blockers.append(_ring_edges(other.polygon.vertices))
    if term.kind == SEGMENT:
        seg = term.segment
        d = (seg.q[0] - seg.p[0], seg.q[1] - seg.p[1])
        sides = [(seg, [(0, 1), (0, -1)] if d[1] == 0 else [(1, 0), (-1, 0)])]
    else:
        # counterclockwise ring: the outward normal is on each edge's right
        sides = [(OrthoSegment(a, b),
                  [((b[1] > a[1]) - (b[1] < a[1]), (a[0] > b[0]) - (a[0] < b[0]))])
                 for a, b in _ring_edges(term.polygon.vertices)]
    kept: set[Point] = set()
    for seg, normals in sides:
        along = 0 if seg.horizontal else 1
        for p in on_segment(seg, lines.xs, lines.ys):
            if p in (seg.p, seg.q) or p[along] in tlines[along] \
                    or any(ob.bbox.xlo < p[0] < ob.bbox.xhi
                           and ob.bbox.ylo < p[1] < ob.bbox.yhi
                           for ob in instance.obstacles):
                kept.add(p)
                continue
            for d in normals:
                ride = min((_first_hits(edges, p, d)[0] for edges in obstacle_edges),
                           default=INF)
                block = min([_first_hits(edges, p, d)[1]
                             for edges in obstacle_edges + blockers], default=INF)
                if ride < block:
                    kept.add(p)
    return kept
