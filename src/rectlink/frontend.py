"""Whole-instance solving for point, segment and polygon terminals.

The pair engine handles two points strictly outside every obstacle
bounding box.  Everything else reduces to it by attachment enumeration:

* a terminal is replaced by its candidate connection points, the grid
  positions on it where an optimal path can leave (for a point, the point
  itself; for a segment or polygon boundary, its vertices plus every
  intersection with an instance coordinate line);
* a candidate inside some obstacle's bounding box connects to the outside
  through a pocket of that box; the box-local grid search yields, per
  boundary point and outward direction, the best inside lead path, and
  the hand-over to the engine happens at a junction half a (doubled) unit
  outside the box, where the direction-seeded link counts make the join
  exact;
* candidates outside every box feed the engine directly;
* a search also offers its own route to every candidate of the other
  terminal in its closed box: one inside the box, or one on its ring, which
  a junction outside the box cannot reach without stepping back.

The best combination over all source/target attachments is the answer.
Pairs are tried in order of an obstacle-blind L1 lower bound, and a pair is
skipped when a triangle bound through an already solved pair shows it cannot
beat the best answer found so far.  Every witness is re-measured before it
is returned.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .engine import UNIT_DIRS, _double, build_world, solve_pair_raw
from .geometry import (
    GeometryError,
    OrthoSegment,
    PathResult,
    Point,
    Rect,
    first_dir,
)
from .model import POINT, SEGMENT, Instance, Terminal, validate
from .pockets import BoxGrid, GridSearch


@dataclass(frozen=True)
class Attachment:
    """One way to connect a terminal to the open plane, in doubled coords.

    A plain attachment (``out_dir`` is None) is a candidate point outside
    every box; ``lead2`` is then just that point.  A pocket attachment
    carries the inside lead path and the junction just outside the box;
    ``links`` counts the lead's segments including the one crossing the
    boundary along ``out_dir``.
    """

    junction2: Point
    d2: int
    links: int
    lead2: tuple[Point, ...]
    out_dir: Optional[Point]

    @property
    def group(self) -> tuple:
        """The attachment's free group: attachments of one terminal that
        share it are joined by a staircase that meets no open obstacle box,
        hence no hull, so their hull-world distance is at most their L1
        distance.

        All plain attachments of a terminal share one group.  A point has a
        single one.  ``validate`` makes a polygon's box interior-disjoint
        from every obstacle box, so the polygon's box holds a staircase
        between any two of them.  A plain attachment of a segment lies on
        the segment, outside every open box or on a box's boundary (plain
        candidates are filtered with a strict ``contains``).  ``validate``
        rejects a segment that meets an obstacle's interior, and a connected
        obstacle touches all four sides of its box, so a valid segment never
        runs across a box: it enters a box only to end inside it.  The
        segment's part between two plain attachments therefore meets no
        open box.

        Pocket attachments share a group when they leave through one box
        wall: the same ``out_dir`` and the same junction coordinate along
        it.  Their junctions sit half a unit outside that wall, and so does
        the run joining them.  Boxes are interior-disjoint and no two
        obstacles share a coordinate, so no open box reaches that run.
        """
        if self.out_dir is None:
            return ()
        return self.out_dir, self.junction2[0 if self.out_dir[0] else 1]


@dataclass
class SolveReport:
    distance: int
    links: int
    path: list[Point]
    stats: dict = field(default_factory=dict)


def _l1(a: Point, b: Point) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _neg(d: Point) -> Point:
    return (-d[0], -d[1])


def _candidate_points(term: Terminal, xs: list[int], ys: list[int]) -> list[Point]:
    """Grid positions on the terminal where an optimal path can leave."""
    if term.kind == POINT:
        return [term.point]
    if term.kind == SEGMENT:
        return _on_segment(term.segment, xs, ys)
    pts: set[Point] = set()
    for e in term.polygon.edges():
        pts.update(_on_segment(e, xs, ys))
    return sorted(pts)


def _on_segment(seg: OrthoSegment, xs: list[int], ys: list[int]) -> list[Point]:
    pts = {seg.p, seg.q}
    if seg.horizontal:
        lo, hi = sorted((seg.p[0], seg.q[0]))
        y = seg.p[1]
        pts.update((x, y) for x in xs if lo <= x <= hi)
    elif seg.vertical:
        lo, hi = sorted((seg.p[1], seg.q[1]))
        x = seg.p[0]
        pts.update((x, y) for y in ys if lo <= y <= hi)
    return sorted(pts)


def _attachments(instance: Instance, term: Terminal, xs: list[int],
                 ys: list[int], boxes: list[Rect]
                 ) -> tuple[list[Attachment], list[GridSearch], list[Point]]:
    """All attachments of one terminal, its per-box inside searches, and
    its candidate points."""
    cands = _candidate_points(term, xs, ys)
    atts: list[Attachment] = []
    boxed: dict[int, list[Point]] = {}
    for p in cands:
        host = next((i for i, b in enumerate(boxes)
                     if b.contains(p, strict=True)), None)
        if host is None:
            atts.append(Attachment(junction2=_double(p), d2=0, links=0,
                                   lead2=(_double(p),), out_dir=None))
        else:
            boxed.setdefault(host, []).append(p)
    searches: list[GridSearch] = []
    for host, pts in boxed.items():
        grid = BoxGrid(boxes[host], instance.obstacles[host],
                       extra_xs=xs, extra_ys=ys)
        gs = GridSearch(grid, pts)
        searches.append(gs)
        for c in gs.crossings():
            jun = (2 * c.point[0] + c.out_dir[0], 2 * c.point[1] + c.out_dir[1])
            atts.append(Attachment(junction2=jun, d2=2 * c.dist + 1,
                                   links=c.links,
                                   lead2=tuple(_double(v) for v in c.path) + (jun,),
                                   out_dir=c.out_dir))
    return atts, searches, cands


def _pair_bound(a: Attachment, b: Attachment,
                solved: Sequence[tuple[Point, Point, int]]) -> int:
    """Lower bound on every cost the pair (a, b) can offer.

    ``solved`` holds ``(ja, jb, d)`` for middle solves of pairs whose source
    attachment shares a free group with ``a`` and whose target attachment
    shares one with ``b``.  The hull-world distance is a metric,
    and within a group it is at most L1, so
    ``d <= L1(ja, a) + dist(a, b) + L1(b, jb)`` bounds ``dist(a, b)`` from
    below; so does the obstacle-blind ``L1(a, b)``.  Every cost the pair
    offers is ``a.d2 + dist(a, b) + b.d2``.  ``solve`` skips a pair whose
    bound exceeds the best distance found so far; that distance is at least
    the final one, so a skipped pair could never have made a strict
    improvement, and neither the answer nor its tie-breaking (the first
    strict improvement in L1 order wins) changes.
    """
    (ax, ay), (bx, by) = a.junction2, b.junction2
    gap = abs(ax - bx) + abs(ay - by)
    for (kx, ky), (lx, ly), d in solved:
        gap = max(gap, d - abs(ax - kx) - abs(ay - ky)
                  - abs(bx - lx) - abs(by - ly))
    return a.d2 + gap + b.d2


def _seed_links(att: Attachment) -> Optional[dict[Point, float]]:
    if att.out_dir is None:
        return None
    c = att.out_dir
    back = _neg(c)
    return {d: att.links + (0 if d == c else 2 if d == back else 1)
            for d in UNIT_DIRS}


def _align_runs(points: list[Point], xs: list[int], ys: list[int]) -> list[Point]:
    """Slide off-grid runs of a witness onto instance coordinate lines.

    ``solve`` passes the doubled witness with the doubled lines, whose
    off-grid runs sit on winder midpoints and pocket junctions.  Every
    obstacle line is an instance line, so no obstacle boundary lies
    strictly between two consecutive lines, and obstacles are open: moving
    a run within that strip onto either bounding line is always legal.
    Off-grid runs of an optimal witness are staircase runs (an off-grid
    reversal run could slide inward and shorten the path), so either
    direction preserves length; the one that does not merge with a
    neighbouring run preserves links too.  ``points`` must have no
    zero-length steps and no collinear corners.
    """
    pts = list(points)
    for axis, lines in ((0, xs), (1, ys)):
        for k in range(len(pts) - 1):
            a, b = pts[k], pts[k + 1]
            if a[axis] != b[axis]:
                continue
            v = a[axis]
            i = bisect.bisect_left(lines, v)
            if i < len(lines) and lines[i] == v:
                continue
            prev = pts[k - 1][axis] if k else None
            nxt = pts[k + 2][axis] if k + 2 < len(pts) else None
            cands = [c for c in lines[max(i - 1, 0):i + 1]
                     if c != v and c != prev and c != nxt]
            if not cands:
                raise GeometryError("cannot align a run to the instance grid")
            nv = cands[0]
            pts[k] = (nv, a[1]) if axis == 0 else (a[0], nv)
            pts[k + 1] = (nv, b[1]) if axis == 0 else (b[0], nv)
    return pts


def solve(instance: Instance) -> SolveReport:
    """Shortest-distance, fewest-link path between the two terminals."""
    problems = validate(instance)
    if problems:
        raise GeometryError("invalid instance: " + "; ".join(problems))
    xs_set, ys_set = instance.all_coords()
    xs, ys = sorted(xs_set), sorted(ys_set)
    boxes = [ob.bbox for ob in instance.obstacles]
    world = build_world(list(instance.obstacles))
    atts_s, search_s, cands_s = _attachments(instance, instance.source, xs, ys,
                                             boxes)
    atts_t, search_t, cands_t = _attachments(instance, instance.target, xs, ys,
                                             boxes)
    if not atts_s or not atts_t:
        raise GeometryError("a terminal has no connection to the free plane")

    stats = {"middle_solves": 0, "pairs_pruned": 0, "events": 0, "regions": 0,
             "attachments": (len(atts_s), len(atts_t))}
    best: Optional[tuple[int, int, list[Point]]] = None

    def offer(d2: int, links: int, pts2: list[Point]) -> None:
        nonlocal best
        if best is None or (d2, links) < (best[0], best[1]):
            best = (d2, links, pts2)

    # in-box routes, to the other terminal's candidates in a search's box
    for searches, cands, forward in ((search_s, cands_t, True),
                                     (search_t, cands_s, False)):
        for gs in searches:
            for q in cands:
                got = gs.at(q) if gs.grid.box.contains(q) else None
                if got is not None:
                    route = [_double(v) for v in got[2]]
                    offer(2 * got[0], got[1], route if forward else route[::-1])

    # middle solves are filed under their pair's free groups; a pair's bound
    # reads only the solves filed under its own groups
    solved: dict[tuple, list[tuple[Point, Point, int]]] = {}
    pairs = sorted(
        ((a.d2 + _l1(a.junction2, b.junction2) + b.d2, i, j)
         for i, a in enumerate(atts_s) for j, b in enumerate(atts_t)),
        key=lambda t: t[0])
    for lb, i, j in pairs:
        if best is not None and lb > best[0]:
            break
        a, b = atts_s[i], atts_t[j]
        if a.junction2 == b.junction2:
            # a plain junction is even in both coordinates and a pocket one
            # odd in one, so both are plain or both pockets; two pockets
            # leaving the same way are a U-turn the in-box route beats
            if a.out_dir is None or a.out_dir != b.out_dir:
                merge = a.out_dir is not None
                pts = list(a.lead2) + list(reversed(b.lead2))[1:]
                offer(a.d2 + b.d2, a.links + b.links - merge, pts)
            continue
        key = (a.group, b.group)
        if best is not None \
                and _pair_bound(a, b, solved.get(key, ())) > best[0]:
            stats["pairs_pruned"] += 1
            continue
        raw = solve_pair_raw(world, a.junction2, b.junction2,
                             dir_links=_seed_links(a))
        solved.setdefault(key, []).append((a.junction2, b.junction2, raw.dist2))
        stats["middle_solves"] += 1
        stats["events"] += raw.stats.get("events", 0)
        stats["regions"] += raw.stats.get("regions", 0)
        for adir, (lam, wit) in raw.arrivals.items():
            if a.out_dir is not None and first_dir(wit) == _neg(a.out_dir):
                # the middle would double straight back into the box; a
                # later crossing of the same pocket covers that route
                continue
            if b.out_dir is not None and adir == b.out_dir:
                continue
            merge = 1 if b.out_dir is not None and adir == _neg(b.out_dir) else 0
            pts = list(a.lead2) + list(wit)[1:] + list(reversed(b.lead2))[1:]
            offer(a.d2 + raw.dist2 + b.d2, lam + b.links - merge, pts)

    if best is None:
        raise GeometryError("terminals are not connected")
    stats["traces_built"] = world.traces_built
    stats["regions_built"] = world.regions_built
    stats["hull_tables_built"] = world.hull_tables_built
    d2, links, pts2 = best
    if d2 % 2:
        raise GeometryError("odd doubled distance")
    if len(pts2) == 1:
        path = [(pts2[0][0] // 2, pts2[0][1] // 2)]
    else:
        pts2 = _align_runs(PathResult.from_points(pts2).points,
                           [2 * x for x in xs], [2 * y for y in ys])
        check = PathResult.from_points([(x // 2, y // 2) for x, y in pts2])
        if check.length * 2 != d2 or check.links != links \
                or any(p[0] not in xs_set or p[1] not in ys_set
                       for p in check.points):
            raise GeometryError("witness disagrees with the combined costs")
        path = list(check.points)
    return SolveReport(distance=d2 // 2, links=links, path=path, stats=stats)
