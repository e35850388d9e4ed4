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
* candidates outside every box feed the engine directly.

The best combination over all source/target attachments, with an L1 lower
bound to skip hopeless pairs, is the answer.  Every witness is re-measured
before it is returned.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional

from .engine import UNIT_DIRS, _double, _even_snap, build_world, solve_pair_raw
from .geometry import (
    GeometryError,
    OrthoSegment,
    PathResult,
    Point,
    Rect,
)
from .model import POINT, POLYGON, SEGMENT, Instance, Terminal, validate
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
                 ) -> tuple[list[Attachment], dict[int, GridSearch]]:
    """All attachments of one terminal, plus its per-box inside searches."""
    free: list[Point] = []
    boxed: dict[int, list[Point]] = {}
    for p in _candidate_points(term, xs, ys):
        host = next((i for i, b in enumerate(boxes)
                     if b.contains(p, strict=True)), None)
        if host is None:
            free.append(p)
        else:
            boxed.setdefault(host, []).append(p)
    atts = [Attachment(junction2=_double(p), d2=0, links=0,
                       lead2=(_double(p),), out_dir=None) for p in free]
    searches: dict[int, GridSearch] = {}
    for host, pts in boxed.items():
        grid = BoxGrid(boxes[host], instance.obstacles[host],
                       extra_xs=xs, extra_ys=ys)
        gs = GridSearch(grid, pts)
        searches[host] = gs
        for c in gs.crossings():
            jun = (2 * c.point[0] + c.out_dir[0], 2 * c.point[1] + c.out_dir[1])
            lead = tuple(_double(v) for v in c.path)
            if c.links == 0:
                # the terminal itself reaches the box boundary; from there
                # it behaves like a plain outside candidate
                atts.append(Attachment(junction2=lead[-1], d2=0, links=0,
                                       lead2=lead, out_dir=None))
                continue
            atts.append(Attachment(junction2=jun, d2=2 * c.dist + 1,
                                   links=c.links, lead2=lead + (jun,),
                                   out_dir=c.out_dir))
    return atts, searches


def _seed_links(att: Attachment) -> Optional[dict[Point, float]]:
    if att.out_dir is None:
        return None
    c = att.out_dir
    back = _neg(c)
    return {d: att.links + (0 if d == c else 2 if d == back else 1)
            for d in UNIT_DIRS}


def _align_runs(points: list[Point], xs: list[int], ys: list[int]) -> list[Point]:
    """Slide off-grid runs of a witness onto instance coordinate lines.

    No obstacle boundary lies strictly between two consecutive instance
    coordinates, and obstacles are open, so moving a run within that strip
    onto either bounding line is always legal.  Off-grid runs of an optimal
    witness are staircase runs (an off-grid reversal run could slide inward
    and shorten the path), so either direction preserves length; the one
    that does not merge with a neighbouring run preserves links too.
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
    atts_s, search_s = _attachments(instance, instance.source, xs, ys, boxes)
    atts_t, search_t = _attachments(instance, instance.target, xs, ys, boxes)
    if not atts_s or not atts_t:
        raise GeometryError("a terminal has no connection to the free plane")

    stats = {"middle_solves": 0, "events": 0, "regions": 0,
             "attachments": (len(atts_s), len(atts_t))}
    best: Optional[tuple[int, int, list[Point]]] = None

    def offer(d2: int, links: int, pts2: list[Point]) -> None:
        nonlocal best
        if best is None or (d2, links) < (best[0], best[1]):
            best = (d2, links, pts2)

    # purely inside routes, for terminals sharing a box
    for host, gs in search_s.items():
        other = search_t.get(host)
        if other is None:
            continue
        for (i, j) in other.sources:
            q = (gs.grid.xs[i], gs.grid.ys[j])
            got = gs.at(q)
            if got is not None:
                offer(2 * got[0], got[1], [_double(v) for v in got[2]])

    pairs = sorted(
        ((a.d2 + _l1(a.junction2, b.junction2) + b.d2, a, b)
         for a in atts_s for b in atts_t),
        key=lambda t: t[0])
    for lb, a, b in pairs:
        if best is not None and lb > best[0]:
            break
        if a.junction2 == b.junction2:
            if a.out_dir is None and b.out_dir is None:
                offer(0, 0, [a.junction2])
            elif a.out_dir is not None and b.out_dir is not None \
                    and a.out_dir != b.out_dir:
                merge = 1 if a.out_dir == _neg(b.out_dir) else 0
                pts = list(a.lead2) + list(reversed(b.lead2))[1:]
                offer(a.d2 + b.d2, a.links + b.links - merge, pts)
            continue
        raw = solve_pair_raw(world, a.junction2, b.junction2,
                             dir_links=_seed_links(a))
        stats["middle_solves"] += 1
        stats["events"] += raw.stats.get("events", 0)
        stats["regions"] += raw.stats.get("regions", 0)
        for adir, (lam, wit) in raw.arrivals.items():
            d0 = (min(max(wit[1][0] - wit[0][0], -1), 1),
                  min(max(wit[1][1] - wit[0][1], -1), 1))
            if a.out_dir is not None and d0 == _neg(a.out_dir):
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
    d2, links, pts2 = best
    if d2 % 2:
        raise GeometryError("odd doubled distance")
    if len(pts2) == 1:
        path = [(pts2[0][0] // 2, pts2[0][1] // 2)]
    else:
        pts2 = _even_snap(pts2, d2, links)
        path = _align_runs([(x // 2, y // 2) for x, y in pts2], xs, ys)
        check = PathResult.from_points(path)
        if check.length * 2 != d2 or check.links != links \
                or any(p[0] not in xs_set or p[1] not in ys_set
                       for p in check.points):
            raise GeometryError("witness disagrees with the combined costs")
        path = list(check.points)
    return SolveReport(distance=d2 // 2, links=links, path=path, stats=stats)
