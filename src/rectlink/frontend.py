"""Whole-instance solving for point, segment and polygon terminals.

The pair engine handles two points strictly outside every obstacle
bounding box.  Everything else reduces to it by attachment enumeration:

* a terminal is replaced by its candidate connection points, the grid
  positions on it where an optimal path can leave.  For a point that is
  the point itself.  For a segment or polygon boundary the positions are
  its vertices plus every crossing of an instance coordinate line with an
  edge, and of those ``solve`` keeps only the ones that can start an
  optimal path: the vertices, the positions on any terminal vertex's line,
  the positions inside an obstacle's open box, and each other position p
  on an edge e one of whose rays along e's outward normal (both normals
  for a segment) rides an obstacle side on p's own line before it enters
  an obstacle or a terminal polygon (see "The candidate filter" below);
* a candidate inside some obstacle's bounding box connects to the outside
  through a pocket of that box; the box-local grid search yields, per box
  corner or door vertex and outward direction, the best inside lead path
  (``pockets`` says why no other boundary point needs one), and the
  hand-over to the engine happens at a junction half a (doubled) unit
  outside the box, where the direction-seeded link counts make the join
  exact;
* candidates outside every box feed the engine directly;
* a search also offers its own route to every candidate of the other
  terminal in its closed box: one inside the box, or one on its ring, which
  a junction outside the box cannot reach without stepping back.  This
  reads every candidate, kept or not: a plain candidate on a box wall can
  be dropped and still end such a route.  No candidate of a polygon lies in
  a closed obstacle box, so for a polygon there is none to read.

The best combination over all source/target attachments is the answer.
Pairs are tried in order of an obstacle-blind L1 lower bound, and the loop
stops at the first pair whose bound exceeds the best distance found so far.

The candidate filter.  Obstacles are open, so a path may ride their sides.
A terminal is its point, its segment or its polygon's ring.  Take an
optimal path (least length, then fewest links) and cut it at its last
point on the source and its first point on the target after that: the cut
is no longer and has no more links, so it is optimal too, and it touches
the source only at its start p and the target only at its end.  Say p is a
candidate the filter drops: p lies inside an edge e, in no open box, and
its line L across e is no terminal vertex's line.

* The first link leaves p along a normal of e, since a link along e would
  touch the source again.  Let b be its far end.  The link rides no
  obstacle side on L.  Along an outward normal it enters no obstacle,
  meets the source only at p and the target at most at b, so it lies on
  p's ray before the ray enters an obstacle or a terminal polygon, and p
  was dropped because that stretch meets no side on L.  Along a polygon
  edge's inward normal it stays in the polygon's box, which holds no
  obstacle (the target then lies inside the ring).
* So no obstacle's closure meets the link except at b from beyond: a
  boundary that meets L off a side on L crosses L, with the interior on
  both sides.
* With two or more links, slide the first link a little towards the
  second.  The strip it sweeps is clear, its start stays inside e, and the
  second link shortens: a shorter path, which cannot be.  The slide changes
  the first link alone, so a path through box pockets is no exception.
* With one link, the same slide keeps both the length and the link count,
  since between instance lines the target's side it ends on runs parallel
  to e.  Slide it along e until it must stop: where it rides an obstacle
  side on its line, or where its line is a vertex line of either
  terminal.  Both ends are kept there: a terminal vertex line keeps the
  candidates of both terminals on it, and a ridden side lies on the link,
  which either end's ray runs along before it meets any block.
* With no link the terminals touch, and the least touching point, which
  breaks the tie, is a vertex of one of them or lies on one's vertex line.

The filter treats each end alone and the slide moves both ends only to
kept positions, so some optimal path starts and ends at kept candidates;
every offer is a real path, so ``solve`` stays exact.  A ray that meets
its own polygon again is blocked by it.  The other terminal blocks only as
a polygon whose closed box is clear of this terminal's box, so that every
ray starts outside it; where the boxes meet it blocks nothing, which keeps
more candidates than the rule needs and never fewer.

The filter makes one ray pass per terminal edge and normal; a polygon's
edges that face one way share one pass, from its box's side, since no
obstacle box reaches into a polygon terminal's box.  A pass reads the
boxes ahead whose closed span meets the edges' strip, in the order the
rays reach them, and walks the positions through them: the first box
whose closed span holds a position is the first box its ray meets.  L is
an instance line but no terminal vertex's line, so it runs through an
obstacle vertex, and under ``validate``'s general position (no two
obstacles share a vertex x or y) that obstacle O* is the only one with
sides on L.  A connected obstacle touches all four sides of its box, so
every line through the box's open span crosses the obstacle, and a ray
that meets a box other than O*'s (or the other terminal's box) first
enters it before it can reach O*.  A position is therefore kept iff the
first box its ray meets is O*'s and, inside it, the ray reaches an edge on
L before it crosses an edge into O* (``_rides``).  The same pass needs no
host box per candidate: a polygon's box meets no obstacle box, and a valid
segment enters a box only to end inside it, so its pocket candidates are
its ends' stretches in its ends' boxes.  A point terminal skips all of
this.

A pair of two plain attachments that no free L answers (see "Two-link
pairs" below) is classified.  The first one that reads as an x-case in
some frame makes one class solve: a single x-case relaxation from every
plain source attachment to every plain target attachment in that frame,
which covers every plain pair of that class, so every later pair of the
class is skipped.  A class is a frame together with its y mirror: a solve
in either admits the same chains and returns the same witnesses
(``composer``'s "A frame and its y mirror"), so the mirror's solve would
only repeat its offers.  All other pairs (xy plain pairs, and every pair
with a pocket attachment) get a middle solve of their own; a plain pair's
solve reuses the pair's classification.

Two-link pairs.  A plain pair that is not collinear skips its
classification, staircase region and sweep when one of its two Ls is free
(``free_corners``), and offers that L, through the least free corner, as
its only answer:

* the pair is not collinear, so every path between its ends has at least
  two links, and a free L is an L1-shortest path with two;
* a free L is an xy-monotone path, so classification would have read the
  pair as ("xy", its quadrant frame): no class solve is skipped or made by
  leaving it out;
* a two-link path is an L, and there is exactly one per corner, so the
  sweep's two-link arrivals are exactly the free Ls;
* both ends are plain, so no arrival merges a link with a lead: every
  arrival with three or more links loses to the L at the same distance,
  and of two free Ls the greater corner loses the tie; leaving those out
  changes no offer that can win;
* ``free_corners`` asks, per leg, the blocking query that starts the
  trace the region would be built from, in the trace's own frame, so it
  sees the sweep's own hull world and never disagrees with the sweep.

So the Ls are tested first, in the pair's quadrant frame, and the pair is
classified only when neither is free.  The order flips when a class solve
already covers the quadrant frame or its swap, the two frames an x-case
pair's classification can return: the pair is then classified first and,
if it is that class's, skipped without an L test; an xy pair tests its Ls
after.  Pairs after a class solve are mostly of its class, so testing
their Ls first would pay a failing test for each.

A pair with a pocket end keeps its sweep: seeded first links and the merge
at a pocket junction can tie a three-link arrival with the L.  So do the
composer's legs, for the same reason, and a collinear pair keeps
``solve_pair_raw``'s straight corridor.  A two-link pair counts as a middle
solve.

Ties are broken by a rule that does not depend on the order in which offers
arrive: the least (doubled distance, links, point list) wins, point lists
compared as Python lists.  The loop stops only at a bound strictly above the
best distance so far, so no pair left out could have tied the final
distance, and the witness is the least offer at the answer's (distance,
links) among the solves that ran.  A witness's point list is built only to
break a tie or to be returned.  Every witness is re-measured before it is
returned.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

from . import engine
from .composer import SubregionDag
from .engine import _double, build_world, solve_pair_raw
from .geometry import (
    FLIP_Y,
    IDENTITY,
    SWAP,
    UNIT_DIRS,
    GeometryError,
    PathResult,
    Point,
    Xform,
    first_dir,
)
from .model import (
    POINT,
    POLYGON,
    SEGMENT,
    Instance,
    InvalidInstance,
    Terminal,
    validate,
)
from .partition import INF, FrameTables, World, free_corners, quadrant
from .pockets import BoxGrid, Crossing, GridSearch


@dataclass
class Attachment:
    """One way to connect a terminal to the open plane, in doubled coords.

    A plain attachment (``out_dir`` is None) is a candidate point outside
    every box; ``lead2`` is then just that point.  A pocket attachment
    carries the box search's crossing it leaves through and the junction
    just outside the box; ``links`` counts the lead's segments including
    the one crossing the boundary along ``out_dir``.  Its ``lead2``, the
    inside path from the terminal to the junction, is walked on first read,
    so only the leads of offers that a tie or the answer reads are built.
    Nothing changes an attachment once made; the class is not frozen
    because a frozen dataclass costs about twice as much to build, and a
    terminal can have hundreds of attachments.
    """

    junction2: Point
    d2: int
    links: int
    out_dir: Optional[Point]
    crossing: Optional[Crossing] = None

    @cached_property
    def lead2(self) -> tuple[Point, ...]:
        if self.crossing is None:
            return (self.junction2,)
        return tuple(_double(v) for v in self.crossing.path) + (self.junction2,)


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


class _Lines:
    """An instance's coordinate lines: the shared sets, and each axis as a
    sorted list, sorted on first read.  A solve of two points outside every
    box whose witness lies on the grid never sorts them."""

    def __init__(self, instance: Instance):
        self.xs_set, self.ys_set = instance.all_coords()

    @cached_property
    def xs(self) -> list[int]:
        return sorted(self.xs_set)

    @cached_property
    def ys(self) -> list[int]:
        return sorted(self.ys_set)


def _host(boxes: FrameTables, p: Point) -> Optional[int]:
    """The obstacle whose box strictly contains ``p``, if any.

    Boxes are interior-disjoint, so at most one does.  Its doubled xlo lies
    in the width window ``(2 px - width, 2 px)``, which the identity
    frame's index bisects.
    """
    x2, y2 = 2 * p[0], 2 * p[1]
    for i in boxes.between(x2 - boxes.width, x2):
        if x2 < boxes.xhi[i] and boxes.ylo[i] < y2 < boxes.yhi[i]:
            return i
    return None


def _rides(ring: Sequence[Point], a: int, v: int, sgn: int, c: int) -> bool:
    """Does the ray from the point at ``v`` along axis ``a`` and ``c`` along
    the other axis, heading ``sgn`` along that other axis, reach an edge of
    ``ring`` lying on its line before it crosses an edge into the ring's
    interior?  The ray starts outside the ring."""
    b = 1 - a
    on = cross = INF
    start = sgn * c
    p = ring[-1]
    for q in ring:
        pa, qa = p[a], q[a]
        if pa == qa:
            if pa == v:
                near, far = sgn * p[b], sgn * q[b]
                if near > far:
                    near, far = far, near
                if far >= start:
                    if near < start:
                        near = start
                    if near < on:
                        on = near
        elif pa < v < qa or qa < v < pa:
            at = sgn * p[b]
            if start < at < cross:
                cross = at
        p = q
    return on < cross


def _riding(world: World, obstacles: Sequence, other_box: Optional[tuple],
            a: int, ahead: Sequence[tuple[int, int, list[int]]]
            ) -> list[list[int]]:
    """Per entry of ``ahead``, its positions along axis ``a`` whose ray
    rides an obstacle side on its own line before it enters an obstacle or
    the other terminal, whose doubled box (per axis) is ``other_box`` when
    it blocks.

    ``ahead`` holds ``(sgn, c, test)``: the positions ``test`` (sorted)
    send their rays heading ``sgn`` along the other axis, and every one
    starts at or behind the line at ``c`` of that axis, where no obstacle
    box ahead of the line reaches behind the start.  Boxes the line crosses
    are read too: a position can lie on the wall of one of them.  One scan
    of the box index along ``a`` serves every direction.
    """
    ax = 2 * a                   # the signed-axis index of +a, and of +b
    keys, order = world.keys[ax], world.orders[ax]
    alo, ahi = world.lows[ax], world.highs[ax]
    blo, bhi = world.lows[2 - ax], world.highs[2 - ax]
    lo2 = hi2 = 2 * ahead[0][2][0]
    for _, _, test in ahead:
        lo2, hi2 = min(lo2, 2 * test[0]), max(hi2, 2 * test[-1])
    window = [i for i in order[bisect.bisect_left(keys, lo2 - world.widths[a]):
                               bisect.bisect_right(keys, hi2)]
              if ahi[i] >= lo2]
    outs: list[list[int]] = []
    for sgn, c, test in ahead:
        out: list[int] = []
        outs.append(out)
        c2 = 2 * c
        # the boxes ahead, keyed by how far the ray runs to reach them:
        # negative for a box that the line at c crosses
        if sgn > 0:
            strip = [(blo[i] - c2, i) for i in window if bhi[i] > c2]
        else:
            strip = [(c2 - bhi[i], i) for i in window if blo[i] < c2]
        if other_box is not None:
            (olo, ohi), (oblo, obhi) = other_box[a], other_box[1 - a]
            if olo <= hi2 and ohi >= lo2:
                if sgn > 0 and oblo > c2:
                    strip.append((oblo - c2, -1))
                elif sgn < 0 and obhi < c2:
                    strip.append((c2 - obhi, -1))
        strip.sort()
        # walk the positions through the boxes in that order: the first box
        # whose closed span holds a position is the first the ray meets, and
        # the ray can ride only the sides of the obstacle whose vertex line
        # it runs on
        rest = [2 * v for v in test]
        for _, i in strip:
            lo, hi = (alo[i], ahi[i]) if i >= 0 else other_box[a]
            s, e = bisect.bisect_left(rest, lo), bisect.bisect_right(rest, hi)
            if s == e:
                continue
            if i >= 0:
                ring = obstacles[i].vertices
                lines = {p[a] for p in ring}
                for v2 in rest[s:e]:
                    v = v2 // 2
                    if v in lines and _rides(ring, a, v, sgn, c):
                        out.append(v)
            del rest[s:e]
            if not rest:
                break
    return outs


def _candidates(instance: Instance, term: Terminal, lines: _Lines, world: World
                ) -> tuple[list[Point], dict[int, list[Point]], list[Point],
                           tuple[int, int]]:
    """A segment or polygon terminal's kept plain candidates, its pocket
    candidates by host box, the candidates a search's closed box can hold,
    and the counts (enumerated, kept).  See the module docstring for the
    rule and its ray passes."""
    other = instance.target if term is instance.source else instance.source
    ends = term.coords() + other.coords()
    tlines = ({p[0] for p in ends}, {p[1] for p in ends})
    # per axis, the (fixed coordinate, lo, hi, outward signs, inner
    # positions) of each edge along it
    runs: tuple[list, list] = ([], [])
    boxed: dict[int, list[Point]] = {}
    reach: list[Point] = []
    if term.kind == SEGMENT:
        p, q = sorted((term.segment.p, term.segment.q))
        a = 0 if p[1] == q[1] else 1
        c = p[1 - a]
        axis = lines.xs if a == 0 else lines.ys
        pos = axis[bisect.bisect_left(axis, p[a]):bisect.bisect_right(axis, q[a])]
        reach = [(v, c) for v in pos] if a == 0 else [(c, v) for v in pos]
        # a valid segment enters a box only to end inside it, so its pocket
        # candidates are its ends' stretches in its ends' boxes
        boxes = world.frame(IDENTITY)
        first, last = 0, len(pos)
        h = _host(boxes, p)
        if h is not None:
            box = instance.obstacles[h].bbox
            first = bisect.bisect_left(pos, box.xhi if a == 0 else box.yhi)
            boxed[h] = reach[:first]
        h = _host(boxes, q)
        if h is not None:
            box = instance.obstacles[h].bbox
            last = bisect.bisect_right(pos, box.xlo if a == 0 else box.ylo)
            boxed[h] = reach[last:]
        plain_set = {pt for pt in (p, q)
                     if first < last and pos[first] <= pt[a] <= pos[last - 1]}
        enumerated = len(pos)
        span = ((p[0], q[0]), (p[1], q[1]))
        runs[a].append((c, p[a], q[a], (1, -1),
                        pos[max(first, 1):min(last, len(pos) - 1)]))
    else:
        # a polygon: its box meets no obstacle's closed box, so every
        # candidate is plain and no search's box holds one
        vs = term.polygon.vertices
        plain_set = set(vs)
        enumerated = -len(vs)            # every vertex ends two edges
        bb = term.polygon.bbox
        span = ((bb.xlo, bb.xhi), (bb.ylo, bb.yhi))
        p = vs[-1]
        for q in vs:
            a = 0 if p[1] == q[1] else 1
            # counterclockwise: the outward normal is on each edge's right
            if p[a] < q[a]:
                lo, hi, sgn = p[a], q[a], (-1 if a == 0 else 1)
            else:
                lo, hi, sgn = q[a], p[a], (1 if a == 0 else -1)
            axis = lines.xs if a == 0 else lines.ys
            i, j = bisect.bisect_left(axis, lo), bisect.bisect_right(axis, hi)
            enumerated += j - i
            runs[a].append((p[1 - a], lo, hi, (sgn,), axis[i + 1:j - 1]))
            p = q
    # the other terminal blocks as a polygon whose closed box is clear of
    # this terminal's, so that every ray starts outside it
    other_box = None
    if other.kind == POLYGON:
        (xlo, xhi), (ylo, yhi) = span
        ob = other.polygon.bbox
        if xhi < ob.xlo or ob.xhi < xlo or yhi < ob.ylo or ob.yhi < ylo:
            other_box = ((2 * ob.xlo, 2 * ob.xhi), (2 * ob.ylo, 2 * ob.yhi))
    for a, edges in enumerate(runs):
        if not edges:
            continue
        # per outward sign, each edge's positions to test; a position on a
        # terminal vertex line is kept, and a ray that meets its own polygon
        # again crosses an edge along a ahead of its own
        tl = tlines[a]
        facing: dict[int, list[tuple[int, list[int]]]] = {1: [], -1: []}
        for c, lo, hi, signs, inner in edges:
            test = [v for v in inner if v not in tl]
            if len(test) < len(inner):
                plain_set.update([(v, c) for v in tl.intersection(inner)] if a == 0
                                 else [(c, v) for v in tl.intersection(inner)])
            if not test:
                continue
            for sgn in signs:
                over = [(elo, ehi) for ec, elo, ehi, _, _ in edges
                        if sgn * (ec - c) > 0 and elo < hi and ehi > lo]
                clear = [v for v in test
                         if not any(elo < v < ehi for elo, ehi in over)] if over else test
                if clear:
                    facing[sgn].append((c, clear))
        # one index scan per axis, and one walk per outward direction from
        # the terminal box's side
        ahead = [(sgn, span[1 - a][sgn > 0], sorted(set().union(*(t for _, t in tests))))
                 for sgn, tests in facing.items() if tests]
        if ahead:
            for (sgn, _, _), kept in zip(ahead, _riding(world, instance.obstacles,
                                                        other_box, a, ahead)):
                if not kept:
                    continue
                kept = set(kept)
                for c, test in facing[sgn]:
                    plain_set.update([(v, c) for v in kept.intersection(test)] if a == 0
                                     else [(c, v) for v in kept.intersection(test)])
    plain = sorted(plain_set)
    return plain, boxed, reach, (enumerated, len(plain) + sum(map(len, boxed.values())))


def _attachments(instance: Instance, term: Terminal, lines: _Lines,
                 world: World
                 ) -> tuple[list[Attachment], list[GridSearch], list[Point],
                            tuple[int, int]]:
    """All attachments of one terminal, its per-box inside searches, the
    candidates a search's closed box can hold, and the candidate counts
    (enumerated, kept)."""
    if term.kind == POINT:
        p = term.point
        host = _host(world.frame(IDENTITY), p)
        plain = [p] if host is None else []
        boxed = {} if host is None else {host: [p]}
        reach, counts = [p], (1, 1)
    else:
        plain, boxed, reach, counts = _candidates(instance, term, lines, world)
    atts = [Attachment((2 * x, 2 * y), 0, 0, None) for x, y in plain]
    searches: list[GridSearch] = []
    for host, pts in boxed.items():
        ob = instance.obstacles[host]
        # the grid keeps the lines through the box; it needs no order
        grid = BoxGrid(ob.bbox, ob, extra_xs=lines.xs_set, extra_ys=lines.ys_set)
        gs = GridSearch(grid, pts)
        searches.append(gs)
        for c in gs.crossings():
            jun = (2 * c.point[0] + c.out_dir[0], 2 * c.point[1] + c.out_dir[1])
            atts.append(Attachment(junction2=jun, d2=2 * c.dist + 1,
                                   links=c.links, out_dir=c.out_dir,
                                   crossing=c))
    return atts, searches, reach, counts


def _seed_links(att: Attachment) -> Optional[dict[Point, float]]:
    if att.out_dir is None:
        return None
    c = att.out_dir
    back = _neg(c)
    return {d: att.links + (0 if d == c else 2 if d == back else 1)
            for d in UNIT_DIRS}


def _on_grid(points: Sequence[Point], xs_set: frozenset[int],
             ys_set: frozenset[int]) -> bool:
    """Does every point of the doubled witness lie on doubled instance
    lines?  ``_align_runs`` then moves nothing."""
    return all(x % 2 == 0 and y % 2 == 0 and x // 2 in xs_set and y // 2 in ys_set
               for x, y in points)


def _align_runs(points: list[Point], xs: list[int], ys: list[int]) -> list[Point]:
    """Slide off-grid runs of a doubled witness onto doubled instance lines.

    ``xs`` and ``ys`` are the sorted instance lines, not doubled: a doubled
    run coordinate ``v`` lies on a line iff it is even and ``v // 2`` is
    one, and its neighbouring lines are found by bisecting for
    ``ceil(v / 2)``.  ``solve`` passes the doubled witness, whose off-grid
    runs sit on winder midpoints and pocket junctions.  Every
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
            i = bisect.bisect_left(lines, (v + 1) // 2)
            if i < len(lines) and 2 * lines[i] == v:
                continue
            prev = pts[k - 1][axis] if k else None
            nxt = pts[k + 2][axis] if k + 2 < len(pts) else None
            cands = [2 * c for c in lines[max(i - 1, 0):i + 1]
                     if 2 * c != prev and 2 * c != nxt]
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
        raise InvalidInstance(problems)
    lines = _Lines(instance)
    world = build_world(instance.obstacles)
    atts_s, search_s, cands_s, counts_s = _attachments(
        instance, instance.source, lines, world)
    atts_t, search_t, cands_t, counts_t = _attachments(
        instance, instance.target, lines, world)
    if not atts_s or not atts_t:
        raise GeometryError("a terminal has no connection to the free plane")

    stats = {"middle_solves": 0, "two_link_pairs": 0, "classes": 0,
             **SubregionDag(nodes=[], targets=[]).stats(),
             "attachments": (len(atts_s), len(atts_t)),
             "candidates": (counts_s, counts_t)}
    # the least (d2, links, path) offered; a path is built only to break a
    # tie or to be returned
    best: Optional[list] = None

    def offer(d2: int, links: int, build: Callable[[], list[Point]]) -> None:
        nonlocal best
        if best is None or (d2, links) < (best[0], best[1]):
            best = [d2, links, None, build]
        elif (d2, links) == (best[0], best[1]):
            pts = build()
            if best[2] is None:
                best[2] = best[3]()
            if pts < best[2]:
                best = [d2, links, pts, build]

    def count(solve_stats: dict) -> None:
        stats["middle_solves"] += 1
        for key, v in solve_stats.items():
            stats[key] = tuple(map(sum, zip(stats[key], v))) \
                if isinstance(v, tuple) else stats[key] + v

    # in-box routes, to the other terminal's candidates in a search's box
    for searches, cands, forward in ((search_s, cands_t, True),
                                     (search_t, cands_s, False)):
        for gs in searches:
            for q in cands:
                got = gs.at(q) if gs.grid.box.contains(q) else None
                if got is not None:
                    route = [_double(v) for v in got[2]]
                    if not forward:
                        route.reverse()
                    offer(2 * got[0], got[1], lambda r=route: r)

    plain_s = [a.junction2 for a in atts_s if a.out_dir is None]
    plain_t = [b.junction2 for b in atts_t if b.out_dir is None]
    # the x-case class frames already solved, each with its y mirror
    classes: set[Xform] = set()
    ends_t = [(*b.junction2, b.d2, j) for j, b in enumerate(atts_t)]
    pairs = sorted((a.d2 + abs(ax - bx) + abs(ay - by) + bd2, i, j)
                   for i, a in enumerate(atts_s) for ax, ay in [a.junction2]
                   for bx, by, bd2, j in ends_t)
    for lb, i, j in pairs:
        if best is not None and lb > best[0]:
            break
        a, b = atts_s[i], atts_t[j]
        ja, jb = a.junction2, b.junction2
        if ja == jb:
            # a plain junction is even in both coordinates and a pocket one
            # odd in one, so both are plain or both pockets; two pockets
            # leaving the same way are a U-turn the in-box route beats
            if a.out_dir is None or a.out_dir != b.out_dir:
                merge = a.out_dir is not None
                offer(a.d2 + b.d2, a.links + b.links - merge,
                      lambda a=a, b=b: list(a.lead2) + list(reversed(b.lead2))[1:])
            continue
        cls = None
        if a.out_dir is None and b.out_dir is None:
            # the Ls first, unless a class solve may already cover the pair
            # (see "Two-link pairs" above); None is "not tested yet"
            corners = None
            bent = ja[0] != jb[0] and ja[1] != jb[1]
            if bent:
                q = quadrant(ja, jb)
                if q not in classes and q.then(SWAP) not in classes:
                    corners = free_corners(world, q, ja, jb)
            if not corners:
                cls = kind, frame = engine.classify(world, ja, jb)
                if kind == "x":
                    # one relaxation answers every plain pair of this class
                    if frame not in classes:
                        classes.update((frame, frame.then(FLIP_Y)))
                        dist2, arrivals, dag = engine.solve_x_case(
                            world, frame, plain_s, plain_t)
                        stats["classes"] += 1
                        count(dag.stats())
                        for arrs in arrivals:
                            for lam, wit in arrs.values():
                                offer(dist2, lam, lambda w=wit: list(w))
                    continue
                if bent and corners is None:
                    corners = free_corners(world, frame, ja, jb)
            if corners:
                # a free L is the pair's least offer
                stats["two_link_pairs"] += 1
                count({})
                offer(_l1(ja, jb), 2, lambda ja=ja, c=corners[0], jb=jb: [ja, c, jb])
                continue
        raw = solve_pair_raw(world, ja, jb, dir_links=_seed_links(a), cls=cls)
        count(raw.stats)
        for adir, (lam, wit) in raw.arrivals.items():
            if a.out_dir is not None and first_dir(wit) == _neg(a.out_dir):
                # the middle would double straight back into the box; a
                # later crossing of the same pocket covers that route
                continue
            if b.out_dir is not None and adir == b.out_dir:
                continue
            merge = 1 if b.out_dir is not None and adir == _neg(b.out_dir) else 0
            offer(a.d2 + raw.dist2 + b.d2, lam + b.links - merge,
                  lambda a=a, b=b, wit=wit: list(a.lead2) + list(wit)[1:]
                  + list(reversed(b.lead2))[1:])

    if best is None:
        raise GeometryError("terminals are not connected")
    stats["traces_built"] = world.traces_built
    stats["hull_tables_built"] = world.hull_tables_built
    d2, links, pts2, build = best
    if pts2 is None:
        pts2 = build()
    if d2 % 2:
        raise GeometryError("odd doubled distance")
    if len(pts2) == 1:
        path = [(pts2[0][0] // 2, pts2[0][1] // 2)]
    else:
        pts2 = PathResult.from_points(pts2).points
        if not _on_grid(pts2, lines.xs_set, lines.ys_set):
            pts2 = _align_runs(pts2, lines.xs, lines.ys)
        check = PathResult.from_points([(x // 2, y // 2) for x, y in pts2])
        if check.length * 2 != d2 or check.links != links \
                or any(p[0] not in lines.xs_set or p[1] not in lines.ys_set
                       for p in check.points):
            raise GeometryError("witness disagrees with the combined costs")
        path = list(check.points)
    return SolveReport(distance=d2 // 2, links=links, path=path, stats=stats)
