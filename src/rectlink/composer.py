"""Minimum-link shortest paths when the pair is x-monotone but not xy.

Every shortest path here is x-monotone, and each reversal between rising and
falling happens on a winder: a horizontal run containing one full horizontal
side of an obstacle hull.  The side midpoints are therefore the only places
a path can turn around, so a left-to-right relaxation over those midpoints
yields the geodesic distance, and seeded staircase sweeps over the regions
between consecutive midpoints on optimal chains yield the link count.

Everything below works in the frame delivered by ``classify``, where the
pair reads as an eastward x-case; vertical-case inputs arrive pre-swapped.
One relaxation serves a whole class of pairs, those that ``classify`` reads
as eastward x-cases in one frame: every source joins it as a node at
distance 0, and every target is relaxed as a node; the nearest are read out.

The relaxation is goal-directed, as A* is (Hart, Nilsson & Raphael, 1968):
a path is never shorter than the L1 distance between its ends, so a chain
through a midpoint q costs at least L1(q, nearest source) + L1(q, nearest
target).  Only the midpoints whose bound is within a limit are relaxed, and
the limit widens until it covers every target's distance; the midpoints a
shortest chain can use all lie within it (``solve_x_case`` has the
argument).
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .geometry import IDENTITY, UNIT_DIRS, GeometryError, PathResult, Point, Xform, first_dir
from .partition import (
    INF,
    TRACE_FRAMES,
    FrameTables,
    FrameView,
    StepCurve,
    World,
    build_staircase_region,
    classify,
    trace_ru,
)
from .sweep import SweepResult, reconstruct_path, run_sweep

Pred = tuple[str, int]  # ("mid", node index) or ("src", source index)


@dataclass
class _Node:
    point: Point
    hull: int                      # owning hull index, -1 for a source or target
    side: str = ""                 # "top" or "bot" for midpoint nodes
    dist: float = INF
    links: float = INF
    preds: list[Pred] = field(default_factory=list)  # optimal predecessors
    best_pred: Optional[Pred] = None
    leg: Optional[SweepResult] = None  # sweep of the best leg into it


@dataclass
class SubregionDag:
    """Distance relaxation artifact: the midpoint nodes and the targets,
    with their distances and links.

    ``nodes`` holds every midpoint enumerated in the strip (perfbench's
    ``composer.midpoints`` counts them); ``relaxed`` counts those whose L1
    bound is within the relaxation's final limit.
    A midpoint beyond it keeps ``dist = INF`` and no ``preds``, even when
    a chain reaches it: no shortest chain to a target passes through it.
    """

    nodes: list[_Node]
    targets: list[_Node]
    relaxed: int = 0
    regions: int = 0
    events: int = 0


def _horiz_readout(res: SweepResult) -> float:
    """Fewest links among shortest paths that leave the far end eastward."""
    return min(res.lam_h, res.lam_v + 1)


def _midpoints(ft: FrameTables, sx: int, tx: int) -> list[_Node]:
    """Side-midpoint nodes of the hull sides that fit in the strip [sx, tx],
    sorted by point.

    Only hulls whose box meets the open strip (sx, tx) can have such a
    side; their xlo lies in the width window (sx - width, tx).  They are
    read in hull order, so nodes that share a point keep it.
    """
    nodes: list[_Node] = []
    for i in sorted(ft.between(sx - ft.width, tx)):
        if ft.xhi[i] <= sx:
            continue
        fp = ft[i]
        box = fp.box
        tops = [e for e in fp.horiz if e[2] == box.yhi]
        bots = [e for e in fp.horiz if e[2] == box.ylo]
        for lo_x, hi_x, y in tops + bots:
            mx = (lo_x + hi_x) // 2
            # a winder contains the full side, so it must fit in the strip
            if (lo_x + hi_x) % 2 or lo_x < sx or hi_x > tx or not sx < mx < tx:
                continue
            side = "top" if y == box.yhi else "bot"
            nodes.append(_Node(point=(mx, y), hull=i, side=side))
    nodes.sort(key=lambda nd: nd.point)
    return nodes


def _box(points: Sequence[Point]) -> tuple[int, int, int, int]:
    """The bounding box of ``points``: (xlo, xhi, ylo, yhi)."""
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    return min(xs), max(xs), min(ys), max(ys)


def _l1_to_box(p: Point, box: tuple[int, int, int, int]) -> int:
    """L1 distance from ``p`` to ``box``, at most that to any point in it."""
    xlo, xhi, ylo, yhi = box
    return max(xlo - p[0], 0, p[0] - xhi) + max(ylo - p[1], 0, p[1] - yhi)


def _l1_to_nearest(p: Point, points: Sequence[Point]) -> int:
    """L1 distance from ``p`` to the nearest of ``points``."""
    return min(abs(p[0] - x) + abs(p[1] - y) for x, y in points)


def solve_x_case(world: World, frame: Xform, sources: Sequence[Point],
                 targets: Sequence[Point],
                 dir_links: Optional[dict[Point, float]] = None,
                 ) -> tuple[int, list[dict[Point, tuple[int, list[Point]]]],
                            SubregionDag]:
    """Distances and per-arrival-direction links from a set of sources to
    each of a set of targets, over the frame's eastward winder chains.

    ``sources`` and ``targets`` are in the world's unframed, doubled
    coordinates; ``frame`` is a transform from ``classify``.  A chain starts
    at any source, at distance 0, and runs strictly eastward through
    midpoints to a target; ``dir_links`` optionally gives the link count of
    a path leaving a source in each unit direction (all 1 by default), which
    lets a caller continue a partial path through it.  Every chain is a real
    path, and every shortest path of a pair that ``classify`` reads as an
    eastward x-case in ``frame`` is one, so a target's distance is at most
    that of each such pair it is in, and its links at most the pair's at
    that distance.  With one source and one target this is the pair's
    answer.

    Returns the distance to the nearest targets; per target in order, for
    each direction a shortest chain can arrive at it with, the fewest links
    and a witness from its source, in unframed coordinates; and the
    relaxation's nodes, where ``dag.targets[j].dist`` is target ``j``'s
    distance (INF when no chain reaches it).  Only the nearest targets are
    read out: a chain into a farther one cannot beat them, whatever its
    links, so its arrivals are left empty and no sweep is spent on it.

    Each midpoint q gets the bound b(q) = min_s L1(s, q) + min_t L1(q, t)
    over the sources s and targets t, and only the midpoints with
    b(q) <= U are relaxed.  U starts at the least source-to-target L1 and
    widens until every target's distance is at most U or every midpoint is
    relaxed.  A distance in the hull world is at least the L1 distance, so
    a chain through q costs at least b(q): every node on a shortest chain
    to a target t with dist(t) <= U has b <= U and is relaxed, and so is
    every predecessor that ties on such a node, since it lies on a shortest
    chain to t as well.  A relaxation over fewer midpoints finds no shorter
    chain, so every target's distance, the predecessors of every node on a
    shortest chain, and with them the marked legs, the links and the
    witnesses equal those of a relaxation over all midpoints.  A midpoint
    beyond the final U keeps INF and no predecessors.  The curves that test
    a leg are traced to stops set by every enumerated midpoint, so they do
    not depend on U.
    """
    if dir_links is None:
        dir_links = {d: 1.0 for d in UNIT_DIRS}
    # the instance world seen in this frame; its cache serves every leg
    wf = FrameView(world, frame)
    srcs = [_Node(point=frame.apply(s), hull=-1, dist=0.0) for s in sources]
    tgts = [_Node(point=frame.apply(t), hull=-1) for t in targets]
    sx = min(nd.point[0] for nd in srcs)
    tx = max(nd.point[0] for nd in tgts)

    nodes = _midpoints(wf.frame(IDENTITY), sx, tx)

    # the extreme curves out of a leg's start decide whether the leg is
    # xy-monotone: ru and ur bound a rising leg, rd and dr a falling one.
    # Each is traced on first use, in its own trace frame, far enough to
    # cover every node, and read from the world's trace memo after that.
    ends = [nd.point[1] for nd in nodes + tgts]
    y_hi, y_lo = max(ends) + 1, min(ends) - 1
    stops = {"ru": tx, "ur": y_hi, "rd": tx, "dr": -y_lo}
    frames = {name: (f, wf.frame(f)) for name, f in TRACE_FRAMES.items()
              if name in stops}
    # a leg start's curves, kept per name: the relaxation asks for each
    # of them once per leg it tests
    got: dict[str, dict[Point, StepCurve]] = {name: {} for name in stops}

    def curve(p: Point, name: str) -> StepCurve:
        c = got[name].get(p)
        if c is None:
            f, ft = frames[name]
            c = got[name][p] = trace_ru(ft, f.apply(p), stops[name]).curve
        return c

    # q east of p; the ur and dr curves are stored with x and y swapped
    def rises(p: Point, q: Point) -> bool:
        return q[1] >= curve(p, "ru").max_y_at(q[0]) \
            and q[0] >= curve(p, "ur").max_y_at(q[1])

    def falls(p: Point, q: Point) -> bool:
        return -q[1] >= curve(p, "rd").max_y_at(q[0]) \
            and q[0] >= curve(p, "dr").max_y_at(-q[1])

    def leg_ok(pred: Pred, nd: _Node) -> bool:
        """Whether the leg from ``pred`` into ``nd`` is xy-monotone, its y
        direction already checked against the leg's list."""
        q = nd.point
        if pred[0] == "mid":
            mu = nodes[pred[1]]
            return falls(mu.point, q) if mu.side == "top" else rises(mu.point, q)
        s = srcs[pred[1]].point
        # the first turnaround of a chain is reached monotonically from its
        # source: rising into a top-side midpoint, falling into a
        # bottom-side one
        if nd.hull >= 0 and (nd.side == "top") != (q[1] > s[1]):
            return False
        return (q[1] < s[1] or rises(s, q)) and (q[1] > s[1] or falls(s, q))

    # leg starts with a finite distance, per side, sorted by the part of a
    # leg's cost that does not depend on where the leg ends: a falling leg
    # out of k reaches q at dist(k) - kx + ky + (qx - qy), a rising one at
    # dist(k) - kx - ky + (qx + qy).  Top-side midpoints start falling legs,
    # bottom-side ones rising legs, and sources both: falling legs to points
    # below them, rising ones to the rest.  Each entry carries the y limit
    # of its legs' ends: a falling leg ends below ``lim``, a rising one at
    # or above it.
    keyed: dict[str, list[tuple[float, int, Pred]]] = {"top": [], "bot": []}

    def enter(side: str, pred: Pred, nd: _Node) -> None:
        kx, ky = nd.point
        if side == "top":
            # a midpoint's falling legs may end level with it, a source's not
            lim = ky + (pred[0] == "mid")
            bisect.insort(keyed[side], (nd.dist - kx + ky, lim, pred))
        else:
            bisect.insort(keyed[side], (nd.dist - kx - ky, ky, pred))

    ahead = nodes + tgts
    # leg tests, by (pred, node index in ``ahead``): a widened relaxation
    # asks again for the legs of the narrower ones
    tested: dict[tuple[Pred, int], bool] = {}

    def relax(k: int) -> None:
        nd = ahead[k]
        qx, qy = nd.point
        # in key order, a side's legs only get dearer: stop past the best
        # valid cost, but keep every valid leg that ties it
        best = INF
        cands: list[tuple[float, Pred]] = []
        for side, offset in (("top", qx - qy), ("bot", qx + qy)):
            falls = side == "top"
            for key, lim, pred in keyed[side]:
                d = key + offset
                if d > best:
                    break
                if (qy < lim) != falls:
                    continue
                ok = tested.get((pred, k))
                if ok is None:
                    ok = tested[pred, k] = leg_ok(pred, nd)
                if ok:
                    cands.append((d, pred))
                    best = d
        if not cands:
            return
        nd.dist = best
        # midpoints by index, then sources by index
        nd.preds = sorted(p for d, p in cands if d == best)

    # the bound of each midpoint (see the docstring).  Its floor, the L1
    # distance to the sources' box plus that to the targets' box, takes
    # O(1); the bound itself is measured only where the floor is within
    # the limit
    ends_s, ends_t = [nd.point for nd in srcs], [nd.point for nd in tgts]
    box_s, box_t = _box(ends_s), _box(ends_t)
    floor = [_l1_to_box(nd.point, box_s) + _l1_to_box(nd.point, box_t)
             for nd in nodes]
    bound: dict[int, int] = {}

    def within(k: int, limit: float) -> bool:
        if floor[k] > limit:
            return False
        if k not in bound:
            q = nodes[k].point
            bound[k] = _l1_to_nearest(q, ends_s) + _l1_to_nearest(q, ends_t)
        return bound[k] <= limit

    # nodes are relaxed west to east, a target after the midpoints of its x;
    # a midpoint enters its list once every node with its x is relaxed, and
    # a source before the first node east of it, so each leg runs strictly
    # west to east.  Only the midpoints within the limit are relaxed; the
    # rest keep INF and no predecessors.
    order = sorted(range(len(ahead)), key=lambda k: ahead[k].point[0])
    west_first = sorted(range(len(srcs)), key=lambda i: srcs[i].point[0])

    def relax_within(limit: float) -> int:
        """Relax the nodes within ``limit``; returns the midpoints relaxed."""
        for nd in ahead:
            nd.dist, nd.preds = INF, []
        for side in keyed.values():
            side.clear()
        entered = relaxed = 0
        waiting: list[int] = []
        for k in order:
            if k < len(nodes):
                if not within(k, limit):
                    continue
                relaxed += 1
            nd = ahead[k]
            if waiting and nodes[waiting[0]].point[0] < nd.point[0]:
                for w in waiting:
                    enter(nodes[w].side, ("mid", w), nodes[w])
                waiting.clear()
            while entered < len(srcs) \
                    and srcs[west_first[entered]].point[0] < nd.point[0]:
                i = west_first[entered]
                enter("top", ("src", i), srcs[i])
                enter("bot", ("src", i), srcs[i])
                entered += 1
            relax(k)
            if k < len(nodes) and nd.dist < INF:
                waiting.append(k)
        return relaxed

    # while a target is beyond the limit and a midpoint is left out, the
    # limit moves to the farthest target distance found or to the start
    # plus a slack, whichever is less.  The slack starts at the least gap
    # from the start up to a bound, or up to a floor where the bound was
    # not measured (a midpoint left out has a gap), and doubles.
    start = limit = min(_l1_to_nearest(t, ends_s) for t in ends_t)
    relaxed = relax_within(limit)
    gaps = [bound.get(k, f) - start for k, f in enumerate(floor)]
    slack = min((g for g in gaps if g > 0), default=0)
    while relaxed < len(nodes):
        far = max(nd.dist for nd in tgts)
        if far <= limit:
            break
        limit = min(far, start + slack)
        slack *= 2
        relaxed = relax_within(limit)
    near = min(nd.dist for nd in tgts)
    if near == INF:
        raise GeometryError("x-monotone pair with no winder chain to the source")
    # a chain into a farther target loses to one into a nearest target
    # whatever its links, so only the nearest are read out
    reached = [nd for nd in tgts if nd.dist == near]

    # participation filtering: only nodes on some optimal chain get sweeps
    marked: set[int] = set()
    frontier: list[_Node] = list(reached)
    while frontier:
        nd = frontier.pop()
        for kind, k in nd.preds:
            if kind == "mid" and k not in marked:
                marked.add(k)
                frontier.append(nodes[k])

    dag = SubregionDag(nodes=nodes, targets=tgts, relaxed=relaxed)

    def legs_into(nd: _Node):
        """(pred, sweep) of every leg into nd from an optimal predecessor."""
        for pred in nd.preds:
            if pred[0] == "src":
                src_pt, seeds = srcs[pred[1]].point, None
            else:
                mu = nodes[pred[1]]
                if mu.links == INF:
                    continue
                src_pt, seeds = mu.point, (mu.links, mu.links + 2)
            kind, q = classify(wf, src_pt, nd.point)
            if kind != "xy" or q.b != 0:
                raise GeometryError("winder leg is not an axis-aligned xy pair")
            if seeds is None:
                # a leg out of a source continues whatever partial path
                # enters there
                inv_total = frame.then(q).inverse()
                seeds = (dir_links[inv_total.apply((1, 0))],
                         dir_links[inv_total.apply((0, 1))] + 1)
            region = build_staircase_region(wf, q, src_pt, nd.point)
            dag.regions += 1
            dag.events += len(region.events)
            yield pred, run_sweep(region, seed_h=seeds[0], seed_v=seeds[1])

    # increasing x resolves predecessors first; a midpoint's leg is read
    # out eastward
    for k in sorted(marked, key=lambda k: nodes[k].point):
        nd = nodes[k]
        for pred, res in legs_into(nd):
            lam = _horiz_readout(res)
            if lam < nd.links:
                nd.links, nd.best_pred, nd.leg = lam, pred, res
        if nd.links == INF:
            raise GeometryError("no reachable predecessor on an optimal chain")

    def stitch(pred: Pred, res: SweepResult, arrival: str) -> list[Point]:
        # a midpoint's leg is read out eastward: along the top baseline, or
        # up from a lower one and turning east (``_horiz_readout``)
        legs = [(res, arrival)]
        while pred[0] == "mid":
            nd = nodes[pred[1]]
            legs.append((nd.leg, "h" if nd.leg.lam_h <= nd.leg.lam_v + 1 else "v"))
            pred = nd.best_pred
        pts: list[Point] = []
        for leg, arr in reversed(legs):
            inv = leg.region.frame.inverse()
            pts.extend(inv.apply(p) for p in reconstruct_path(leg, arr))
        return pts

    inv_frame = frame.inverse()
    arrivals: list[dict[Point, tuple[int, list[Point]]]] = []
    for nd in tgts:
        got: dict[Point, tuple[int, list[Point]]] = {}
        arrivals.append(got)
        if nd.dist != near:
            continue
        # best leg into the target, kept separately per arrival direction
        final_best: dict[str, tuple[float, Pred, SweepResult]] = {}
        for pred, res in legs_into(nd):
            for arr, lam in (("h", res.lam_h), ("v", res.lam_v)):
                if lam < final_best.get(arr, (INF,))[0]:
                    final_best[arr] = (lam, pred, res)
            if res.lam < nd.links:
                nd.links, nd.best_pred, nd.leg = res.lam, pred, res
        if nd.links == INF:
            raise GeometryError("no reachable predecessor on an optimal chain")
        for arr, (lam, pred, res) in final_best.items():
            if lam == INF:
                continue
            world_pts = [inv_frame.apply(p) for p in stitch(pred, res, arr)]
            result = PathResult.from_points(world_pts)
            # the first segment is charged its seeded link count, not 1
            seeded = result.links - 1 + dir_links[first_dir(result.points)]
            if result.length != nd.dist or seeded != lam:
                raise GeometryError("witness disagrees with the relaxation values")
            inv_total = frame.then(res.region.frame).inverse()
            adir = inv_total.apply((1, 0)) if arr == "h" else inv_total.apply((0, 1))
            got[adir] = (int(lam), result.points)
        if not got:
            raise GeometryError("no arrival at the target")
    return int(near), arrivals, dag
