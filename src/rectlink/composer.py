"""Minimum-link shortest paths when the pair is x-monotone but not xy.

Every shortest path here is x-monotone, and each reversal between rising and
falling happens on a winder: a horizontal run containing one full horizontal
side of an obstacle hull.  The side midpoints are therefore the only places
a path can turn around, so a left-to-right relaxation over those midpoints
yields the geodesic distance, and seeded staircase sweeps over the regions
between consecutive midpoints on optimal chains yield the link count.

Everything below works in the frame delivered by ``classify``, where the
pair reads as an eastward x-case; vertical-case inputs arrive pre-swapped.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional

from .geometry import IDENTITY, GeometryError, PathResult, Point, Xform, first_dir
from .partition import (
    FRAME_DR,
    FRAME_RD,
    FRAME_RU,
    FRAME_UR,
    FrameTables,
    FrameView,
    StepCurve,
    World,
    build_staircase_region,
    classify,
    trace_ru,
)
from .sweep import INF, SweepResult, reconstruct_path, run_sweep

Pred = tuple[str, int]  # ("mid", node index) or ("direct", -1)


@dataclass
class _Node:
    point: Point
    hull: int                      # owning hull index, -1 for the target
    side: str = ""                 # "top" or "bot" for midpoint nodes
    dist: float = INF
    links: float = INF
    preds: list[Pred] = field(default_factory=list)  # optimal predecessors
    best_pred: Optional[Pred] = None
    leg: Optional[SweepResult] = None  # sweep of the best leg into it


@dataclass
class SubregionDag:
    """Distance relaxation artifact: the midpoint nodes and their links."""

    nodes: list[_Node]
    target: _Node
    regions: int = 0
    events: int = 0


def _l1(a: Point, b: Point) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _horiz_readout(res: SweepResult) -> float:
    """Fewest links among shortest paths that leave the far end eastward."""
    return min(res.lam_h, res.lam_v + 1)


def _rise_curves(wf: FrameView, p: Point, x_hi: int, y_hi: int) -> dict[str, StepCurve]:
    return {
        "ru": trace_ru(wf.frame(FRAME_RU), p, x_hi).curve,
        "ur": trace_ru(wf.frame(FRAME_UR), FRAME_UR.apply(p), y_hi).curve,
    }


def _fall_curves(wf: FrameView, p: Point, x_hi: int, y_lo: int) -> dict[str, StepCurve]:
    return {
        "rd": trace_ru(wf.frame(FRAME_RD), FRAME_RD.apply(p), x_hi).curve,
        "dr": trace_ru(wf.frame(FRAME_DR), FRAME_DR.apply(p), -y_lo).curve,
    }


def _rise_ok(p: Point, curves: dict[str, StepCurve]) -> bool:
    """Whether a rising xy-monotone path reaches p from the curves' origin."""
    if p[1] < curves["ru"].max_y_at(p[0]):
        return False
    # ur curve is stored in swapped coordinates: x := y
    return p[0] >= curves["ur"].max_y_at(p[1])


def _fall_ok(p: Point, curves: dict[str, StepCurve]) -> bool:
    if -p[1] < curves["rd"].max_y_at(p[0]):
        return False
    return p[0] >= curves["dr"].max_y_at(-p[1])


def _xy_quadrant_ok(s: Point, p: Point, curves: dict[str, StepCurve]) -> bool:
    """Whether s -> p admits an xy-monotone path, from the four extreme
    curves traced out of s (p east of s)."""
    if p[1] >= s[1] and not _rise_ok(p, curves):
        return False
    if p[1] <= s[1] and not _fall_ok(p, curves):
        return False
    return True


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


def solve_x_case(world: World, frame: Xform, s: Point, t: Point,
                 dir_links: Optional[dict[Point, float]] = None,
                 ) -> tuple[int, dict[Point, tuple[int, list[Point]]], SubregionDag]:
    """Distance and per-arrival-direction links for an x-monotone pair.

    ``s`` and ``t`` are in the world's unframed, doubled coordinates;
    ``frame`` is the transform from ``classify``.  ``dir_links`` optionally
    gives the link count of a path leaving ``s`` in each unit direction (all
    1 by default), which lets a caller continue a partial path through
    ``s``.  Returns the
    geodesic distance and, for each direction a shortest path can arrive at
    ``t`` with, the fewest links and a witness in the coordinates of ``s``.
    """
    if dir_links is None:
        dir_links = {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0}
    # the instance world seen in this frame; its cache serves every leg
    wf = FrameView(world, frame)
    sf, tf = frame.apply(s), frame.apply(t)
    sx, sy = sf
    tx, ty = tf

    nodes = _midpoints(wf.frame(IDENTITY), sx, tx)
    target = _Node(point=tf, hull=-1)

    # extreme curves out of s, for O(1) xy-reachability checks; each curve
    # lives in its own trace frame, traced far enough to cover every node
    y_hi = max([ty] + [nd.point[1] for nd in nodes]) + 1
    y_lo = min([ty] + [nd.point[1] for nd in nodes]) - 1
    curves = dict(_rise_curves(wf, sf, tx, y_hi), **_fall_curves(wf, sf, tx, y_lo))

    # per-midpoint reachability curves, built on demand: a top-side midpoint
    # is a local maximum, so every leg out of it falls, and symmetrically for
    # a bottom-side midpoint
    out_curves: dict[int, dict[str, StepCurve]] = {}

    def leg_ok(k: int, q: Point) -> bool:
        mu = nodes[k]
        if mu.side == "top":
            if q[1] > mu.point[1]:
                return False
            if k not in out_curves:
                out_curves[k] = _fall_curves(wf, mu.point, tx, y_lo)
            return _fall_ok(q, out_curves[k])
        if q[1] < mu.point[1]:
            return False
        if k not in out_curves:
            out_curves[k] = _rise_curves(wf, mu.point, tx, y_hi)
        return _rise_ok(q, out_curves[k])

    # relaxed midpoints with a finite distance, per side, sorted by the part
    # of a leg's cost that does not depend on where the leg ends: a leg out
    # of a top-side midpoint k falls, so it reaches q at
    # dist(k) - kx + ky + (qx - qy); one out of a bottom-side midpoint rises
    # and costs dist(k) - kx - ky + (qx + qy)
    keyed: dict[str, list[tuple[float, int]]] = {"top": [], "bot": []}

    def enter(k: int) -> None:
        mu = nodes[k]
        kx, ky = mu.point
        key = mu.dist - kx + ky if mu.side == "top" else mu.dist - kx - ky
        bisect.insort(keyed[mu.side], (key, k))

    def relax(nd: _Node) -> None:
        qx, qy = nd.point
        # the first turnaround of a chain is reached monotonically from s:
        # rising into a top-side midpoint, falling into a bottom-side one
        direct_ok = (nd.hull == -1 or
                     (nd.side == "top") == (nd.point[1] > sy))
        direct = INF
        if direct_ok and _xy_quadrant_ok(sf, nd.point, curves):
            direct = float(_l1(sf, nd.point))
        best = direct
        # in key order, a side's legs only get dearer: stop past the best
        # valid cost, but keep every valid leg that ties it
        mids: list[tuple[float, int]] = []
        for side, offset in (("top", qx - qy), ("bot", qx + qy)):
            for key, k in keyed[side]:
                d = key + offset
                if d > best:
                    break
                if leg_ok(k, nd.point):
                    mids.append((d, k))
                    best = d
        if best == INF:
            return
        nd.dist = best
        nd.preds = [("mid", k) for d, k in sorted(mids, key=lambda m: m[1])
                    if d == best]
        if direct == best:
            nd.preds.append(("direct", -1))

    # a midpoint enters its list once every node with its x is relaxed, so
    # each leg runs strictly west to east
    waiting: list[int] = []
    for k, nd in enumerate(nodes):
        if waiting and nodes[waiting[0]].point[0] < nd.point[0]:
            for w in waiting:
                enter(w)
            waiting.clear()
        relax(nd)
        if nd.dist < INF:
            waiting.append(k)
    for w in waiting:
        enter(w)
    relax(target)
    if target.dist == INF:
        raise GeometryError("x-monotone pair with no winder chain to the source")

    # participation filtering: only nodes on some optimal chain get sweeps
    marked: set[int] = set()
    frontier: list[_Node] = [target]
    while frontier:
        nd = frontier.pop()
        for kind, k in nd.preds:
            if kind == "mid" and k not in marked:
                marked.add(k)
                frontier.append(nodes[k])
    # increasing x resolves predecessors first; the target comes last
    order = [nodes[k] for k in sorted(marked, key=lambda k: nodes[k].point)]
    order.append(target)

    dag = SubregionDag(nodes=nodes, target=target)

    def sweep_leg(src_pt: Point, dst_pt: Point, direct: bool, seed_h: float,
                  seed_v: float) -> SweepResult:
        kind, q = classify(wf, src_pt, dst_pt)
        if kind != "xy" or q.b != 0:
            raise GeometryError("winder leg is not an axis-aligned xy pair")
        if direct:
            # a direct leg continues whatever partial path enters at s
            inv_total = frame.then(q).inverse()
            seed_h = dir_links[inv_total.apply((1, 0))]
            seed_v = dir_links[inv_total.apply((0, 1))] + 1
        region = build_staircase_region(wf, q, src_pt, dst_pt)
        dag.regions += 1
        dag.events += len(region.events)
        return run_sweep(region, seed_h=seed_h, seed_v=seed_v)

    # best leg into the target, kept separately per arrival direction
    final_best: dict[str, tuple[float, Pred, SweepResult]] = {}

    for nd in order:
        final = nd.hull == -1
        best = INF
        for pred in nd.preds:
            if pred[0] == "direct":
                seed_h, seed_v, src_pt = 1.0, 2.0, sf
            else:
                mu = nodes[pred[1]]
                if mu.links == INF:
                    continue
                seed_h, seed_v, src_pt = mu.links, mu.links + 2, mu.point
            res = sweep_leg(src_pt, nd.point, pred[0] == "direct", seed_h, seed_v)
            if final:
                for arr, lam in (("h", res.lam_h), ("v", res.lam_v)):
                    if lam < final_best.get(arr, (INF,))[0]:
                        final_best[arr] = (lam, pred, res)
            lam = res.lam if final else _horiz_readout(res)
            if lam < best:
                best = nd.links = lam
                nd.best_pred, nd.leg = pred, res
        if best == INF:
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
    arrivals: dict[Point, tuple[int, list[Point]]] = {}
    for arr, (lam, pred, res) in final_best.items():
        if lam == INF:
            continue
        world_pts = [inv_frame.apply(p) for p in stitch(pred, res, arr)]
        result = PathResult.from_points(world_pts)
        # the first segment is charged its seeded link count, not 1
        seeded = result.links - 1 + dir_links[first_dir(result.points)]
        if result.length != target.dist or seeded != lam:
            raise GeometryError("witness disagrees with the relaxation values")
        inv_total = frame.then(res.region.frame).inverse()
        adir = inv_total.apply((1, 0)) if arr == "h" else inv_total.apply((0, 1))
        arrivals[adir] = (int(lam), result.points)
    if not arrivals:
        raise GeometryError("no arrival at the target")
    return int(target.dist), arrivals, dag
