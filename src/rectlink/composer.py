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

from dataclasses import dataclass, field
from typing import Optional

from .geometry import (
    IDENTITY,
    SWAP,
    GeometryError,
    PathResult,
    Point,
    Xform,
    path_metrics,
)
from .partition import (
    StaircaseRegion,
    StepCurve,
    World,
    build_staircase_region,
    classify,
    trace_ru,
)
from .sweep import INF, NaiveStore, SweepResult, reconstruct_path, run_sweep

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
    region: Optional[StaircaseRegion] = None
    store: Optional[NaiveStore] = None
    arrival: str = "h"


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


def _rise_curves(wf: World, p: Point, x_hi: int, y_hi: int) -> dict[str, StepCurve]:
    return {
        "ru": StepCurve(trace_ru(wf.frame(IDENTITY), p, x_hi).points),
        "ur": StepCurve(trace_ru(wf.frame(SWAP), (p[1], p[0]), y_hi).points),
    }


def _fall_curves(wf: World, p: Point, x_hi: int, y_lo: int) -> dict[str, StepCurve]:
    return {
        "rd": StepCurve(trace_ru(wf.frame(Xform(1, 0, 0, -1)), (p[0], -p[1]), x_hi).points),
        "dr": StepCurve(trace_ru(wf.frame(Xform(0, -1, 1, 0)), (-p[1], p[0]), -y_lo).points),
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


def solve_x_case(world: World, frame: Xform, s: Point, t: Point,
                 dir_links: Optional[dict[Point, float]] = None,
                 ) -> tuple[int, dict[Point, tuple[int, list[Point]]], SubregionDag]:
    """Distance and per-arrival-direction links for an x-monotone pair.

    ``world``, ``s`` and ``t`` are in original coordinates; ``frame`` is the
    transform from ``classify``.  ``dir_links`` optionally gives the link
    count of a path leaving ``s`` in each unit direction (all 1 by default),
    which lets a caller continue a partial path through ``s``.  Returns the
    geodesic distance and, for each direction a shortest path can arrive at
    ``t`` with, the fewest links and a witness in original coordinates.
    """
    if dir_links is None:
        dir_links = {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0}
    wf = World([h.transform(frame) for h in world.hulls])
    sf, tf = frame.apply(s), frame.apply(t)
    sx, sy = sf
    tx, ty = tf

    nodes: list[_Node] = []
    for i, hull in enumerate(wf.hulls):
        box = hull.bbox
        if box.xhi <= sx or box.xlo >= tx:
            continue
        tops = [e for e in hull.horizontal_edges() if e.p[1] == box.yhi]
        bots = [e for e in hull.horizontal_edges() if e.p[1] == box.ylo]
        for e in tops + bots:
            lo_x, hi_x = sorted((e.p[0], e.q[0]))
            mx = (lo_x + hi_x) // 2
            # a winder contains the full side, so it must fit in the strip
            if (lo_x + hi_x) % 2 or lo_x < sx or hi_x > tx or not sx < mx < tx:
                continue
            side = "top" if e.p[1] == box.yhi else "bot"
            nodes.append(_Node(point=(mx, e.p[1]), hull=i, side=side))
    nodes.sort(key=lambda nd: nd.point)
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

    def relax(nd: _Node) -> None:
        cands: list[tuple[float, Pred]] = []
        for k, mu in enumerate(nodes):
            if mu.point[0] >= nd.point[0]:
                break
            if mu.dist < INF and leg_ok(k, nd.point):
                cands.append((mu.dist + _l1(mu.point, nd.point), ("mid", k)))
        # the first turnaround of a chain is reached monotonically from s:
        # rising into a top-side midpoint, falling into a bottom-side one
        direct_ok = (nd.hull == -1 or
                     (nd.side == "top") == (nd.point[1] > sy))
        if direct_ok and _xy_quadrant_ok(sf, nd.point, curves):
            cands.append((float(_l1(sf, nd.point)), ("direct", -1)))
        if not cands:
            return
        nd.dist = min(c[0] for c in cands)
        nd.preds = [p for (d, p) in cands if d == nd.dist]

    for nd in nodes:
        relax(nd)
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
                  seed_v: float) -> tuple[SweepResult, StaircaseRegion, NaiveStore]:
        kind, q = classify(wf, src_pt, dst_pt)
        if kind != "xy" or q.b != 0:
            raise GeometryError("winder leg is not an axis-aligned xy pair")
        if direct:
            # a direct leg continues whatever partial path enters at s
            inv_total = frame.then(q).inverse()
            seed_h = dir_links[inv_total.apply((1, 0))]
            seed_v = dir_links[inv_total.apply((0, 1))] + 1
        region = build_staircase_region(wf, q, src_pt, dst_pt)
        store = NaiveStore(region.m)
        res = run_sweep(region, store, seed_h=seed_h, seed_v=seed_v)
        dag.regions += 1
        dag.events += len(region.events)
        return res, region, store

    # best leg into the target, kept separately per arrival direction
    final_best: dict[str, tuple[float, Optional[Pred], StaircaseRegion, NaiveStore]] = {}

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
            res, region, store = sweep_leg(
                src_pt, nd.point, pred[0] == "direct", seed_h, seed_v)
            if final:
                for arr, lam in (("h", res.lam_h), ("v", res.lam_v)):
                    if lam < final_best.get(arr, (INF,))[0]:
                        final_best[arr] = (lam, pred, region, store)
                lam = res.lam
                if lam < best:
                    best = lam
                    nd.links = lam
                    nd.best_pred = pred
            else:
                lam = _horiz_readout(res)
                if lam < best:
                    best = lam
                    nd.links = lam
                    nd.best_pred = pred
                    nd.region = region
                    nd.store = store
                    nd.arrival = "h" if res.lam_h <= res.lam_v + 1 else "v"
        if best == INF:
            raise GeometryError("no reachable predecessor on an optimal chain")

    def stitch(pred: Pred, region: StaircaseRegion, store: NaiveStore,
               arrival: str) -> list[Point]:
        chain: list[_Node] = []
        while pred[0] == "mid":
            nd = nodes[pred[1]]
            chain.append(nd)
            pred = nd.best_pred
        chain.reverse()
        pts: list[Point] = []
        for nd in chain:
            sub = reconstruct_path(nd.region, nd.store, nd.arrival)
            inv = nd.region.frame.inverse()
            pts.extend(inv.apply(p) for p in sub)
        sub = reconstruct_path(region, store, arrival)
        inv = region.frame.inverse()
        pts.extend(inv.apply(p) for p in sub)
        return pts

    inv_frame = frame.inverse()
    arrivals: dict[Point, tuple[int, list[Point]]] = {}
    for arr, (lam, pred, region, store) in final_best.items():
        if lam == INF:
            continue
        world_pts = [inv_frame.apply(p) for p in stitch(pred, region, store, arr)]
        result = PathResult.from_points(world_pts)
        p0, p1 = result.points[0], result.points[1]
        d0 = ((p1[0] > p0[0]) - (p1[0] < p0[0]),
              (p1[1] > p0[1]) - (p1[1] < p0[1]))
        # the first segment is charged its seeded link count, not 1
        seeded = result.links - 1 + dir_links[d0]
        if result.length != target.dist or seeded != lam:
            raise GeometryError("witness disagrees with the relaxation values")
        inv_total = frame.then(region.frame).inverse()
        adir = inv_total.apply((1, 0)) if arr == "h" else inv_total.apply((0, 1))
        arrivals[adir] = (int(lam), result.points)
    if not arrivals:
        raise GeometryError("no arrival at the target")
    return int(target.dist), arrivals, dag
