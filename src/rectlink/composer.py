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
the limit widens until it covers the nearest target's distance; the
midpoints a shortest chain to a nearest target can use all lie within it
(``solve_x_case`` has the argument).  Like A*, a solve then stops: a
farther target may be left with no exact distance.  The work around the
relaxation follows the same bound: a hull's box floors every midpoint of
its sides, so a hull's tables are built, and its midpoints admitted, only
once the limit reaches that floor; and a widened pass resumes at the
westmost midpoint it admits, since a node reads only what lies west of it.

A frame and its y mirror.  ``classify`` picks an x-case frame by the signs
of the pair's dx and dy, so one class of pairs can read as an eastward
x-case both in a frame F and in F.then(FLIP_Y), which negates y.  One solve
serves both, because the two admit the same chains as world paths:

* the mirror maps the strip, the ends and every hull onto themselves as
  world sets; a top side becomes a bottom side, and ``_midpoints`` reads
  both alike, so the midpoints are the same world points;
* the relaxation admits rising and falling legs alike: a top-side midpoint
  starts falling legs and a bottom-side one rising legs, each level legs
  included, and a source starts both.  A leg rising in F falls in the
  mirror, and ``falls`` there reads the very traces ``rises`` reads in F
  (rd of the mirror is ru of F, dr is ur), under the same memo keys, since
  the stops come from the same boxes; ``classify`` gives the leg the same
  total frame, so the same region and sweep;
* L1 lengths and link counts do not see the mirror.

So the nearest distance, the nearest targets and their links agree.  The
witness could still differ where the frame's orientation breaks a tie, and
it does so in two places, which the readout neutralises:

* a chain's first leg, from a source into a midpoint level with it, is no
  turnaround, yet the relaxation takes it into bottom-side midpoints only,
  and those differ between F and its mirror.  The readout skips such legs.
  Up to its first top-side midpoint, or its target, such a chain rises
  from the source, so the source's own leg to that node is an optimal
  predecessor of it too; that leg's sweep starts with the same seeds and
  covers the chain's path, so it has no more links, and every nearest
  target keeps its links;
* midpoint indices follow the frame's (x, y) order, which the mirror
  reverses within one x.  The readout tries the predecessors of a node by
  x, then by world point, then sources by index, and keeps the first with
  the fewest links.

Every other choice of the readout reads world quantities, so a solve in F
and one in its mirror return the same witnesses, arrival directions
included, and ``frontend`` runs one class solve per mirror pair.

Legs without a region.  Each leg the readout takes runs strictly east from
p to q, and its sweep is seeded with ``(seed_h, seed_v)``, written h0 and
v0 here: the links of a path that leaves p eastward, and northward then
eastward, in the leg's ``quadrant`` frame, the frame ``classify`` returns
for it.  Two kinds of leg are answered from ``_first_block`` queries alone
(``free_leg``), with no classification, region or sweep:

* a straight leg, level (p.y = q.y), whose ray east from p meets no flank
  before q.x.  Its region would have the single baseline y = p.y, so its
  values are ``lam_h = h0`` and ``lam_v = INF``, with the witness [p, q];
* an L leg into a midpoint, with p and q not collinear, whose
  north-then-east L is free (the rays ur from p and ld from q are clear,
  the test ``free_corners`` makes), and with ``v0 <= h0 + 2``.  A path
  that arrives horizontally leaves north, at least v0, or leaves east and
  must turn north and east again, at least h0 + 2; so ``lam_h >= min(v0,
  h0 + 2) = v0``, and the free L gives ``lam_h <= v0``: ``lam_h = v0``.
  Likewise ``lam_v >= min(h0 + 1, v0 + 1)``, so ``lam_v + 1 >= v0`` and
  ``_horiz_readout`` reads v0, arriving "h", with the witness
  [p, (p.x, q.y), q].  ``lam_v`` itself is not computed, and no reader
  takes it.  The guard always holds: a midpoint seeds (L, L + 2), a
  source with default seeds (1, 2), and ``frontend._seed_links`` gives
  the out direction L, its opposite L + 2 and the other two L + 1, so
  north costs at most one more than east and ``v0 <= h0 + 2``.

The L is tested in the leg's total frame, which a frame and its y mirror
share, and a straight leg's ray is the same world ray in both, blocked
alike (a grazed corner lets it pass iff an edge runs east from it), so a
solve in either answers the same legs this way.  Either witness is the
sweep's own: with the L free, the originate seeds the top baseline with v0
and no later event lowers or overwrites it, and a single baseline holds
only h0.  A target keeps its L legs' sweeps: its readout needs ``lam_h``
and ``lam_v`` per arrival direction, and a pocket target's merge can make
either one win.

One readout.  An xy pair's single leg (``engine.solve_pair_raw``) is read
out by ``read_arrivals``, the code that reads a class solve's targets, and
every middle solve's counters come from ``SubregionDag.stats``.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

from .geometry import IDENTITY, UNIT_DIRS, GeometryError, PathResult, Point, Xform, first_dir
from .partition import (
    FRAME_LD,
    FRAME_RU,
    FRAME_UR,
    INF,
    TRACE_FRAMES,
    FrameTables,
    FrameView,
    StepCurve,
    World,
    build_staircase_region,
    classify,
    quadrant,
    ray_clear,
    trace_ru,
)
from .sweep import SweepResult, reconstruct_path, run_sweep

Pred = tuple[str, int]  # ("mid", node index) or ("src", source index)


class LegEnds(NamedTuple):
    """What a leg's ``StaircaseRegion`` would hold as ``frame``, ``s`` and
    ``t``: the leg's quadrant frame and its ends in that frame."""

    frame: Xform
    s: Point
    t: Point


@dataclass
class FreeLeg:
    """A leg answered without a region (see "Legs without a region").

    ``lam_h`` is exact.  ``lam_v`` is INF for a straight leg and None for
    an L leg, whose rule does not compute it.  ``points`` is the witness,
    arriving horizontally, in the frame of ``region``.
    """

    region: LegEnds
    lam_h: float
    lam_v: Optional[float]
    points: list[Point]


def free_leg(view: FrameView, quad: Xform, p: Point, q: Point,
             seeds: tuple[float, float], midpoint: bool) -> Optional[FreeLeg]:
    """The leg from ``p`` east to ``q`` as a straight leg or, into a
    midpoint, an L leg, when blocking queries answer it (see "Legs without
    a region"), else None.  ``quad`` is ``quadrant(p, q)`` and ``seeds``
    the leg's (seed_h, seed_v) in it."""
    sq, tq = quad.apply(p), quad.apply(q)
    seed_h, seed_v = seeds
    if sq[1] == tq[1]:
        if ray_clear(view, quad, FRAME_RU, sq, tq):
            return FreeLeg(LegEnds(quad, sq, tq), seed_h, INF, [sq, tq])
    elif midpoint and seed_v <= seed_h + 2 \
            and ray_clear(view, quad, FRAME_UR, sq, tq) \
            and ray_clear(view, quad, FRAME_LD, tq, sq):
        return FreeLeg(LegEnds(quad, sq, tq), seed_v, None,
                       [sq, (sq[0], tq[1]), tq])
    return None


@dataclass
class _Node:
    point: Point
    hull: int                      # owning hull index, -1 for a source or target
    side: str = ""                 # "top" or "bot" for midpoint nodes
    dist: float = INF
    links: float = INF
    preds: list[Pred] = field(default_factory=list)  # optimal predecessors
    best_pred: Optional[Pred] = None
    leg: Optional[SweepResult | FreeLeg] = None  # the best leg into it


@dataclass
class SubregionDag:
    """Distance relaxation artifact: the midpoint nodes and the targets,
    with their distances and links.

    ``nodes`` holds the admitted midpoints, sorted by point: those of the
    hulls in the strip whose box floor is within the relaxation's final
    limit, not every midpoint of the strip (perfbench's
    ``composer.midpoints`` and ``stats["midpoints"][0]`` count them).
    ``relaxed`` counts those whose L1 bound is within that limit.  A
    midpoint beyond it keeps ``dist = INF`` and no ``preds``, even when a
    chain reaches it: no shortest chain to a nearest target passes through
    it.  A midpoint that only chains the readout skips reach keeps INF
    ``links``.  A target at the nearest distance has its exact ``dist``
    and ``preds``; a farther target's ``dist`` is never below its true
    distance, and may be INF.
    """

    nodes: list[_Node]
    targets: list[_Node]
    relaxed: int = 0
    regions: int = 0
    events: int = 0
    free_legs: int = 0     # legs answered without a region

    def stats(self) -> dict:
        """The counters ``frontend.solve`` sums into ``SolveReport.stats``."""
        return {"events": self.events, "regions": self.regions, "free_legs": self.free_legs,
                "midpoints": (len(self.nodes), self.relaxed)}


def source_seeds(dir_links: dict[Point, float], inv: Xform) -> tuple[float, float]:
    """(seed_h, seed_v) of a leg out of a source whose frame's inverse is ``inv``."""
    return dir_links[inv.apply((1, 0))], dir_links[inv.apply((0, 1))] + 1


def _horiz_readout(leg: SweepResult | FreeLeg) -> tuple[float, str]:
    """Fewest links among shortest paths that leave the leg's far end
    eastward, and the arrival there that gives them: "h" along the top
    baseline, or "v" up from a lower one and turning east.  An L leg reads
    its ``lam_h`` (see "Legs without a region")."""
    if leg.lam_v is None or leg.lam_h <= leg.lam_v + 1:
        return leg.lam_h, "h"
    return leg.lam_v + 1, "v"


def _strip(ft: FrameTables, sx: int, tx: int) -> list[int]:
    """The hulls whose box meets the open strip (sx, tx), in frame-xlo order.

    Only they can have a side that fits in the strip [sx, tx], and their
    xlo lies in the width window (sx - width, tx).  Read from the frame's
    box index alone: no hull table is built.
    """
    return [i for i in ft.between(sx - ft.width, tx) if ft.xhi[i] > sx]


def _midpoints(ft: FrameTables, hulls: Sequence[int], sx: int, tx: int
               ) -> list[_Node]:
    """Side-midpoint nodes of the sides of ``hulls`` that fit in the strip
    [sx, tx], sorted by point (then hull).  Builds the tables of ``hulls``
    only."""
    nodes: list[_Node] = []
    for i in hulls:
        fp = ft[i]
        box = fp.box
        for lo_x, hi_x, y in fp.horiz:
            if y != box.yhi and y != box.ylo:
                continue
            mx = (lo_x + hi_x) // 2
            # a winder contains the full side, so it must fit in the strip
            if (lo_x + hi_x) % 2 or lo_x < sx or hi_x > tx or not sx < mx < tx:
                continue
            side = "top" if y == box.yhi else "bot"
            nodes.append(_Node(point=(mx, y), hull=i, side=side))
    nodes.sort(key=lambda nd: (nd.point, nd.hull))
    return nodes


def _box(points: Sequence[Point]) -> tuple[int, int, int, int]:
    """The bounding box of ``points``: (xlo, xhi, ylo, yhi)."""
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    return min(xs), max(xs), min(ys), max(ys)


def _l1_to_box(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> int:
    """L1 distance between boxes ``a`` and ``b``, each (xlo, xhi, ylo, yhi):
    at most that between any point of one and any point of the other.  A
    point p is the box (px, px, py, py)."""
    return max(b[0] - a[1], 0, a[0] - b[1]) + max(b[2] - a[3], 0, a[2] - b[3])


def _l1_to_nearest(p: Point, points: Sequence[Point]) -> int:
    """L1 distance from ``p`` to the nearest of ``points``."""
    return min(abs(p[0] - x) + abs(p[1] - y) for x, y in points)


def _resume_at(run: list[tuple[int, int]], x: int) -> int:
    """Where a widened relaxation resumes: the index of the first entry of
    ``run`` (the relaxed nodes as (x, key), in x order) at or east of ``x``,
    the westmost midpoint the widening admitted.

    A node reads only the sources and the relaxed midpoints strictly west of
    it, and no midpoint west of ``x`` was admitted, so every node west of
    ``x`` keeps its distance and its predecessors; the nodes from here on
    are relaxed again.
    """
    return bisect.bisect_left(run, (x,))


def stitch(frame: Xform, nodes: Sequence[_Node], pred: Pred,
           leg: SweepResult | FreeLeg, arrival: str) -> list[Point]:
    """The best chain from a source through ``pred`` and ``leg``, in world
    coordinates; ``frame`` maps the world to ``nodes``' frame."""
    # a midpoint's leg is read out eastward (``_horiz_readout``)
    legs = [(leg, arrival)]
    while pred[0] == "mid":
        nd = nodes[pred[1]]
        legs.append((nd.leg, _horiz_readout(nd.leg)[1]))
        pred = nd.best_pred
    pts: list[Point] = []
    for leg, arr in reversed(legs):
        inv = frame.then(leg.region.frame).inverse()
        path = leg.points if isinstance(leg, FreeLeg) else reconstruct_path(leg, arr)
        pts.extend(inv.apply(p) for p in path)
    return pts


def read_arrivals(frame: Xform, nodes: Sequence[_Node], target: _Node,
                  legs: Iterable[tuple[Pred, SweepResult | FreeLeg]],
                  dir_links: dict[Point, float]) -> dict[Point, tuple[int, list[Point]]]:
    """The target's arrivals over ``legs``, its (pred, leg) pairs: per world
    direction, the fewest links and a re-measured world witness.  ``frame``
    maps the world to ``nodes``' and ``target``'s, whose best leg is kept."""
    # per world arrival direction: a rising and a falling leg both arrive
    # "v" in their own frames, but from opposite sides (a straight leg's
    # values are its region's; an L leg never ends at a target)
    best: dict[Point, tuple[float, Pred, SweepResult | FreeLeg, str]] = {}
    for pred, leg in legs:
        inv_total = frame.then(leg.region.frame).inverse()
        for arr, lam, d in (("h", leg.lam_h, (1, 0)), ("v", leg.lam_v, (0, 1))):
            adir = inv_total.apply(d)
            if lam < best.get(adir, (INF,))[0]:
                best[adir] = (lam, pred, leg, arr)
            if lam < target.links:
                target.links, target.best_pred, target.leg = lam, pred, leg
    if target.links == INF:
        raise GeometryError("no reachable predecessor on an optimal chain")
    got: dict[Point, tuple[int, list[Point]]] = {}
    for adir, (lam, pred, leg, arr) in best.items():
        witness = PathResult.from_points(stitch(frame, nodes, pred, leg, arr))
        # the first segment is charged its seeded link count, not 1
        seeded = witness.links - 1 + dir_links[first_dir(witness.points)]
        if witness.length != target.dist or seeded != lam:
            raise GeometryError("witness disagrees with the sweep")
        got[adir] = (int(lam), witness.points)
    if not got:
        raise GeometryError("no arrival at the target")
    return got


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
    lets a caller continue a partial path through it, and is exact only as
    ``engine.solve_pair_raw`` says.  Every chain is a real
    path, and every shortest path of a pair that ``classify`` reads as an
    eastward x-case in ``frame`` is one, so the nearest targets' distance
    is at most that of each such pair, and a pair at that distance ends at
    a nearest target, whose links are at most the pair's.  With one source
    and one target this is the pair's answer.

    Returns the distance to the nearest targets; per target in order, for
    each direction a shortest chain can arrive at it with, the fewest links
    and a witness from its source, in unframed coordinates; and the
    relaxation's nodes, where ``dag.targets[j].dist`` is target ``j``'s
    distance at the nearest targets, and elsewhere at least its distance
    (INF when no chain reaches it or the solve stopped before it).  Only
    the nearest targets are read out: a chain into a farther one cannot
    beat them, whatever its links, so its arrivals are left empty and no
    sweep is spent on it.

    Each midpoint q gets the bound b(q) = min_s L1(s, q) + min_t L1(q, t)
    over the sources s and targets t, and only the midpoints with
    b(q) <= U are relaxed.  U starts at the least source-to-target L1 and
    widens until the nearest target's distance found, ``near``, is at most
    U or every midpoint is relaxed.  A distance in the hull world is at
    least the L1 distance, so a chain through q to a target costs at least
    b(q): every chain to a target that costs at most U runs through
    relaxed midpoints only.  So a target t with dist(t) <= U gets its
    distance, and so does every node on a shortest chain to t, with all
    its tied predecessors, since a chain that ties into such a node
    continues to t at the same cost.  A relaxation over fewer midpoints
    finds no shorter chain, so no node's distance falls below its value
    over all midpoints.  Hence, once ``near <= U``, a target whose distance
    is below ``near`` would have been found: ``near`` is the least target
    distance, and the targets at it, the predecessors of every node on a
    shortest chain into them, and with them the marked legs, the links and
    the witnesses equal those of a relaxation over all midpoints.  A
    farther target's distance is never below its own and may be INF; a
    midpoint beyond the final U keeps INF and no predecessors.

    The floor of a midpoint q, L1(q, sources' box) + L1(q, targets' box), is
    at most b(q), and the floor of a hull's box, the L1 distance from that
    box to the sources' box plus that to the targets' box, is at most the
    floor of every midpoint on its sides.  So a hull's tables are built,
    and its midpoints admitted to ``dag.nodes``, only once U reaches its
    box's floor, and no midpoint within U is missed.  A widened pass
    relaxes again only the nodes at or east of the westmost midpoint it
    admits (``_resume_at``).  The curves that test a leg are traced to
    stops set by the boxes of every hull in the strip, which hold every
    midpoint, so they do not depend on U.
    """
    if dir_links is None:
        dir_links = {d: 1.0 for d in UNIT_DIRS}
    # the instance world seen in this frame; its cache serves every leg
    wf = FrameView(world, frame)
    ft = wf.frame(IDENTITY)
    srcs = [_Node(point=frame.apply(s), hull=-1, dist=0.0) for s in sources]
    tgts = [_Node(point=frame.apply(t), hull=-1) for t in targets]
    sx = min(nd.point[0] for nd in srcs)
    tx = max(nd.point[0] for nd in tgts)
    ends_s, ends_t = [nd.point for nd in srcs], [nd.point for nd in tgts]
    box_s, box_t = _box(ends_s), _box(ends_t)

    # the strip's hulls, by the floor their box sets on every midpoint of
    # their sides (the L1 distance to the sources' box plus that to the
    # targets' box); a hull's tables are built, and its midpoints admitted,
    # once the limit reaches its floor
    strip = _strip(ft, sx, tx)
    hulls = sorted((_l1_to_box(box, box_s) + _l1_to_box(box, box_t), i)
                   for i in strip
                   for box in [(ft.xlo[i], ft.xhi[i], ft.ylo[i], ft.yhi[i])])

    # the extreme curves out of a leg's start decide whether the leg is
    # xy-monotone: ru and ur bound a rising leg, rd and dr a falling one.
    # Each is traced on first use, in its own trace frame, far enough to
    # cover every node, and read from the world's trace memo after that.
    # The stops come from the strip's boxes, which hold every midpoint, so
    # they do not depend on the limit
    y_hi = max([nd.point[1] for nd in tgts] + [ft.yhi[i] for i in strip]) + 1
    y_lo = min([nd.point[1] for nd in tgts] + [ft.ylo[i] for i in strip]) - 1
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

    # the admitted midpoints, in the order they were admitted; during the
    # relaxation a ("mid", k) predecessor indexes this list
    mids: list[_Node] = []

    def leg_ok(pred: Pred, nd: _Node) -> bool:
        """Whether the leg from ``pred`` into ``nd`` is xy-monotone, its y
        direction already checked against the leg's list."""
        q = nd.point
        if pred[0] == "mid":
            mu = mids[pred[1]]
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

    def node(key: int) -> _Node:
        """A relaxed midpoint by its index in ``mids``, target j by -1 - j."""
        return mids[key] if key >= 0 else tgts[-1 - key]

    # leg tests, by (pred, node key): a widened relaxation asks again for
    # the legs of the narrower ones
    tested: dict[tuple[Pred, int], bool] = {}

    def relax(key: int) -> None:
        nd = node(key)
        qx, qy = nd.point
        # in key order, a side's legs only get dearer: stop past the best
        # valid cost, but keep every valid leg that ties it
        best = INF
        cands: list[tuple[float, Pred]] = []
        for side, offset in (("top", qx - qy), ("bot", qx + qy)):
            falls = side == "top"
            for k, lim, pred in keyed[side]:
                d = k + offset
                if d > best:
                    break
                if (qy < lim) != falls:
                    continue
                ok = tested.get((pred, key))
                if ok is None:
                    ok = tested[pred, key] = leg_ok(pred, nd)
                if ok:
                    cands.append((d, pred))
                    best = d
        if cands:
            nd.dist = best
            nd.preds = [p for d, p in cands if d == best]

    # the bound of each admitted midpoint (see the docstring).  Its floor,
    # the L1 distance to the sources' box plus that to the targets' box,
    # takes O(1); the bound itself is measured only where the floor is
    # within the limit
    floor: list[int] = []
    bound: dict[int, int] = {}

    def within(k: int, limit: float) -> bool:
        if floor[k] > limit:
            return False
        if k not in bound:
            q = mids[k].point
            bound[k] = _l1_to_nearest(q, ends_s) + _l1_to_nearest(q, ends_t)
        return bound[k] <= limit

    # the nodes in the relaxation, as (x, key) in x order: the targets and
    # the midpoints within the limit.  They are relaxed west to east, one x
    # at a time; the midpoints of an x enter their lists once every node
    # with that x is relaxed, and a source before the first node east of
    # it, so each leg runs strictly west to east.  Midpoints left out keep
    # INF and no predecessors.
    run = sorted((nd.point[0], -1 - j) for j, nd in enumerate(tgts))
    west_first = sorted(range(len(srcs)), key=lambda i: srcs[i].point[0])
    src_xs = [srcs[i].point[0] for i in west_first]
    entered = 0                 # sources entered: a prefix of west_first
    pending: list[int] = []     # admitted midpoints beyond the limit
    admitted = 0                # hulls admitted: a prefix of ``hulls``

    def leg_x(pred: Pred) -> int:
        return (mids if pred[0] == "mid" else srcs)[pred[1]].point[0]

    def relax_from(r: int) -> None:
        """Relax ``run[r:]`` afresh, on what lies west of it."""
        nonlocal entered
        if r < len(run):
            x_w = run[r][0]
            for _, key in run[r:]:
                nd = node(key)
                nd.dist, nd.preds = INF, []
            for side, entries in keyed.items():
                keyed[side] = [e for e in entries if leg_x(e[2]) < x_w]
            entered = min(entered, bisect.bisect_left(src_xs, x_w))
        while r < len(run):
            x = run[r][0]
            while entered < len(srcs) and src_xs[entered] < x:
                i = west_first[entered]
                enter("top", ("src", i), srcs[i])
                enter("bot", ("src", i), srcs[i])
                entered += 1
            e = r
            while e < len(run) and run[e][0] == x:
                relax(run[e][1])
                e += 1
            for _, key in run[r:e]:
                if key >= 0 and mids[key].dist < INF:
                    enter(mids[key].side, ("mid", key), mids[key])
            r = e

    def widen(limit: float) -> list[int]:
        """Admit the hulls whose floor is within ``limit`` and put the
        midpoints within it in the relaxation; returns those midpoints."""
        nonlocal admitted, pending
        while admitted < len(hulls) and hulls[admitted][0] <= limit:
            for nd in _midpoints(ft, [hulls[admitted][1]], sx, tx):
                qx, qy = nd.point
                q = (qx, qx, qy, qy)
                pending.append(len(mids))
                mids.append(nd)
                floor.append(_l1_to_box(q, box_s) + _l1_to_box(q, box_t))
            admitted += 1
        new: list[int] = []
        left: list[int] = []
        for k in pending:
            if within(k, limit):
                new.append(k)
                bisect.insort(run, (mids[k].point[0], k))
            else:
                left.append(k)
        pending = left
        return new

    # while the nearest target is beyond the limit and a midpoint is left
    # out, the limit moves to the nearest target distance found or to the
    # start plus a slack, whichever is less, and the relaxation resumes at
    # the westmost midpoint that moved in.  The slack starts at the least
    # gap from the start up to a left-out midpoint's bound, or up to its
    # floor where the bound was not measured, or up to the floor of a hull
    # not yet admitted, and doubles.
    start = limit = min(_l1_to_nearest(t, ends_s) for t in ends_t)
    widen(limit)
    relax_from(0)
    gaps = [bound.get(k, floor[k]) - start for k in pending]
    if admitted < len(hulls):
        gaps.append(hulls[admitted][0] - start)
    slack = min((g for g in gaps if g > 0), default=0)
    near = min(nd.dist for nd in tgts)
    while (pending or admitted < len(hulls)) and near > limit:
        limit = min(near, start + slack)
        slack *= 2
        new = widen(limit)
        if new:
            relax_from(_resume_at(run, min(mids[k].point[0] for k in new)))
            near = min(nd.dist for nd in tgts)
    if near == INF:
        raise GeometryError("x-monotone pair with no winder chain to the source")

    # the admitted midpoints by point, and the predecessors by that order:
    # midpoints by index, then sources by index
    order = sorted(range(len(mids)), key=lambda k: (mids[k].point, mids[k].hull))
    rank = [0] * len(mids)
    for r, k in enumerate(order):
        rank[k] = r
    nodes = [mids[k] for k in order]
    for nd in nodes + tgts:
        if nd.preds:
            nd.preds = sorted(("mid", rank[k]) if kind == "mid" else (kind, k)
                              for kind, k in nd.preds)
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

    dag = SubregionDag(nodes=nodes, targets=tgts, relaxed=len(run) - len(tgts))
    inv_frame = frame.inverse()

    def readout_key(pred: Pred):
        """The order the readout tries predecessors in: midpoints by x, one
        x by world point, then sources by index (see "A frame and its y
        mirror" above)."""
        if pred[0] == "src":
            return (1, pred[1])
        q = nodes[pred[1]].point
        return (0, q[0], inv_frame.apply(q))

    def legs_into(nd: _Node):
        """(pred, leg) of every leg into nd from an optimal predecessor
        that the readout takes: a ``FreeLeg`` where ``free_leg`` answers
        it, else the leg's sweep."""
        for pred in sorted(nd.preds, key=readout_key):
            if pred[0] == "src":
                p = srcs[pred[1]].point
                if nd.hull >= 0 and p[1] == nd.point[1]:
                    # a level first leg into a midpoint is no turnaround
                    continue
                quad = quadrant(p, nd.point)
                seeds = source_seeds(dir_links, frame.then(quad).inverse())
            else:
                mu = nodes[pred[1]]
                if mu.links == INF:
                    continue
                p, quad = mu.point, quadrant(mu.point, nd.point)
                seeds = (mu.links, mu.links + 2)
            leg = free_leg(wf, quad, p, nd.point, seeds, nd.hull >= 0)
            if leg is not None:
                dag.free_legs += 1
                yield pred, leg
                continue
            # an xy pair's frame is its quadrant, in which the seeds are read
            kind, q = classify(wf, p, nd.point)
            if kind != "xy" or q != quad:
                raise GeometryError("winder leg is not an axis-aligned xy pair")
            region = build_staircase_region(wf, q, p, nd.point)
            dag.regions += 1
            dag.events += len(region.events)
            yield pred, run_sweep(region, seed_h=seeds[0], seed_v=seeds[1])

    # increasing x resolves predecessors first; a midpoint's leg is read
    # out eastward.  A midpoint reached only by chains the readout does not
    # take keeps INF links.
    for k in sorted(marked, key=lambda k: nodes[k].point):
        nd = nodes[k]
        for pred, leg in legs_into(nd):
            lam = _horiz_readout(leg)[0]
            if lam < nd.links:
                nd.links, nd.best_pred, nd.leg = lam, pred, leg

    arrivals = [read_arrivals(frame, nodes, nd, legs_into(nd), dir_links)
                if nd.dist == near else {} for nd in tgts]
    return int(near), arrivals, dag
