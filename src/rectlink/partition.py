"""Monotone path tracing, case classification and staircase regions.

Everything here works on a ``World`` of obstacles read through their
orthogonally convex hulls.  The canonical tracer follows the extreme
x-monotone, weakly-rising path from a start point: ride east, and whenever an
obstacle blocks the way, climb its west flank to the left end of its top side
and resume.  Hits below the obstacle's west side cannot be passed monotonely
along the boundary, so the path turns up at the bounding-box west wall
instead.  All eight extreme paths and both staircase-region chains are this
one tracer conjugated by signed axis permutations.

A world keeps the instance's obstacles in instance coordinates and serves
every frame in doubled coordinates (the instance scaled by 2, then mapped
by the frame), where hull-side midpoints are integers: every point, trace,
region and table here is doubled.  It serves the frames from one cache and
one box index.  The index holds every obstacle's doubled box once, in
identity coordinates, along each of the four signed axes, with the
obstacles sorted along each; an obstacle and its hull share a box, so the
index needs no hull.  A frame reads the lists of the axes its x and y map
onto, so no box is mapped per frame.  A trace step makes one query, for
the nearest flank at or east of its point (a flank through the point is
the one it stands against).  That query and an x-case solve bisect the
frame's xlo order and read only a window of it: a box whose xlo is at most
x minus the widest box's width ends at or before x.
An obstacle is hulled the first time a frame reads it, and a hull's ring
and edge tables in a frame are built when a query first reaches it, so a
solve pays only for the hulls its traces and regions touch.  Frame tables
hold the world's hulls but no reference back to the world.

A region event at column x reads the highest top at or below a baseline,
and the lowest bottom at or above one, of the sections that holes cut from
the line x.  The boxes of the holes crossing x have disjoint interiors and
all cross x, so they are ordered in y, and a hull's section lies in its box
with positive length: the sections are ordered in y too, tops and bottoms
alike.  ``build_staircase_region`` therefore sweeps once in x and keeps the
holes crossing the sweep line as two parallel lists, bottom up, of their
sections' bottom and top baselines.  A read is one bisect per end it uses:
the highest top at or below a baseline is the last at or under it, the
lowest bottom at or above one the first at or over it, and no read scans a
window of holes or a hole's edge table.  A hole enters the lists at its
west wall, leaves them at its east wall, and moves one section end at each
of its other vertical edges.  This needs disjoint boxes, which
``validate`` checks, and no general position: where vertical edges of
several holes, their box walls and the envelope jumps share an x, every
read there sees the holes whose boxes cross x strictly, each by its closed
section at x (its lowest bottom and highest top on either side of x), so
a hole's own split or merge read never sees that hole.  A hole's tables
hold its edges but no climb chain, which only a trace step builds, so a
region pays one ring pass per hole.

The envelope reads ``top`` and ``bottom`` call the four curves' bound
methods from locals.  Events are plain tuples made by
``tuple.__new__(Event, ...)`` with all seven fields in order, which skips
NamedTuple's Python-level ``__new__``.  A region's events run to thousands
(1 834 in the largest point-large region), so these per-event steps are
most of its build.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import itemgetter, sub
from typing import NamedTuple, Optional, Sequence

from .geometry import (
    FLIP_X,
    FLIP_XY,
    FLIP_Y,
    IDENTITY,
    SWAP,
    GeometryError,
    Point,
    Rect,
    RectPolygon,
    Xform,
    rectilinear_convex_hull,
)

INF = float("inf")

# frames mapping each (primary, sidestep) direction pair onto (+x, +y)
FRAME_RU = IDENTITY                    # east, clear north
FRAME_RD = FLIP_Y                      # east, clear south
FRAME_LU = FLIP_X                      # west, clear north
FRAME_LD = FLIP_XY                     # west, clear south
FRAME_UR = SWAP                        # north, clear east
FRAME_UL = Xform(0, 1, -1, 0)          # north, clear west
FRAME_DR = Xform(0, -1, 1, 0)          # south, clear east
FRAME_DL = Xform(0, -1, -1, 0)         # south, clear west

TRACE_FRAMES = {
    "ru": FRAME_RU, "rd": FRAME_RD, "lu": FRAME_LU, "ld": FRAME_LD,
    "ur": FRAME_UR, "ul": FRAME_UL, "dr": FRAME_DR, "dl": FRAME_DL,
}


class _FramePoly:
    """One hull as seen in a trace frame.

    Built from the hull's vertex tuples, in instance coordinates, and the
    hull's doubled box in frame coordinates, which the frame reads from the
    world's index: each vertex ``v`` becomes ``t.apply(2v)``, the ring is
    reversed on a reflection (which turns it clockwise) and rotated to its
    least vertex, which is the ring ``RectPolygon`` of the mapped vertices
    would hold (doubling keeps orientation and the least vertex).  A frame
    builds one only when a query first reaches its hull (see
    ``FrameTables``), so most hulls of a frame never get one.

    Every table has ``box``, ``ring``, ``west_lo``/``west_hi`` and the edge
    tables ``west``, ``horiz`` and ``vertical``, filled by one pass over the
    ring; they list edges in ring order as plain tuples, so the per-event
    and per-step scans build no segment objects.  Two more are built on
    first read, each on its own: the climb chain ``hug``, which only a
    trace step reads, and ``east_horiz``, which every blocking query
    reads.  A region's holes are never climbed, and neither is a hull that
    an L or straight-run test only asks ``_first_block`` about, so no
    chain is built for them.
    """

    __slots__ = ("box", "ring", "west_lo", "west_hi", "west", "horiz",
                 "vertical", "hug", "east_horiz")

    box: Rect
    ring: tuple[Point, ...]  # counterclockwise, from the least vertex
    west_lo: int          # y-range of the vertical edge on the box west wall
    west_hi: int
    west: list[tuple[int, int, int]]   # west-facing vertical edges (x, lo, hi)
    horiz: list[tuple[int, int, int]]  # horizontal edges (xlo, xhi, y)
    # vertical edges (x, lo, hi, west-facing): a counterclockwise ring runs
    # down its west-facing edges
    vertical: list[tuple[int, int, int, bool]]
    hug: list[Point]      # west-side bottom up to the left end of the top side
    east_horiz: frozenset[Point]  # west ends of horizontal edges

    def __init__(self, hull: RectPolygon, t: Xform, box: Rect):
        self.box = box
        # a signed axis permutation keeps one term of each coordinate
        if t.b:
            b, c = 2 * t.b, 2 * t.c
            vs = [(b * y, c * x) for x, y in hull.vertices]
        else:
            a, d = 2 * t.a, 2 * t.d
            vs = [(a * x, d * y) for x, y in hull.vertices]
        if t.a * t.d - t.b * t.c < 0:
            vs.reverse()
        k = vs.index(min(vs))
        vs = vs[k:] + vs[:k]
        west: list[tuple[int, int, int]] = []
        horiz: list[tuple[int, int, int]] = []
        vertical: list[tuple[int, int, int, bool]] = []
        ax, ay = vs[0]
        for bx, by in vs[1:] + vs[:1]:
            if ax == bx:
                if by < ay:           # runs downwards: west-facing
                    west.append((ax, by, ay))
                    vertical.append((ax, by, ay, True))
                else:
                    vertical.append((ax, ay, by, False))
            elif ax < bx:
                horiz.append((ax, bx, ay))
            else:
                horiz.append((bx, ax, ay))
            ax, ay = bx, by
        self.ring = tuple(vs)
        # the least vertex is the west side's bottom, and a counterclockwise
        # ring reaches it down the west side, from its last vertex
        self.west_lo, self.west_hi = vs[0][1], vs[-1][1]
        self.west, self.horiz, self.vertical = west, horiz, vertical

    def __getattr__(self, name: str):
        # only an unfilled slot gets here: build that one
        if name == "hug":
            self.hug = _build_hug(self.ring, self.box.yhi)
            return self.hug
        if name == "east_horiz":
            self.east_horiz = frozenset([(xlo, y) for xlo, _, y in self.horiz])
            return self.east_horiz
        raise AttributeError(name)


def _build_hug(ring: Sequence[Point], yhi: int) -> list[Point]:
    """Boundary corners from the west side's bottom to the top side's left end.

    ``ring`` is counterclockwise from its least vertex, the west side's
    bottom, so the walk runs backwards: up the west side, then up the
    upper-left boundary to the first vertex on the top wall ``yhi``.  Valid
    for orthogonally convex polygons, whose upper-left boundary is a
    staircase rising to the east.
    """
    chain = [ring[0]]
    i = len(ring)
    while chain[-1][1] < yhi:
        i -= 1
        chain.append(ring[i])
    return chain


def _axis(a: int, b: int) -> int:
    """Which signed axis the frame coordinate ``a*x + b*y`` reads: 0 for +x,
    1 for -x, 2 for +y, 3 for -y (so ``k ^ 1`` is the opposite axis)."""
    if a:
        return 0 if a > 0 else 1
    return 2 if b > 0 else 3


# each frame's x and y as signed axes, so that making a frame calls nothing
_FRAME_AXES = {t: (_axis(t.a, t.b), _axis(t.c, t.d)) for t in TRACE_FRAMES.values()}


class BoxIndex:
    """The obstacles' doubled boxes, sorted along each signed axis.

    Built from each obstacle's own box, in identity coordinates.  For each
    signed axis ``k`` (0 for +x, 1 for -x, 2 for +y, 3 for -y, as ``_axis``
    numbers them) it keeps, as plain int lists: every box's low and high
    end along that axis in obstacle order (``lows[k]`` and ``highs[k]``;
    the -x lows are the negated xhi), the obstacles sorted by that low end,
    ties by index (``orders[k]``), and the sorted lows (``keys[k]``).
    ``widths`` holds the widest box along the x and the y axis.  So
    ``keys[0][0]`` and ``keys[2][0]`` are the least xlo and ylo, and
    ``-keys[1][0]`` and ``-keys[3][0]`` the greatest xhi and yhi.

    A world builds one and its frames read it, as ``frontend._host`` does;
    ``model.validate`` reads the one a solve's world built, or builds its
    own when called alone.
    """

    __slots__ = ("lows", "highs", "orders", "keys", "widths")

    def __init__(self, obstacles: Sequence[RectPolygon]):
        boxes = [o.bbox for o in obstacles]
        xlo, xhi = [2 * b.xlo for b in boxes], [2 * b.xhi for b in boxes]
        ylo, yhi = [2 * b.ylo for b in boxes], [2 * b.yhi for b in boxes]
        self.lows = (xlo, [-v for v in xhi], ylo, [-v for v in yhi])
        self.highs = (xhi, [-v for v in xlo], yhi, [-v for v in ylo])
        self.orders = tuple(sorted(range(len(boxes)), key=lo.__getitem__)
                            for lo in self.lows)
        self.keys = tuple([lo[i] for i in order]
                          for lo, order in zip(self.lows, self.orders))
        self.widths = (max(map(sub, xhi, xlo), default=0),
                       max(map(sub, yhi, ylo), default=0))


class FrameTables:
    """The hulls as seen in one frame, plus that frame's trace memo.

    Everything here is in doubled frame coordinates: the instance scaled
    by 2, then mapped by ``t``.  The boxes come from the world's index,
    unmapped: ``xlo[i]``, ``ylo[i]``, ``xhi[i]`` and ``yhi[i]`` are obstacle
    ``i``'s doubled box in frame coordinates, read from the world's lists
    for the signed axes that the frame's x and y map onto.  An obstacle's
    orthogonal hull has the same box, so these are the hull boxes too.
    ``order`` lists the obstacles by frame xlo, ties by index, and ``keys``
    holds their xlos, so ``between`` bisects.  ``width`` is the widest box
    along the frame's x: a box with xlo <= x - width has xhi <= x, so a
    query at x need look no further west than that.  Creating a frame
    therefore costs O(1), whatever the number of obstacles.

    ``self[i]`` is hull ``i``'s ``_FramePoly``, built on first read.  The
    hull itself comes from the world's ``hull``, which builds it the first
    time any frame reads obstacle ``i``.  A frame holds that function and
    the lists it reads, never the world: the world holds its frames, and a
    reference back would make a cycle that only the cyclic garbage collector
    frees.

    ``traces`` maps ``(start, x_stop)`` to the ``Trace`` that ``trace_ru``
    returned for it in this frame; regions and the x-case relaxation read
    its memoised ``curve`` in this frame.

    A frame's attributes are slots, and its axes come from a table: a solve
    makes one frame per signed axis permutation it reads, up to four for a
    two-link pair's L test, so a frame's set-up is part of every solve.
    """

    __slots__ = ("xlo", "xhi", "ylo", "yhi", "order", "keys", "width",
                 "_hull", "_t", "_polys", "traces")

    def __init__(self, world: World, t: Xform):
        xa, ya = _FRAME_AXES[t]
        index = world.index
        self.xlo, self.xhi = index.lows[xa], index.highs[xa]
        self.ylo, self.yhi = index.lows[ya], index.highs[ya]
        self.order, self.keys = index.orders[xa], index.keys[xa]
        self.width = index.widths[xa >> 1]
        self._hull = world.hull
        self._t = t
        self._polys: dict[int, _FramePoly] = {}
        self.traces: dict[tuple[Point, int], Trace] = {}

    def __len__(self) -> int:
        return len(self.xlo)

    def __getitem__(self, i: int) -> _FramePoly:
        fp = self._polys.get(i)
        if fp is None:
            # an index box is an obstacle's bounding box, never empty
            box = Rect.from_ordered(self.xlo[i], self.ylo[i], self.xhi[i], self.yhi[i])
            fp = self._polys[i] = _FramePoly(self._hull(i), self._t, box)
        return fp

    @property
    def tables_built(self) -> int:
        """Hulls whose ``_FramePoly`` this frame has built."""
        return len(self._polys)

    def between(self, lo: int, hi: int) -> list[int]:
        """Obstacles with ``lo < xlo < hi`` in this frame, in frame-xlo order."""
        keys = self.keys
        return self.order[bisect.bisect_right(keys, lo):bisect.bisect_left(keys, hi)]


class World:
    """Obstacles, one box index over them, and cached per-frame tables.

    ``obstacles`` (the instance's own polygons) and ``hull(i)`` are in
    instance coordinates; every frame, and every point a query takes or
    returns, is doubled.  No doubled copy of an obstacle is made: the index
    doubles box ends as plain ints, and a frame doubles a hull's vertices
    when it builds that hull's tables.

    The index (``index``, a ``BoxIndex``) is built once, in identity
    coordinates, from each obstacle's own box: an obstacle's orthogonal
    hull has the same box, so no hull is needed for it.  It keeps every
    box's ends and the obstacles' sorted order along each signed axis.
    Every frame is one of the eight signed axis permutations, and its x and
    y each read one signed axis, so a frame reuses these lists unchanged
    and no box is ever mapped.  It is the solve's only box index:
    ``frontend.solve`` builds the world first and ``model.validate`` proves
    the boxes disjoint on the world's index.

    ``hull(i)`` is obstacle ``i``'s hull (the obstacle itself when it is
    orthogonally convex), built the first time a frame's tables read the
    obstacle and shared by all eight frames.  The cache holds at most eight
    ``FrameTables``.  A hull's ring and edge tables in a frame are built on
    the first query that reaches it, so a solve pays only for the hulls its
    traces, regions and x-case solves touch.  A sub-solve working in a frame
    of its own reads this cache through a ``FrameView`` instead of building
    a world of transformed hulls, so every middle solve of an instance
    shares the hulls, their tables and the traces memoised in the tables,
    keyed by their total frame, start point and ``x_stop``; each trace
    builds its ``StepCurve`` once, on first use of ``curve``, and that is
    the only curve of it: staircase regions and the x-case relaxation read
    the memoised ``curve`` in the trace's own frame.  Staircase regions are
    not memoised: a solve rarely asks for one region twice, so each request
    builds its own.

    Every caller receives the same memoised trace, so none may mutate a
    trace or a curve.  The memos live as long as the world, which a solve
    builds for itself; frames hold no reference back to the world, so
    reference counting alone frees it once the solve returns.
    """

    def __init__(self, obstacles: Sequence[RectPolygon]):
        obs = self.obstacles = tuple(obstacles)
        # hulled on first call; frames share it without holding the world
        hulls: dict[int, RectPolygon] = {}

        def hull(i: int) -> RectPolygon:
            got = hulls.get(i)
            if got is None:
                got = hulls[i] = rectilinear_convex_hull(obs[i])
            return got

        self.hull = hull
        self.index = BoxIndex(obs)
        self._frames: dict[Xform, FrameTables] = {}

    def frame(self, t: Xform) -> FrameTables:
        got = self._frames.get(t)
        if got is None:
            got = self._frames[t] = FrameTables(self, t)
        return got

    @property
    def traces_built(self) -> int:
        """Distinct traces computed so far, over all frames."""
        return sum([len(ft.traces) for ft in self._frames.values()])

    @property
    def hull_tables_built(self) -> int:
        """(frame, hull) table fills so far, over all frames."""
        return sum([ft.tables_built for ft in self._frames.values()])


class FrameView:
    """A world seen through a fixed frame ``base``, sharing its frame cache.

    ``view.frame(g)`` is ``world.frame(base.then(g))``: mapping a hull by
    ``base`` and then by ``g`` is mapping it by ``base.then(g)``.
    Everything in this module reads a world only through ``frame``, so a
    view stands in for a world of hulls transformed by ``base``.
    """

    def __init__(self, world: World, base: Xform):
        self.world = world
        self.base = base

    def frame(self, t: Xform) -> FrameTables:
        return self.world.frame(self.base.then(t))


@dataclass
class Trace:
    """An extreme monotone curve, in its own trace frame.

    From a start in no obstacle's open box, as every start of a solve is,
    the points rise weakly in both coordinates along the path.  A start
    inside an open box, west of the descending flank it meets, would step
    back west to the box wall: ``_trace_ru`` raises there instead.  Regions
    and the x-case relaxation map their queries into this frame and read
    the memoised ``curve``; no caller maps the points out.
    """

    points: list[Point]
    touched: list[int]     # indices of obstacles the curve climbed

    @cached_property
    def curve(self) -> StepCurve:
        """Step-function view of the points, built on first use."""
        return StepCurve(self.points)


def _first_block(polys: FrameTables, cur: Point, x_stop: int) -> Optional[tuple[int, int]]:
    """Nearest obstacle whose west flank blocks the eastward ray from cur.

    Returns (obstacle index, x of the blocking crossing) or None.  A flank
    through cur itself (``x == cur[0]``, the obstacle's interior just east)
    blocks too: the trace then stands against it.  A ray grazing an edge
    endpoint still passes when a boundary edge continues east from that
    corner (the ray rides it; obstacles are open), and blocks otherwise.
    Of two crossings at the same x the lower hull index wins.

    Candidates are read in frame-xlo order from the width window, and the
    scan stops at the first box whose xlo lies past the best crossing found
    so far, or at or past ``x_stop``: every crossing of a box lies at or
    east of its xlo.  A box that can hold cur on its west flank has
    ``xlo <= cx < xhi`` and ``ylo < cy < yhi``, so it is in the window and
    passes the box filter, and its flank at ``cx`` is least in ``(x, i)``.
    """
    cx, cy = cur
    keys, order = polys.keys, polys.order
    xhi, ylo, yhi = polys.xhi, polys.ylo, polys.yhi
    best: Optional[tuple[int, int]] = None
    for j in range(bisect.bisect_right(keys, cx - polys.width), len(keys)):
        xlo = keys[j]
        if xlo >= x_stop or (best is not None and xlo > best[1]):
            break
        i = order[j]
        if xhi[i] <= cx or ylo[i] >= cy or yhi[i] <= cy:
            continue
        fp = polys[i]
        for x, lo, hi in fp.west:
            if lo <= cy <= hi and cx <= x < x_stop \
                    and (x, cy) not in fp.east_horiz:
                if best is None or (x, i) < (best[1], best[0]):
                    best = (i, x)
    return best


def trace_ru(polys: FrameTables, start: Point, x_stop: int) -> Trace:
    """Extreme weakly-rising x-monotone curve from start to the x_stop wall.

    Memoised in the frame's tables: repeated requests get the same object.
    """
    key = (start, x_stop)
    got = polys.traces.get(key)
    if got is None:
        got = polys.traces[key] = _trace_ru(polys, start, x_stop)
    return got


def _trace_ru(polys: FrameTables, start: Point, x_stop: int) -> Trace:
    pts: list[Point] = [start]
    touched: list[int] = []
    cur = start
    guard = 4 * len(polys) + 8
    while cur[0] < x_stop and guard:
        guard -= 1
        blk = _first_block(polys, cur, x_stop)
        if blk is None:
            break
        idx, bx = blk
        fp = polys[idx]
        if cur[1] > fp.west_lo:
            # above the west wall's foot the ray meets the west wall or the
            # upper-left staircase, both on the hug: climb it from there
            via = (bx, cur[1])
        elif bx == cur[0]:
            # standing against the lower-left staircase: nothing weakly
            # rising and x-monotone leaves such a point
            raise GeometryError("trace stands against an impassable flank")
        else:
            # hit the descending lower-left staircase: no monotone passage
            # hugs the boundary there, so rise along the box west wall instead
            if fp.box.xlo < cur[0]:
                # only a point inside the box's open interior stands east
                # of its west wall here, and the wall lies behind it
                raise GeometryError("trace starts inside an obstacle's open box")
            via = (fp.box.xlo, cur[1])
        if via != cur:
            pts.append(via)
            cur = via
        touched.append(idx)
        for p in fp.hug:
            if p[1] > cur[1] or (p[1] == cur[1] and p[0] > cur[0]):
                pts.append(p)
        cur = pts[-1]
    if not guard:
        raise GeometryError("trace failed to make progress")
    if cur[0] < x_stop:
        pts.append((x_stop, cur[1]))
    return Trace(pts, touched)


# ---------------------------------------------------------------------------
# step-function views of traces

class StepCurve:
    """Monotone staircase as a queryable step function.

    Queries bisect the sorted points' xs or their prefix maximum of ys, so
    each costs O(log k).  ``max_x_to`` is exact only for a curve whose ys
    rise weakly with its xs, as every trace a solve makes does (see
    ``Trace``): then the points with y' <= y are a prefix of the sorted
    points.
    """

    def __init__(self, points: Sequence[Point]):
        pts = sorted(points)
        self.xs = [p[0] for p in pts]
        self._prefix_max = list(accumulate((p[1] for p in pts), max))

    def max_y_at(self, x: int) -> float:
        """Largest y among points with x' <= x (-inf if none)."""
        i = bisect.bisect_right(self.xs, x)
        return self._prefix_max[i - 1] if i else -INF

    def max_x_to(self, y: int) -> float:
        """Largest x among points with y' <= y (-inf if none), for a curve
        whose ys rise with its xs."""
        i = bisect.bisect_right(self._prefix_max, y)
        return self.xs[i - 1] if i else -INF


def _jump_xs(points: Sequence[Point], axis: int) -> set[int]:
    """Positions along ``axis`` of the runs of a polyline that keep that
    coordinate and change the other (its vertical runs for axis 0)."""
    other = 1 - axis
    return {a[axis] for a, b in zip(points, points[1:])
            if a[axis] == b[axis] and a[other] != b[other]}


# ---------------------------------------------------------------------------
# classification

def quadrant(s: Point, t: Point) -> Xform:
    """The axis flip that maps ``t`` weakly north-east of ``s``."""
    if t[0] >= s[0]:
        return IDENTITY if t[1] >= s[1] else FLIP_Y
    return FLIP_X if t[1] >= s[1] else FLIP_XY


def classify(world: World | FrameView, s: Point, t: Point) -> tuple[str, Xform]:
    """Which monotonicity case the pair falls into.

    Returns ("xy", f) or ("x", f): applying f maps the pair so that t is
    weakly north-east of s (xy) or so that every shortest path is x-monotone
    eastward (x).  The points must differ: ``s != t``.  An xy pair's f is
    its ``quadrant``, and an x pair's is the quadrant or the quadrant
    followed by ``SWAP``.
    """
    q = quadrant(s, t)
    sq, tq = q.apply(s), q.apply(t)

    ru = trace_ru(world.frame(q), sq, tq[0])
    if tq[1] < ru.curve.max_y_at(tq[0]):
        return ("x", q)

    g = q.then(SWAP)
    sg, tg = g.apply(s), g.apply(t)
    ur = trace_ru(world.frame(g), sg, tg[0])
    if tg[1] < ur.curve.max_y_at(tg[0]):
        # y-monotone: swap axes to express it as an eastward x-case
        return ("x", g)
    return ("xy", q)


def _region_trace(world: World | FrameView, frame: Xform, f: Xform,
                  start: Point, stop: Point) -> Trace:
    """The memoised trace of frame ``f`` within a region's ``frame``, from
    ``start`` to the wall through ``stop`` (both in region coordinates)."""
    return trace_ru(world.frame(frame.then(f)), f.apply(start), f.apply(stop)[0])


def ray_clear(world: World | FrameView, frame: Xform, f: Xform,
              start: Point, stop: Point) -> bool:
    """Whether the trace of frame ``f`` within a region's ``frame``, from
    ``start`` to the wall through ``stop`` (both in region coordinates),
    runs straight to that wall.

    That is its first step, one ``_first_block`` query, finding no block,
    since a block makes the trace climb above the ray.  So this builds no
    ``Trace``, no ``StepCurve`` and no climb chain.
    """
    return _first_block(world.frame(frame.then(f)), f.apply(start),
                        f.apply(stop)[0]) is None


def free_corners(world: World | FrameView, frame: Xform, s: Point, t: Point
                 ) -> list[Point]:
    """The corners, in world coordinates and in ascending order, of the
    two-link paths from ``s`` to ``t`` that meet no hull.

    ``frame`` must map t strictly north-east of s, as the pair's
    ``quadrant`` does for a pair that is not collinear.  There are two Ls:

    * east then north, through (tx, sy): free iff the ray east from s in
      trace frame ru meets no flank before the wall x = tx, and the ray
      south from t in trace frame dl none before the wall y = sy;
    * north then east, through (sx, ty): free iff the rays of ur from s and
      ld from t are clear to their walls.

    Each leg is one ``ray_clear`` query, on the trace a staircase region
    reads in that frame, and an L is tested only while its first leg is
    clear.  A free L is an xy-monotone path, so a pair with one classifies
    as ("xy", frame).
    """
    sq, tq = frame.apply(s), frame.apply(t)
    inv = frame.inverse()
    corners = []
    if ray_clear(world, frame, FRAME_RU, sq, tq) \
            and ray_clear(world, frame, FRAME_DL, tq, sq):
        corners.append(inv.apply((tq[0], sq[1])))
    if ray_clear(world, frame, FRAME_UR, sq, tq) \
            and ray_clear(world, frame, FRAME_LD, tq, sq):
        corners.append(inv.apply((sq[0], tq[1])))
    return sorted(corners)


# ---------------------------------------------------------------------------
# staircase regions and sweep events

class Event(NamedTuple):
    """One sweep event.  Ranges are inclusive baseline index pairs; a field
    an event does not use is None.

    ``build_staircase_region`` makes each event with
    ``tuple.__new__(Event, (x, kind, src, assign, assign_inf, chmin,
    deactivate))``, every field in order, so no NamedTuple ``__new__``
    runs.  The range ends that reach a neighbouring hole are section reads
    of the region build's sweep, which keeps baselines.
    """

    x: int
    kind: str
    src: Optional[tuple[int, int]]          # climb sources
    assign: Optional[tuple[int, int]]       # activate with v + 2
    assign_inf: Optional[tuple[int, int]]   # activate unreachable
    chmin: Optional[tuple[int, int]]        # fold v + 2 into actives
    deactivate: Optional[tuple[int, int]]


@dataclass
class StaircaseRegion:
    """Everything the baseline sweep needs, in canonical frame coordinates."""

    frame: Xform
    s: Point                      # frame coordinates
    t: Point
    baselines: list[int]          # ascending ys; first is y(s), last y(t)
    events: list[Event]           # sorted by x; first is the originate;
                                  # an event's id is its index here
    holes: list[int]              # world obstacle indices strictly inside

    @property
    def m(self) -> int:
        return len(self.baselines)




def build_staircase_region(world: World | FrameView, frame: Xform, s: Point, t: Point) -> StaircaseRegion:
    """Staircase region of an xy-monotone pair, with its sweep events.

    ``s`` and ``t`` are world points; the pair must classify as ("xy", frame).
    Each call builds a new region.

    The events east of s come from one sweep in x over steps: the envelope
    jumps, then each hole's vertical edges in ring order, sorted stably by
    x, so that at a shared x they keep that order.  A step that reads no
    section is its event already.  Each hole edge also changes that hole's
    entry in the y-ordered lists of the holes crossing the sweep line (see
    the module docstring).  A change that widens a section or takes a hole
    out (an nw or sw step, an east wall) is made before the reads at its x,
    and one that narrows a section or puts a hole in (an ne or se step, a
    west wall) after them, so every read at x sees the closed sections of
    the holes whose boxes cross x strictly.
    """
    sq, tq = frame.apply(s), frame.apply(t)
    sx, sy = sq
    tx, ty = tq
    # frame tables index hulls as the world does
    polys = world.frame(frame)
    xlo, xhi, ylo, yhi = polys.xlo, polys.xhi, polys.ylo, polys.yhi
    # the memoised traces, read in their own frames: in the region's, a
    # point (u, v) of ur is (v, u), of ld (-u, -v) and of dl (-v, -u)
    ur = _region_trace(world, frame, FRAME_UR, sq, tq)
    ld = _region_trace(world, frame, FRAME_LD, tq, sq)
    ru = _region_trace(world, frame, FRAME_RU, sq, tq)
    dl = _region_trace(world, frame, FRAME_DL, tq, sq)
    ur_x, ld_y = ur.curve.max_x_to, ld.curve.max_y_at
    ru_y, dl_x = ru.curve.max_y_at, dl.curve.max_x_to

    # the curves traced out of t run westward, so the value of one of their
    # vertical runs belongs to its west side; evaluate just east of x to get
    # the bound that holds on the column (x, x + 1)
    def top(x: int) -> int:
        return int(min(ur_x(x), -ld_y(-x - 1), ty))

    def bottom(x: int) -> int:
        return int(max(ru_y(x), -dl_x(-x - 1), sy))

    touched = set(ur.touched) | set(ld.touched) | set(ru.touched) | set(dl.touched)
    holes: list[int] = []
    # a hole's box lies strictly inside the strip, so its xlo is in (sx, tx)
    for i in polys.between(sx, tx):
        lo_y, hi_y = ylo[i], yhi[i]
        if i in touched or not (xhi[i] < tx and sy < lo_y and hi_y < ty):
            continue
        # the hull's least vertex lies on the box's west wall, at or above
        # ylo and below yhi: an envelope that misses that range rules the
        # box out without its tables
        x = xlo[i]
        lo, hi = bottom(x), top(x)
        if lo < hi_y and hi > lo_y and lo < polys[i].ring[0][1] < hi:
            holes.append(i)
    holes.sort()
    tables = [polys[h] for h in holes]

    ys = {sy, ty}
    # traces can overshoot the strip (the final hug keeps going past x_stop),
    # and outside [sx, tx) the opposite curve has no points, so the envelope
    # reads come back infinite; clamp the jump lists before using them
    top_jumps = sorted(x for x in _jump_xs(ur.points, 1)
                       | {-x for x in _jump_xs(ld.points, 0)} if sx <= x < tx)
    bot_jumps = sorted(x for x in _jump_xs(ru.points, 0)
                       | {-x for x in _jump_xs(dl.points, 1)} if sx <= x < tx)
    for x in top_jumps:
        ys.add(top(x))
        if x > sx:
            ys.add(top(x - 1))
    for x in bot_jumps:
        ys.add(bottom(x))
        if x > sx:
            ys.add(bottom(x - 1))
    ys.update([y for fp in tables for _, _, y in fp.horiz])
    baselines = sorted(y for y in ys if sy <= y <= ty)
    idx = {y: i for i, y in enumerate(baselines)}
    last = len(baselines) - 1

    # events are built positionally, skipping NamedTuple's __new__:
    # (x, kind, src, assign, assign_inf, chmin, deactivate)
    new = tuple.__new__
    events: list[Event] = [new(Event, (sx, "originate", None, (0, idx[top(sx)]),
                                       None, None, None))]
    # a hull wall can sit exactly on the source column; the bottom envelope
    # then rises at sx itself and everything below it is dead past the
    # originate climb
    first_bottom = bottom(sx)
    if first_bottom > sy:
        events.append(new(Event, (sx, "detach", None, None, None, None,
                                  (0, idx[first_bottom] - 1))))

    # the steps east of sx, each (x, kind, i1, i2), or its event where it
    # reads no section: i1 and i2 are the baselines of the envelope just
    # west of x and at x, or of a hole edge's lower and upper end
    steps: list[tuple] = []
    push = steps.append
    for x in top_jumps:
        if x == sx:
            continue
        y1, y2 = top(x - 1), top(x)
        if y1 != y2:
            push((x, "attach", idx[y1], idx[y2]))
    for x in bot_jumps:
        if x <= sx:
            continue  # the climb into t is the terminate readout, not an event
        y1, y2 = bottom(x - 1), bottom(x)
        if y1 != y2:
            push((x, "detach", idx[y1], idx[y2]))
    # each hole edge's change, as (key, end, old, new): key 2x before the
    # reads at x, 2x + 1 after them; end 0 moves a top from old to new, 1 a
    # bottom, 2 puts the hole in with section (old, new) and 3 takes out
    # the hole whose bottom is old
    changes: list[tuple[int, int, int, int]] = []
    change = changes.append
    for fp in tables:
        whi, bxlo, bxhi = fp.west_hi, fp.box.xlo, fp.box.xhi
        # the ring runs counterclockwise from the west wall's foot, so of the
        # east-facing edges, those below the east wall come before it and
        # those above it after
        above_east = False
        for x, lo, hi, west_facing in fp.vertical:
            i1, i2 = idx[lo], idx[hi]
            if west_facing:
                if x == bxlo:
                    push((x, "split", i1, i2))
                    change((2 * x + 1, 2, i1, i2))
                elif lo >= whi:      # upper-left staircase: the top rises
                    push((x, "nw_step", i1, i2))
                    change((2 * x, 0, i1, i2))
                else:                # lower-left staircase: the bottom drops
                    push(new(Event, (x, "sw_step", None, None, None, None,
                                     (i1 + 1, i2))))
                    change((2 * x, 1, i2, i1))
            elif x == bxhi:
                push((x, "merge", i1, i2))
                change((2 * x, 3, i1, i2))
                above_east = True
            elif above_east:         # upper-right staircase: the top drops
                push(new(Event, (x, "ne_step", None, None, (i1, i2 - 1),
                                 None, None)))
                change((2 * x + 1, 0, i2, i1))
            else:                    # lower-right staircase: the bottom rises
                push((x, "se_step", i1, i2))
                change((2 * x + 1, 1, i1, i2))
    first = itemgetter(0)
    steps.sort(key=first)
    changes.sort(key=first)
    changes.append((INF, 0, 0, 0))

    # the holes crossing the sweep line, bottom up, as their sections'
    # baselines, both ends strictly rising, between two ends that no hole
    # has: the first top (0) and the last bottom (last) are what a read
    # returns where no hole gives one, and the other two are never read
    tops, bots = [0, INF], [-1, last]
    right, left = bisect.bisect_right, bisect.bisect_left
    add = events.append
    k = 0
    due = changes[0][0]
    for step in steps:
        x = step[0]
        while due <= 2 * x:
            _, end, old, to = changes[k]
            if end == 0:
                tops[left(tops, old)] = to
            elif end == 1:
                bots[left(bots, old)] = to
            elif end == 2:
                j = left(bots, old)
                bots.insert(j, old)
                tops.insert(j, to)
            else:
                j = left(bots, old)
                del bots[j], tops[j]
            k += 1
            due = changes[k][0]
        if type(step) is Event:
            add(step)
            continue
        _, kind, i1, i2 = step
        if kind == "nw_step":
            add(new(Event, (x, kind, (i1, i2 - 1), None, None,
                            (i2, bots[left(bots, i2)]), (i1, i2 - 1))))
        elif kind == "se_step" or kind == "attach":
            add(new(Event, (x, kind, (tops[right(tops, i1) - 1], i1),
                            (i1 + 1, i2), None, None, None)))
        elif kind == "split":
            add(new(Event, (x, kind, (tops[right(tops, i1) - 1], i2 - 1), None,
                            None, (i2, bots[left(bots, i2)]), (i1 + 1, i2 - 1))))
        elif kind == "merge":
            add(new(Event, (x, kind, (tops[right(tops, i1) - 1], i1),
                            (i1 + 1, i2 - 1), None, (i2, bots[left(bots, i2)]),
                            None)))
        else:                        # a detach
            low = tops[right(tops, i2) - 1]
            add(new(Event, (x, kind, (max(i1, low), i2 - 1), None, None,
                            (i2, bots[left(bots, i2)]), (i1, i2 - 1))))
    return StaircaseRegion(frame=frame, s=sq, t=tq, baselines=baselines,
                           events=events, holes=holes)
