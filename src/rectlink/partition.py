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
onto, so no box is mapped per frame.  The queries a trace step, a region
event or an x-case solve makes about the obstacles bisect the frame's xlo
order and read only a window of it: a box whose xlo is at most x minus the
widest box's width ends at or before x.  An obstacle is hulled the first
time a frame reads it, and a hull's ring and edge tables in a frame are
built when a query first reaches it, so a solve pays only for the hulls
its traces and regions touch.  Frame tables hold the world's hulls but no
reference back to the world.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate
from typing import Optional, Sequence

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
    """One hull as seen in a trace frame, with its climb chain ready.

    Built from the hull's vertex tuples, in instance coordinates, and the
    hull's doubled box in frame coordinates, which the frame reads from the
    world's index: each vertex ``v`` becomes ``t.apply(2v)``, the ring is
    reversed on a reflection (which turns it clockwise) and rotated to its
    least vertex, which is the ring ``RectPolygon`` of the mapped vertices
    would hold (doubling keeps orientation and the least vertex).  A frame
    builds one only when a query first reaches its hull (see
    ``FrameTables``), so most hulls of a frame never get one.

    The edge tables list edges in ring order as plain tuples, so the
    per-event and per-step scans build no segment objects.
    """

    __slots__ = ("box", "ring", "west_lo", "west_hi", "hug", "east_horiz",
                 "hug_xs", "west", "horiz")

    box: Rect
    ring: tuple[Point, ...]  # counterclockwise, from the least vertex
    west_lo: int          # y-range of the vertical edge on the box west wall
    west_hi: int
    hug: list[Point]      # west-side bottom up to the left end of the top side
    east_horiz: frozenset[Point]  # west ends of horizontal edges
    hug_xs: frozenset[int]        # x of vertical steps in hug
    west: list[tuple[int, int, int]]   # west-facing vertical edges (x, lo, hi)
    horiz: list[tuple[int, int, int]]  # horizontal edges (xlo, xhi, y)

    def __init__(self, hull: RectPolygon, t: Xform, box: Rect):
        self.box = box
        a, b, c, d = 2 * t.a, 2 * t.b, 2 * t.c, 2 * t.d
        vs = [(a * x + b * y, c * x + d * y) for x, y in hull.vertices]
        if t.a * t.d - t.b * t.c < 0:
            vs.reverse()
        k = vs.index(min(vs))
        vs = vs[k:] + vs[:k]
        west: list[tuple[int, int, int]] = []
        horiz: list[tuple[int, int, int]] = []
        for (ax, ay), (bx, by) in zip(vs, vs[1:] + vs[:1]):
            if ax == bx:
                if by < ay:           # runs downwards: west-facing
                    west.append((ax, by, ay))
            elif ax < bx:
                horiz.append((ax, bx, ay))
            else:
                horiz.append((bx, ax, ay))
        side = [(lo, hi) for x, lo, hi in west if x == box.xlo]
        if not side:
            raise GeometryError("polygon does not touch the west wall of its box")
        wlo, whi = side[0]
        hug = _build_hug(vs, box, wlo, whi)
        self.ring = tuple(vs)
        self.west_lo, self.west_hi = wlo, whi
        self.hug = hug
        self.hug_xs = frozenset(a[0] for a, b in zip(hug, hug[1:]) if a[0] == b[0])
        self.east_horiz = frozenset([(xlo, y) for xlo, _, y in horiz])
        self.west = west
        self.horiz = horiz


def _build_hug(verts: Sequence[Point], box: Rect, wlo: int, whi: int) -> list[Point]:
    """Boundary corners from the west-side bottom to the top side's left end.

    ``wlo``..``whi`` is the polygon's edge on the west wall of its box.
    Valid for orthogonally convex polygons, whose upper-left boundary is a
    staircase rising to the east.
    """
    n = len(verts)
    start = verts.index((box.xlo, wlo))
    # walk towards (box.xlo, whi) first; ring orientation decides the step
    step = 1 if verts[(start + 1) % n] == (box.xlo, whi) else -1
    chain = [(box.xlo, wlo)]
    i = start
    while chain[-1][1] < box.yhi:
        i = (i + step) % n
        chain.append(verts[i])
    # chain now ends at the first vertex on the top wall: the top side's
    # left end, since the staircase rises monotonely
    return chain


def _axis(a: int, b: int) -> int:
    """Which signed axis the frame coordinate ``a*x + b*y`` reads: 0 for +x,
    1 for -x, 2 for +y, 3 for -y (so ``k ^ 1`` is the opposite axis)."""
    if a:
        return 0 if a > 0 else 1
    return 2 if b > 0 else 3


class FrameTables:
    """The hulls as seen in one frame, plus that frame's memos.

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
    returned for it in this frame.  ``regions`` maps ``(q, s, t)`` to the
    ``StaircaseRegion`` that ``build_staircase_region`` returned, where
    ``q`` is the frame the caller passed (relative to its view) and ``s``
    and ``t`` are the pair's frame coordinates.
    """

    def __init__(self, world: World, t: Xform):
        xa, ya = _axis(t.a, t.b), _axis(t.c, t.d)
        self.xlo, self.xhi = world.lows[xa], world.highs[xa]
        self.ylo, self.yhi = world.lows[ya], world.highs[ya]
        self.order, self.keys = world.orders[xa], world.keys[xa]
        self.width = world.widths[xa >> 1]
        self._hull = world.hull
        self._t = t
        self._polys: dict[int, _FramePoly] = {}
        self.traces: dict[tuple[Point, int], Trace] = {}
        self.regions: dict[tuple[Xform, Point, Point], StaircaseRegion] = {}

    def __len__(self) -> int:
        return len(self.xlo)

    def __getitem__(self, i: int) -> _FramePoly:
        fp = self._polys.get(i)
        if fp is None:
            box = Rect(self.xlo[i], self.ylo[i], self.xhi[i], self.yhi[i])
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

    The index is built once, in identity coordinates, from each obstacle's
    own box: an obstacle's orthogonal hull has the same box, so no hull is
    needed for it.  For each signed axis (+x, -x, +y, -y) it keeps, as plain
    int lists in obstacle order, every box's low and high end along that
    axis (``lows`` and ``highs``; the -x lows are the negated xhi), the
    obstacles sorted by that low end, ties by index (``orders``, with the
    sorted lows in ``keys``), and the widest box along the x and the y axis
    (``widths``).  Every frame is one of the eight signed axis permutations,
    and its x and y each read one signed axis, so a frame reuses these
    lists unchanged and no box is ever mapped.

    ``hull(i)`` is obstacle ``i``'s hull (the obstacle itself when it is
    orthogonally convex), built the first time a frame's tables read the
    obstacle and shared by all eight frames.  The cache holds at most eight
    ``FrameTables``.  A hull's ring and edge tables in a frame are built on
    the first query that reaches it, so a solve pays only for the hulls its
    traces, regions and x-case solves touch.  A sub-solve working in a frame
    of its own reads this cache through a ``FrameView`` instead of building
    a world of transformed hulls, so every middle solve of an instance
    shares the work memoised in the tables:

    * traces, keyed by their total frame, start point and ``x_stop``; each
      trace builds its ``StepCurve`` once, on first use of ``curve``;
    * staircase regions, keyed by their total frame, the view-relative
      frame ``q`` stored in ``StaircaseRegion.frame``, and the endpoints in
      frame coordinates.

    Every caller receives the same memoised object, so none may mutate a
    trace, a curve or a region: a sweep keeps its state in its own store.
    The memos live as long as the world, which a solve builds for itself;
    frames hold no reference back to the world, so reference counting alone
    frees it once the solve returns.
    """

    def __init__(self, obstacles: Sequence[RectPolygon]):
        obs = self.obstacles = tuple(obstacles)
        # hulled on first call; frames share it without holding the world
        self.hull = cache(lambda i: rectilinear_convex_hull(obs[i]))
        boxes = [o.bbox for o in obs]
        xlo, xhi = [2 * b.xlo for b in boxes], [2 * b.xhi for b in boxes]
        ylo, yhi = [2 * b.ylo for b in boxes], [2 * b.yhi for b in boxes]
        self.lows = (xlo, [-v for v in xhi], ylo, [-v for v in yhi])
        self.highs = (xhi, [-v for v in xlo], yhi, [-v for v in ylo])
        self.orders = tuple(sorted(range(len(boxes)), key=lo.__getitem__)
                            for lo in self.lows)
        self.keys = tuple([lo[i] for i in order]
                          for lo, order in zip(self.lows, self.orders))
        self.widths = (max(map(int.__sub__, xhi, xlo), default=0),
                       max(map(int.__sub__, yhi, ylo), default=0))
        self._frames: dict[Xform, FrameTables] = {}

    def frame(self, t: Xform) -> FrameTables:
        got = self._frames.get(t)
        if got is None:
            got = self._frames[t] = FrameTables(self, t)
        return got

    @property
    def traces_built(self) -> int:
        """Distinct traces computed so far, over all frames."""
        return sum(len(ft.traces) for ft in self._frames.values())

    @property
    def regions_built(self) -> int:
        """Distinct staircase regions built so far, over all frames."""
        return sum(len(ft.regions) for ft in self._frames.values())

    @property
    def hull_tables_built(self) -> int:
        """(frame, hull) table fills so far, over all frames."""
        return sum(ft.tables_built for ft in self._frames.values())


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
    """An extreme monotone curve in frame coordinates."""

    points: list[Point]
    touched: list[int]     # indices of obstacles the curve climbed

    @cached_property
    def curve(self) -> StepCurve:
        """Step-function view of the points, built on first use."""
        return StepCurve(self.points)


def _first_block(polys: FrameTables, cur: Point, x_stop: int) -> Optional[tuple[int, int]]:
    """Nearest obstacle whose west flank blocks the eastward ray from cur.

    Returns (obstacle index, x of the blocking crossing) or None.  A ray
    grazing an edge endpoint still passes when a boundary edge continues
    east from that corner (the ray rides it; obstacles are open), and
    blocks otherwise.  Of two crossings at the same x the lower hull index
    wins.

    Candidates are read in frame-xlo order from the width window, and the
    scan stops at the first box whose xlo lies past the best crossing found
    so far, or at or past ``x_stop``: every crossing of a box lies at or
    east of its xlo.
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
            if lo <= cy <= hi and cx < x < x_stop \
                    and (x, cy) not in fp.east_horiz:
                if best is None or (x, i) < (best[1], best[0]):
                    best = (i, x)
    return best


def _standing_block(polys: FrameTables, cur: Point) -> Optional[int]:
    """Obstacle whose west flank passes through cur with interior just east.

    The boxes that can hold cur on their west flank or inside have xlo in
    the width window ``(cx - width, cx]``; they are tried in hull order, so
    the lowest index wins and no box past the answer is read.
    """
    cx, cy = cur
    xhi, ylo, yhi = polys.xhi, polys.ylo, polys.yhi
    boxed = sorted(i for i in polys.between(cx - polys.width, cx + 1)
                   if cx < xhi[i] and ylo[i] < cy < yhi[i])
    for i in boxed:
        fp = polys[i]
        for x, lo, hi in fp.west:
            if x == cx and lo <= cy <= hi \
                    and (cx, cy) not in fp.east_horiz:
                return i
    return None


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
        idx = _standing_block(polys, cur)
        via: Optional[Point] = None
        if idx is None:
            blk = _first_block(polys, cur, x_stop)
            if blk is None:
                break
            idx, bx = blk
            fp = polys[idx]
            if bx not in fp.hug_xs:
                # hit the descending lower-left staircase: no monotone
                # passage hugs the boundary there, so rise along the box
                # west wall instead
                via = (fp.box.xlo, cur[1])
            else:
                via = (bx, cur[1])
        fp = polys[idx]
        if via is None and cur[0] not in fp.hug_xs:
            # standing against the lower-left staircase: nothing weakly
            # rising and x-monotone leaves such a point
            raise GeometryError("trace stands against an impassable flank")
        if via is not None and via != cur:
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


def trace_path(world: World | FrameView, mode: str, start: Point, stop: Point) -> Trace:
    """One of the eight extreme monotone paths, in the coordinates that
    ``world`` is read in (a view's own frame for a ``FrameView``).

    The trace runs until the primary coordinate reaches the matching
    coordinate of ``stop``.
    """
    f = TRACE_FRAMES[mode]
    fstart = f.apply(start)
    fstop = f.apply(stop)[0]
    t = trace_ru(world.frame(f), fstart, fstop)
    inv = f.inverse()
    return Trace([inv.apply(p) for p in t.points], t.touched)


# ---------------------------------------------------------------------------
# step-function views of traces

class StepCurve:
    """Monotone staircase as a queryable step function of x.

    Queries bisect the sorted xs into a prefix maximum or a suffix minimum
    of the ys, so each costs O(log k).
    """

    def __init__(self, points: Sequence[Point]):
        pts = sorted(points)
        self.xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        self._prefix_max = list(accumulate(ys, max))
        self._suffix_min = list(accumulate(reversed(ys), min))[::-1]

    def max_y_at(self, x: int) -> float:
        """Largest y among points with x' <= x (-inf if none)."""
        i = bisect.bisect_right(self.xs, x)
        return self._prefix_max[i - 1] if i else -INF

    def min_y_from(self, x: int) -> float:
        """Smallest y among points with x' >= x (+inf if none)."""
        i = bisect.bisect_left(self.xs, x)
        return self._suffix_min[i] if i < len(self.xs) else INF


def _jump_xs(curve_points: Sequence[Point]) -> list[int]:
    """x positions of the vertical runs of a polyline."""
    out = []
    for a, b in zip(curve_points, curve_points[1:]):
        if a[0] == b[0] and a[1] != b[1]:
            out.append(a[0])
    return sorted(set(out))


# ---------------------------------------------------------------------------
# classification

def classify(world: World | FrameView, s: Point, t: Point) -> tuple[str, Xform]:
    """Which monotonicity case the pair falls into.

    Returns ("same", I), ("xy", f) or ("x", f): applying f maps the pair so
    that t is weakly north-east of s (xy) or so that every shortest path is
    x-monotone eastward (x).
    """
    dx, dy = t[0] - s[0], t[1] - s[1]
    if dx == 0 and dy == 0:
        return ("same", IDENTITY)
    if dx >= 0:
        q = IDENTITY if dy >= 0 else FLIP_Y
    else:
        q = FLIP_X if dy >= 0 else FLIP_XY
    sq, tq = q.apply(s), q.apply(t)

    ru = trace_ru(world.frame(q), sq, tq[0])
    if tq[1] < ru.curve.max_y_at(tq[0]):
        return ("x", q)

    g = q.then(SWAP)
    ur = trace_ru(world.frame(g), g.apply(s), g.apply(t)[0])
    if g.apply(t)[1] < ur.curve.max_y_at(g.apply(t)[0]):
        # y-monotone: swap axes to express it as an eastward x-case
        return ("x", g)
    return ("xy", q)


# ---------------------------------------------------------------------------
# staircase regions and sweep events

@dataclass(frozen=True)
class Event:
    """One sweep event.  Ranges are inclusive baseline index pairs."""

    x: int
    kind: str
    src: Optional[tuple[int, int]] = None          # climb sources
    assign: Optional[tuple[int, int]] = None       # activate with v + 2
    assign_inf: Optional[tuple[int, int]] = None   # activate unreachable
    chmin: Optional[tuple[int, int]] = None        # fold v + 2 into actives
    deactivate: Optional[tuple[int, int]] = None


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


def _hole_index(polys: FrameTables, holes: list[int]) -> tuple[list[int], list[int], int]:
    """A region's holes (given in hull order) sorted by frame xlo, ties by
    index; their xlos; and the widest hole's width, for ``_hole_sections``."""
    by_x = sorted(holes, key=polys.xlo.__getitem__)
    return (by_x, [polys.xlo[h] for h in by_x],
            max((polys.xhi[h] - polys.xlo[h] for h in holes), default=0))


def _hole_sections(polys: FrameTables, index: tuple[list[int], list[int], int],
                   x: int, skip: Optional[int] = None) -> list[tuple[int, int]]:
    """Open y-intervals of hole interiors crossing the vertical line x.

    ``polys`` is the world in the region's frame and ``index`` is
    ``_hole_index`` of the region's holes.  Only holes with xlo in the width
    window ``(x - width, x)`` can cross x; the sections come in hull order.
    """
    by_x, xlos, width = index
    xhi = polys.xhi
    crossing = sorted(h for h in by_x[bisect.bisect_right(xlos, x - width):
                                      bisect.bisect_left(xlos, x)]
                      if h != skip and x < xhi[h])
    out = []
    for h in crossing:
        ys = [y for xlo, xhi2, y in polys[h].horiz if xlo <= x <= xhi2]
        out.append((min(ys), max(ys)))
    return out


def build_staircase_region(world: World | FrameView, frame: Xform, s: Point, t: Point) -> StaircaseRegion:
    """Staircase region of an xy-monotone pair, with its sweep events.

    ``s`` and ``t`` are world points; the pair must classify as ("xy", frame).
    Memoised in the world's tables for ``frame``: repeated requests get the
    same object.
    """
    sq, tq = frame.apply(s), frame.apply(t)
    # frame tables index hulls as the world does
    polys = world.frame(frame)
    key = (frame, sq, tq)
    got = polys.regions.get(key)
    if got is None:
        got = polys.regions[key] = _build_region(world, polys, frame, sq, tq)
    return got


def _build_region(world: World | FrameView, polys: FrameTables,
                  frame: Xform, sq: Point, tq: Point) -> StaircaseRegion:
    sx, sy = sq
    tx, ty = tq
    view = FrameView(world, frame)
    ur = trace_path(view, "ur", sq, tq)
    ld = trace_path(view, "ld", tq, sq)
    ru = trace_path(view, "ru", sq, tq)
    dl = trace_path(view, "dl", tq, sq)

    upper_s = StepCurve(ur.points)
    upper_t = StepCurve(ld.points)
    lower_s = StepCurve(ru.points)
    lower_t = StepCurve(dl.points)

    # the curves traced out of t run westward, so the value of one of their
    # vertical runs belongs to its west side; evaluate just east of x to get
    # the bound that holds on the column (x, x + 1)
    def top(x: int) -> int:
        return int(min(upper_s.max_y_at(x), upper_t.min_y_from(x + 1), ty))

    def top_w(x: int) -> int:
        return int(min(upper_s.max_y_at(x - 1), upper_t.min_y_from(x), ty))

    def bottom(x: int) -> int:
        return int(max(lower_s.max_y_at(x), lower_t.min_y_from(x + 1), sy))

    def bottom_w(x: int) -> int:
        return int(max(lower_s.max_y_at(x - 1), lower_t.min_y_from(x), sy))

    touched = set(ur.touched) | set(ld.touched) | set(ru.touched) | set(dl.touched)
    holes: list[int] = []
    # a hole's box lies strictly inside the strip, so its xlo is in (sx, tx)
    for i in polys.between(sx, tx):
        if i in touched or not (polys.xhi[i] < tx and sy < polys.ylo[i]
                                and polys.yhi[i] < ty):
            continue
        vx, vy = polys[i].ring[0]
        if bottom(vx) < vy < top(vx):
            holes.append(i)
    holes.sort()
    hole_index = _hole_index(polys, holes)

    ys = {sy, ty}
    # traces can overshoot the strip (the final hug keeps going past x_stop),
    # and outside [sx, tx) the opposite curve has no points, so the envelope
    # reads come back infinite; clamp the jump lists before using them
    top_jumps = sorted(x for x in set(_jump_xs(ur.points) + _jump_xs(ld.points))
                       if sx <= x < tx)
    bot_jumps = sorted(x for x in set(_jump_xs(ru.points) + _jump_xs(dl.points))
                       if sx <= x < tx)
    for x in top_jumps:
        ys.add(top(x))
        if x > sx:
            ys.add(top_w(x))
    for x in bot_jumps:
        ys.add(bottom(x))
        if x > sx:
            ys.add(bottom_w(x))
    for hi in holes:
        ys.update(y for _, _, y in polys[hi].horiz)
    baselines = sorted(y for y in ys if sy <= y <= ty)
    idx = {y: i for i, y in enumerate(baselines)}
    m = len(baselines)

    # most events ask for the sections of one (x, skip) twice, once for
    # their source range and once for their chmin range
    @cache
    def sections(x: int, skip: Optional[int]) -> list[tuple[int, int]]:
        return _hole_sections(polys, hole_index, x, skip)

    def low_src(x: int, y_ref: int, skip: Optional[int]) -> int:
        blocked = sections(x, skip)
        t_star = max((hi2 for (lo2, hi2) in blocked if hi2 <= y_ref), default=None)
        if t_star is None:
            return 0
        return bisect.bisect_left(baselines, t_star)

    def high_dst(x: int, y_ref: int, skip: Optional[int]) -> int:
        blocked = sections(x, skip)
        b_star = min((lo2 for (lo2, hi2) in blocked if lo2 >= y_ref), default=None)
        if b_star is None:
            return m - 1
        return bisect.bisect_right(baselines, b_star) - 1

    events: list[Event] = []
    originate_top = idx[top(sx)]
    events.append(Event(x=sx, kind="originate", assign=(0, originate_top)))
    # a hull wall can sit exactly on the source column; the bottom envelope
    # then rises at sx itself and everything below it is dead past the
    # originate climb
    first_bottom = bottom(sx)
    if first_bottom > sy:
        events.append(Event(x=sx, kind="detach",
                            deactivate=(0, idx[first_bottom] - 1)))

    for x in top_jumps:
        if x == sx:
            continue
        y1, y2 = top_w(x), top(x)
        if y1 == y2:
            continue
        events.append(Event(
            x=x, kind="attach",
            src=(low_src(x, y1, None), idx[y1]),
            assign=(idx[y1] + 1, idx[y2]),
        ))
    for x in bot_jumps:
        if x <= sx:
            continue  # the climb into t is the terminate readout, not an event
        y1, y2 = bottom_w(x), bottom(x)
        if y1 == y2:
            continue
        events.append(Event(
            x=x, kind="detach",
            src=(max(idx[y1], low_src(x, y2, None)), idx[y2] - 1),
            chmin=(idx[y2], high_dst(x, y2, None)),
            deactivate=(idx[y1], idx[y2] - 1),
        ))

    for hi in holes:
        fp = polys[hi]
        ring, box, wlo, whi = fp.ring, fp.box, fp.west_lo, fp.west_hi
        # vertical edges (x, y from, y to) in ring order; the ring is
        # counterclockwise, so the west-facing ones run downwards
        vertical = [(ax, ay, by) for (ax, ay), (bx, by)
                    in zip(ring, ring[1:] + ring[:1]) if ax == bx]
        elo, ehi = next(sorted((y0, y1)) for x, y0, y1 in vertical
                        if x == box.xhi)
        for x, y0, y1 in vertical:
            lo, hi2 = sorted((y0, y1))
            if y1 < y0:
                if x == box.xlo:
                    events.append(Event(
                        x=x, kind="split",
                        src=(low_src(x, wlo, hi), idx[whi] - 1),
                        chmin=(idx[whi], high_dst(x, whi, hi)),
                        deactivate=(idx[wlo] + 1, idx[whi] - 1),
                    ))
                elif lo >= whi:      # upper-left staircase: the top rises
                    events.append(Event(
                        x=x, kind="nw_step",
                        src=(idx[lo], idx[hi2] - 1),
                        chmin=(idx[hi2], high_dst(x, hi2, hi)),
                        deactivate=(idx[lo], idx[hi2] - 1),
                    ))
                else:                # lower-left staircase: the bottom drops
                    events.append(Event(
                        x=x, kind="sw_step",
                        deactivate=(idx[lo] + 1, idx[hi2]),
                    ))
            else:
                if x == box.xhi:
                    events.append(Event(
                        x=x, kind="merge",
                        src=(low_src(x, elo, hi), idx[elo]),
                        assign=(idx[elo] + 1, idx[ehi] - 1),
                        chmin=(idx[ehi], high_dst(x, ehi, hi)),
                    ))
                elif lo >= ehi:      # upper-right staircase: the top drops
                    events.append(Event(
                        x=x, kind="ne_step",
                        assign_inf=(idx[lo], idx[hi2] - 1),
                    ))
                else:                # lower-right staircase: the bottom rises
                    events.append(Event(
                        x=x, kind="se_step",
                        src=(low_src(x, lo, hi), idx[lo]),
                        assign=(idx[lo] + 1, idx[hi2]),
                    ))

    events.sort(key=lambda e: (e.x, e.kind != "originate"))
    return StaircaseRegion(frame=frame, s=sq, t=tq, baselines=baselines,
                           events=events, holes=holes)
