"""Linear scans that the indexed hull queries replaced, kept as references.

Each function visits every hull of a frame in hull order, as the package
did before ``partition.World`` kept a box index: the two blocking scans
of a trace step (``blocking`` composes them into the step's one query),
the hole sections of a region event (and the nearest section
ends that an event reads from them, with ``baseline_ends`` giving those
ends as the event's baselines), a region's hole selection and the
midpoint enumeration of an x-case solve.  They read the frame's
boxes from ``FrameTables`` and a hull's edge tables through ``polys[i]``,
so a reference builds the tables of exactly the hulls the old scan read.
``tests/test_index.py`` checks the indexed queries against them.

``trace_path`` is the mapped copy of a memoised trace that the region
build once read: the trace's points mapped back into the caller's frame.
``region_holes`` reads its envelopes from such copies, through fresh
``StepCurve``s and a scan, so it shares nothing with the package's reading
of the traces in their own frames.
"""
from rectlink.partition import TRACE_FRAMES, FrameView, StepCurve, Trace, trace_ru

INF = float("inf")


def trace_path(world, mode, start, stop):
    """One of the eight extreme monotone paths, in the coordinates that
    ``world`` is read in (a view's own frame for a ``FrameView``).

    The trace runs until the primary coordinate reaches the matching
    coordinate of ``stop``; its points are a new list, mapped out of the
    trace frame, and the memoised trace is left as it was.
    """
    f = TRACE_FRAMES[mode]
    t = trace_ru(world.frame(f), f.apply(start), f.apply(stop)[0])
    inv = f.inverse()
    return Trace([inv.apply(p) for p in t.points], t.touched)


def first_block(polys, cur, x_stop):
    cx, cy = cur
    best = None
    for i in range(len(polys)):
        if polys.xhi[i] <= cx or polys.ylo[i] >= cy or polys.yhi[i] <= cy:
            continue
        fp = polys[i]
        for x, lo, hi in fp.west:
            if lo <= cy <= hi and cx < x < x_stop \
                    and (x, cy) not in fp.east_horiz:
                if best is None or x < best[1]:
                    best = (i, x)
    return best


def standing_block(polys, cur):
    cx, cy = cur
    for i in range(len(polys)):
        if not (polys.xlo[i] <= cx < polys.xhi[i]
                and polys.ylo[i] < cy < polys.yhi[i]):
            continue
        fp = polys[i]
        for x, lo, hi in fp.west:
            if x == cx and lo <= cy <= hi \
                    and (cx, cy) not in fp.east_horiz:
                return i
    return None


def blocking(polys, cur, x_stop):
    """The one blocking query a trace step makes: the flank ``cur`` stands
    on, as ``(hull, cx)``, when ``cx < x_stop`` and ``standing_block`` finds
    one, else ``first_block``'s crossing strictly east of ``cur``."""
    if cur[0] < x_stop:
        i = standing_block(polys, cur)
        if i is not None:
            return i, cur[0]
    return first_block(polys, cur, x_stop)


def hole_sections(polys, holes, x, skip=None):
    out = []
    for hi in holes:
        if hi == skip:
            continue
        if not (polys.xlo[hi] < x < polys.xhi[hi]):
            continue
        ys = [y for xlo, xhi, y in polys[hi].horiz if xlo <= x <= xhi]
        out.append((min(ys), max(ys)))
    return out


def nearest_ends(sections, y_lo, y_hi):
    """The highest section top at or below ``y_lo`` and the lowest section
    bottom at or above ``y_hi`` (None where there is none), read from the
    full list of ``(bottom, top)`` sections as the region build once did."""
    return (max((top for _, top in sections if top <= y_lo), default=None),
            min((bottom for bottom, _ in sections if bottom >= y_hi), default=None))


def baseline_ends(idx, ends):
    """``nearest_ends``' answer as the region build's section read gives it:
    each end's baseline by ``idx``, with 0 for no top and the last baseline
    for no bottom."""
    top, bottom = ends
    return (0 if top is None else idx[top],
            len(idx) - 1 if bottom is None else idx[bottom])


def region_holes(world, frame, sq, tq):
    """Holes of the staircase region of frame points ``sq`` and ``tq``:
    hulls strictly inside the strip box, climbed by none of the four
    boundary traces, whose least vertex lies strictly between the region's
    bottom and top envelopes."""
    (sx, sy), (tx, ty) = sq, tq
    view = FrameView(world, frame)
    ur = trace_path(view, "ur", sq, tq)
    ld = trace_path(view, "ld", tq, sq)
    ru = trace_path(view, "ru", sq, tq)
    dl = trace_path(view, "dl", tq, sq)
    upper_s, lower_s = StepCurve(ur.points), StepCurve(ru.points)

    def min_y_from(points, x):
        return min((py for px, py in points if px >= x), default=INF)

    def top(x):
        return min(upper_s.max_y_at(x), min_y_from(ld.points, x + 1), ty)

    def bottom(x):
        return max(lower_s.max_y_at(x), min_y_from(dl.points, x + 1), sy)

    touched = set(ur.touched) | set(ld.touched) | set(ru.touched) | set(dl.touched)
    polys = world.frame(frame)
    holes = []
    for i in range(len(polys)):
        if i in touched:
            continue
        if not (sx < polys.xlo[i] and polys.xhi[i] < tx
                and sy < polys.ylo[i] and polys.yhi[i] < ty):
            continue
        vx, vy = polys[i].ring[0]
        if bottom(vx) < vy < top(vx):
            holes.append(i)
    return holes


def midpoints(polys, sx, tx):
    """(point, hull, side) of every x-case midpoint node in the strip, in
    the order ``composer.solve_x_case`` relaxes them."""
    nodes = []
    for i in range(len(polys)):
        if polys.xhi[i] <= sx or polys.xlo[i] >= tx:
            continue
        fp = polys[i]
        box = fp.box
        tops = [e for e in fp.horiz if e[2] == box.yhi]
        bots = [e for e in fp.horiz if e[2] == box.ylo]
        for lo_x, hi_x, y in tops + bots:
            mx = (lo_x + hi_x) // 2
            if (lo_x + hi_x) % 2 or lo_x < sx or hi_x > tx or not sx < mx < tx:
                continue
            side = "top" if y == box.yhi else "bot"
            nodes.append(((mx, y), i, side))
    nodes.sort(key=lambda nd: nd[0])
    return nodes
