"""The staircase-region build as it was before its section reads ran in a
closure of the build, kept as a reference.

``build_staircase_region`` here calls ``_nearest_sections`` through a
``near`` wrapper for every section read, reads the frame's lists as
attributes and builds each ``Event`` by NamedTuple's ``__new__``.  It shares
the traces, the frame tables and ``_jump_xs`` with the package, but none of
the package's hole filter, section reads or event loop.
``tests/test_region_reference.py`` checks that every region a solve builds
equals this one's baselines, holes and events.
"""
from __future__ import annotations

import bisect
from typing import Optional

from rectlink.partition import (
    FRAME_DL,
    FRAME_LD,
    FRAME_RU,
    FRAME_UR,
    Event,
    FrameTables,
    StaircaseRegion,
    _jump_xs,
    _region_trace,
)


def _hole_index(polys: FrameTables, holes: list[int]) -> tuple[list[int], list[int], int]:
    """A region's holes (given in hull order) sorted by frame xlo, ties by
    index; their xlos; and the widest hole's width, for ``_nearest_sections``."""
    by_x = sorted(holes, key=polys.xlo.__getitem__)
    return (by_x, [polys.xlo[h] for h in by_x],
            max((polys.xhi[h] - polys.xlo[h] for h in holes), default=0))


def _nearest_sections(polys: FrameTables, index: tuple[list[int], list[int], int],
                      x: int, y_lo: int, y_hi: int,
                      skip: Optional[int] = None, want_top: bool = True,
                      want_bottom: bool = True) -> tuple[Optional[int], Optional[int]]:
    """Of the sections that the holes of ``index`` other than ``skip`` cut
    from the line x, the highest top at or below ``y_lo`` and the lowest
    bottom at or above ``y_hi >= y_lo`` (None where there is none, and for
    an end not wanted)."""
    by_x, xlos, width = index
    xhi, ylo, yhi = polys.xhi, polys.ylo, polys.yhi
    below = above = top = bottom = None
    for h in by_x[bisect.bisect_right(xlos, x - width):bisect.bisect_left(xlos, x)]:
        if h == skip or xhi[h] <= x:
            continue
        if yhi[h] <= y_lo:
            if below is None or yhi[h] > yhi[below]:
                below = h
        elif ylo[h] >= y_hi:
            if above is None or ylo[h] < ylo[above]:
                above = h
        else:
            ys = [y for lo, hi, y in polys[h].horiz if lo <= x <= hi]
            y = max(ys)
            if y <= y_lo and (top is None or y > top):
                top = y
            y = min(ys)
            if y >= y_hi and (bottom is None or y < bottom):
                bottom = y
    if want_top and top is None and below is not None:
        top = max([y for lo, hi, y in polys[below].horiz if lo <= x <= hi])
    if want_bottom and bottom is None and above is not None:
        bottom = min([y for lo, hi, y in polys[above].horiz if lo <= x <= hi])
    return top, bottom


def build_staircase_region(world, frame, s, t) -> StaircaseRegion:
    """Staircase region of an xy-monotone pair, with its sweep events."""
    sq, tq = frame.apply(s), frame.apply(t)
    sx, sy = sq
    tx, ty = tq
    polys = world.frame(frame)
    ur = _region_trace(world, frame, FRAME_UR, sq, tq)
    ld = _region_trace(world, frame, FRAME_LD, tq, sq)
    ru = _region_trace(world, frame, FRAME_RU, sq, tq)
    dl = _region_trace(world, frame, FRAME_DL, tq, sq)

    def top(x: int) -> int:
        return int(min(ur.curve.max_x_to(x), -ld.curve.max_y_at(-x - 1), ty))

    def bottom(x: int) -> int:
        return int(max(ru.curve.max_y_at(x), -dl.curve.max_x_to(-x - 1), sy))

    touched = set(ur.touched) | set(ld.touched) | set(ru.touched) | set(dl.touched)
    holes: list[int] = []
    for i in polys.between(sx, tx):
        ylo, yhi = polys.ylo[i], polys.yhi[i]
        if i in touched or not (polys.xhi[i] < tx and sy < ylo and yhi < ty):
            continue
        x = polys.xlo[i]
        lo, hi = bottom(x), top(x)
        if lo < yhi and hi > ylo and lo < polys[i].ring[0][1] < hi:
            holes.append(i)
    holes.sort()
    hole_index = _hole_index(polys, holes)

    ys = {sy, ty}
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
    for hi in holes:
        ys.update(y for _, _, y in polys[hi].horiz)
    baselines = sorted(y for y in ys if sy <= y <= ty)
    idx = {y: i for i, y in enumerate(baselines)}
    m = len(baselines)

    def near(x: int, y_lo: int, y_hi: int, skip: Optional[int] = None,
             want_top: bool = True, want_bottom: bool = True) -> tuple[int, int]:
        top, bottom = _nearest_sections(polys, hole_index, x, y_lo, y_hi, skip,
                                        want_top, want_bottom)
        return (0 if top is None else idx[top],
                m - 1 if bottom is None else idx[bottom])

    events: list[Event] = []
    originate_top = idx[top(sx)]
    events.append(Event(sx, "originate", None, (0, originate_top), None, None, None))
    first_bottom = bottom(sx)
    if first_bottom > sy:
        events.append(Event(sx, "detach", None, None, None, None,
                            (0, idx[first_bottom] - 1)))

    for x in top_jumps:
        if x == sx:
            continue
        y1, y2 = top(x - 1), top(x)
        if y1 == y2:
            continue
        below = near(x, y1, y1, want_bottom=False)[0]
        events.append(Event(x, "attach", (below, idx[y1]), (idx[y1] + 1, idx[y2]),
                            None, None, None))
    for x in bot_jumps:
        if x <= sx:
            continue
        y1, y2 = bottom(x - 1), bottom(x)
        if y1 == y2:
            continue
        low, high = near(x, y2, y2)
        events.append(Event(x, "detach", (max(idx[y1], low), idx[y2] - 1), None,
                            None, (idx[y2], high), (idx[y1], idx[y2] - 1)))

    for hi in holes:
        fp = polys[hi]
        box, wlo, whi, vertical = fp.box, fp.west_lo, fp.west_hi, fp.vertical
        elo, ehi = next((lo, hi2) for x, lo, hi2, _ in vertical if x == box.xhi)
        for x, lo, hi2, west_facing in vertical:
            if west_facing:
                if x == box.xlo:
                    low, high = near(x, wlo, whi, hi)
                    events.append(Event(x, "split", (low, idx[whi] - 1), None, None,
                                        (idx[whi], high), (idx[wlo] + 1, idx[whi] - 1)))
                elif lo >= whi:
                    above = near(x, hi2, hi2, hi, want_top=False)[1]
                    events.append(Event(x, "nw_step", (idx[lo], idx[hi2] - 1), None, None,
                                        (idx[hi2], above), (idx[lo], idx[hi2] - 1)))
                else:
                    events.append(Event(x, "sw_step", None, None, None, None,
                                        (idx[lo] + 1, idx[hi2])))
            else:
                if x == box.xhi:
                    low, high = near(x, elo, ehi, hi)
                    events.append(Event(x, "merge", (low, idx[elo]),
                                        (idx[elo] + 1, idx[ehi] - 1), None,
                                        (idx[ehi], high), None))
                elif lo >= ehi:
                    events.append(Event(x, "ne_step", None, None,
                                        (idx[lo], idx[hi2] - 1), None, None))
                else:
                    below = near(x, lo, lo, hi, want_bottom=False)[0]
                    events.append(Event(x, "se_step", (below, idx[lo]),
                                        (idx[lo] + 1, idx[hi2]), None, None, None))

    events.sort(key=lambda e: e.x)
    return StaircaseRegion(frame=frame, s=sq, t=tq, baselines=baselines,
                           events=events, holes=holes)
