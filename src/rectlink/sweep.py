"""Baseline sweep over a staircase region.

The sweep maintains, per active baseline, the fewest links of any shortest
xy-monotone path that ends travelling east along that baseline.  Events move
values upward between baselines (a climb and a turn cost two links).

A store keeps values only.  ``NaiveStore`` executes the range operations on
two flat lists, so each range scan is one built-in ``min`` or ``max`` over a
slice.  Provenance comes from the event log: ``run_sweep`` records each
event's query value and the baseline that held it, and ``reconstruct_path``
reads the writer of every value it follows back from the region's own
events, so a witness needs no write history and any store yields one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .partition import StaircaseRegion

INF = float("inf")

Range = tuple[int, int]  # inclusive baseline index pair


class NaiveStore:
    """Flat-array range-min store with range assign and range chmin.

    Each baseline's value is kept twice, so that activity needs no list of
    its own and every range scan runs in C: ``up[i]`` is the value of an
    active baseline and INF for an inactive one, ``down[i]`` the value or
    -INF.  A query is ``min`` over a slice of ``up`` (``index`` then picks
    the lowest baseline holding it); a chmin first tests ``max`` over a
    slice of ``down`` and writes only where the new value is smaller, which
    an inactive baseline's -INF never is.  An active baseline may hold INF
    (an unreachable one); it is then INF in both lists.
    """

    def __init__(self, m: int):
        self.up = [INF] * m
        self.down = [-INF] * m

    def query(self, lo: int, hi: int) -> tuple[float, int]:
        """Least active value in ``lo..hi`` and its lowest baseline, or
        (INF, -1) when no active baseline there holds a finite value."""
        if lo < 0:
            lo = 0
        if hi < lo:
            return INF, -1
        window = self.up[lo:hi + 1]
        best = min(window) if window else INF
        if best == INF:
            return INF, -1
        return best, lo + window.index(best)

    def assign(self, lo: int, hi: int, v: float) -> None:
        if lo > hi:
            return
        self.up[lo:hi + 1] = self.down[lo:hi + 1] = [v] * (hi + 1 - lo)

    def chmin(self, lo: int, hi: int, v: float) -> None:
        if lo < 0:
            lo = 0
        if v == INF or hi < lo:
            return
        window = self.down[lo:hi + 1]
        if not window or max(window) <= v:
            return
        up, down = self.up, self.down
        for i, d in enumerate(window, lo):
            if v < d:
                up[i] = down[i] = v

    def deactivate(self, lo: int, hi: int) -> None:
        if lo > hi:
            return
        k = hi + 1 - lo
        self.up[lo:hi + 1] = [INF] * k
        self.down[lo:hi + 1] = [-INF] * k


@dataclass
class SweepResult:
    lam: float                 # fewest links over all shortest monotone paths
    lam_h: float               # restricted to paths arriving horizontally
    lam_v: float               # restricted to paths arriving vertically
    event_values: list[float]  # per-event source minimum, in event order
    event_args: list[int]      # per-event lowest baseline holding it, or -1
    arg_v: int                 # lowest baseline of the vertical readout, or -1
    seed_v: float              # the originate's value above baseline 0
    region: StaircaseRegion = field(repr=False)


def run_sweep(region: StaircaseRegion, store=None, seed_h: float = 1,
              seed_v: float = 2) -> SweepResult:
    """Execute the region's events against a store and read off the answer.

    ``seed_h``/``seed_v`` are the link counts of a path that leaves the
    source eastward, and upward then eastward.  Re-seeding lets a caller
    prepend an already-started link, as the divider composition does.
    ``store`` defaults to a fresh ``NaiveStore``; any store with the same
    four range operations, whose query also answers with the lowest
    baseline holding the minimum, gives the same result.
    """
    m = region.m
    if store is None:
        store = NaiveStore(m)
    values: list[float] = []
    args: list[int] = []
    for _, kind, src, assign, assign_inf, chmin, deactivate in region.events:
        if kind == "originate":
            lo, hi = assign
            store.assign(lo, hi, seed_v)
            store.assign(lo, lo, seed_h)
            values.append(seed_h)
            args.append(lo)
            continue
        # a range runs only when it is given and not empty
        if src and src[0] <= src[1]:
            v, arg = store.query(*src)
        else:
            v, arg = INF, -1
        values.append(v)
        args.append(arg)
        if chmin and chmin[0] <= chmin[1]:
            store.chmin(chmin[0], chmin[1], v + 2)
        if deactivate and deactivate[0] <= deactivate[1]:
            store.deactivate(*deactivate)
        if assign and assign[0] <= assign[1]:
            store.assign(assign[0], assign[1], v + 2)
        if assign_inf and assign_inf[0] <= assign_inf[1]:
            store.assign(assign_inf[0], assign_inf[1], INF)
    lam_h, _ = store.query(m - 1, m - 1)
    best_v, arg_v = store.query(0, m - 2)
    lam_v = best_v + 1
    return SweepResult(
        lam=min(lam_h, lam_v), lam_h=lam_h, lam_v=lam_v, event_values=values,
        event_args=args, arg_v=arg_v, seed_v=seed_v, region=region,
    )


def provenance(res: SweepResult, k: int, value: float,
               bound: int) -> Optional[tuple[int, int]]:
    """(event id, source baseline) of the write that left ``value`` in
    baseline ``k`` just before event ``bound`` ran, or None when that value
    is the horizontal seed or unreachable.

    ``k`` must be active then; pass the number of events as ``bound`` for
    the state after the last one.  The last assign covering ``k`` (the
    originate's included) wrote the value unless a chmin lowered it since.
    A chmin writes only a strictly smaller value, so the writer is then the
    earliest later chmin covering ``k`` whose ``v + 2`` is ``value``; an
    unreachable value was never lowered, so such a chmin read a finite v.
    """
    events, values, args = res.region.events, res.event_values, res.event_args
    lowered = None
    for eid in range(bound - 1, -1, -1):
        e = events[eid]
        # within an event the assigns run after its chmin, assign_inf last
        r = e.assign_inf
        if r is not None and r[0] <= k <= r[1]:
            return None if value == INF else lowered
        r = e.assign
        if r is not None and r[0] <= k <= r[1]:
            v = values[eid]
            if e.kind != "originate":
                written = v + 2
            elif k == r[0]:
                return None if v == value else lowered
            else:
                written = res.seed_v
            if written != value:
                return lowered
            return (eid, args[eid]) if written < INF else None
        if values[eid] + 2 == value:
            r = e.chmin
            if r is not None and r[0] <= k <= r[1]:
                lowered = (eid, args[eid])
    return lowered


def reconstruct_path(res: SweepResult, arrival: str) -> list[tuple[int, int]]:
    """Corner list of a witness path, read back from the sweep's event log.

    ``arrival`` is "h" for a horizontal finish on the top baseline or "v"
    for a vertical finish from the best lower baseline.  Frame coordinates.
    """
    region = res.region
    ys = region.baselines
    if arrival == "h":
        k, value = region.m - 1, res.lam_h
    else:
        k, value = res.arg_v, res.lam_v - 1
    tx, ty = region.t
    # corners from t back to s; each writer's source value is the one its
    # event's query saw, since later events may have overwritten it
    pts = [(tx, ty), (tx, ys[k])]
    bound = len(region.events)
    while (tag := provenance(res, k, value, bound)) is not None:
        eid, src = tag
        x = region.events[eid].x
        pts += [(x, ys[k]), (x, ys[src])]
        k, bound, value = src, eid, res.event_values[eid]
    pts.append(region.s)
    pts.reverse()
    return pts
