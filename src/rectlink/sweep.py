"""Baseline sweep over a staircase region.

The sweep maintains, per active baseline, the fewest links of any shortest
xy-monotone path that ends travelling east along that baseline.  Events move
values upward between baselines (a climb and a turn cost two links).

A store keeps values only.  ``RunStore`` keeps the baselines as runs of
equal state, so an operation costs O(log R + r) for R runs of which r meet
its range, not O(m): the sweep's state stays a few dozen runs even in
regions of thousands of baselines.  Provenance comes from the event log:
``run_sweep`` records each event's query value and the baseline that held
it, and ``reconstruct_path`` reads the writer of every value it follows
back from the region's own events, so a witness needs no write history and
any store yields one.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from .partition import INF, StaircaseRegion

Range = tuple[int, int]  # inclusive baseline index pair


class RunStore:
    """Range-min store with range assign and range chmin, kept as runs.

    The baselines fall into maximal runs of equal state.  Three parallel
    lists hold them: ``starts`` (strictly increasing from 0; a run ends
    where the next starts, the last at m - 1), and each run's ``up`` and
    ``down``.  ``up`` is the value of an active run and INF for an inactive
    one; ``down`` is the value or -INF, so ``down`` alone tells two states
    apart, and no two neighbouring runs have equal ``down``.  An active
    baseline may hold INF (an unreachable one); it is then INF in both.

    A range ``lo..hi`` meets the runs ``i..j - 1`` found by two bisects.  A
    query is ``min`` over ``up[i:j]`` (``index`` then picks the lowest run
    holding it, whose first baseline in the range is the lowest baseline);
    a chmin first tests ``max`` over ``down[i:j]`` and returns when nothing
    exceeds the new value, which an inactive run's -INF never does.  Assign
    and deactivate, and a chmin that lowers something, rebuild runs
    ``i..j - 1`` as a short list of pieces, merge equal neighbours (the two
    outer runs included) and write it back with one slice assignment per
    list.  With R runs of which r meet the range, an operation costs
    O(log R + r) Python steps, plus the C memmove of a slice assignment that
    changes the run count.  A sweep's state stays short: point-large's
    m = 1 835 region never holds more than 66 runs, and an operation's
    range meets 4 of them on average.
    """

    def __init__(self, m: int):
        self.m = m
        self.starts = [0]
        self.up = [INF]
        self.down = [-INF]

    def query(self, lo: int, hi: int) -> tuple[float, int]:
        """Least active value in ``lo..hi`` and its lowest baseline, or
        (INF, -1) when no active baseline there holds a finite value."""
        if lo < 0:
            lo = 0
        if hi >= self.m:
            hi = self.m - 1
        if hi < lo:
            return INF, -1
        starts, up = self.starts, self.up
        i = bisect_right(starts, lo) - 1
        j = bisect_right(starts, hi, i + 1)
        if j == i + 1:
            best = up[i]
            return (INF, -1) if best == INF else (best, lo)
        best = min(up[i:j])
        if best == INF:
            return INF, -1
        k = up.index(best, i, j)
        return best, (starts[k] if k > i else lo)

    def assign(self, lo: int, hi: int, v: float) -> None:
        if lo <= hi:
            self._fill(lo, hi, v, v)

    def deactivate(self, lo: int, hi: int) -> None:
        if lo <= hi:
            self._fill(lo, hi, INF, -INF)

    def _fill(self, lo: int, hi: int, u: float, d: float) -> None:
        """Set ``lo..hi`` (in range, not empty) to the state ``u``/``d``:
        the runs it meets give way to at most a head, the new run and a
        tail, and an outer neighbour in the same state absorbs it."""
        starts, up, down = self.starts, self.up, self.down
        i = bisect_right(starts, lo) - 1
        j = bisect_right(starts, hi, i + 1)
        if starts[i] < lo:
            # run i keeps its head, which the new run extends if equal
            if down[i] == d:
                ss, us, ds = [starts[i]], [u], [d]
            else:
                ss, us, ds = [starts[i], lo], [up[i], u], [down[i], d]
        elif i and down[i - 1] == d:
            i -= 1
            ss, us, ds = [starts[i]], [u], [d]
        else:
            ss, us, ds = [lo], [u], [d]
        hi += 1
        if hi < (starts[j] if j < len(starts) else self.m):
            # run j - 1 keeps its tail
            if down[j - 1] != d:
                ss.append(hi)
                us.append(up[j - 1])
                ds.append(down[j - 1])
        elif j < len(starts) and down[j] == d:
            j += 1
        starts[i:j] = ss
        up[i:j] = us
        down[i:j] = ds

    def chmin(self, lo: int, hi: int, v: float) -> None:
        if lo < 0:
            lo = 0
        if hi >= self.m:
            hi = self.m - 1
        if v == INF or hi < lo:
            return
        starts, up, down = self.starts, self.up, self.down
        i = bisect_right(starts, lo) - 1
        j = bisect_right(starts, hi, i + 1)
        if (down[i] if j == i + 1 else max(down[i:j])) <= v:
            return
        # one pass over runs i - 1 .. j (the outer two only to merge with),
        # each covered run lowered to v where above it
        a = i - 1 if i else i
        b = j + 1 if j < len(starts) else j
        end = starts[j] if j < len(starts) else self.m
        ss: list[int] = []
        ds: list[float] = []
        for k in range(a, b):
            s, d = starts[k], down[k]
            if i <= k < j and d > v:
                if s < lo:
                    ss.append(s)
                    ds.append(d)
                    s = lo
                if not ds or ds[-1] != v:
                    ss.append(s)
                    ds.append(v)
                if k == j - 1 and hi + 1 < end:
                    ss.append(hi + 1)
                    ds.append(d)
            elif not ds or ds[-1] != d:
                ss.append(s)
                ds.append(d)
        starts[a:b] = ss
        down[a:b] = ds
        up[a:b] = [INF if x == -INF else x for x in ds]


@dataclass
class SweepResult:
    lam_h: float               # fewest links of shortest monotone paths
                               # arriving horizontally
    lam_v: float               # and of those arriving vertically
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
    ``store`` defaults to a fresh ``RunStore``; any store with the same
    four range operations, whose query also answers with the lowest
    baseline holding the minimum, gives the same result.
    """
    m = region.m
    if store is None:
        store = RunStore(m)
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
        lam_h=lam_h, lam_v=lam_v, event_values=values,
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
