"""Baseline sweep over a staircase region.

The sweep maintains, per active baseline, the fewest links of any shortest
xy-monotone path that ends travelling east along that baseline.  Events move
values upward between baselines (a climb and a turn cost two links).
``NaiveStore`` executes the range operations on two flat lists, so each
range scan is one built-in ``min`` or ``max`` over a slice, and records the
write history that ``reconstruct_path`` walks back to build a witness.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .partition import StaircaseRegion

INF = float("inf")

Range = tuple[int, int]  # inclusive baseline index pair


def _ok(r: Optional[Range]) -> bool:
    return r is not None and r[0] <= r[1]


class NaiveStore:
    """Flat-array store with provenance tracking.

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
        self.m = m
        self.up = [INF] * m
        self.down = [-INF] * m
        # full write history per baseline: (writing event id, tag) where the
        # tag is the (event id, source baseline) that produced the value, or
        # None for a seed.  Later events overwrite values that earlier events
        # already consumed, so a witness walk needs more than the last write.
        self.seq = 0
        self.hist: list[list[tuple[int, Optional[tuple[int, int]]]]] = \
            [[] for _ in range(m)]

    def prov_before(self, k: int, bound: float) -> Optional[tuple[int, int]]:
        """Provenance of the value baseline ``k`` held just before event
        ``bound`` ran (pass INF for the state after the final event)."""
        for seq, tag in reversed(self.hist[k]):
            if seq < bound:
                return tag
        return None

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

    def assign(self, lo: int, hi: int, v: float, tag: Optional[tuple[int, int]]) -> None:
        if lo > hi:
            return
        k = hi + 1 - lo
        self.up[lo:hi + 1] = self.down[lo:hi + 1] = [v] * k
        entry = (self.seq, tag)
        for h in self.hist[lo:hi + 1]:
            h.append(entry)

    def chmin(self, lo: int, hi: int, v: float, tag: Optional[tuple[int, int]]) -> None:
        if lo < 0:
            lo = 0
        if v == INF or hi < lo:
            return
        window = self.down[lo:hi + 1]
        if not window or max(window) <= v:
            return
        up, down, hist, entry = self.up, self.down, self.hist, (self.seq, tag)
        for i, d in enumerate(window, lo):
            if v < d:
                up[i] = down[i] = v
                hist[i].append(entry)

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
    store: object = field(repr=False, default=None)


def run_sweep(region: StaircaseRegion, store=None, seed_h: float = 1,
              seed_v: float = 2) -> SweepResult:
    """Execute the region's events against a store and read off the answer.

    ``seed_h``/``seed_v`` are the link counts of a path that leaves the
    source eastward, and upward then eastward.  Re-seeding lets a caller
    prepend an already-started link, as the divider composition does.
    """
    m = region.m
    if store is None:
        store = NaiveStore(m)
    values: list[float] = []
    for eid, e in enumerate(region.events):
        store.seq = eid
        if e.kind == "originate":
            lo, hi = e.assign
            store.assign(lo, hi, seed_v, (eid, 0))
            store.assign(lo, lo, seed_h, None)
            values.append(seed_h)
            continue
        if _ok(e.src):
            v, arg = store.query(*e.src)
        else:
            v, arg = INF, -1
        values.append(v)
        tag = (eid, arg) if arg >= 0 else None
        if _ok(e.chmin):
            store.chmin(e.chmin[0], e.chmin[1], v + 2, tag)
        if _ok(e.deactivate):
            store.deactivate(*e.deactivate)
        if _ok(e.assign):
            store.assign(e.assign[0], e.assign[1], v + 2, tag)
        if _ok(e.assign_inf):
            store.assign(e.assign_inf[0], e.assign_inf[1], INF, None)
    lam_h, _ = store.query(m - 1, m - 1)
    best_v, _ = store.query(0, m - 2)
    lam_v = best_v + 1
    return SweepResult(
        lam=min(lam_h, lam_v), lam_h=lam_h, lam_v=lam_v,
        event_values=values, store=store,
    )


def reconstruct_path(region: StaircaseRegion, store: NaiveStore,
                     arrival: str) -> list[tuple[int, int]]:
    """Corner list of a witness path, from the provenance chain.

    ``arrival`` is "h" for a horizontal finish on the top baseline or "v"
    for a vertical finish from the best lower baseline.  Frame coordinates.
    """
    m = region.m
    ys = region.baselines
    sx, sy = region.s
    tx, ty = region.t
    if arrival == "h":
        k = m - 1
    else:
        _, k = store.query(0, m - 2)
    # walk provenance back to the originate column; each step must read the
    # provenance as it stood when the consuming event ran, since later
    # events may have overwritten the source baseline
    hops: list[tuple[int, int, int]] = []  # (x, src baseline, dst baseline)
    cur = k
    bound: float = INF
    while True:
        tag = store.prov_before(cur, bound)
        if tag is None:
            break
        eid, src = tag
        ev = region.events[eid]
        hops.append((ev.x if ev.kind != "originate" else sx, src, cur))
        if ev.kind == "originate":
            break
        cur, bound = src, eid
    hops.reverse()
    pts: list[tuple[int, int]] = [(sx, sy)]
    for x, src, dst in hops:
        pts.append((x, ys[src]))
        pts.append((x, ys[dst]))
    pts.append((tx, ys[k]))
    pts.append((tx, ty))
    return pts
