"""Reference sweep store for tests: a lazy segment tree behind an
active-interval index.

``rectlink.sweep.NaiveStore`` is the production store.  This one executes
the same range operations with a different data structure and keeps no
provenance, so running both through ``run_sweep`` on one region and
comparing the results checks each against the other.
"""
from __future__ import annotations

import bisect
from typing import Optional

from rectlink.sweep import INF, NaiveStore, Range


class _SegTree:
    """Segment tree over baseline values with assign and chmin range lazies."""

    def __init__(self, m: int):
        self.m = m
        size = 1
        while size < max(m, 1):
            size *= 2
        self.size = size
        self.mn = [INF] * (2 * size)
        self.arg = [0] * (2 * size)
        for i in range(size):
            self.arg[size + i] = i if i < m else m - 1
        for i in range(size - 1, 0, -1):
            self.arg[i] = self.arg[2 * i]
        self.lz_assign: list[Optional[float]] = [None] * (2 * size)
        self.lz_chmin = [INF] * (2 * size)

    def _apply_assign(self, node: int, left: int, v: float) -> None:
        self.mn[node] = v
        self.arg[node] = left
        self.lz_assign[node] = v
        self.lz_chmin[node] = INF

    def _apply_chmin(self, node: int, v: float) -> None:
        if v < self.mn[node]:
            self.mn[node] = v
            # a chmin flattens the whole node to at most v; the leftmost
            # leaf is as good a witness as any other that attains it
            self.arg[node] = self._leftmost(node)
        if self.lz_assign[node] is not None:
            self.lz_assign[node] = min(self.lz_assign[node], v)
        else:
            self.lz_chmin[node] = min(self.lz_chmin[node], v)

    def _leftmost(self, node: int) -> int:
        while node < self.size:
            node *= 2
        return node - self.size

    def _push(self, node: int, left: int, mid: int) -> None:
        a = self.lz_assign[node]
        if a is not None:
            self._apply_assign(2 * node, left, a)
            self._apply_assign(2 * node + 1, mid, a)
            self.lz_assign[node] = None
        c = self.lz_chmin[node]
        if c < INF:
            self._apply_chmin(2 * node, c)
            self._apply_chmin(2 * node + 1, c)
            self.lz_chmin[node] = INF

    def _pull(self, node: int) -> None:
        l, r = 2 * node, 2 * node + 1
        if self.mn[l] <= self.mn[r]:
            self.mn[node], self.arg[node] = self.mn[l], self.arg[l]
        else:
            self.mn[node], self.arg[node] = self.mn[r], self.arg[r]

    def _range_op(self, node: int, nl: int, nr: int, lo: int, hi: int, fn) -> None:
        if hi < nl or nr < lo:
            return
        if lo <= nl and nr <= hi:
            fn(node, nl)
            return
        mid = (nl + nr) // 2
        self._push(node, nl, mid + 1)
        self._range_op(2 * node, nl, mid, lo, hi, fn)
        self._range_op(2 * node + 1, mid + 1, nr, lo, hi, fn)
        self._pull(node)

    def assign(self, lo: int, hi: int, v: float) -> None:
        if lo > hi:
            return
        self._range_op(1, 0, self.size - 1, lo, hi,
                       lambda n, left: self._apply_assign(n, left, v))

    def chmin(self, lo: int, hi: int, v: float) -> None:
        if lo > hi or v == INF:
            return
        self._range_op(1, 0, self.size - 1, lo, hi,
                       lambda n, left: self._apply_chmin(n, v))

    def query(self, lo: int, hi: int) -> tuple[float, int]:
        out: list[tuple[float, int]] = [(INF, -1)]

        def fn(node: int, left: int) -> None:
            if self.mn[node] < out[0][0]:
                out[0] = (self.mn[node], self.arg[node])

        if lo <= hi:
            self._range_op(1, 0, self.size - 1, lo, hi, fn)
        return out[0]


class ActiveRanges:
    """Disjoint inclusive index ranges kept sorted for intersection queries."""

    def __init__(self):
        self.los: list[int] = []
        self.his: list[int] = []

    def activate(self, lo: int, hi: int) -> None:
        if lo > hi:
            return
        i = bisect.bisect_left(self.his, lo - 1)
        j = bisect.bisect_right(self.los, hi + 1)
        if i < j:
            lo = min(lo, self.los[i])
            hi = max(hi, self.his[j - 1])
        self.los[i:j] = [lo]
        self.his[i:j] = [hi]

    def deactivate(self, lo: int, hi: int) -> None:
        if lo > hi:
            return
        i = bisect.bisect_left(self.his, lo)
        j = bisect.bisect_right(self.los, hi)
        if i >= j:
            return
        keep_lo = [] if self.los[i] >= lo else [(self.los[i], lo - 1)]
        keep_hi = [] if self.his[j - 1] <= hi else [(hi + 1, self.his[j - 1])]
        pieces = keep_lo + keep_hi
        self.los[i:j] = [p[0] for p in pieces]
        self.his[i:j] = [p[1] for p in pieces]

    def clip(self, lo: int, hi: int) -> list[Range]:
        if lo > hi:
            return []
        i = bisect.bisect_left(self.his, lo)
        out = []
        while i < len(self.los) and self.los[i] <= hi:
            out.append((max(self.los[i], lo), min(self.his[i], hi)))
            i += 1
        return out

    def contains(self, k: int) -> bool:
        i = bisect.bisect_left(self.his, k)
        return i < len(self.los) and self.los[i] <= k

    def indices(self) -> list[int]:
        out = []
        for lo, hi in zip(self.los, self.his):
            out.extend(range(lo, hi + 1))
        return out


class TreeStore:
    """Segment-tree store; range operations touch active sub-ranges only."""

    def __init__(self, m: int):
        self.m = m
        self.tree = _SegTree(m)
        self.ranges = ActiveRanges()

    def query(self, lo: int, hi: int) -> tuple[float, int]:
        best = (INF, -1)
        for a, b in self.ranges.clip(max(lo, 0), min(hi, self.m - 1)):
            got = self.tree.query(a, b)
            if got[0] < best[0]:
                best = got
        return best

    def assign(self, lo: int, hi: int, v: float, tag=None) -> None:
        if lo > hi:
            return
        self.ranges.activate(lo, hi)
        self.tree.assign(lo, hi, v)

    def chmin(self, lo: int, hi: int, v: float, tag=None) -> None:
        for a, b in self.ranges.clip(max(lo, 0), min(hi, self.m - 1)):
            self.tree.chmin(a, b, v)

    def deactivate(self, lo: int, hi: int) -> None:
        if lo > hi:
            return
        self.ranges.deactivate(lo, hi)

    def snapshot(self) -> list[tuple[bool, float]]:
        out = []
        for i in range(self.m):
            if self.ranges.contains(i):
                out.append((True, self.tree.query(i, i)[0]))
            else:
                out.append((False, INF))
        return out


def final_state(store: NaiveStore | TreeStore) -> list[tuple[bool, float]]:
    """Per-baseline (active, value) as a sweep left it; INF where inactive."""
    if isinstance(store, TreeStore):
        return store.snapshot()
    return [(a, v if a else INF) for a, v in zip(store.active, store.val)]
