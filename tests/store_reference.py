"""The loop store that ``rectlink.sweep.NaiveStore`` replaced, kept as a
reference.

It holds one value list and one activity list and walks every baseline of
a range in a Python loop.  ``tests/test_sweep.py`` drives it and the
package store with the same operation sequences and requires the same
answers, the same write histories and the same final state.
"""
from __future__ import annotations

from typing import Optional

from rectlink.sweep import INF


class LoopStore:
    """Flat-array store with provenance tracking, one baseline at a time."""

    def __init__(self, m: int):
        self.m = m
        self.val = [INF] * m
        self.active = [False] * m
        self.seq = 0
        self.hist: list[list[tuple[int, Optional[tuple[int, int]]]]] = \
            [[] for _ in range(m)]

    def query(self, lo: int, hi: int) -> tuple[float, int]:
        best, arg = INF, -1
        for i in range(max(lo, 0), min(hi, self.m - 1) + 1):
            if self.active[i] and self.val[i] < best:
                best, arg = self.val[i], i
        return best, arg

    def assign(self, lo: int, hi: int, v: float, tag: Optional[tuple[int, int]]) -> None:
        for i in range(lo, hi + 1):
            self.active[i] = True
            self.val[i] = v
            self.hist[i].append((self.seq, tag))

    def chmin(self, lo: int, hi: int, v: float, tag: Optional[tuple[int, int]]) -> None:
        if v == INF:
            return
        for i in range(max(lo, 0), min(hi, self.m - 1) + 1):
            if self.active[i] and v < self.val[i]:
                self.val[i] = v
                self.hist[i].append((self.seq, tag))

    def deactivate(self, lo: int, hi: int) -> None:
        for i in range(lo, hi + 1):
            self.active[i] = False
