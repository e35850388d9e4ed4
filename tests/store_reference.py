"""The loop store that the package's range stores replaced, kept as the
reference for both ``rectlink.sweep.RunStore`` and the sweep's provenance.

It holds one value list and one activity list and walks every baseline of
a range in a Python loop.  Unlike the package stores it also keeps each
baseline's write history: every write appends the caller's tag, the
(event id, source baseline) that produced the value or None.
``tests/test_sweep.py`` drives it and ``RunStore`` with the same
operation sequences and requires the same answers and final state, and
replays regions' events on it with tags so that ``prov_before`` checks the
writers that ``rectlink.sweep.provenance`` reads back from the event log.
"""
from __future__ import annotations

from typing import Optional

from rectlink.sweep import INF


class LoopStore:
    """Flat-array store with a write history, one baseline at a time."""

    def __init__(self, m: int):
        self.m = m
        self.val = [INF] * m
        self.active = [False] * m
        self.seq = 0
        self.hist: list[list[tuple[int, Optional[tuple[int, int]]]]] = \
            [[] for _ in range(m)]

    def prov_before(self, k: int, bound: int) -> Optional[tuple[int, int]]:
        """Tag of the value baseline ``k`` held just before write sequence
        number ``bound`` (one past the last for the final state)."""
        for seq, tag in reversed(self.hist[k]):
            if seq < bound:
                return tag
        return None

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
