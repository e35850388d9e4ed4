"""Pure-Python reference for the scipy oracle.

``oracle_solve_reference`` runs a lexicographic (length, links) Dijkstra
over the same Hanan grid as ``rectlink.oracle.oracle_solve``, with a heap
and a dict instead of a sparse state graph, so ``tests/test_oracle.py``
checks the scipy route against code that shares with it only the grid,
the terminals' grid nodes and the test for touching terminals.
"""
from __future__ import annotations

import heapq
from typing import Optional

from rectlink.model import Instance
from rectlink.oracle import (
    OracleRefusal,
    _terminal_grid_points,
    _terminals_touch,
    build_hanan_graph,
)


def oracle_solve_reference(instance: Instance, cap: int = 120) -> tuple[int, int]:
    """Pure-python lexicographic Dijkstra used to cross-check the fast oracle."""
    g = build_hanan_graph(instance, cap=cap)
    touch = _terminals_touch(instance.source, instance.target)
    if touch is not None:
        return (0, 0)
    nx, ny = g.shape
    s_pts = set(_terminal_grid_points(instance.source, g))
    t_pts = set(_terminal_grid_points(instance.target, g))
    INF = (1 << 62, 1 << 62)
    dist: dict[tuple[int, int, int], tuple[int, int]] = {}
    pq: list[tuple[int, int, int, int, int]] = []
    for i, j in s_pts:
        for o in (0, 1):
            dist[(i, j, o)] = (0, 1)
            heapq.heappush(pq, (0, 1, i, j, o))
    best: Optional[tuple[int, int]] = None
    while pq:
        d, l, i, j, o = heapq.heappop(pq)
        if dist.get((i, j, o), INF) < (d, l):
            continue
        if (i, j) in t_pts:
            cand = (d, l)
            if best is None or cand < best:
                best = cand
        for di, dj, no in ((1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, -1, 1)):
            ni, nj = i + di, j + dj
            if not (0 <= ni < nx and 0 <= nj < ny):
                continue
            if no == 0:
                blocked = g.h_blocked[min(i, ni), j]
                step = abs(g.xs[ni] - g.xs[i])
            else:
                blocked = g.v_blocked[i, min(j, nj)]
                step = abs(g.ys[nj] - g.ys[j])
            if blocked:
                continue
            nd, nl = d + step, l + (0 if no == o else 1)
            if (nd, nl) < dist.get((ni, nj, no), INF):
                dist[(ni, nj, no)] = (nd, nl)
                heapq.heappush(pq, (nd, nl, ni, nj, no))
    if best is None:
        raise OracleRefusal("reference oracle found no path")
    return best
