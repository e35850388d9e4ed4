"""All closest point pairs of an instance's terminals, for tests.

Acceptance test 3 needs an instance whose closest pair is not unique; this
enumerates every grid-representable pair at the least distance with the
fast oracle's state graph.  The solver itself never asks for closest
pairs: it enumerates attachments and bounds them by distance.
"""
from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from rectlink.geometry import Point
from rectlink.model import Instance
from rectlink.oracle import (
    GRID_CAP,
    _state_graph,
    _terminal_grid_points,
    _terminals_touch,
    build_hanan_graph,
)


def oracle_closest_pairs(instance: Instance, cap: int = GRID_CAP) -> list[tuple[Point, Point]]:
    """All grid-representable closest pairs (p on source, q on target)."""
    touch = _terminals_touch(instance.source, instance.target)
    if touch is not None:
        return [(touch, touch)]
    g = build_hanan_graph(instance, cap=cap)
    nx, ny = g.shape
    n_nodes = nx * ny
    big = 4 * (n_nodes + 1)
    graph = _state_graph(g, big)
    s_list = _terminal_grid_points(instance.source, g)
    t_list = _terminal_grid_points(instance.target, g)
    s_nodes = [j * nx + i for i, j in s_list]
    t_nodes = [j * nx + i for i, j in t_list]

    def lengths(nodes):
        """Least length from any of ``nodes`` to every grid node (-1: none)."""
        nodes = np.asarray(nodes)
        dist = _csgraph_dijkstra(graph, indices=np.concatenate((nodes, nodes + n_nodes)),
                                 min_only=True)
        best = dist.reshape(2, n_nodes).min(axis=0)
        return np.where(np.isfinite(best), best, -big).astype(np.int64) // big

    d_from_s = lengths(s_nodes)
    d_from_t = lengths(t_nodes)
    dmin = min(int(d_from_t[n]) for n in s_nodes)
    pairs: list[tuple[Point, Point]] = []
    cand_s = [(i, j) for (i, j), n in zip(s_list, s_nodes) if d_from_t[n] == dmin]
    cand_t = {n: (i, j) for (i, j), n in zip(t_list, t_nodes) if d_from_s[n] == dmin}
    for i, j in cand_s:
        dp = lengths([j * nx + i])
        for n, (ti, tj) in cand_t.items():
            if dp[n] == dmin:
                pairs.append(((g.xs[i], g.ys[j]), (g.xs[ti], g.ys[tj])))
    return pairs
