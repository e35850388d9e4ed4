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
    _StateGraph,
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
    sg = _StateGraph(g)
    nx = g.shape[0]
    s_list = _terminal_grid_points(instance.source, g)
    t_list = _terminal_grid_points(instance.target, g)
    s_nodes = [j * nx + i for i, j in s_list]
    t_nodes = [j * nx + i for i, j in t_list]

    def field(nodes):
        m = sg.matrix(nodes, [])
        dist = _csgraph_dijkstra(m, directed=True, indices=sg.sup_s)
        per_state = dist[: 2 * sg.n_nodes].reshape(2, sg.n_nodes)
        best = np.minimum(per_state[0], per_state[1])
        best = np.where(np.isfinite(best), best, -float(sg.big))
        return np.floor(best / sg.big + 1e-9).astype(np.int64)

    d_from_s = field(s_nodes)
    d_from_t = field(t_nodes)
    dmin = min(int(d_from_t[n]) for n in s_nodes)
    pairs: list[tuple[Point, Point]] = []
    cand_s = [(i, j) for (i, j), n in zip(s_list, s_nodes) if d_from_t[n] == dmin]
    cand_t = {n: (i, j) for (i, j), n in zip(t_list, t_nodes) if d_from_s[n] == dmin}
    for i, j in cand_s:
        m = sg.matrix([j * nx + i], [])
        dist = _csgraph_dijkstra(m, directed=True, indices=sg.sup_s)
        per_state = dist[: 2 * sg.n_nodes].reshape(2, sg.n_nodes)
        best = np.minimum(per_state[0], per_state[1])
        best = np.where(np.isfinite(best), best, -float(sg.big))
        dp = np.floor(best / sg.big + 1e-9).astype(np.int64)
        for n, (ti, tj) in cand_t.items():
            if dp[n] == dmin:
                pairs.append(((g.xs[i], g.ys[j]), (g.xs[ti], g.ys[tj])))
    return pairs
