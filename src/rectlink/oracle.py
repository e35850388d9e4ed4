"""Exact brute-force baseline on the Hanan grid.

Every minimum-link shortest path can be aligned to the grid induced by the
obstacle and terminal coordinates, so a lexicographic (length, links)
Dijkstra over that grid is an exact oracle.  It is deliberately independent
of the sweep-based solver: no code is shared beyond the basic geometry
types.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .geometry import OrthoSegment, PathResult, Point, RectPolygon
from .model import Instance, POINT, SEGMENT, Terminal

GRID_CAP = 500


class OracleRefusal(RuntimeError):
    """Raised when the instance needs a denser grid than the oracle allows."""


@dataclass(frozen=True)
class OracleAnswer:
    distance: int
    links: int
    path: Optional[PathResult]
    grid_shape: tuple[int, int]


@dataclass
class HananGraph:
    xs: list[int]
    ys: list[int]
    h_blocked: np.ndarray         # (nx-1, ny) horizontal step blocked
    v_blocked: np.ndarray         # (nx, ny-1) vertical step blocked

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.xs), len(self.ys))


def _decompose_slabs(poly: RectPolygon) -> list[tuple[int, int, int, int]]:
    """Cut a rectilinear polygon into horizontal slabs of rectangles."""
    ys = sorted({v[1] for v in poly.vertices})
    out = []
    verticals = [(e.p[0], *sorted((e.p[1], e.q[1]))) for e in poly.vertical_edges()]
    for ylo, yhi in zip(ys, ys[1:]):
        xs = sorted(x for x, elo, ehi in verticals if elo <= ylo and yhi <= ehi)
        for xlo, xhi in zip(xs[0::2], xs[1::2]):
            out.append((xlo, ylo, xhi, yhi))
    return out


def build_hanan_graph(instance: Instance, cap: int = GRID_CAP) -> HananGraph:
    xs_set, ys_set = instance.all_coords()
    xs = sorted(xs_set)
    ys = sorted(ys_set)
    if len(xs) > cap or len(ys) > cap:
        raise OracleRefusal(
            f"grid {len(xs)}x{len(ys)} exceeds the {cap}x{cap} oracle cap"
        )
    nx, ny = len(xs), len(ys)
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: j for j, y in enumerate(ys)}

    cell = np.zeros((max(nx - 1, 0), max(ny - 1, 0)), dtype=bool)
    for poly in instance.obstacles:
        for xlo, ylo, xhi, yhi in _decompose_slabs(poly):
            cell[xi[xlo]:xi[xhi], yi[ylo]:yi[yhi]] = True

    # a unit step is blocked iff the open cells on both of its sides are
    # inside an obstacle; obstacles are open, so riding a boundary is legal
    h_blocked = np.zeros((max(nx - 1, 0), ny), dtype=bool)
    if nx > 1 and ny > 1:
        h_blocked[:, 1:-1] = cell[:, :-1] & cell[:, 1:]
    v_blocked = np.zeros((nx, max(ny - 1, 0)), dtype=bool)
    if nx > 1 and ny > 1:
        v_blocked[1:-1, :] = cell[:-1, :] & cell[1:, :]
    return HananGraph(xs, ys, h_blocked, v_blocked)


def _terminal_grid_points(term: Terminal, g: HananGraph) -> list[tuple[int, int]]:
    """Grid node indices lying on the terminal."""
    xi = {x: i for i, x in enumerate(g.xs)}
    yi = {y: j for j, y in enumerate(g.ys)}
    out: set[tuple[int, int]] = set()
    if term.kind == POINT:
        out.add((xi[term.point[0]], yi[term.point[1]]))
    elif term.kind == SEGMENT:
        out.update(_segment_nodes(term.segment, g, xi, yi))
    else:
        for e in term.polygon.edges():
            out.update(_segment_nodes(e, g, xi, yi))
    return sorted(out)


def _segment_nodes(seg: OrthoSegment, g: HananGraph, xi, yi) -> list[tuple[int, int]]:
    import bisect

    out = []
    if seg.vertical or seg.degenerate:
        x = seg.p[0]
        ylo, yhi = sorted((seg.p[1], seg.q[1]))
        j0 = bisect.bisect_left(g.ys, ylo)
        j1 = bisect.bisect_right(g.ys, yhi)
        for j in range(j0, j1):
            out.append((xi[x], j))
    else:
        y = seg.p[1]
        xlo, xhi = sorted((seg.p[0], seg.q[0]))
        i0 = bisect.bisect_left(g.xs, xlo)
        i1 = bisect.bisect_right(g.xs, xhi)
        for i in range(i0, i1):
            out.append((i, yi[y]))
    return out


def _terminals_touch(a: Terminal, b: Terminal) -> Optional[Point]:
    """A common point of the two terminals, if they intersect."""
    pts_a = _sample_geometry(a)
    for alo, ahi in pts_a:
        for blo, bhi in _sample_geometry(b):
            xlo = max(alo[0], blo[0])
            xhi = min(ahi[0], bhi[0])
            ylo = max(alo[1], blo[1])
            yhi = min(ahi[1], bhi[1])
            if xlo <= xhi and ylo <= yhi:
                return (xlo, ylo)
    return None


def _sample_geometry(t: Terminal) -> list[tuple[Point, Point]]:
    """Terminal as a list of axis-aligned boxes (segments are thin boxes)."""
    if t.kind == POINT:
        return [(t.point, t.point)]
    if t.kind == SEGMENT:
        p, q = t.segment.p, t.segment.q
        return [((min(p[0], q[0]), min(p[1], q[1])), (max(p[0], q[0]), max(p[1], q[1])))]
    out = []
    for e in t.polygon.edges():
        p, q = e.p, e.q
        out.append(((min(p[0], q[0]), min(p[1], q[1])), (max(p[0], q[0]), max(p[1], q[1]))))
    return out


class _StateGraph:
    """(node, link-orientation) expansion with combined (length, links) weights.

    Weight of an edge is ``step_length * big + link_delta`` which realises the
    lexicographic order as long as link counts stay below ``big``.
    """

    def __init__(self, g: HananGraph):
        nx, ny = g.shape
        self.g = g
        self.nx, self.ny = nx, ny
        self.n_nodes = nx * ny
        self.big = 4 * (self.n_nodes + 1)
        self.n_states = 2 * self.n_nodes + 2   # H states, V states, super S/T
        self.sup_s = 2 * self.n_nodes
        self.sup_t = 2 * self.n_nodes + 1

        xs = np.asarray(g.xs, dtype=np.int64)
        ys = np.asarray(g.ys, dtype=np.int64)
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        data: list[np.ndarray] = []

        def node_ids(i, j):
            return j * nx + i

        ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        if nx > 1:
            ok = ~g.h_blocked                      # (nx-1, ny)
            src = node_ids(ii[:-1, :][ok], jj[:-1, :][ok])
            dst = src + 1
            w = (xs[1:, None] - xs[:-1, None]) * np.ones((1, ny), dtype=np.int64)
            w = w[ok] * self.big
            for a, b in ((src, dst), (dst, src)):
                # into H-state of the far node; +1 link when coming from V
                rows.append(a)            # from H state
                cols.append(b)
                data.append(w)
                rows.append(a + self.n_nodes)   # from V state: turn
                cols.append(b)
                data.append(w + 1)
        if ny > 1:
            ok = ~g.v_blocked                      # (nx, ny-1)
            src = node_ids(ii[:, :-1][ok], jj[:, :-1][ok])
            dst = src + nx
            w = np.ones((nx, 1), dtype=np.int64) * (ys[None, 1:] - ys[None, :-1])
            w = w[ok] * self.big
            for a, b in ((src, dst), (dst, src)):
                rows.append(a + self.n_nodes)   # from V state
                cols.append(b + self.n_nodes)
                data.append(w)
                rows.append(a)                  # from H state: turn
                cols.append(b + self.n_nodes)
                data.append(w + 1)
        self._rows = rows
        self._cols = cols
        self._data = data

    def matrix(self, s_nodes: list[int], t_nodes: list[int]) -> csr_matrix:
        rows = [np.concatenate(self._rows)] if self._rows else [np.empty(0, dtype=np.int64)]
        cols = [np.concatenate(self._cols)] if self._cols else [np.empty(0, dtype=np.int64)]
        data = [np.concatenate(self._data)] if self._data else [np.empty(0, dtype=np.int64)]
        s = np.asarray(s_nodes, dtype=np.int64)
        t = np.asarray(t_nodes, dtype=np.int64)
        # entering the first link costs 1; arriving costs nothing more
        rows.append(np.full(2 * len(s), self.sup_s))
        cols.append(np.concatenate((s, s + self.n_nodes)))
        data.append(np.ones(2 * len(s), dtype=np.int64))
        rows.append(np.concatenate((t, t + self.n_nodes)))
        cols.append(np.full(2 * len(t), self.sup_t))
        # zero weights vanish in CSR; use a tiny epsilon-free trick: shift all
        # weights by nothing and keep explicit zeros via coo round-trip
        data.append(np.zeros(2 * len(t), dtype=np.int64))
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        d = np.concatenate(data).astype(np.float64)
        # scipy drops explicit zeros on csr conversion only via eliminate_zeros;
        # keep them by nudging zero weights to a value far below one link
        d[d == 0.0] = 0.25
        m = csr_matrix((d, (r, c)), shape=(self.n_states, self.n_states))
        return m


def _run_oracle(instance: Instance, want_path: bool, cap: int) -> OracleAnswer:
    g = build_hanan_graph(instance, cap=cap)
    touch = _terminals_touch(instance.source, instance.target)
    if touch is not None:
        return OracleAnswer(0, 0, PathResult((touch,), 0, 0), g.shape)
    sg = _StateGraph(g)
    nx = g.shape[0]
    s_nodes = [j * nx + i for i, j in _terminal_grid_points(instance.source, g)]
    t_nodes = [j * nx + i for i, j in _terminal_grid_points(instance.target, g)]
    m = sg.matrix(s_nodes, t_nodes)
    dist, pred = _csgraph_dijkstra(
        m, directed=True, indices=sg.sup_s, return_predecessors=True
    )
    combined = dist[sg.sup_t]
    if not np.isfinite(combined):
        raise OracleRefusal("terminals are disconnected on the oracle grid")
    total = int(round(combined - 0.25))  # remove the nudged target super-edge
    length, links = divmod(total, sg.big)
    path = None
    if want_path:
        chain = []
        cur = sg.sup_t
        while cur != sg.sup_s:
            cur = int(pred[cur])
            if cur == sg.sup_s:
                break
            node = cur % sg.n_nodes
            i, j = node % nx, node // nx
            chain.append((g.xs[i], g.ys[j]))
        chain.reverse()
        path = PathResult.from_points(chain)
        assert path.length == length and path.links == links, (
            "oracle witness disagrees with oracle cost"
        )
    return OracleAnswer(length, links, path, g.shape)


def oracle_solve(instance: Instance, want_path: bool = True, cap: int = GRID_CAP) -> OracleAnswer:
    """Exact (distance, links) with an optional witness path."""
    return _run_oracle(instance, want_path, cap)


# ---------------------------------------------------------------------------
# slow reference implementation (kept independent of the scipy route)

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
