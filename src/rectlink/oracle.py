"""Exact brute-force baseline on the Hanan grid.

Every minimum-link shortest path can be aligned to the grid induced by the
obstacle and terminal coordinates, so a lexicographic (length, links)
Dijkstra over that grid is an exact oracle.  It is deliberately independent
of the sweep-based solver: no code is shared beyond the basic geometry
types.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .geometry import OrthoSegment, PathResult, Point, RectPolygon
from .model import Instance, POINT, SEGMENT, Terminal

GRID_CAP = 500


class OracleRefusal(RuntimeError):
    """Raised when the oracle cannot answer exactly: the grid exceeds the
    cap, the combined cost reaches 2**53 (beyond exact float64 sums), or
    the terminals are disconnected on the grid."""


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


def _terminal_states(term: Terminal, g: HananGraph) -> np.ndarray:
    """Both direction states of every grid node on the terminal."""
    nx, ny = g.shape
    nodes = np.array([j * nx + i for i, j in _terminal_grid_points(term, g)])
    return np.concatenate((nodes, nodes + nx * ny))


def _state_graph(g: HananGraph, big: int) -> csr_matrix:
    """The grid's direction states as one CSR, rows in state order.

    State ``o * n + node`` is grid node ``node = j * nx + i`` entered
    horizontally (``o = 0``) or vertically (``o = 1``).  A state steps to
    each free neighbour: left and right into H states, down and up into V
    states.  A step weighs ``length * big + turn``, the turn being 1 when
    the orientation changes, which orders paths by (length, links) while
    links stay below ``big``.
    """
    nx, ny = g.shape
    n = nx * ny
    node = np.arange(n, dtype=np.int32).reshape(ny, nx)
    step = np.zeros((ny, nx, 4))              # left, right, down, up; 0: none
    step[:, 1:, 0] = np.where(g.h_blocked.T, 0, np.diff(g.xs))
    step[:, :-1, 1] = step[:, 1:, 0]
    step[1:, :, 2] = np.where(g.v_blocked.T, 0, np.diff(g.ys)[:, None])
    step[:-1, :, 3] = step[1:, :, 2]
    free = step > 0
    cols = np.stack((node - 1, node + 1, node + n - nx, node + n + nx), axis=-1)[free]
    weight = step[free] * big
    vertical = np.broadcast_to(np.array([False, False, True, True]), free.shape)[free]
    indptr = np.zeros(2 * n + 1, dtype=np.int32)
    np.cumsum(np.tile(free.sum(axis=-1).ravel(), 2), out=indptr[1:])
    return csr_matrix(
        (np.concatenate((weight + vertical, weight + ~vertical)),
         np.concatenate((cols, cols)), indptr),
        shape=(2 * n, 2 * n),
    )


def oracle_solve(instance: Instance, want_path: bool = True, cap: int = GRID_CAP) -> OracleAnswer:
    """Exact (distance, links) with an optional witness path."""
    g = build_hanan_graph(instance, cap=cap)
    touch = _terminals_touch(instance.source, instance.target)
    if touch is not None:
        return OracleAnswer(0, 0, PathResult((touch,), 0, 0), g.shape)
    nx, ny = g.shape
    n = nx * ny
    big = 4 * (n + 1)
    targets = _terminal_states(instance.target, g)
    out = _csgraph_dijkstra(_state_graph(g, big), indices=_terminal_states(instance.source, g),
                            min_only=True, return_predecessors=want_path)
    dist = out[0] if want_path else out
    end = int(targets[np.argmin(dist[targets])])
    if not np.isfinite(dist[end]):
        raise OracleRefusal("terminals are disconnected on the oracle grid")
    # the sources start at 0, so the first link adds its 1 here; a total
    # below 2**53 is exact, since every partial sum of its path is smaller
    if dist[end] + 1 >= 2 ** 53:
        raise OracleRefusal(f"combined cost {dist[end] + 1:.0f} reaches 2**53, "
                            "beyond exact float64 sums")
    length, links = divmod(int(dist[end]) + 1, big)
    path = None
    if want_path:
        pred = out[1]
        chain = [end]
        while pred[chain[-1]] >= 0:
            chain.append(int(pred[chain[-1]]))
        path = PathResult.from_points(
            [(g.xs[v % n % nx], g.ys[v % n // nx]) for v in reversed(chain)]
        )
        if (path.length, path.links) != (length, links):
            raise RuntimeError("oracle witness disagrees with oracle cost")
    return OracleAnswer(length, links, path, g.shape)

