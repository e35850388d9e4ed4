"""Pockets of a bounding box and shortest paths through their doors.

A terminal may sit inside an obstacle's bounding box without touching the
obstacle: it then lives in a pocket, a connected component of the box minus
the closed obstacle.  Any path to the outside crosses the box boundary
through a door, the part of a pocket's boundary lying on the box.  This
module builds the box-local Hanan grid, runs a lexicographic (length,
links) Dijkstra with direction states over it, and reports, for every
box corner and door vertex, the best way to arrive there about to leave
the box.  The same search answers in-box queries: the best route from
a terminal inside the box to any grid point of the box, such as the other
terminal's points in the same box or on its ring.

Only doors and box corners hand over.  A crossing ``(p, c)`` leaves the box
at a ring vertex p heading c.  ``GridSearch.crossings`` keeps it only when
p is a box corner or a door vertex, one whose grid edge into the box along
``-c`` borders a free cell.  Dropping any other crossing loses no answer:

* such a p lies inside a wall, and the obstacle fills both cells along
  that edge, so the lead reaches p along the wall;
* the lead's last segment starts at a vertex s of that wall, where the
  lead arrives heading c: from inside the box through a free cell's edge,
  so s is a door vertex, or along the perpendicular wall, so s is a
  corner (no lead arrives from outside the box).  So s is kept, and its
  crossing costs at most the lead's part up to s;
* the dropped crossing turns at s and at p.  From s's junction, half a
  unit outside the wall, the same two turns, with the run between them
  half a unit outside the wall, give the same length and links.  That run
  is free: boxes are interior-disjoint and no two obstacles share a
  coordinate, so no open box reaches it;
* the engine's solve from s's junction sees that route, and the pair's L1
  bound is at most the route's cost, so the pair loop reaches it.

Only the witness of a tie can change, since the tie rule picks among the
offers made.
"""
from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .geometry import (
    UNIT_DIRS,
    GeometryError,
    Point,
    Rect,
    RectPolygon,
)


@dataclass(frozen=True)
class Crossing:
    """Best arrival at a box-boundary point, about to step out of the box.

    ``links`` counts the segments of the inside path including the one
    heading ``out_dir`` through the boundary; a caller continuing straight
    outward extends that segment for free.  Search sources lie strictly
    inside the box and crossings on its ring, so ``links`` is at least 1.
    ``state`` is the search state the best arrival ends in; ``path`` walks
    the search's parents back from it on each read.
    """

    point: Point
    out_dir: Point
    dist: int
    links: int
    state: tuple[int, int, int]
    search: GridSearch = field(compare=False, repr=False)

    @property
    def path(self) -> tuple[Point, ...]:
        return self.search._walk(self.state)


class BoxGrid:
    """Hanan grid clipped to a bounding box; the blocker's cells are closed."""

    def __init__(self, box: Rect, blocker: RectPolygon,
                 extra_xs: Sequence[int] = (), extra_ys: Sequence[int] = ()):
        xs = {box.xlo, box.xhi}
        ys = {box.ylo, box.yhi}
        xs.update(v[0] for v in blocker.vertices)
        ys.update(v[1] for v in blocker.vertices)
        xs.update(x for x in extra_xs if box.xlo <= x <= box.xhi)
        ys.update(y for y in extra_ys if box.ylo <= y <= box.yhi)
        self.box = box
        self.xs = sorted(xs)
        self.ys = sorted(ys)
        edges = [(e.p[0], *sorted((e.p[1], e.q[1])))
                 for e in blocker.vertical_edges()]
        self.cell_free = [
            [not _odd_crossings(edges, self.xs[i] + self.xs[i + 1],
                                self.ys[j] + self.ys[j + 1])
             for j in range(len(self.ys) - 1)]
            for i in range(len(self.xs) - 1)
        ]

    def vertex(self, p: Point) -> tuple[int, int]:
        i = bisect.bisect_left(self.xs, p[0])
        j = bisect.bisect_left(self.ys, p[1])
        if i == len(self.xs) or j == len(self.ys) \
                or self.xs[i] != p[0] or self.ys[j] != p[1]:
            raise GeometryError(f"{p} is not a grid vertex")
        return i, j

    def _free(self, ci: int, cj: int) -> bool:
        # outside the box is free space: the boundary ring is always
        # walkable, even where the blocker touches it from inside
        if 0 <= ci < len(self.xs) - 1 and 0 <= cj < len(self.ys) - 1:
            return self.cell_free[ci][cj]
        return True

    def step_ok(self, i: int, j: int, d: Point) -> bool:
        """Whether the unit grid edge out of vertex (i, j) borders free area."""
        if not (0 <= i + d[0] < len(self.xs) and 0 <= j + d[1] < len(self.ys)):
            return False
        if d[0]:
            ci = i if d[0] > 0 else i - 1
            return self._free(ci, j - 1) or self._free(ci, j)
        cj = j if d[1] > 0 else j - 1
        return self._free(i - 1, cj) or self._free(i, cj)


def _odd_crossings(vertical_edges, cx2: int, cy2: int) -> bool:
    """Even-odd test at a doubled-coordinate cell centre."""
    count = 0
    for x, lo, hi in vertical_edges:
        if 2 * x < cx2 and 2 * lo < cy2 < 2 * hi:
            count += 1
    return count % 2 == 1


class GridSearch:
    """Lexicographic (length, links) Dijkstra with direction states."""

    def __init__(self, grid: BoxGrid, sources: Sequence[Point]):
        self.grid = grid
        self.sources = {grid.vertex(p) for p in sources}
        xs, ys = grid.xs, grid.ys
        best: dict[tuple[int, int, int], tuple[int, int]] = {}
        parent: dict[tuple[int, int, int], Optional[tuple[int, int, int]]] = {}
        heap: list[tuple[int, int, int, int, int]] = []

        def relax(key, cost, par):
            if cost < best.get(key, (1 << 60, 0)):
                best[key] = cost
                parent[key] = par
                heapq.heappush(heap, (*cost, *key))

        for (si, sj) in self.sources:
            for di, d in enumerate(UNIT_DIRS):
                if not grid.step_ok(si, sj, d):
                    continue
                ni, nj = si + d[0], sj + d[1]
                w = abs(xs[ni] - xs[si]) + abs(ys[nj] - ys[sj])
                relax((ni, nj, di), (w, 1), (si, sj, -1))
        while heap:
            dist, links, i, j, di = heapq.heappop(heap)
            if best.get((i, j, di)) != (dist, links):
                continue
            d = UNIT_DIRS[di]
            back = (-d[0], -d[1])
            for di2, d2 in enumerate(UNIT_DIRS):
                if d2 == back or not grid.step_ok(i, j, d2):
                    continue
                ni, nj = i + d2[0], j + d2[1]
                w = abs(xs[ni] - xs[i]) + abs(ys[nj] - ys[j])
                turn = 0 if d2 == d else 1
                relax((ni, nj, di2), (dist + w, links + turn), (i, j, di))
        self.best = best
        self.parent = parent

    def _walk(self, key: tuple[int, int, int]) -> tuple[Point, ...]:
        pts: list[Point] = []
        cur: Optional[tuple[int, int, int]] = key
        while cur is not None:
            i, j, _ = cur
            pts.append((self.grid.xs[i], self.grid.ys[j]))
            cur = self.parent.get(cur)
        pts.reverse()
        return tuple(pts)

    def best_at(self, p: Point, heading: Optional[Point] = None
                ) -> Optional[tuple[int, int, tuple[int, int, int]]]:
        """Best (dist, links, state) into ``p``; with ``heading`` set, paths
        not already travelling that way pay one link for the turn.  A source
        ends in its own state ``(i, j, -1)``, which has no parent."""
        i, j = self.grid.vertex(p)
        if (i, j) in self.sources:
            return 0, 0, (i, j, -1)
        out: Optional[tuple[int, int, tuple[int, int, int]]] = None
        for di, d in enumerate(UNIT_DIRS):
            got = self.best.get((i, j, di))
            if got is None:
                continue
            turn = 0 if heading is None or d == heading else 1
            cand = (got[0], got[1] + turn, (i, j, di))
            if out is None or cand[:2] < out[:2]:
                out = cand
        return out

    def at(self, p: Point, heading: Optional[Point] = None
           ) -> Optional[tuple[int, int, tuple[Point, ...]]]:
        """Best (dist, links, path) into ``p``, as ``best_at`` reads it."""
        got = self.best_at(p, heading)
        return None if got is None else (got[0], got[1], self._walk(got[2]))

    def crossings(self) -> list[Crossing]:
        """Profiles at every reachable box corner and door vertex, one per
        outward direction; a door vertex's is kept only where its grid edge
        into the box borders a free cell (see the module docstring).  Only
        the grid's ring is read, column by column: the whole west and east
        columns and the two ends of every other column."""
        grid = self.grid
        nx, ny = len(grid.xs), len(grid.ys)
        out: list[Crossing] = []
        for i in range(nx):
            for j in range(ny) if i in (0, nx - 1) else (0, ny - 1):
                sides: list[Point] = []
                if j == 0:
                    sides.append((0, -1))
                if j == ny - 1:
                    sides.append((0, 1))
                if i == 0:
                    sides.append((-1, 0))
                if i == nx - 1:
                    sides.append((1, 0))
                corner = len(sides) == 2
                p = (grid.xs[i], grid.ys[j])
                for c in sides:
                    if not corner and not grid.step_ok(i, j, (-c[0], -c[1])):
                        continue
                    got = self.best_at(p, heading=c)
                    if got is not None:
                        out.append(Crossing(point=p, out_dir=c, dist=got[0],
                                            links=got[1], state=got[2],
                                            search=self))
        return out
