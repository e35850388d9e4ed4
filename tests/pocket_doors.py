"""Pocket and door enumeration for tests.

A pocket is a connected component of an obstacle's bounding box minus the
closed obstacle; its doors are the parts of its boundary on the box.
``rectlink.frontend`` never enumerates pockets: it searches the box grid
from each terminal (``rectlink.pockets.GridSearch``) and reads the
crossings off the search.  The acceptance check on door properties and
``tests/test_pockets.py`` use these helpers to find pockets and probe
them independently of that search.  ``into_pocket`` moves a terminal of a
generated instance into a pocket, which the generator itself never does.
``all_vertex_crossings`` is the crossing read-out that visits every grid
vertex and keeps the box corners and the door vertices of the doors
``find_pockets`` finds: the reference for ``GridSearch.crossings``, which
reads the ring and tells a door vertex by the box grid's free cells.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

from rectlink.geometry import GeometryError, OrthoSegment, Point, RectPolygon
from rectlink.model import Instance, Terminal, validate
from rectlink.pockets import BoxGrid, Crossing, GridSearch


@dataclass
class Pocket:
    """One connected component of box minus closed polygon, with its doors."""

    host: int
    door_h: Optional[OrthoSegment]
    door_v: Optional[OrthoSegment]
    cells: frozenset[tuple[int, int]]


def find_pockets(poly: RectPolygon, host: int = -1) -> list[Pocket]:
    """All pockets of ``poly``'s bounding box, with their doors.

    Each pocket's boundary meets the box in at most one horizontal and one
    vertical door segment; more doors mean the polygon is not simple or
    not in general position, and raise.
    """
    grid = BoxGrid(poly.bbox, poly)
    nx, ny = len(grid.xs) - 1, len(grid.ys) - 1
    seen = [[False] * ny for _ in range(nx)]
    pockets: list[Pocket] = []
    for i0 in range(nx):
        for j0 in range(ny):
            if seen[i0][j0] or not grid.cell_free[i0][j0]:
                continue
            cells = []
            stack = [(i0, j0)]
            seen[i0][j0] = True
            while stack:
                i, j = stack.pop()
                cells.append((i, j))
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < nx and 0 <= nj < ny and not seen[ni][nj] \
                            and grid.cell_free[ni][nj]:
                        seen[ni][nj] = True
                        stack.append((ni, nj))
            pockets.append(Pocket(
                host=host,
                door_h=_door(grid, cells, horizontal=True),
                door_v=_door(grid, cells, horizontal=False),
                cells=frozenset(cells),
            ))
    return pockets


def _door(grid: BoxGrid, cells: list[tuple[int, int]],
          horizontal: bool) -> Optional[OrthoSegment]:
    """Merge a pocket's boundary cell edges on the horizontal (or vertical)
    box sides into the single door segment, if any."""
    nx, ny = len(grid.xs) - 1, len(grid.ys) - 1
    runs: list[tuple[int, int, int]] = []  # (fixed coord, lo, hi)
    if horizontal:
        for y_cells, y_line in ((0, grid.ys[0]), (ny - 1, grid.ys[-1])):
            idx = sorted(i for i, j in cells if j == y_cells)
            runs.extend((y_line, grid.xs[a], grid.xs[b + 1])
                        for a, b in _merge_runs(idx))
    else:
        for x_cells, x_line in ((0, grid.xs[0]), (nx - 1, grid.xs[-1])):
            idx = sorted(j for i, j in cells if i == x_cells)
            runs.extend((x_line, grid.ys[a], grid.ys[b + 1])
                        for a, b in _merge_runs(idx))
    if not runs:
        return None
    if len(runs) > 1:
        raise GeometryError("pocket with more than one door per orientation")
    fixed, lo, hi = runs[0]
    if horizontal:
        return OrthoSegment((lo, fixed), (hi, fixed))
    return OrthoSegment((fixed, lo), (fixed, hi))


def _merge_runs(idx: list[int]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for k in idx:
        if out and out[-1][1] == k - 1:
            out[-1] = (out[-1][0], k)
        else:
            out.append((k, k))
    return out


def pocket_containing(pockets: list[Pocket], grid: BoxGrid,
                      p: Point) -> Optional[Pocket]:
    """The pocket whose cells contain ``p``, for points strictly inside
    the box and outside the closed polygon."""
    i = bisect.bisect_right(grid.xs, p[0]) - 1
    j = bisect.bisect_right(grid.ys, p[1]) - 1
    for pk in pockets:
        if (i, j) in pk.cells:
            return pk
    return None


def pocket_spots(inst: Instance) -> list[Point]:
    """Integer points strictly inside some obstacle's box and outside the
    closed obstacle, on no x and no y that an obstacle or a terminal of
    ``inst`` uses: the unused coordinates strictly inside the free cells of
    each obstacle's box grid."""
    xs_used, ys_used = inst.all_coords()
    spots = []
    for ob in inst.obstacles:
        grid = BoxGrid(ob.bbox, ob)
        for i, column in enumerate(grid.cell_free):
            free_x = [x for x in range(grid.xs[i] + 1, grid.xs[i + 1])
                      if x not in xs_used]
            for j, free in enumerate(column):
                if free:
                    spots.extend((x, y) for x in free_x
                                 for y in range(grid.ys[j] + 1, grid.ys[j + 1])
                                 if y not in ys_used)
    return spots


def into_pocket(inst: Instance, end: str, kind: str, rng,
                tries: int = 20) -> Optional[Instance]:
    """``inst`` with its ``end`` terminal ("source" or "target") replaced by
    a point (``kind`` "point") or an axis-parallel segment (``kind``
    "segment") that starts at a ``pocket_spots`` point.  A segment runs to
    another unused coordinate up to 40 units away, so it may stay in the
    pocket or leave the box through the pocket's door.  Candidates that
    ``validate`` rejects are skipped; None when ``tries`` draws all fail or
    no obstacle has a pocket spot.
    """
    spots = pocket_spots(inst)
    if not spots:
        return None
    xs_used, ys_used = inst.all_coords()
    for _ in range(tries):
        p = rng.choice(spots)
        if kind == "point":
            term = Terminal.of_point(p)
        else:
            axis = rng.randrange(2)
            used = xs_used if axis == 0 else ys_used
            far = [c for c in range(p[axis] - 40, p[axis] + 41)
                   if c != p[axis] and c not in used]
            q = list(p)
            q[axis] = rng.choice(far)
            term = Terminal.of_segment(p, tuple(q))
        source = term if end == "source" else inst.source
        target = term if end == "target" else inst.target
        moved = Instance(obstacles=inst.obstacles, source=source, target=target)
        if not validate(moved):
            return moved
    return None


def all_vertex_crossings(search: GridSearch,
                         blocker: Optional[RectPolygon] = None) -> list[Crossing]:
    """``search.crossings()`` read off every grid vertex in column-major
    order: every box corner, and every vertex on a door of ``blocker``'s
    pockets (``find_pockets``), once per box side it lies on.  With no
    ``blocker``, every vertex on the box's ring."""
    grid = search.grid
    doors = None if blocker is None else [
        door for pk in find_pockets(blocker)
        for door in (pk.door_h, pk.door_v) if door is not None]
    nx, ny = len(grid.xs), len(grid.ys)
    out: list[Crossing] = []
    for i in range(nx):
        for j in range(ny):
            sides: list[Point] = []
            if j == 0:
                sides.append((0, -1))
            if j == ny - 1:
                sides.append((0, 1))
            if i == 0:
                sides.append((-1, 0))
            if i == nx - 1:
                sides.append((1, 0))
            p = (grid.xs[i], grid.ys[j])
            if doors is not None and len(sides) == 1 \
                    and not any(door.contains(p) for door in doors):
                continue
            for c in sides:
                got = search.best_at(p, heading=c)
                if got is not None:
                    out.append(Crossing(point=p, out_dir=c, dist=got[0],
                                        links=got[1], state=got[2],
                                        search=search))
    return out
