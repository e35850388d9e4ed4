import heapq
import random

import pytest

from rectlink.engine import build_world
from rectlink.frontend import _attachments, _Lines
from rectlink.generator import generate_instance
from rectlink.geometry import UNIT_DIRS, GeometryError, OrthoSegment, Rect, RectPolygon
from rectlink.pockets import BoxGrid, GridSearch
from pocket_doors import (
    all_vertex_crossings,
    find_pockets,
    into_pocket,
    pocket_containing,
)
from shapes import rect_polygon

U_SHAPE = RectPolygon([(0, 0), (6, 0), (6, 4), (4, 4), (4, 2), (2, 2), (2, 4), (0, 4)])
STAIR = RectPolygon([(0, 0), (6, 0), (6, 2), (4, 2), (4, 4), (2, 4), (2, 6), (0, 6)])


class TestFindPockets:
    def test_rectangle_has_none(self):
        assert find_pockets(rect_polygon(Rect(0, 0, 4, 3))) == []

    def test_u_shape_notch(self):
        pockets = find_pockets(U_SHAPE)
        assert len(pockets) == 1
        p = pockets[0]
        assert p.door_h == OrthoSegment((2, 4), (4, 4))
        assert p.door_v is None

    def test_staircase_doors(self):
        pockets = find_pockets(STAIR)
        assert len(pockets) == 1
        p = pockets[0]
        # the pocket above the staircase opens along the box top and the
        # box right side
        assert p.door_h == OrthoSegment((2, 6), (6, 6))
        assert p.door_v == OrthoSegment((6, 2), (6, 6))

    def test_pocket_containing(self):
        grid = BoxGrid(U_SHAPE.bbox, U_SHAPE)
        pockets = find_pockets(U_SHAPE)
        assert pocket_containing(pockets, grid, (3, 3)) is pockets[0]
        assert pocket_containing(pockets, grid, (1, 1)) is None


class TestBoxGrid:
    def test_cells_classified_by_blocker(self):
        g = BoxGrid(U_SHAPE.bbox, U_SHAPE)
        i, j = g.vertex((2, 2))
        assert g.cell_free[i][j]          # notch cell
        i, j = g.vertex((0, 0))
        assert not g.cell_free[i][j]      # solid part of the U

    def test_boundary_ring_is_walkable(self):
        # the obstacle fills its box bottom, yet the bottom boundary edge
        # is still legal: obstacles are open
        g = BoxGrid(U_SHAPE.bbox, U_SHAPE)
        i, j = g.vertex((0, 0))
        assert g.step_ok(i, j, (1, 0))

    def test_unknown_vertex_raises(self):
        g = BoxGrid(U_SHAPE.bbox, U_SHAPE)
        with pytest.raises(GeometryError):
            g.vertex((3, 3))


def _brute_best(grid, sources, target):
    """Reference lexicographic Dijkstra over the same grid."""
    best = {}
    heap = []
    for p in sources:
        i, j = grid.vertex(p)
        for di, d in enumerate(UNIT_DIRS):
            if grid.step_ok(i, j, d):
                ni, nj = i + d[0], j + d[1]
                w = abs(grid.xs[ni] - grid.xs[i]) + abs(grid.ys[nj] - grid.ys[j])
                k = (ni, nj, di)
                if (w, 1) < best.get(k, (1 << 60, 0)):
                    best[k] = (w, 1)
                    heapq.heappush(heap, (w, 1, ni, nj, di))
    while heap:
        dist, links, i, j, di = heapq.heappop(heap)
        if best.get((i, j, di)) != (dist, links):
            continue
        d = UNIT_DIRS[di]
        for di2, d2 in enumerate(UNIT_DIRS):
            if d2 == (-d[0], -d[1]) or not grid.step_ok(i, j, d2):
                continue
            ni, nj = i + d2[0], j + d2[1]
            w = abs(grid.xs[ni] - grid.xs[i]) + abs(grid.ys[nj] - grid.ys[j])
            cand = (dist + w, links + (0 if d2 == d else 1))
            if cand < best.get((ni, nj, di2), (1 << 60, 0)):
                best[(ni, nj, di2)] = cand
                heapq.heappush(heap, (*cand, ni, nj, di2))
    ti, tj = grid.vertex(target)
    if grid.vertex(target) in {grid.vertex(p) for p in sources}:
        return (0, 0)
    vals = [best[(ti, tj, di)] for di in range(4) if (ti, tj, di) in best]
    return min(vals) if vals else None


class TestGridSearch:
    def test_source_is_free(self):
        g = BoxGrid(U_SHAPE.bbox, U_SHAPE, extra_xs=[3], extra_ys=[3])
        gs = GridSearch(g, [(3, 3)])
        assert gs.at((3, 3)) == (0, 0, ((3, 3),))

    def test_matches_reference_on_random_grids(self):
        rng = random.Random(1)
        shapes = [U_SHAPE, STAIR,
                  RectPolygon([(0, 0), (8, 0), (8, 2), (6, 2), (6, 6),
                               (8, 6), (8, 8), (0, 8)])]
        for trial in range(60):
            poly = shapes[trial % len(shapes)]
            g = BoxGrid(poly.bbox, poly,
                        extra_xs=[rng.randrange(0, 9)],
                        extra_ys=[rng.randrange(0, 9)])
            verts = [(x, y) for x in g.xs for y in g.ys]
            src = rng.choice(verts)
            gs = GridSearch(g, [src])
            for tgt in verts:
                got = gs.at(tgt)
                want = _brute_best(g, [src], tgt)
                if want is None:
                    assert got is None
                else:
                    assert got[:2] == want, (trial, src, tgt)

    def test_crossing_profiles_cover_the_boundary(self):
        g = BoxGrid(U_SHAPE.bbox, U_SHAPE, extra_xs=[3], extra_ys=[3])
        gs = GridSearch(g, [(3, 3)])
        cr = gs.crossings()
        # every crossing leaves the box outward and reports a consistent
        # witness path ending at its point
        for c in cr:
            assert c.path[-1] == c.point
            assert c.point[0] in (g.xs[0], g.xs[-1]) \
                or c.point[1] in (g.ys[0], g.ys[-1])
        # the notch opens at the top: the cheapest crossing is straight up
        top = min((c for c in cr if c.out_dir == (0, 1)),
                  key=lambda c: (c.dist, c.links))
        assert top.point == (3, 4)
        assert (top.dist, top.links) == (1, 1)


def test_ring_crossings_match_the_all_vertex_loop():
    """On pocket instances (``into_pocket``), every box search the frontend
    makes reads the same crossings off the grid's ring as the loop over
    every grid vertex, in the same order, which sets attachment order and
    so the tie-breaking."""
    rng = random.Random(12)
    searches = crossings = 0
    for seed in range(40):
        inst = generate_instance(8100 + seed, n_obstacles=8, coord_limit=300,
                                 carve_prob=0.95)
        inst = into_pocket(inst, "source", ("point", "segment")[seed % 2], rng)
        if inst is None:
            continue
        world = build_world(inst.obstacles)
        for term in (inst.source, inst.target):
            _, found, _, _ = _attachments(inst, term, _Lines(inst), world)
            for gs in found:
                got = gs.crossings()
                blocker, = [ob for ob in inst.obstacles if ob.bbox == gs.grid.box]
                assert got == all_vertex_crossings(gs, blocker), seed
                searches += 1
                crossings += len(got)
    assert searches >= 30 and crossings > 1000, (searches, crossings)
