import itertools
import random

import pytest
from hypothesis import given, strategies as st

from rectlink import partition
from rectlink.engine import _double, build_world
from rectlink.frontend import solve
from rectlink.generator import generate_instance
from rectlink.geometry import (
    IDENTITY,
    Rect,
    RectPolygon,
    Xform,
    rectilinear_convex_hull,
)
from rectlink.partition import (
    FrameView,
    StepCurve,
    World,
    build_staircase_region,
    classify,
    trace_ru,
)
from dents import dent_instance
from frame_reference import columns, reference_tables

# instance coordinates; a world reads it doubled, as the box (4, 4)-(10, 8)
RECT = RectPolygon([(2, 2), (5, 2), (5, 4), (2, 4)])


def _monotone(pts):
    return all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(pts, pts[1:]))


class TestTraceRu:
    def test_free_ray_goes_straight(self):
        w = World([RECT])
        tr = trace_ru(w.frame(IDENTITY), (0, 10), 20)
        assert tr.points == [(0, 10), (20, 10)]

    def test_grazing_a_bottom_corner_passes(self):
        # the boundary continues east from (4, 4), so a ray at y=4 may
        # ride along the open obstacle's bottom side
        w = World([RECT])
        tr = trace_ru(w.frame(IDENTITY), (0, 4), 20)
        assert tr.points == [(0, 4), (20, 4)]
        assert tr.touched == []

    def test_interior_height_climbs_the_west_wall(self):
        w = World([RECT])
        tr = trace_ru(w.frame(IDENTITY), (0, 5), 20)
        assert tr.points[0] == (0, 5)
        assert tr.points[-1] == (20, 8)
        assert (4, 8) in tr.points
        assert tr.touched == [0]
        assert _monotone(tr.points)

    def test_grazing_the_top_corner_passes(self):
        w = World([RECT])
        tr = trace_ru(w.frame(IDENTITY), (0, 8), 20)
        assert tr.points == [(0, 8), (20, 8)]

    def test_starting_on_the_west_wall(self):
        w = World([RECT])
        tr = trace_ru(w.frame(IDENTITY), (4, 5), 20)
        assert tr.points[-1] == (20, 8)
        assert _monotone(tr.points)

    def test_monotone_on_random_worlds(self):
        for seed in range(40):
            inst = generate_instance(seed, n_obstacles=10, coord_limit=150)
            world = build_world(list(inst.obstacles))
            s2 = _double(inst.source.point)
            tr = trace_ru(world.frame(IDENTITY), s2, 420)
            assert _monotone(tr.points), f"seed {seed}"
            assert tr.points[0] == s2


class TestClassify:
    def test_empty_world_is_xy(self):
        w = World([])
        kind, frame = classify(w, (0, 0), (7, 3))
        assert kind == "xy"
        assert frame == IDENTITY

    def test_same_point(self):
        assert classify(World([]), (5, 5), (5, 5))[0] == "same"

    def test_wall_forces_x_case(self):
        wall = RectPolygon([(2, -10), (5, -10), (5, 10), (2, 10)])
        kind, _ = classify(World([wall]), (0, 0), (14, 0))
        assert kind == "x"

    def test_quadrants_give_consistent_kinds(self):
        w = World([RECT])
        for s, t in [((0, 0), (20, 20)), ((20, 20), (0, 0)),
                     ((0, 20), (20, 0)), ((20, 0), (0, 20))]:
            kind, frame = classify(w, s, t)
            assert kind == "xy"
            sf, tf = frame.apply(s), frame.apply(t)
            assert tf[0] >= sf[0] and tf[1] >= sf[1]


class TestStaircaseRegion:
    @pytest.mark.parametrize("seed", range(30))
    def test_structure(self, seed):
        inst = generate_instance(seed, n_obstacles=8, coord_limit=120)
        world = build_world(list(inst.obstacles))
        s2, t2 = _double(inst.source.point), _double(inst.target.point)
        kind, frame = classify(world, s2, t2)
        if kind != "xy" or s2[0] == t2[0] or s2[1] == t2[1]:
            pytest.skip("not a proper xy pair")
        region = build_staircase_region(world, frame, s2, t2)
        assert region.baselines == sorted(region.baselines)
        assert region.baselines[0] == region.s[1]
        assert region.baselines[-1] == region.t[1]
        assert region.events[0].kind == "originate"
        assert all(a.x <= b.x for a, b in
                   zip(region.events, region.events[1:]))
        # every event lies in the region's x-span and every non-empty
        # range it reads or writes names existing baselines
        for e in region.events:
            assert region.s[0] <= e.x <= region.t[0]
            for r in (e.src, e.assign, e.assign_inf, e.chmin, e.deactivate):
                if r is not None and r[0] <= r[1]:
                    assert 0 <= r[0] and r[1] < region.m


class TestStepCurve:
    @given(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                    max_size=12),
           st.integers(-40, 40))
    def test_queries_match_a_scan(self, points, x):
        curve = StepCurve(points)
        assert curve.max_y_at(x) == max(
            (py for px, py in points if px <= x), default=-float("inf"))
        assert curve.min_y_from(x) == min(
            (py for px, py in points if px >= x), default=float("inf"))

    def test_outside_the_x_range(self):
        curve = StepCurve([(0, 5), (3, 7), (3, 2), (8, 9)])
        assert curve.max_y_at(-1) == -float("inf")
        assert curve.min_y_from(9) == float("inf")
        assert curve.max_y_at(100) == 9
        assert curve.min_y_from(-100) == 2


# the eight signed axis permutations
XFORMS = ([Xform(sx, 0, 0, sy) for sx in (1, -1) for sy in (1, -1)]
          + [Xform(0, sx, sy, 0) for sx in (1, -1) for sy in (1, -1)])


class TestSharedFrames:
    @pytest.mark.parametrize("seed", range(6))
    def test_view_matches_a_transformed_world(self, seed):
        """Every column of every hull, read through each of the 64 (view,
        frame) pairs, equals an eager table built from ``RectPolygon`` of
        the mapped ring; a frame reads the boxes and the xlo order from the
        world's index and builds a hull's tables only when they are read."""
        inst = generate_instance(seed, n_obstacles=8, coord_limit=120)
        world = build_world(list(inst.obstacles))
        n = len(world.obstacles)
        for base, g in itertools.product(XFORMS, XFORMS):
            total = base.then(g)
            fresh = total not in world._frames
            shared = FrameView(world, base).frame(g)
            assert shared is world.frame(total)
            assert len(shared) == n
            boxes = []
            for i in range(n):
                want = reference_tables(world.hull(i), total)
                box = Rect(shared.xlo[i], shared.ylo[i],
                           shared.xhi[i], shared.yhi[i])
                assert box == want["box"], (seed, base, g)
                boxes.append(box)
                # the index serves the box; reading it builds no table
                assert shared.tables_built == (i if fresh else n), (seed, base, g)
                assert columns(shared[i]) == want, (seed, base, g)
                assert shared.tables_built == (i + 1 if fresh else n)
            assert shared.order == sorted(range(n), key=lambda i: (boxes[i].xlo, i))
            assert shared.keys == [boxes[i].xlo for i in shared.order]
            assert shared.width == max(b.xhi - b.xlo for b in boxes)
        # every view reads the one cache: eight frames, however many views
        assert len(world._frames) == 8
        assert world.hull_tables_built == 8 * n

    @pytest.mark.parametrize("seed", range(6))
    def test_views_keep_their_own_region_frame(self, seed):
        """A region asked for through a view is memoised under the frame the
        view passed, so each view gets a region whose ``frame`` is its own."""
        for k in range(seed * 50, seed * 50 + 50):
            inst = generate_instance(k, n_obstacles=8, coord_limit=120)
            world = build_world(list(inst.obstacles))
            s2, t2 = _double(inst.source.point), _double(inst.target.point)
            kind, q = classify(world, s2, t2)
            if kind == "xy" and s2[0] != t2[0] and s2[1] != t2[1]:
                break
        else:
            pytest.fail("no xy pair among the seeds")
        region = build_staircase_region(world, q, s2, t2)
        for base in XFORMS:
            # the view's coordinates are base-mapped, and base.then(q2) == q
            q2 = base.inverse().then(q)
            got = build_staircase_region(FrameView(world, base), q2,
                                         base.apply(s2), base.apply(t2))
            assert got.frame == q2
            assert (got is region) == (base == IDENTITY)
            assert (got.s, got.t, got.baselines, got.events, got.holes) \
                == (region.s, region.t, region.baselines, region.events, region.holes)
        assert world.regions_built == 8


class TestInstanceCoordinates:
    """A world keeps the obstacles in instance coordinates and doubles
    only what its index and its frames read."""

    def test_a_solve_world_holds_the_instance_obstacles(self, monkeypatch):
        worlds = []
        init = World.__init__

        def recording_init(self, obstacles):
            worlds.append(self)
            init(self, obstacles)

        monkeypatch.setattr(World, "__init__", recording_init)
        inst = generate_instance(41, 12, coord_limit=150,
                                 source_kind="polygon", target_kind="segment")
        solve(inst)
        (world,) = worlds
        assert len(world.obstacles) == len(inst.obstacles) == 12
        for i in range(12):
            assert world.obstacles[i] is inst.obstacles[i]

    def test_building_a_world_makes_no_polygon(self, monkeypatch):
        """On the first point-large instance of n = 800 (seed 97 * n,
        coordinate limit 30 * n), ``build_world`` constructs no
        ``RectPolygon`` by either constructor, and its index holds the
        doubled boxes."""
        inst = generate_instance(97 * 800, 800, coord_limit=30 * 800)
        made = []
        init, wrap = RectPolygon.__init__, RectPolygon.from_normalised

        def counting_init(self, vertices):
            made.append(vertices)
            init(self, vertices)

        def counting_wrap(cls, vertices):
            made.append(vertices)
            return wrap(vertices)

        monkeypatch.setattr(RectPolygon, "__init__", counting_init)
        monkeypatch.setattr(RectPolygon, "from_normalised", classmethod(counting_wrap))
        world = build_world(list(inst.obstacles))
        assert made == []
        assert len(world.obstacles) == 800
        ft = world.frame(IDENTITY)
        assert [Rect(ft.xlo[i], ft.ylo[i], ft.xhi[i], ft.yhi[i])
                for i in range(800)] \
            == [Rect(2 * b.xlo, 2 * b.ylo, 2 * b.xhi, 2 * b.yhi)
                for b in (o.bbox for o in inst.obstacles)]

    @given(st.integers(0, 10_000))
    def test_hulling_commutes_with_doubling(self, seed):
        """The hull of a doubled carved or dented obstacle is its doubled
        hull, so a world may hull in instance coordinates and double the
        hull's vertices; in every frame, a world's ring of the obstacle is
        the mapped ring of the doubled obstacle's hull."""
        def double(vs):
            return [(2 * x, 2 * y) for x, y in vs]

        for ob in _dented(seed, n_obstacles=6).obstacles:
            hull2 = rectilinear_convex_hull(RectPolygon(double(ob.vertices)))
            assert list(hull2.vertices) \
                == double(rectilinear_convex_hull(ob).vertices)
            world = World([ob])
            for t in XFORMS:
                want = RectPolygon([t.apply(v) for v in hull2.vertices])
                assert world.frame(t)[0].ring == want.vertices, (seed, t)


def _dented(seed, n_obstacles=8, coord_limit=120):
    inst = generate_instance(seed, n_obstacles=n_obstacles,
                             coord_limit=coord_limit, carve_prob=0.6)
    return dent_instance(inst, random.Random(seed))


class TestLazyHulls:
    def test_a_solve_hulls_only_the_obstacles_it_reads(self, monkeypatch):
        """An obstacle is hulled once, when the first frame builds its
        tables: a point solve among 200 obstacles hulls exactly the
        obstacles whose tables some frame built, and far from all."""
        worlds, hulled = [], []
        init, hull = World.__init__, partition.rectilinear_convex_hull

        def recording_init(self, obstacles):
            worlds.append(self)
            init(self, obstacles)

        def counting_hull(poly):
            hulled.append(poly)
            return hull(poly)

        monkeypatch.setattr(World, "__init__", recording_init)
        monkeypatch.setattr(partition, "rectilinear_convex_hull", counting_hull)
        solve(generate_instance(97 * 200, 200, coord_limit=6000))
        (world,) = worlds
        read = set().union(*(ft._polys for ft in world._frames.values()))
        assert len(set(map(id, hulled))) == len(hulled)
        assert {id(p) for p in hulled} == {id(world.obstacles[i]) for i in read}
        assert 0 < len(hulled) < len(world.obstacles) / 2

    @pytest.mark.parametrize("seed", range(6))
    def test_dented_obstacles_read_their_eager_hulls(self, seed, monkeypatch):
        """On obstacles that are not their own hulls, the tables every frame
        builds lazily equal an eager table of the obstacle's hull, and all
        eight frames share one hull per obstacle."""
        inst = _dented(seed)
        world = build_world(list(inst.obstacles))
        eager = [rectilinear_convex_hull(o) for o in world.obstacles]
        assert sum(h != o for h, o in zip(eager, world.obstacles)) >= 4
        hulled = []
        hull = partition.rectilinear_convex_hull
        monkeypatch.setattr(partition, "rectilinear_convex_hull",
                            lambda poly: hulled.append(poly) or hull(poly))
        for t in XFORMS:
            ft = world.frame(t)
            for i, h in enumerate(eager):
                assert columns(ft[i]) == reference_tables(h, t), (seed, t, i)
        assert len(hulled) == len(world.obstacles)
        assert [world.hull(i) for i in range(len(eager))] == eager

    @given(st.integers(0, 10_000))
    def test_a_hull_keeps_the_obstacle_box(self, seed):
        """The box index reads obstacle boxes as hull boxes."""
        for ob in _dented(seed, n_obstacles=6).obstacles:
            assert rectilinear_convex_hull(ob).bbox == ob.bbox
