import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rectlink import engine, partition
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
from frame_reference import columns, mapped_polygon, reference_tables
from fuzz_instances import instances
import region_reference
import scan_reference
from test_frontend import _perfbench

# instance coordinates; a world reads it doubled, as the box (4, 4)-(10, 8)
RECT = RectPolygon([(2, 2), (5, 2), (5, 4), (2, 4)])


_TRACE_RU = partition._trace_ru


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

    def test_a_ray_below_the_west_wall_rises_past_equal_shoulders(self):
        # a T lying on its side, stem west: the lower-left and upper-left
        # steps share x = 4, so a ray below the west wall meets a
        # lower-left edge at an x the hug also steps at, and must still
        # climb the west wall
        tee = RectPolygon([(0, 4), (4, 4), (4, 0), (12, 0), (12, 12), (4, 12),
                           (4, 8), (0, 8)])
        tr = trace_ru(World([tee]).frame(IDENTITY), (-10, 2), 40)
        assert tr.points == [(-10, 2), (0, 2), (0, 8), (0, 16), (8, 16),
                             (8, 24), (40, 24)]
        assert _monotone(tr.points)

    def test_monotone_on_random_worlds(self):
        for seed in range(40):
            inst = generate_instance(seed, n_obstacles=10, coord_limit=150)
            world = build_world(list(inst.obstacles))
            s2 = _double(inst.source.point)
            tr = trace_ru(world.frame(IDENTITY), s2, 420)
            assert _monotone(tr.points), f"seed {seed}"
            assert tr.points[0] == s2

    @settings(max_examples=300, deadline=5000, derandomize=True, database=None)
    @given(instances())
    def test_every_trace_of_a_fuzzed_solve_is_monotone(self, inst):
        # the strategy's boxes with both west corners carved are Ts with
        # equal shoulders, and its pocket terminals send rays below their
        # west walls
        traced = []

        def recording(polys, start, x_stop):
            traced.append(_TRACE_RU(polys, start, x_stop))
            return traced[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partition, "_trace_ru", recording)
            solve(inst)
        assert all(_monotone(tr.points) for tr in traced)


class TestClassify:
    def test_empty_world_is_xy(self):
        w = World([])
        kind, frame = classify(w, (0, 0), (7, 3))
        assert kind == "xy"
        assert frame == IDENTITY

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


def _proper_xy_pair(seed):
    """(world, frame, s2, t2) of generated instance ``seed`` when its pair
    classifies as xy with distinct xs and distinct ys, else None."""
    inst = generate_instance(seed, n_obstacles=8, coord_limit=120)
    world = build_world(list(inst.obstacles))
    s2, t2 = _double(inst.source.point), _double(inst.target.point)
    kind, frame = classify(world, s2, t2)
    if kind != "xy" or s2[0] == t2[0] or s2[1] == t2[1]:
        return None
    return world, frame, s2, t2


@functools.cache
def _proper_xy_seeds(want=30):
    """The first ``want`` seeds, counting from 0, of proper xy pairs."""
    proper = (seed for seed in itertools.count() if _proper_xy_pair(seed) is not None)
    return list(itertools.islice(proper, want))


class TestStaircaseRegion:
    @pytest.mark.parametrize("k", range(30))
    def test_structure(self, k):
        world, frame, s2, t2 = _proper_xy_pair(_proper_xy_seeds()[k])
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


def _shared_x_world():
    """Holes that break general position, as ``validate`` would not let a
    solve build them (instance coordinates; the world doubles them).

    The pair (0, 0)-(100, 100) has one touched obstacle, C: the trace east
    from the source climbs its west wall at x = 40, so the bottom envelope
    jumps there.  Holes, in world order: H1 with se and nw steps at x = 40
    and nw at 30, ne at 50; H2 above it with an sw step at 30 (shared with
    H1's nw) and its east wall at 40 (shared with H1's steps and C's wall);
    H4 whose west wall is at 50 (shared with H1's ne and H3's se); H3 with
    an se step at 50; and two boxes east of them, H6 resting on H5, so that
    one's section ends where the other's begins.  At 30 and 40 a hole's
    change after the read of an earlier hole must show already, and at 50
    a hole's change before the read of a later one must not yet.  Events
    read these xs doubled: 60, 80 and 100."""
    return World([
        RectPolygon([(40, -10), (50, -10), (50, 10), (40, 10)]),            # C
        RectPolygon([(20, 20), (40, 20), (40, 24), (60, 24), (60, 36),      # H1
                     (50, 36), (50, 44), (40, 44), (40, 38), (30, 38),
                     (30, 34), (20, 34)]),
        RectPolygon([(10, 55), (30, 55), (30, 50), (40, 50), (40, 70),      # H2
                     (10, 70)]),
        RectPolygon([(50, 46), (56, 46), (56, 50), (50, 50)]),              # H4
        RectPolygon([(45, 52), (50, 52), (50, 56), (58, 56), (58, 66),      # H3
                     (45, 66)]),
        RectPolygon([(62, 30), (70, 30), (70, 40), (62, 40)]),              # H5
        RectPolygon([(64, 40), (68, 40), (68, 48), (64, 48)]),              # H6
    ])


def _plus_world():
    """A plus-shaped hole (the bars 30..70 x 45..55 and 45..55 x 30..70),
    orthogonally convex, with two west-facing edges at x = 45 (an sw and an
    nw step) and two east-facing ones at 55, and a box above it."""
    return World([
        RectPolygon([(30, 45), (45, 45), (45, 30), (55, 30), (55, 45), (70, 45),
                     (70, 55), (55, 55), (55, 70), (45, 70), (45, 55), (30, 55)]),
        RectPolygon([(40, 80), (60, 80), (60, 90), (40, 90)]),
    ])


def _region_and_reference(world, s, t):
    region = build_staircase_region(world, IDENTITY, s, t)
    want = region_reference.build_staircase_region(world, IDENTITY, s, t)
    assert (region.baselines, region.holes, region.events) \
        == (want.baselines, want.holes, want.events)
    return region


class TestRegionTies:
    def test_a_region_needs_only_disjoint_boxes(self):
        """Edges of different holes, a box wall and an envelope jump share
        xs: the region equals the reference build's, and every read at a
        shared x is the closed read of the holes crossing that line."""
        world = _shared_x_world()
        region = _region_and_reference(world, (0, 0), (200, 200))
        assert region.holes == [1, 2, 3, 4, 5, 6]
        polys = world.frame(IDENTITY)
        assert scan_reference.reread_events(
            region, lambda x: scan_reference.hole_sections(polys, region.holes, x)) \
            == region.events
        at = {x: [e.kind for e in region.events if e.x == x] for x in (60, 80, 100)}
        assert at == {60: ["nw_step", "sw_step"],
                      80: ["detach", "se_step", "nw_step", "merge"],
                      100: ["ne_step", "split", "se_step"]}
        # the reads that a change made at its own step would get wrong
        idx = {y: i for i, y in enumerate(region.baselines)}
        by_kind = {(e.x, e.kind): e for e in region.events}
        assert by_kind[60, "nw_step"].chmin == (idx[76], idx[100])      # H2 at 100, not 110
        assert by_kind[80, "nw_step"].chmin == (idx[88], len(idx) - 1)  # H2 gone
        assert by_kind[100, "split"].src[0] == idx[88]                  # H1 at 88, not 72
        assert by_kind[100, "se_step"].src[0] == idx[88]                # H4 not yet in
        assert by_kind[128, "split"].src[0] == idx[80]                  # H5's top

    def test_a_plus_keeps_ring_order_at_a_shared_x(self):
        """The plus's sw and nw steps at one x keep ring order, as its se
        and ne steps do, and the region equals the reference build's."""
        world = _plus_world()
        region = _region_and_reference(world, (0, 0), (200, 200))
        assert region.holes == [0, 1]
        assert [e.kind for e in region.events if e.x == 90] == ["sw_step", "nw_step"]
        assert [e.kind for e in region.events if e.x == 110] == ["se_step", "ne_step"]
        idx = {y: i for i, y in enumerate(region.baselines)}
        nw = next(e for e in region.events if e.kind == "nw_step")
        assert nw.chmin == (idx[140], idx[160])                         # the box above


class TestStepCurve:
    @given(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                    max_size=12),
           st.integers(-40, 40))
    def test_queries_match_a_scan(self, points, x):
        curve = StepCurve(points)
        assert curve.max_y_at(x) == max(
            (py for px, py in points if px <= x), default=-float("inf"))

    @given(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
           st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12),
           st.integers(-40, 80))
    def test_max_x_to_matches_a_scan_on_rising_points(self, start, steps, y):
        # a path whose coordinates both rise weakly, as a trace's do
        points = [start]
        for dx, dy in steps:
            points.append((points[-1][0] + dx, points[-1][1] + dy))
        random.Random(len(points)).shuffle(points)
        curve = StepCurve(points)
        assert curve.max_x_to(y) == max(
            (px for px, py in points if py <= y), default=-float("inf"))

    def test_outside_the_x_range(self):
        curve = StepCurve([(0, 5), (3, 7), (3, 2), (8, 9)])
        assert curve.max_y_at(-1) == -float("inf")
        assert curve.max_y_at(100) == 9
        rising = StepCurve([(0, 2), (3, 2), (3, 7), (8, 9)])
        assert rising.max_x_to(1) == -float("inf")
        assert rising.max_x_to(2) == 3
        assert rising.max_x_to(100) == 8


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
        """A region asked for through a view carries the frame the view
        passed, and the same content whichever view asked for it."""
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
            assert (got.s, got.t, got.baselines, got.events, got.holes) \
                == (region.s, region.t, region.baselines, region.events, region.holes)


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


def _vertical_edges(hull, t):
    """(x, y low, y high, west-facing) of the vertical edges of ``hull``
    seen in frame ``t``, in ring order; a counterclockwise ring runs down
    its west-facing edges."""
    return [(e.p[0], min(e.p[1], e.q[1]), max(e.p[1], e.q[1]), e.q[1] < e.p[1])
            for e in mapped_polygon(hull, t).vertical_edges()]


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
                assert ft[i].vertical == _vertical_edges(h, t), (seed, t, i)
        assert len(hulled) == len(world.obstacles)
        assert [world.hull(i) for i in range(len(eager))] == eager

    def test_region_holes_build_no_climb_chain(self, monkeypatch):
        """On the first point-large instance of n = 800, the solve builds
        one staircase region, with 265 holes and 1 834 events.  Every hole's
        ``vertical`` table lists the mapped ring's vertical edges, and no
        hole's climb chain is built: ``_build_hug`` never reads a hole's
        ring."""
        inst = generate_instance(97 * 800, 800, coord_limit=30 * 800)
        chains, regions = [], []
        build_hug, build = partition._build_hug, engine.build_staircase_region
        monkeypatch.setattr(partition, "_build_hug",
                            lambda ring, yhi: chains.append(ring) or build_hug(ring, yhi))
        monkeypatch.setattr(engine, "build_staircase_region",
                            lambda world, *args: regions.append(
                                (world, build(world, *args))) or regions[-1][1])
        solve(inst)
        ((world, region),) = regions
        assert (len(region.holes), len(region.events)) == (265, 1834)
        polys = world.frame(region.frame)
        assert chains and not {polys[h].ring for h in region.holes} & set(chains)
        for h in region.holes:
            assert polys[h].vertical == _vertical_edges(world.hull(h), region.frame)

    def test_blocking_queries_build_no_climb_chain(self, monkeypatch):
        """Point-small's two-link solves read hull tables only through the
        L tests' blocking queries, which read ``east_horiz`` and never
        ``hug``: they build tables but no climb chain.  Each of the two is
        built on its own, and equals its eager reference column."""
        chains = []
        build_hug = partition._build_hug
        monkeypatch.setattr(partition, "_build_hug",
                            lambda ring, yhi: chains.append(ring) or build_hug(ring, yhi))
        two_link = tables = 0
        for inst in _perfbench("workloads").base_pool("point-small"):
            chains.clear()
            report = solve(inst)
            if report.stats["two_link_pairs"]:
                assert chains == []
                two_link += 1
                tables += report.stats["hull_tables_built"]
        assert two_link == 206 and tables > 50
        world = build_world(_dented(0).obstacles)
        for t in XFORMS:
            ft = world.frame(t)
            for i in range(len(world.obstacles)):
                want = reference_tables(world.hull(i), t)
                chains.clear()
                assert ft[i].east_horiz == want["east_horiz"]
                assert chains == []
                assert ft[i].hug == want["hug"] and len(chains) == 1

    @given(st.integers(0, 10_000))
    def test_a_hull_keeps_the_obstacle_box(self, seed):
        """The box index reads obstacle boxes as hull boxes."""
        for ob in _dented(seed, n_obstacles=6).obstacles:
            assert rectilinear_convex_hull(ob).bbox == ob.bbox
