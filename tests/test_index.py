"""The world's box index answers every hull query as the linear scans did.

Each indexed query is compared with its reference scan in
``scan_reference`` on generated worlds, in all eight frames: the blocking
query of a trace step (rays grazing edge endpoints, start points standing
on a west flank, ``x_stop`` inside a box), whole traces, the nearest hole
sections of region events, the hole selection of staircase regions and the midpoint
enumeration of x-case solves.  Results must be equal, tie order included,
and an indexed query may build the tables of no hull that the scan did not
read.
"""
from rectlink import partition
from rectlink.composer import _midpoints, _strip
from rectlink.engine import _double, build_world
from rectlink.generator import generate_instance
from rectlink.geometry import GeometryError, IDENTITY, RectPolygon, Xform
from rectlink.partition import (
    FrameTables,
    FrameView,
    World,
    _first_block,
    _section_reader,
    _trace_ru,
    build_staircase_region,
    classify,
    trace_ru,
)
import scan_reference as ref

# the eight signed axis permutations
XFORMS = ([Xform(sx, 0, 0, sy) for sx in (1, -1) for sy in (1, -1)]
          + [Xform(0, sx, sy, 0) for sx in (1, -1) for sy in (1, -1)])

# (seed, obstacles, coord limit, carve probability): sparse and dense,
# plain boxes and heavily carved staircases
WORLD_SPECS = [(0, 12, 150, 0.6), (1, 16, 120, 0.95), (2, 12, 400, 0.95),
               (3, 8, 60, 0.3), (4, 14, 200, 0.0), (5, 10, 160, 0.8)]


def _wide_world():
    """One box far wider than the rest, so the width window reaches back
    over many small boxes, plus a carved U-shape and boxes level with the
    wide one on either side."""
    return World([
        RectPolygon([(0, 0), (200, 0), (200, 10), (0, 10)]),
        RectPolygon([(20, 20), (30, 20), (30, 40), (20, 40)]),
        RectPolygon([(150, -30), (160, -30), (160, -20), (150, -20)]),
        RectPolygon([(210, 2), (220, 2), (220, 8), (210, 8)]),
        RectPolygon([(-20, 3), (-12, 3), (-12, 9), (-20, 9)]),
        RectPolygon([(40, 50), (60, 50), (60, 70), (54, 70), (54, 58),
                     (46, 58), (46, 70), (40, 70)]),
        RectPolygon([(70, 15), (90, 15), (90, 25), (70, 25)]),
        RectPolygon([(100, 12), (104, 12), (104, 60), (100, 60)]),
    ])


def _worlds():
    for seed, n, limit, carve in WORLD_SPECS:
        inst = generate_instance(7000 + seed, n_obstacles=n, coord_limit=limit,
                                 carve_prob=carve)
        yield f"seed {seed}", build_world(list(inst.obstacles))
    yield "wide", _wide_world()


def _probes(world, t):
    """(start, x_stops) pairs in frame ``t``: points standing on each west
    edge (its ends and its middle), rays from just west of each west edge
    and from west of every box at every vertex height (grazing edge
    endpoints), each with a stop far east, a stop inside another hull's box
    and a stop on the crossing itself."""
    tables = FrameTables(world, t)  # probing only: the queries get fresh ones
    n = len(tables)
    west_end = min(tables.xlo, default=0) - 3
    east_end = max(tables.xhi, default=0) + 3
    out: dict = {}
    for i in range(n):
        fp = tables[i]
        inside = tables.xlo[(i + 1) % n] + 1
        for x, lo, hi in fp.west:
            for y in (lo, hi, (lo + hi) // 2, lo + 1, hi - 1):
                for start in ((x, y), (x - 1, y)):
                    out.setdefault(start, set()).update((east_end, inside, x, x + 1))
        for vx, vy in fp.ring:
            for y in (vy - 1, vy, vy + 1):
                out.setdefault((west_end, y), set()).update((east_end, inside, vx))
                out.setdefault((vx, y), set()).update((east_end, vx + 1))
    return sorted((start, sorted(stops, reverse=True)) for start, stops in out.items())


def _built(tables):
    return set(tables._polys)


def test_blocking_queries_match_the_scans():
    """``_first_block`` equals the composed reference scan (standing flank
    first, then the first crossing east) on every probe in every frame, and
    builds a subset of the scans' tables."""
    hits = {"first": 0, "standing": 0, "cut": 0}
    for name, world in _worlds():
        for t in XFORMS:
            for start, stops in _probes(world, t):
                unbounded = None
                for x_stop in stops:
                    got_t, want_t = FrameTables(world, t), FrameTables(world, t)
                    got = _first_block(got_t, start, x_stop)
                    want = ref.blocking(want_t, start, x_stop)
                    assert got == want, (name, t, start, x_stop)
                    assert _built(got_t) <= _built(want_t), (name, t, start)
                    standing = got is not None and got[1] == start[0]
                    hits["standing"] += standing
                    hits["first"] += got is not None and not standing
                    if unbounded is None:
                        unbounded = got
                    # the stop fell short of a crossing the open ray has
                    hits["cut"] += got is None and unbounded is not None
    # every case the probes aim at occurred
    assert min(hits.values()) > 50, hits


def test_traces_match_scanning_traces(monkeypatch):
    """Whole traces equal traces made with the scans, failures included."""
    cases = []
    for name, world in _worlds():
        for t in XFORMS:
            for start, stops in _probes(world, t)[::3]:
                cases.append((name, world, t, start, stops[0]))

    def run():
        out = []
        for name, world, t, start, x_stop in cases:
            try:
                tr = _trace_ru(FrameTables(world, t), start, x_stop)
                out.append((tr.points, tr.touched))
            except GeometryError as e:
                out.append(str(e))
        return out

    got = run()
    monkeypatch.setattr(partition, "_first_block", ref.blocking)
    want = run()
    assert got == want
    assert sum(isinstance(g, tuple) and len(g[1]) > 1 for g in got) > 100
    # a trace from a point in no obstacle's open box, as every trace of a
    # solve is, rises weakly in both coordinates along its path, so its
    # sorted order is its path order, as ``StepCurve.max_x_to`` assumes.  A
    # probe inside a box, west of a descending flank, would step west to the
    # wall: that trace raises instead, and every trace that completes rises
    rising = inside = 0
    for (name, world, t, start, _), g in zip(cases, got):
        tables = FrameTables(world, t)
        in_box = any(tables.xlo[i] < start[0] < tables.xhi[i]
                     and tables.ylo[i] < start[1] < tables.yhi[i]
                     for i in range(len(tables)))
        if isinstance(g, tuple) and not in_box:
            assert all(a[0] <= b[0] and a[1] <= b[1]
                       for a, b in zip(g[0], g[0][1:])), (name, t, start)
            rising += 1
        elif isinstance(g, tuple):
            assert all(a[0] <= b[0] and a[1] <= b[1]
                       for a, b in zip(g[0], g[0][1:])), (name, t, start)
        elif g == "trace starts inside an obstacle's open box":
            assert in_box, (name, t, start)
            inside += 1
    assert rising > 1000
    assert inside > 400


def _sentinel_baselines(polys, holes):
    """Baselines of every section end of ``holes``, between one below the
    lowest and one above the highest, which no section reaches."""
    ys = sorted({y for h in holes for _, _, y in polys[h].horiz})
    return {y: i for i, y in enumerate([ys[0] - 1] + ys + [ys[-1] + 1])}


def test_nearest_sections_match_the_scan_in_every_frame():
    """Every hull of a frame as a hole, at every box wall and one unit
    either side of it; every section end and box end of the crossing hulls,
    one unit either side, as ``y_lo = y_hi``, and consecutive and outermost
    pairs of them as ``y_lo < y_hi``."""
    checked = 0
    for name, world in _worlds():
        for t in XFORMS:
            polys = FrameTables(world, t)
            holes = list(range(len(polys)))
            idx = _sentinel_baselines(polys, holes)
            near = _section_reader(polys, holes, idx)
            xs = sorted({x + d for x in polys.xlo + polys.xhi for d in (-1, 0, 1)})
            for x in xs:
                secs = ref.hole_sections(polys, holes, x, skip=None)
                ends = {y for h in holes if polys.xlo[h] < x < polys.xhi[h]
                        for y in (polys.ylo[h], polys.yhi[h])}
                ends |= {y for sec in secs for y in sec}
                ys = sorted({y + d for y in ends for d in (-1, 0, 1)}) or [0]
                for y_lo, y_hi in ([(y, y) for y in ys] + list(zip(ys, ys[1:]))
                                   + [(ys[0], ys[-1])]):
                    assert near(x, y_lo, y_hi) == ref.baseline_ends(
                        idx, ref.nearest_ends(secs, y_lo, y_hi)), (name, t, x, y_lo, y_hi)
                checked += len(secs)
    assert checked > 1000


def _xy_regions():
    """(world, total frame, region) for proper xy pairs of generated
    instances, asked for through a view of every frame, so regions of all
    eight total frames occur."""
    for seed in range(40):
        inst = generate_instance(7100 + seed, n_obstacles=14, coord_limit=160,
                                 carve_prob=0.9)
        world = build_world(list(inst.obstacles))
        s2, t2 = _double(inst.source.point), _double(inst.target.point)
        if s2[0] == t2[0] or s2[1] == t2[1]:
            continue
        for base in XFORMS:
            view = FrameView(world, base)
            bs, bt = base.apply(s2), base.apply(t2)
            kind, q = classify(view, bs, bt)
            if kind == "xy":
                yield world, base.then(q), build_staircase_region(view, q, bs, bt)


def test_region_holes_and_sections_match_the_scans():
    """Each region's holes, and its nearest sections at every strip column
    and one either side, every baseline."""
    frames, holes_seen, seen = set(), 0, set()
    for world, total, region in _xy_regions():
        assert region.holes == ref.region_holes(world, total, region.s, region.t)
        frames.add(total)
        if (id(world), total, region.s, region.t) in seen:
            continue  # the same region, reached through another view
        seen.add((id(world), total, region.s, region.t))
        polys = world.frame(total)
        ys = region.baselines
        idx = {y: i for i, y in enumerate(ys)}
        near = _section_reader(polys, region.holes, idx)
        for x in range(region.s[0] - 1, region.t[0] + 2):
            secs = ref.hole_sections(polys, region.holes, x, skip=None)
            for y_lo, y_hi in [(y, y) for y in ys] + [(ys[0], ys[-1])]:
                assert near(x, y_lo, y_hi) \
                    == ref.baseline_ends(idx, ref.nearest_ends(secs, y_lo, y_hi))
        holes_seen += len(region.holes)
    assert frames == set(XFORMS)
    assert holes_seen > 20


def test_midpoints_match_the_scan_in_every_frame():
    """Strips whose ends fall on box walls, inside boxes and outside all."""
    nodes_seen = 0
    for name, world in _worlds():
        for t in XFORMS:
            probe = FrameTables(world, t)
            ends = sorted({x + d for x in probe.xlo + probe.xhi for d in (-1, 1)})
            ends = ends[::3] + [ends[0] - 5, ends[-1] + 5]
            for sx in ends:
                for tx in ends:
                    if tx <= sx:
                        continue
                    got_t, want_t = FrameTables(world, t), FrameTables(world, t)
                    got = [(nd.point, nd.hull, nd.side)
                           for nd in _midpoints(got_t, _strip(got_t, sx, tx), sx, tx)]
                    assert got == ref.midpoints(want_t, sx, tx), (name, t, sx, tx)
                    assert _built(got_t) <= _built(want_t)
                    nodes_seen += len(got)
    assert nodes_seen > 1000


def test_a_trace_across_a_wide_gap_builds_only_the_hull_it_climbs():
    """The ray from (0, 5) crosses an empty gap to the box at x = 600 and
    climbs it.  The box behind the start, the box level with the start but
    past the climbed one, and the box past ``x_stop`` are never reached, so
    no table of theirs is built; a scan over every hull built both boxes
    east of the start that the ray's height meets."""
    # instance coordinates, half the doubled ones the trace reads
    world = World([
        RectPolygon([(-50, 0), (-45, 0), (-45, 5), (-50, 5)]),       # behind
        RectPolygon([(300, 0), (305, 0), (305, 5), (300, 5)]),       # climbed
        RectPolygon([(350, 1), (355, 1), (355, 4), (350, 4)]),       # shadowed
        RectPolygon([(1000, 0), (1005, 0), (1005, 10), (1000, 10)]),  # past stop
    ])
    tr = trace_ru(world.frame(IDENTITY), (0, 5), 1000)
    assert tr.points == [(0, 5), (600, 5), (600, 10), (1000, 10)]
    assert tr.touched == [1]
    assert set(world.frame(IDENTITY)._polys) == {1}
    assert world.hull_tables_built == 1
    scan = FrameTables(world, IDENTITY)
    ref.first_block(scan, (0, 5), 1000)
    assert set(scan._polys) == {1, 2, 3}


def test_holes_one_unit_inside_the_strip_are_found():
    """Holes whose box starts one unit east of s and ends one unit west of
    t, in instance coordinates, reported in hull order.  The region's ends
    are doubled, as the world reads the holes."""
    world = World([RectPolygon([(6, 7), (9, 7), (9, 9), (6, 9)]),
                   RectPolygon([(1, 1), (5, 1), (5, 5), (1, 5)])])
    region = build_staircase_region(world, IDENTITY, (0, 0), (20, 20))
    assert region.holes == [0, 1] \
        == ref.region_holes(world, IDENTITY, (0, 0), (20, 20))
