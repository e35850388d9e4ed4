"""End-to-end acceptance checks.

One test per acceptance criterion, in order.  Each test prints a single
summary line, so a verbose run doubles as a checklist.  These are the slow
suites: together they solve a few thousand instances against the grid
oracle.
"""

from rectlink.bench import run_bench
from rectlink.engine import _double, build_world
from rectlink.composer import solve_x_case
from rectlink.frontend import solve
from rectlink.generator import GenerationError, generate_instance
from rectlink.geometry import RectPolygon, rectilinear_convex_hull
from rectlink.model import Instance, Terminal, validate
from rectlink.oracle import oracle_closest_pairs, oracle_solve
from rectlink.partition import (
    TRACE_FRAMES,
    StepCurve,
    build_staircase_region,
    classify,
    trace_path,
)
from rectlink.pockets import BoxGrid, GridSearch, find_pockets
from rectlink.sweep import INF, NaiveStore, reconstruct_path, run_sweep
from tree_store import TreeStore, final_state


def _instances(kinds, want, n_mix=(4, 8, 12, 18, 24, 30), coord_limit=200,
               start_seed=0, **kwargs):
    """Yield ``want`` generated instances, cycling terminal kinds and sizes."""
    made = 0
    seed = start_seed
    while made < want:
        seed += 1
        sk, tk = kinds[made % len(kinds)]
        n = n_mix[made % len(n_mix)]
        try:
            inst = generate_instance(seed, n_obstacles=n,
                                     coord_limit=coord_limit,
                                     source_kind=sk, target_kind=tk, **kwargs)
        except GenerationError:
            continue
        made += 1
        yield seed, inst


def _monotone(pts):
    return (all(a[0] <= b[0] for a, b in zip(pts, pts[1:]))
            or all(a[0] >= b[0] for a, b in zip(pts, pts[1:]))) and \
           (all(a[1] <= b[1] for a, b in zip(pts, pts[1:]))
            or all(a[1] >= b[1] for a, b in zip(pts, pts[1:])))


def test_1_solver_matches_oracle_on_point_and_segment_terminals():
    kinds = [("point", "point"), ("point", "segment"),
             ("segment", "point"), ("segment", "segment")]
    count = 0
    for seed, inst in _instances(kinds, want=1000):
        got = solve(inst)
        ora = oracle_solve(inst, want_path=False)
        assert (got.distance, got.links) == (ora.distance, ora.links), \
            f"seed {seed}: solve {(got.distance, got.links)} " \
            f"oracle {(ora.distance, ora.links)}"
        count += 1
    print(f"\nacceptance 1/8 solver vs oracle, point/segment terminals: "
          f"PASS ({count} instances)")


def test_2_solver_matches_oracle_on_polygon_terminals():
    kinds = [("polygon", "polygon"), ("polygon", "point"),
             ("point", "polygon"), ("polygon", "segment"),
             ("segment", "polygon")]
    count = 0
    for seed, inst in _instances(kinds, want=200, start_seed=50_000):
        got = solve(inst)
        ora = oracle_solve(inst, want_path=False)
        assert (got.distance, got.links) == (ora.distance, ora.links), \
            f"seed {seed}: solve {(got.distance, got.links)} " \
            f"oracle {(ora.distance, ora.links)}"
        count += 1
    print(f"\nacceptance 2/8 solver vs oracle, polygon terminals: "
          f"PASS ({count} instances)")


def test_3_box_interiors_can_save_links():
    """A hand-built layout where every best box-avoiding route loses.

    The source is a staircase polygon with two outer corners, both at
    distance 76 from the target square, so the closest pair is not unique.
    The true optimum threads the first obstacle's bounding box through the
    gap beside its top bar and needs 2 links; once the full boxes are
    treated as solid, every shortest path needs 3.
    """
    src = RectPolygon([(9, -13), (23, -13), (23, -5), (14, -5), (14, 4), (9, 4)])
    dst = RectPolygon([(46, 48), (50, 48), (50, 52), (46, 52)])
    o1 = RectPolygon([(7, 38), (11, 38), (11, 49), (27, 49), (27, 58), (7, 58)])
    o2 = RectPolygon([(37, 34), (41, 34), (41, 43), (48, 43), (48, 47), (37, 47)])
    inst = Instance(obstacles=(o1, o2), source=Terminal.of_polygon(src),
                    target=Terminal.of_polygon(dst))
    assert validate(inst) == []

    pairs = set(oracle_closest_pairs(inst))
    assert len(pairs) >= 2, pairs

    true_ans = oracle_solve(inst, want_path=False)
    got = solve(inst)
    assert (got.distance, got.links) == (true_ans.distance, true_ans.links)

    boxed = Instance(obstacles=(o1.bbox.to_polygon(), o2.bbox.to_polygon()),
                     source=inst.source, target=inst.target)
    assert validate(boxed) == []
    box_ans = oracle_solve(boxed, want_path=False)
    assert box_ans.distance == true_ans.distance
    assert true_ans.links < box_ans.links

    print(f"\nacceptance 3/8 box-interior link gap: PASS "
          f"(d={true_ans.distance}, links {true_ans.links} vs "
          f"{box_ans.links} box-avoiding, {len(pairs)} closest pairs)")


def _xy_regions(want, start_seed=0, n_obstacles=10, coord_limit=150):
    found = 0
    seed = start_seed
    while found < want:
        seed += 1
        assert seed < start_seed + 30 * want, "region pool ran dry"
        try:
            inst = generate_instance(seed, n_obstacles=n_obstacles,
                                     coord_limit=coord_limit)
        except GenerationError:
            continue
        world = build_world(list(inst.obstacles))
        s2, t2 = _double(inst.source.point), _double(inst.target.point)
        kind, frame = classify(world, s2, t2)
        if kind != "xy" or s2[0] == t2[0] or s2[1] == t2[1]:
            continue
        found += 1
        yield seed, build_staircase_region(world, frame, s2, t2)


def test_4_naive_and_tree_sweeps_agree():
    count = 0
    for seed, region in _xy_regions(want=500):
        naive = run_sweep(region, NaiveStore(region.m))
        tree = run_sweep(region, TreeStore(region.m))
        assert naive.lam == tree.lam, f"seed {seed}"
        assert naive.event_values == tree.event_values, f"seed {seed}"
        assert final_state(naive.store) == final_state(tree.store), f"seed {seed}"
        count += 1
    print(f"\nacceptance 4/8 naive vs tree sweep stores: PASS "
          f"({count} regions)")


_QUADRANT_PAIRS = [("ru", "ur"), ("lu", "ul"), ("rd", "dr"), ("ld", "dl")]


def _assert_traces_ordered(world, s2, lo, hi, seed):
    """The two extreme monotone paths of a quadrant never cross.

    Mapped into the x-primary trace's frame, the y-primary trace must stay
    weakly above it; both must come out monotone.
    """
    for a, b in _QUADRANT_PAIRS:
        f = TRACE_FRAMES[a]
        stop = (hi if "r" in a + b else lo, hi if "u" in a + b else lo)
        fa = [f.apply(p) for p in trace_path(world, a, s2, stop).points]
        fb = [f.apply(p) for p in trace_path(world, b, s2, stop).points]
        assert _monotone(fa) and _monotone(fb), f"seed {seed} {a}/{b}"
        curve = StepCurve(fa)
        xmax = max(x for x, _ in fa)
        for x, y in fb:
            if x <= xmax:
                assert y >= curve.max_y_at(x), f"seed {seed} {a}/{b} at {x}"


def _assert_winder_sides(inst, pts, seed):
    """Every reversal run of a shortest path rides a full obstacle side."""
    segs = [(a, b) for a, b in zip(pts, pts[1:]) if a != b]

    def sgn(v):
        return (v > 0) - (v < 0)

    for k in range(1, len(segs) - 1):
        (a0, a1), (m0, m1), (b0, b1) = segs[k - 1], segs[k], segs[k + 1]
        da = (sgn(a1[0] - a0[0]), sgn(a1[1] - a0[1]))
        db = (sgn(b1[0] - b0[0]), sgn(b1[1] - b0[1]))
        if da != (-db[0], -db[1]):
            continue
        horizontal = m0[1] == m1[1]
        if horizontal:
            line, lo, hi = m0[1], *sorted((m0[0], m1[0]))
        else:
            line, lo, hi = m0[0], *sorted((m0[1], m1[1]))
        found = False
        for ob in inst.obstacles:
            edges = (ob.horizontal_edges() if horizontal
                     else ob.vertical_edges())
            for e in edges:
                fixed = e.p[1] if horizontal else e.p[0]
                axis = 0 if horizontal else 1
                ea, eb = sorted((e.p[axis], e.q[axis]))
                if fixed == line and lo <= ea and eb <= hi:
                    found = True
                    break
            if found:
                break
        assert found, f"seed {seed}: bare reversal run {m0}-{m1}"


def test_5_structural_invariants():
    # trace ordering, trace monotonicity, winder side containment, and
    # grid alignment of solver output, over one shared instance pool
    count = 0
    for seed, inst in _instances([("point", "point")], want=200,
                                 n_mix=(6, 10, 14), coord_limit=140):
        world = build_world(list(inst.obstacles))
        s2 = _double(inst.source.point)
        coords = [c for ob in inst.obstacles for v in ob.vertices for c in v]
        lo, hi = 2 * min(coords) - 40, 2 * max(coords) + 40
        _assert_traces_ordered(world, s2, lo, hi, seed)

        ora = oracle_solve(inst)
        assert ora.path is not None
        _assert_winder_sides(inst, list(ora.path.points), seed)

        got = solve(inst)
        xs, ys = inst.all_coords()
        assert got.path is not None
        assert all(p[0] in xs and p[1] in ys for p in got.path), \
            f"seed {seed}: path off the instance grid"
        count += 1

    # reconstructed staircase-region paths stay monotone in their frame
    recon = 0
    for seed, region in _xy_regions(want=200, start_seed=90_000):
        store = NaiveStore(region.m)
        res = run_sweep(region, store)
        for arr in ("h", "v"):
            if (res.lam_h if arr == "h" else res.lam_v) == INF:
                continue
            pts = reconstruct_path(region, store, arr)
            assert all(a[0] <= b[0] and a[1] <= b[1]
                       for a, b in zip(pts, pts[1:])), f"seed {seed}"
        recon += 1

    # x-monotone composition: optimal chains use x-disjoint subregions and
    # the relaxed distance agrees with the oracle
    x_cases = 0
    seed = 0
    while x_cases < 40 and seed < 4000:
        seed += 1
        try:
            inst = generate_instance(seed, n_obstacles=10, coord_limit=160)
        except GenerationError:
            continue
        if any(ob.bbox.contains(p, strict=True)
               for ob in inst.obstacles
               for p in (inst.source.point, inst.target.point)):
            continue
        world = build_world(list(inst.obstacles))
        s2, t2 = _double(inst.source.point), _double(inst.target.point)
        kind, frame = classify(world, s2, t2)
        if kind != "x":
            continue
        dist2, arrivals, dag = solve_x_case(world, frame, s2, t2)
        ora = oracle_solve(inst, want_path=False)
        assert dist2 == 2 * ora.distance, f"seed {seed}"
        spans = []
        pred = dag.target.best_pred
        while pred is not None and pred[0] == "mid":
            nd = dag.nodes[pred[1]]
            if nd.region is not None:
                spans.append((nd.region.s[0], nd.region.t[0]))
            pred = nd.best_pred
        spans.sort()
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0 or b1 <= a0 or (a0, a1) == (b0, b1), f"seed {seed}"
        x_cases += 1
    assert x_cases >= 40

    print(f"\nacceptance 5/8 structural invariants: PASS "
          f"({count} instances, {recon} regions, {x_cases} x-cases)")


def test_6_event_counts_scale_linearly():
    sizes = [50, 100, 200, 400, 800]
    rows = run_bench(sizes, reps=3, seed=1)
    for row in rows:
        assert row.events <= 8 * (row.N + row.n), \
            f"n={row.n}: {row.events} events > 8*({row.N}+{row.n})"
    ratios = [b.ms / a.ms for a, b in zip(rows, rows[1:]) if a.ms > 0]
    # wall-clock doubling ratios are advisory only: report, do not gate
    shown = ", ".join(f"{r:.2f}" for r in ratios)
    worst = max(r.events / (r.N + r.n) for r in rows)
    print(f"\nacceptance 6/8 event scaling: PASS "
          f"(max events/(N+n) = {worst:.2f}, "
          f"time doubling ratios [{shown}], advisory <= 2.6)")


def test_7_convex_hull_preprocessing_preserves_answers():
    count = 0
    for seed, inst in _instances([("point", "point")], want=300,
                                 start_seed=130_000, coord_limit=180,
                                 n_mix=(6, 10, 16, 22)):
        if any(ob.bbox.contains(p, strict=True)
               for ob in inst.obstacles
               for p in (inst.source.point, inst.target.point)):
            continue
        hulled = Instance(
            obstacles=tuple(rectilinear_convex_hull(ob)
                            for ob in inst.obstacles),
            source=inst.source, target=inst.target)
        assert validate(hulled) == [], f"seed {seed}"
        a = oracle_solve(inst, want_path=False)
        b = oracle_solve(hulled, want_path=False)
        assert (a.distance, a.links) == (b.distance, b.links), f"seed {seed}"
        count += 1
        if count >= 200:
            break
    assert count >= 200
    print(f"\nacceptance 7/8 hull preprocessing soundness: PASS "
          f"({count} instances)")


def _door_vertices(grid, door):
    (x0, y0), (x1, y1) = door.p, door.q
    if y0 == y1:
        return [(x, y0) for x in grid.xs if min(x0, x1) <= x <= max(x0, x1)]
    return [(x0, y) for y in grid.ys if min(y0, y1) <= y <= max(y0, y1)]


def _door_normal(box, door):
    (x0, y0), (x1, y1) = door.p, door.q
    if y0 == y1:
        return (0, 1) if y0 == box.yhi else (0, -1)
    return (1, 0) if x0 == box.xhi else (-1, 0)


def test_8_pocket_door_properties():
    checked = 0
    doors = 0
    seed = 0
    while checked < 100:
        seed += 1
        assert seed < 3000, "pocket pool ran dry"
        try:
            inst = generate_instance(seed, n_obstacles=8, coord_limit=120,
                                     carve_prob=0.95, max_steps=4)
        except GenerationError:
            continue
        any_pocket = False
        for oi, ob in enumerate(inst.obstacles):
            # find_pockets itself enforces door uniqueness: a second door of
            # the same orientation on one pocket raises
            pockets = find_pockets(ob, host=oi)
            grid = BoxGrid(ob.bbox, ob)
            for pk in pockets:
                if pk.door_h is None and pk.door_v is None:
                    continue
                probe = None
                for ci, cj in sorted(pk.cells):
                    for vi, vj in ((ci, cj), (ci + 1, cj),
                                   (ci, cj + 1), (ci + 1, cj + 1)):
                        if 0 < vi < len(grid.xs) - 1 \
                                and 0 < vj < len(grid.ys) - 1:
                            probe = (grid.xs[vi], grid.ys[vj])
                            break
                    if probe:
                        break
                if probe is None:
                    continue
                search = GridSearch(grid, [probe])
                any_pocket = True
                for door in (pk.door_h, pk.door_v):
                    if door is None:
                        continue
                    nrm = _door_normal(ob.bbox, door)
                    prof = [(v, got[0], got[1])
                            for v in _door_vertices(grid, door)
                            for got in [search.at(v, heading=nrm)]
                            if got is not None]
                    if not prof:
                        continue
                    doors += 1
                    dmin = min(d for _, d, _ in prof)
                    mins = [v for v, d, _ in prof if d == dmin]
                    straight = any(
                        (v[0] == probe[0] or v[1] == probe[1])
                        and d == abs(v[0] - probe[0]) + abs(v[1] - probe[1])
                        for v, d, _ in prof)
                    if not straight:
                        # no axis-aligned connection: the closest door
                        # point is unique
                        assert len(mins) == 1, f"seed {seed} door {door}"
                    if len(mins) == 1:
                        vstar = mins[0]
                        lstar = next(l for v, _, l in prof if v == vstar)
                        for v, d, l in prof:
                            gap = abs(v[0] - vstar[0]) + abs(v[1] - vstar[1])
                            assert d == dmin + gap, \
                                f"seed {seed}: door distance not affine at {v}"
                            assert l - lstar in (0, 1, 2), \
                                f"seed {seed}: link offset {l - lstar} at {v}"
        if any_pocket:
            checked += 1
    print(f"\nacceptance 8/8 pocket door properties: PASS "
          f"({checked} instances, {doors} doors)")
