import bisect
import importlib
import json
import random
import re
import sys
from pathlib import Path

import pytest

import candidate_reference
import pair_reference
import terminal_scaling
from rectlink import frontend
from rectlink.composer import SubregionDag
from rectlink.engine import build_world
from rectlink.frontend import _attachments, _Lines, solve
from rectlink.generator import generate_instance
from rectlink.geometry import FLIP_Y, IDENTITY, GeometryError, PathResult, RectPolygon
from rectlink.io import instance_from_obj, instance_to_obj
from rectlink.model import Instance, Terminal, validate
from rectlink.oracle import GRID_CAP, oracle_solve
from rectlink.partition import classify
from pocket_doors import all_vertex_crossings, into_pocket
from shapes import in_open_box

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")

KIND_MIXES = [
    ("point", "point"),
    ("point", "segment"),
    ("segment", "segment"),
    ("polygon", "point"),
    ("polygon", "segment"),
    ("polygon", "polygon"),
]


def _check_against_oracle(inst, seed=""):
    report = solve(inst)
    ora = oracle_solve(inst, want_path=False)
    assert (report.distance, report.links) == (ora.distance, ora.links), seed
    got = PathResult.from_points(report.path)
    assert (got.length, got.links) == (report.distance, report.links), seed
    return report


@pytest.mark.parametrize("mix", KIND_MIXES)
def test_matches_oracle_across_terminal_kinds(mix):
    for seed in range(12):
        inst = generate_instance(1000 + seed, n_obstacles=8, coord_limit=150,
                                 source_kind=mix[0], target_kind=mix[1])
        _check_against_oracle(inst, f"{mix} seed {seed}")


@pytest.mark.parametrize("r, want", [(0, (3416, 3)), (1, (2241, 3)), (2, (1221, 3))])
def test_matches_oracle_above_the_grid_cap(r, want):
    # n = 100 polygon-polygon, where the x-case relaxation and the hull
    # world do their work; every grid exceeds the default cap
    inst = generate_instance(97 * 100 + r, 100, coord_limit=3000,
                             source_kind="polygon", target_kind="polygon")
    assert max(map(len, inst.all_coords())) > GRID_CAP
    report = solve(inst)
    ora = oracle_solve(inst, want_path=False, cap=1000)
    assert (report.distance, report.links) == (ora.distance, ora.links) == want


# (moved source, moved target or None, kind of the terminal left in place)
POCKET_MIXES = [
    ("point", None, "point"),
    ("segment", None, "point"),
    ("point", None, "segment"),
    ("segment", None, "polygon"),
    ("point", "point", None),
    ("segment", "segment", None),
]


def _pocket_instances(count):
    """The first ``count`` seeds of the pocket chain: generated instances
    with one or both terminals moved into box pockets."""
    rng = random.Random(8)
    for seed in range(count):
        moved_s, moved_t, kept = POCKET_MIXES[seed % len(POCKET_MIXES)]
        inst = generate_instance(8000 + seed, n_obstacles=8, coord_limit=300,
                                 carve_prob=0.95, target_kind=kept or "point")
        inst = into_pocket(inst, "source", moved_s, rng)
        if inst is not None and moved_t is not None:
            inst = into_pocket(inst, "target", moved_t, rng)
        if inst is not None:
            yield seed, inst


def test_pocket_terminals_match_oracle():
    """Generated instances with a point or segment terminal moved into a
    carved obstacle's box pocket (``into_pocket``): every moved terminal
    attaches through the pocket search, and every answer equals the
    oracle's."""
    checked = 0
    for seed, inst in _pocket_instances(36):
        moved_t = POCKET_MIXES[seed % len(POCKET_MIXES)][1]
        world = build_world(inst.obstacles)
        for term in [inst.source] + ([inst.target] if moved_t else []):
            atts, _, _, _ = _attachments(inst, term, _Lines(inst), world)
            assert any(a.out_dir is not None for a in atts), seed
        _check_against_oracle(inst, f"pocket seed {seed}")
        checked += 1
    assert checked >= 34


def test_doors_and_corners_keep_every_pocket_answer():
    """The pocket chain hands over only at box corners and door vertices:
    every answer keeps the oracle's (distance, links), with fewer
    attachments than a crossing at every ring vertex
    (``all_vertex_crossings`` with no blocker) would make."""
    attached = every = 0
    for seed, inst in _pocket_instances(60):
        _check_against_oracle(inst, f"pocket seed {seed}")
        world = build_world(inst.obstacles)
        for term in (inst.source, inst.target):
            atts, searches, _, _ = _attachments(inst, term, _Lines(inst), world)
            attached += len(atts)
            every += len(atts) + sum(len(all_vertex_crossings(gs)) - len(gs.crossings())
                                     for gs in searches)
    assert 0 < attached < every


def test_facing_pockets_meet_at_one_junction():
    # two notches open towards each other across a one-unit gap; both
    # terminals leave through it, and their junctions coincide
    west = RectPolygon([(0, 0), (10, 0), (10, 3), (6, 3), (6, 7), (10, 7),
                        (10, 10), (0, 10)])
    east = RectPolygon([(11, 1), (21, 1), (21, 11), (11, 11), (11, 8),
                        (15, 8), (15, 4), (11, 4)])
    inst = Instance(obstacles=(west, east), source=Terminal.of_point((8, 5)),
                    target=Terminal.of_point((13, 5)))
    report = _check_against_oracle(inst)
    assert (report.distance, report.links) == (5, 1)
    assert report.path == [(8, 5), (13, 5)]
    assert report.stats["middle_solves"] == 0


def test_identical_points_give_zero():
    inst = Instance(obstacles=(), source=Terminal.of_point((4, 4)),
                    target=Terminal.of_point((4, 4)))
    report = solve(inst)
    assert (report.distance, report.links) == (0, 0)
    assert report.path == [(4, 4)]


def test_touching_terminals_give_zero():
    inst = Instance(obstacles=(),
                    source=Terminal.of_segment((0, 3), (8, 3)),
                    target=Terminal.of_segment((5, 0), (5, 7)))
    report = solve(inst)
    assert (report.distance, report.links) == (0, 0)


def test_terminal_deep_in_a_pocket():
    # U-shaped obstacle; the source sits in its notch and must thread out
    # through the top opening
    ob = RectPolygon([(10, 10), (22, 10), (22, 18), (18, 18),
                      (18, 13), (14, 13), (14, 18), (10, 18)])
    inst = Instance(obstacles=(ob,),
                    source=Terminal.of_point((16, 15)),
                    target=Terminal.of_point((30, 15)))
    _check_against_oracle(inst)


def test_route_along_the_box_wall_to_a_terminal_on_it():
    # the source leaves its pocket through the east wall and rides the
    # wall north to where the target segment, leaving the other pocket,
    # crosses it; a pocket junction half a unit outside the wall cannot
    # end on the wall without stepping back
    ob = RectPolygon([(0, 0), (12, 0), (12, 6), (20, 6), (20, 24), (14, 24),
                      (14, 30), (0, 30)])
    inst = Instance(obstacles=(ob,), source=Terminal.of_point((16, 3)),
                    target=Terminal.of_segment((17, 27), (40, 27)))
    report = _check_against_oracle(inst)
    assert report.path == [(16, 3), (20, 3), (20, 27)]


def test_invalid_instance_raises():
    # overlapping bounding boxes
    a = RectPolygon([(0, 0), (4, 0), (4, 4), (0, 4)])
    b = RectPolygon([(2, 2), (6, 2), (6, 6), (2, 6)])
    inst = Instance(obstacles=(a, b),
                    source=Terminal.of_point((8, 8)),
                    target=Terminal.of_point((9, 9)))
    with pytest.raises(GeometryError):
        solve(inst)


def test_report_carries_stats():
    inst = generate_instance(77, n_obstacles=6, coord_limit=120)
    report = solve(inst)
    for key in ("middle_solves", "events", "regions", "attachments"):
        assert key in report.stats


def test_a_point_pair_is_classified_once(monkeypatch):
    """A point pair that a free L answers is never classified and builds no
    trace; any other is classified once, by the frontend, which hands its
    classification to the pair engine."""
    from rectlink import engine

    calls = []
    classify = engine.classify
    monkeypatch.setattr(engine, "classify",
                        lambda *args: calls.append(args) or classify(*args))
    cases = set()
    free = 0
    for k, inst in enumerate(_perfbench("workloads").base_pool("point-small")):
        calls.clear()
        report = solve(inst)
        if report.stats["two_link_pairs"] == 1:
            assert not calls and report.stats["traces_built"] == 0, k
            free += 1
            continue
        assert len(calls) == 1, k
        cases.add(classify(*calls[0])[0])
    assert cases == {"xy", "x"} and free == 206


def test_path_is_on_the_instance_grid():
    for seed in range(20):
        inst = generate_instance(3000 + seed, n_obstacles=10, coord_limit=150,
                                 source_kind="segment", target_kind="point")
        report = solve(inst)
        xs, ys = inst.all_coords()
        for p in PathResult.from_points(report.path).points:
            assert p[0] in xs and p[1] in ys, f"seed {seed}: {p}"


KINDS = ("point", "segment", "polygon")


def _answer(report):
    return report.distance, report.links, report.path


def _triangle_instances():
    """All nine terminal-kind pairs, half of them with nearly every obstacle
    corner carved."""
    return [
        generate_instance(7000 + k, n_obstacles=8, coord_limit=120,
                          source_kind=KINDS[k % 3],
                          target_kind=KINDS[k // 3 % 3],
                          carve_prob=0.95 if k % 2 else 0.6)
        for k in range(630)]


def test_pocket_attachments_group_by_box_wall():
    # a U-shaped obstacle; a segment starts in its notch and leaves
    # through the top opening, and a point sits deep in the notch
    ob = RectPolygon([(10, 10), (22, 10), (22, 18), (18, 18),
                      (18, 13), (14, 13), (14, 18), (10, 18)])
    target = Terminal.of_point((30, 25))
    corners = {(10, 10), (22, 10), (22, 18), (10, 18)}
    for term in (Terminal.of_segment((16, 15), (16, 30)),
                 Terminal.of_point((16, 15))):
        inst = Instance(obstacles=(ob,), source=term, target=target)
        atts, _, _, _ = _attachments(inst, term, _Lines(inst),
                                     build_world(inst.obstacles))
        assert any(a.out_dir is not None for a in atts)
        plain = 0
        for a in atts:
            if a.out_dir is not None:
                # half a unit outside the wall the attachment leaves through
                axis = 0 if a.out_dir[0] else 1
                wall = {(1, 0): 22, (-1, 0): 10, (0, 1): 18, (0, -1): 10}
                assert a.junction2[axis] == 2 * wall[a.out_dir] + a.out_dir[axis]
                # off the box corners, only the notch's door hands over
                if a.crossing.point not in corners:
                    assert a.out_dir == (0, 1) and 14 <= a.crossing.point[0] <= 18
            else:
                # plain ones lie on the segment's piece above the box
                assert term.kind == "segment"
                assert a.junction2[0] == 32 and a.junction2[1] >= 36
                plain += 1
        assert bool(plain) == (term.kind == "segment")
        # the corners hand over, so every wall holds a junction line
        assert {(a.out_dir, a.junction2[0 if a.out_dir[0] else 1])
                for a in atts if a.out_dir is not None} \
            == {((1, 0), 45), ((-1, 0), 19), ((0, 1), 37), ((0, -1), 19)}


def _readme_stats_keys():
    """The keys README's list of ``SolveReport.stats`` counters names: the
    backquoted names before the colon of each of its bullets."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = text.index("`stats` dict of\ncounters:")
    end = text.index("\n\n", text.index("\n- ", start))
    keys = []
    for item in text[start:end].split("\n- ")[1:]:
        keys.extend(re.findall(r"`(\w+)`", item.split(":", 1)[0]))
    return keys


def test_readme_lists_every_stats_key():
    """README's stats list names exactly the keys ``solve`` returns, for a
    pair with pocket attachments and for a pair of points outside every
    box, so a deleted counter cannot linger in the docs."""
    keys = _readme_stats_keys()
    assert len(keys) == len(set(keys))
    pocket = dict(_pocket_instances(5))[4]
    points = Instance(obstacles=(RectPolygon([(2, 2), (5, 2), (5, 4), (2, 4)]),),
                      source=Terminal.of_point((0, 0)),
                      target=Terminal.of_point((8, 6)))
    for inst in (pocket, points):
        assert sorted(solve(inst).stats) == sorted(keys)


def test_a_middle_solve_counter_is_added_in_one_place(monkeypatch):
    """``SubregionDag.stats`` is the one source of a middle solve's
    counters: a key it returns is summed into ``SolveReport.stats`` over a
    class solve (point-small instance 26) and over a pocket pair's xy and
    x-case solves (the pocket chain's seed 0)."""
    point = _perfbench("workloads").base_pool("point-small")[26]
    pocket = dict(_pocket_instances(1))[0]
    made, cases = [], set()
    stats, pair = SubregionDag.stats, frontend.solve_pair_raw

    def probed(dag):
        made.append(dag)
        return {**stats(dag), "probe": 1}

    def traced(*args, **kw):
        raw = pair(*args, **kw)
        cases.add(raw.case)
        return raw

    monkeypatch.setattr(SubregionDag, "stats", probed)
    monkeypatch.setattr(frontend, "solve_pair_raw", traced)
    for inst, classes, want in ((point, 1, set()), (pocket, 0, {"xy", "x"})):
        made.clear()
        cases.clear()
        got = solve(inst).stats
        # the starting zeros, and one per class or swept pair solve
        assert got["probe"] == len(made) > 1
        assert got["classes"] == classes and cases == want


def test_a_segments_pocket_candidates_are_its_ends_stretches():
    """``_candidates``' segment end-box rule: a valid segment only ends
    inside the boxes it pierces, so its pocket candidates are its ends'
    stretches in its ends' boxes, and its plain candidates lie on the
    stretch between them."""
    low = RectPolygon([(10, 10), (22, 10), (22, 18), (18, 18),
                       (18, 13), (14, 13), (14, 18), (10, 18)])
    high = RectPolygon([(11, 40), (15, 40), (15, 45), (19, 45),
                        (19, 40), (23, 40), (23, 48), (11, 48)])
    target = Terminal.of_point((30, 25))
    inst = Instance(obstacles=(low, high),
                    source=Terminal.of_segment((16, 15), (16, 43)),
                    target=target)
    assert validate(inst) == []
    atts, _, _, _ = _attachments(inst, inst.source, _Lines(inst),
                                 build_world(inst.obstacles))
    plain = [a.junction2 for a in atts if a.out_dir is None]
    assert plain and all(x == 32 and 36 <= y <= 80 for x, y in plain)
    assert {a.lead2[0][1] < 36 for a in atts if a.out_dir is not None} \
        == {True, False}
    got = solve(inst)
    want = oracle_solve(inst)
    assert (got.distance, got.links) == (want.distance, want.links)
    # running on across the upper box would cross the obstacle itself
    across = Instance(obstacles=(low, high),
                      source=Terminal.of_segment((16, 15), (16, 50)),
                      target=target)
    assert any("crosses obstacle 1" in p for p in validate(across))


def _perfbench(module):
    if PERFBENCH not in sys.path:
        sys.path.append(PERFBENCH)
    return importlib.import_module(module)


def test_class_solves_match_the_per_pair_reference():
    """One x-case relaxation per class gives the (distance, links) of the
    per-pair frontend
    (``pair_reference.solve``) on the attach-small pool, the
    triangle-pruning instances, the whole pocket chain and the point-small
    pool, and every witness re-measures to the reported answer
    (``perfbench/witness.py``, which shares no code with the package)."""
    workloads = _perfbench("workloads")
    instances = (workloads.base_pool("attach-small")
                 + _triangle_instances()
                 + [inst for _, inst in _pocket_instances(60)]
                 + workloads.base_pool("point-small"))
    checker = _perfbench("witness").WitnessChecker
    classes = 0
    for k, inst in enumerate(instances):
        got, want = solve(inst), pair_reference.solve(inst)
        assert (got.distance, got.links) == (want.distance, want.links), k
        assert checker(instance_to_obj(inst)).problems(
            got.distance, got.links, got.path) == [], k
        classes += got.stats["classes"]
    assert len(instances) >= 88 + 630 + 55 and classes > 40


@pytest.mark.parametrize("seed, n, kinds", [
    (38, 8, ("point", "segment")),          # attach-small instance 27
    (50029, 24, ("polygon", "segment")),    # attach-small instance 76
])
def test_a_frame_and_its_y_mirror_make_one_class_solve(seed, n, kinds):
    """Two attach-small instances whose plain pairs read as x-cases both in
    the identity frame and in its y mirror make one class solve, not two,
    and still give the per-pair frontend's (distance, links) with a witness
    that re-measures to it."""
    inst = generate_instance(seed, n, coord_limit=200, source_kind=kinds[0],
                             target_kind=kinds[1])
    world = build_world(inst.obstacles)
    atts_s, atts_t = (_attachments(inst, term, _Lines(inst), world)[0]
                      for term in (inst.source, inst.target))
    frames = {frame for a in atts_s for b in atts_t
              for kind, frame in [classify(world, a.junction2, b.junction2)]
              if kind == "x"}
    assert frames == {IDENTITY, FLIP_Y}
    got, want = solve(inst), pair_reference.solve(inst)
    assert got.stats["classes"] == 1
    assert (got.distance, got.links) == (want.distance, want.links)
    assert _perfbench("witness").WitnessChecker(instance_to_obj(inst)).problems(
        got.distance, got.links, got.path) == []


def test_large_terminal_answers_match_the_bench_record():
    """The 24 segment and polygon instances of ``terminal_scaling.py``
    (n = 100 ... 800, the slowest solves known) give the answers of the
    latest parent rows in ``BENCH_terminals.json``, and every witness
    re-measures to its answer."""
    bench = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCH_terminals.json").read_text())
    rows = bench["entries"][-1]["terminal_scaling"]["parent"][-1]["rows"]
    want = {(row["kind"], row["n"], row["r"]): row["answer"] for row in rows}
    checker = _perfbench("witness").WitnessChecker
    checked = 0
    for kind in ("segment", "polygon"):
        for n in terminal_scaling.SIZES:
            for r in terminal_scaling.RS:
                inst = terminal_scaling.instance(kind, n, r)
                got = solve(inst)
                assert [got.distance, got.links] == want[kind, n, r], (kind, n, r)
                assert checker(instance_to_obj(inst)).problems(
                    got.distance, got.links, got.path) == [], (kind, n, r)
                checked += 1
    assert checked == 24


def _align_on_doubled_lines(points, xs2, ys2):
    """``frontend._align_runs`` as it was when ``solve`` passed it the
    doubled instance lines and called it on every witness."""
    pts = list(points)
    for axis, lines in ((0, xs2), (1, ys2)):
        for k in range(len(pts) - 1):
            a, b = pts[k], pts[k + 1]
            if a[axis] != b[axis]:
                continue
            v = a[axis]
            i = bisect.bisect_left(lines, v)
            if i < len(lines) and lines[i] == v:
                continue
            prev = pts[k - 1][axis] if k else None
            nxt = pts[k + 2][axis] if k + 2 < len(pts) else None
            cands = [c for c in lines[max(i - 1, 0):i + 1]
                     if c != v and c != prev and c != nxt]
            if not cands:
                raise GeometryError("cannot align a run to the instance grid")
            nv = cands[0]
            pts[k] = (nv, a[1]) if axis == 0 else (a[0], nv)
            pts[k + 1] = (nv, b[1]) if axis == 0 else (b[0], nv)
    return pts


def test_skipping_the_snap_is_exact(monkeypatch):
    """``solve`` snaps a witness only when ``_on_grid`` rejects it.  On the
    point-small and attach-small pools and the pocket chain, every witness
    it accepts is one the unconditional snap on the doubled lines left as
    it was, and on every witness it rejects the snap on the undoubled lines
    gives what the snap on the doubled lines gave."""
    seen = []
    on_grid = frontend._on_grid
    monkeypatch.setattr(frontend, "_on_grid", lambda pts, xs_set, ys_set: seen.append(
        (list(pts), xs_set, ys_set)) or on_grid(pts, xs_set, ys_set))
    workloads = _perfbench("workloads")
    instances = (workloads.base_pool("point-small")
                 + workloads.base_pool("attach-small")
                 + [inst for _, inst in _pocket_instances(60)])
    for inst in instances:
        solve(inst)
    accepted = 0
    for k, (pts, xs_set, ys_set) in enumerate(seen):
        xs, ys = sorted(xs_set), sorted(ys_set)
        want = _align_on_doubled_lines(pts, [2 * x for x in xs], [2 * y for y in ys])
        if on_grid(pts, xs_set, ys_set):
            assert want == pts, k
            accepted += 1
        else:
            assert frontend._align_runs(pts, xs, ys) == want, k
    assert len(instances) >= 300 + 88 + 55
    assert len(seen) == len(instances) and 0 < accepted < len(seen)


def test_candidates_and_hosts_match_the_linear_scans():
    """The reference enumeration (``candidate_reference``: bisected
    candidate lines) and the indexed host box (``frontend._host``) give
    what the scans over every line and every box give, on the pocket chain
    and the triangle-test instances; the frontend counts the same
    candidates, and sends the same ones to each box search."""
    instances = [inst for _, inst in _pocket_instances(36)] \
        + _triangle_instances()[:90]
    hosted = 0
    for inst in instances:
        lines = _Lines(inst)
        xs, ys = lines.xs, lines.ys
        world = build_world(inst.obstacles)
        boxes = world.frame(IDENTITY)
        for term in (inst.source, inst.target):
            segs = [term.segment] if term.kind == "segment" else \
                list(term.polygon.edges()) if term.kind == "polygon" else []
            for seg in segs:
                (lx, ly), (hx, hy) = sorted((seg.p, seg.q))
                want = sorted({seg.p, seg.q}
                              | {(x, ly) for x in xs if lx <= x <= hx and ly == hy}
                              | {(lx, y) for y in ys if ly <= y <= hy and lx == hx})
                assert candidate_reference.on_segment(seg, xs, ys) == want
            boxed = {}
            cands = candidate_reference.candidate_points(term, lines)
            for p in cands:
                want = next((i for i, ob in enumerate(inst.obstacles)
                             if in_open_box(ob.bbox, p)), None)
                assert frontend._host(boxes, p) == want
                if want is not None:
                    boxed.setdefault(want, []).append(p)
                hosted += want is not None
            _, searches, _, (enumerated, _) = _attachments(inst, term, lines, world)
            assert enumerated == len(cands)
            assert [gs.grid.box for gs in searches] \
                == [inst.obstacles[h].bbox for h in boxed]
            for gs, pts in zip(searches, boxed.values()):
                assert gs.sources == {gs.grid.vertex(p) for p in pts}
    assert hosted > 30


def test_filtered_solve_matches_the_unfiltered_solve(monkeypatch):
    """Dropping the candidates that cannot start an optimal path keeps
    every (distance, links): ``solve`` against ``solve`` on every candidate
    (``candidate_reference.attachments``), on the three perfbench pools,
    the triangle-pruning instances and the whole pocket chain.  Every
    filtered witness re-measures to its answer (``perfbench/witness.py``)."""
    workloads = _perfbench("workloads")
    instances = (workloads.base_pool("point-small")
                 + workloads.base_pool("attach-small")
                 + workloads.base_pool("point-large")
                 + _triangle_instances()
                 + [inst for _, inst in _pocket_instances(60)])
    filtered = [solve(inst) for inst in instances]
    monkeypatch.setattr(frontend, "_attachments", candidate_reference.attachments)
    checker = _perfbench("witness").WitnessChecker
    dropped = 0
    for k, (inst, got) in enumerate(zip(instances, filtered)):
        want = solve(inst)
        assert (got.distance, got.links) == (want.distance, want.links), k
        assert checker(instance_to_obj(inst)).problems(
            got.distance, got.links, got.path) == [], k
        for (enumerated, kept), (every, _) in zip(got.stats["candidates"],
                                                  want.stats["candidates"]):
            assert enumerated == every and kept <= enumerated
            dropped += enumerated - kept
    assert len(instances) >= 300 + 88 + 21 + 630 + 55 and dropped > 2000


def test_kept_candidates_match_the_ray_scan():
    """The ray passes keep exactly the candidates that the scanning
    statement of the rule (``candidate_reference.ray_kept``) keeps, on
    every segment and polygon terminal of the attach-small pool, the
    triangle-pruning instances, the pocket chain and two polygon pairs at
    n = 100."""
    instances = (_perfbench("workloads").base_pool("attach-small")
                 + _triangle_instances()
                 + [inst for _, inst in _pocket_instances(60)]
                 + [generate_instance(97 * 100 + r, 100, coord_limit=3000,
                                      source_kind="polygon", target_kind="polygon")
                    for r in range(2)])
    terminals = 0
    for k, inst in enumerate(instances):
        lines, world = _Lines(inst), build_world(inst.obstacles)
        for term in (inst.source, inst.target):
            if term.kind == "point":
                continue
            atts, searches, _, (_, kept) = _attachments(inst, term, lines, world)
            want = candidate_reference.ray_kept(inst, term)
            plain = {(a.junction2[0] // 2, a.junction2[1] // 2)
                     for a in atts if a.out_dir is None}
            assert plain == {p for p in want
                             if not any(in_open_box(ob.bbox, p)
                                        for ob in inst.obstacles)}, k
            assert kept == len(want), k
            terminals += 1
    assert terminals > 900


def test_a_dropped_candidate_can_start_a_one_link_optimum():
    """The filter's one-link case, kept as a fuzz fixture: the source's
    top-edge candidate (97, 24), on the obstacle's west wall line, sends its
    ray into the target polygon before it reaches the wall, so the filter
    drops it, though the one-link path up to (97, 48) is optimal.  Slid
    west along both terminals, that path keeps its length and links until
    it reaches x = 96, a vertex line of both terminals, whose candidates
    are kept and carry the answer."""
    path = Path(__file__).resolve().parent / "data" / "fuzz_one_link_slide.json"
    inst = instance_from_obj(json.loads(path.read_text()))
    lines, world = _Lines(inst), build_world(inst.obstacles)
    kept = {a.junction2 for a in _attachments(inst, inst.source, lines, world)[0]}
    assert (2 * 97, 2 * 24) not in kept and (2 * 96, 2 * 24) in kept
    assert (97, 24) in candidate_reference.candidate_points(inst.source, lines)
    report = _check_against_oracle(inst)
    assert (report.distance, report.links) == (48 - 24, 1)
    assert report.path == [(96, 24), (96, 48)]
