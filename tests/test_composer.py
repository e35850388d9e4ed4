import gc
import json
import weakref
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import pair_reference
import terminal_scaling
from fuzz_instances import instances
from rectlink import composer, engine, partition
from rectlink.composer import solve_x_case
from rectlink.engine import _double, build_world
from rectlink.frontend import _attachments, _Lines, solve
from rectlink.generator import GenerationError, generate_instance
from rectlink.geometry import FLIP_Y, GeometryError, PathResult, RectPolygon, Xform
from rectlink.io import instance_from_obj
from rectlink.model import Instance, Terminal
from rectlink.oracle import oracle_solve
from rectlink.partition import TRACE_FRAMES, FrameView, World, classify, trace_ru
from rectlink.sweep import INF, reconstruct_path, run_sweep
from shapes import in_open_box
from test_frontend import _perfbench, _pocket_instances, _triangle_instances

WALL = RectPolygon([(8, -40), (12, -40), (12, 40), (8, 40)])


def _x_cases(seeds, n_obstacles=10, coord_limit=160):
    for seed in seeds:
        inst = generate_instance(seed, n_obstacles=n_obstacles,
                                 coord_limit=coord_limit)
        if any(in_open_box(ob.bbox, p)
               for ob in inst.obstacles
               for p in (inst.source.point, inst.target.point)):
            continue
        world = build_world(list(inst.obstacles))
        s2, t2 = _double(inst.source.point), _double(inst.target.point)
        kind, frame = classify(world, s2, t2)
        if kind == "x":
            yield seed, inst, world, frame, s2, t2


def test_single_wall_detour():
    ans = solve(Instance(obstacles=(WALL,), source=Terminal.of_point((0, 0)),
                         target=Terminal.of_point((20, 0))))
    assert ans.distance == 20 + 2 * 40
    assert ans.links == 3


def test_arrival_directions_are_units():
    found = 0
    for seed, inst, world, frame, s2, t2 in _x_cases(range(200)):
        dist2, (arrivals,), dag = solve_x_case(world, frame, [s2], [t2])
        assert arrivals
        for adir, (lam, wit) in arrivals.items():
            assert adir in ((1, 0), (-1, 0), (0, 1), (0, -1))
            assert wit[0] == s2 and wit[-1] == t2
        found += 1
        if found >= 15:
            break
    assert found >= 5


def test_optimal_chain_regions_are_x_disjoint():
    checked = 0
    for seed, inst, world, frame, s2, t2 in _x_cases(range(200, 500)):
        dist2, _, dag = solve_x_case(world, frame, [s2], [t2])
        node = dag.targets[0]
        spans = []
        pred = node.best_pred
        while pred is not None and pred[0] == "mid":
            nd = dag.nodes[pred[1]]
            if nd.leg is not None:
                spans.append((nd.leg.region.s[0], nd.leg.region.t[0]))
            pred = nd.best_pred
        if len(spans) >= 2:
            spans.sort()
            for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
                assert a1 <= b0 or b1 <= a0 or (a0, a1) == (b0, b1), seed
            checked += 1
        if checked >= 8:
            break


def test_x_case_distance_matches_oracle():
    count = 0
    for seed, inst, world, frame, s2, t2 in _x_cases(range(500, 800)):
        dist2, (arrivals,), dag = solve_x_case(world, frame, [s2], [t2])
        ora = oracle_solve(inst, want_path=False)
        assert dist2 == 2 * ora.distance, seed
        assert min(l for l, _ in arrivals.values()) == ora.links, seed
        count += 1
        if count >= 20:
            break
    assert count >= 10


def _many_x_solves():
    # pocket-chain seed 47, a segment pair with both ends in box pockets,
    # on which the per-pair frontend makes at least 10 x-case middle solves:
    # its pocket pairs each get one, 14 of them, under ``solve`` too.  (The
    # polygon pair of seed 150 that this used to be makes two class solves
    # in frames that are y mirrors of each other, which ``solve`` now
    # answers with one; no plain pair of the generated pools makes two
    # class solves any more.)
    return next(inst for seed, inst in _pocket_instances(48) if seed == 47)


def test_one_world_per_solve(monkeypatch):
    """An x-case point pair and a pocket instance with several x-case
    middle solves each build exactly one hull world."""
    x_inst = next(inst for _, inst, *_ in _x_cases(range(200)))
    builds, x_solves = [], []
    init, x_case = World.__init__, engine.solve_x_case

    def counting_init(self, obstacles):
        builds.append(1)
        init(self, obstacles)

    def counting_x_case(*args, **kw):
        x_solves.append(1)
        return x_case(*args, **kw)

    monkeypatch.setattr(World, "__init__", counting_init)
    monkeypatch.setattr(engine, "solve_x_case", counting_x_case)
    for inst, min_x_solves in ((x_inst, 1), (_many_x_solves(), 2)):
        builds.clear()
        x_solves.clear()
        solve(inst)
        assert len(x_solves) >= min_x_solves
        assert len(builds) == 1


def test_each_trace_is_traced_once_per_solve(monkeypatch):
    """Middle solves share the instance world's traces: every (frame,
    start, x_stop) key reaches the tracer once, however often it is asked
    for.  The per-pair reference frontend makes many x-case middle solves
    on one world, ``solve`` one per class."""
    traced, requests, x_solves = [], [], []
    inner, outer, x_case = partition._trace_ru, partition.trace_ru, engine.solve_x_case

    def counting_inner(polys, start, x_stop):
        traced.append((id(polys), start, x_stop))
        return inner(polys, start, x_stop)

    def counting_outer(*args):
        requests.append(1)
        return outer(*args)

    def counting_x_case(*args, **kw):
        x_solves.append(1)
        return x_case(*args, **kw)

    monkeypatch.setattr(partition, "_trace_ru", counting_inner)
    monkeypatch.setattr(partition, "trace_ru", counting_outer)
    monkeypatch.setattr(composer, "trace_ru", counting_outer)
    monkeypatch.setattr(engine, "solve_x_case", counting_x_case)
    # (frontend, least x-case solves, most traces per request)
    for run, min_x_solves, share in ((pair_reference.solve, 10, 0.5),
                                     (solve, 2, 1.0)):
        traced.clear()
        requests.clear()
        x_solves.clear()
        report = run(_many_x_solves())
        assert len(x_solves) >= min_x_solves
        assert len(traced) == len(set(traced))
        assert len(traced) < share * len(requests)
        assert report.stats["traces_built"] == len(traced)


def test_two_solves_share_no_memo(monkeypatch):
    """Each solve builds its own world, and with it fresh memos: the
    second solve of an instance traces as much as the first."""
    worlds = []
    init = World.__init__

    def recording_init(self, obstacles):
        worlds.append(self)
        init(self, obstacles)

    monkeypatch.setattr(World, "__init__", recording_init)
    inst = _many_x_solves()
    first, second = solve(inst), solve(inst)
    assert len(worlds) == 2 and worlds[0] is not worlds[1]
    assert not set(map(id, worlds[0]._frames.values())) \
        & set(map(id, worlds[1]._frames.values()))
    assert first.stats["traces_built"] == second.stats["traces_built"] > 0
    assert (first.distance, first.links, first.path) \
        == (second.distance, second.links, second.path)


def _attach_style(count):
    """Segment and polygon instances of the acceptance tests' shape."""
    kinds = [("segment", "point"), ("polygon", "segment"), ("polygon", "polygon"),
             ("point", "polygon"), ("segment", "segment")]
    seed = 0
    while count:
        seed += 1
        sk, tk = kinds[seed % len(kinds)]
        try:
            inst = generate_instance(seed, n_obstacles=(4, 8, 12, 18)[seed % 4],
                                     coord_limit=200, source_kind=sk,
                                     target_kind=tk)
        except GenerationError:
            continue
        count -= 1
        yield inst


def test_worlds_are_freed_without_the_cyclic_gc(monkeypatch):
    """A solve's world, its frames and their memos form no reference cycle:
    with the cyclic collector off, every world a solve built is gone once
    the solve returns.  A frame that kept its world would make one."""
    refs = []
    init = World.__init__

    def recording_init(self, obstacles):
        refs.append(weakref.ref(self))
        init(self, obstacles)

    monkeypatch.setattr(World, "__init__", recording_init)
    enabled = gc.isenabled()
    gc.disable()
    try:
        middle = 0
        for inst in _attach_style(20):
            before = len(refs)
            middle += solve(inst).stats["middle_solves"]
            assert len(refs) == before + 1
            assert refs[-1]() is None
    finally:
        if enabled:
            gc.enable()
    assert middle > 20


def test_a_solve_fills_only_the_hull_tables_it_reads(monkeypatch):
    """A frame reads every hull's box from the world's index but builds a
    hull's ring and edge tables only when a query reaches the hull: a point
    solve among 200 obstacles fills far fewer than frames x hulls, and
    ``hull_tables_built`` counts the fills."""
    worlds, fills = [], []
    init, fill = World.__init__, partition._FramePoly.__init__

    def recording_init(self, obstacles):
        worlds.append(self)
        init(self, obstacles)

    def counting_fill(self, hull, t, box):
        fills.append(self)
        fill(self, hull, t, box)

    monkeypatch.setattr(World, "__init__", recording_init)
    monkeypatch.setattr(partition._FramePoly, "__init__", counting_fill)
    report = solve(generate_instance(97 * 200, 200, coord_limit=6000))
    (world,) = worlds
    assert len(set(map(id, fills))) == len(fills)
    assert report.stats["hull_tables_built"] == len(fills) > 0
    assert len(fills) < len(world._frames) * len(world.obstacles)


def _curves(wf, p, x_hi, y_hi, y_lo):
    """The four extreme curves out of p, each in its trace frame."""
    out = {}
    for name, stop in (("ru", x_hi), ("ur", y_hi), ("rd", x_hi), ("dr", -y_lo)):
        f = TRACE_FRAMES[name]
        out[name] = trace_ru(wf.frame(f), f.apply(p), stop).curve
    return out


def _rises(q, c):
    return q[1] >= c["ru"].max_y_at(q[0]) and q[0] >= c["ur"].max_y_at(q[1])


def _falls(q, c):
    return -q[1] >= c["rd"].max_y_at(q[0]) and q[0] >= c["dr"].max_y_at(-q[1])


def _l1(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _all_pairs_relaxation(world, frame, sources, targets, nodes):
    """(dist, preds) of every node and then every target, by testing each
    against every relaxed midpoint and every source strictly west of it."""
    wf = FrameView(world, frame)
    srcs = [frame.apply(s) for s in sources]
    tgts = [frame.apply(t) for t in targets]
    tx = max(t[0] for t in tgts)
    ys = [nd.point[1] for nd in nodes] + [t[1] for t in tgts]
    y_hi, y_lo = max(ys) + 1, min(ys) - 1

    def leg_ok(p, falling, q):
        if falling:
            return q[1] <= p[1] and _falls(q, _curves(wf, p, tx, y_hi, y_lo))
        return q[1] >= p[1] and _rises(q, _curves(wf, p, tx, y_hi, y_lo))

    dist = []
    out = []
    for nd in nodes + [composer._Node(point=t, hull=-1) for t in tgts]:
        q = nd.point
        cands = []
        for k, mu in enumerate(nodes[:len(dist)]):
            if mu.point[0] < q[0] and dist[k] < INF \
                    and leg_ok(mu.point, mu.side == "top", q):
                cands.append((dist[k] + _l1(mu.point, q), ("mid", k)))
        for i, s in enumerate(srcs):
            # a chain's first turnaround is reached monotonically from its
            # source: rising into a top-side midpoint, falling into a
            # bottom-side one; a leg level with the source is both
            if s[0] < q[0] \
                    and (nd.hull == -1 or (nd.side == "top") == (q[1] > s[1])) \
                    and (q[1] < s[1] or leg_ok(s, False, q)) \
                    and (q[1] > s[1] or leg_ok(s, True, q)):
                cands.append((float(_l1(s, q)), ("src", i)))
        d = min((c[0] for c in cands), default=INF)
        dist.append(d)
        out.append((d, [p for c, p in cands if c == d]))
    return out


def _recording(solves):
    """An ``engine.solve_x_case`` that records each call and its result."""
    x_case = engine.solve_x_case

    def recording_x_case(world, frame, sources, targets, dir_links=None):
        got = x_case(world, frame, sources, targets, dir_links=dir_links)
        solves.append((world, frame, sources, targets, got))
        return got

    return recording_x_case


def _on_shortest_chains(relaxation, n_nodes, near):
    """Indices of the midpoints on a shortest chain to some target at
    distance ``near``, read from ``_all_pairs_relaxation``'s predecessors."""
    on = set()
    frontier = [k for k in range(n_nodes, len(relaxation))
                if relaxation[k][0] == near]
    while frontier:
        for kind, j in relaxation[frontier.pop()][1]:
            if kind == "mid" and j not in on:
                on.add(j)
                frontier.append(j)
    return on


def test_key_ordered_relaxation_matches_all_pairs(monkeypatch):
    """On every x-case solve of fixed seeds (the class solves of ``solve``
    and the single-pair solves of the per-pair reference frontend), the
    nearest distance is that of an all-pairs relaxation over every
    enumerated midpoint, and every target at it, and every midpoint on a
    shortest chain into one, has that relaxation's distance and optimal
    predecessors, in order.  No other node's distance falls below the
    all-pairs one, and the L1 bound leaves fewer midpoints relaxed than
    enumerated."""
    solves = []
    monkeypatch.setattr(engine, "solve_x_case", _recording(solves))
    for seed in range(60):
        for kinds in (("point", "point"), ("polygon", "segment"),
                      ("polygon", "polygon")):
            inst = generate_instance(900 + seed, n_obstacles=20,
                                     coord_limit=200, source_kind=kinds[0],
                                     target_kind=kinds[1])
            solve(inst)
            pair_reference.solve(inst)
    assert len(solves) >= 100
    assert sum(len(sources) * len(targets) > 1
               for _, _, sources, targets, _ in solves) >= 20
    ties = enumerated = relaxed = 0
    for world, frame, sources, targets, (near, _, dag) in solves:
        want = _all_pairs_relaxation(world, frame, sources, targets, dag.nodes)
        got = [(nd.dist, nd.preds) for nd in dag.nodes + dag.targets]
        n = len(dag.nodes)
        assert near == min(d for d, _ in want[n:])
        exact = _on_shortest_chains(want, n, near) \
            | {k for k in range(n, len(want)) if want[k][0] == near}
        for k in range(len(want)):
            if k in exact:
                assert got[k] == want[k]
            else:
                assert got[k][0] >= want[k][0]
        ties += sum(len(want[k][1]) > 1 for k in exact)
        enumerated += n
        relaxed += dag.relaxed
    assert ties > 0
    assert relaxed < enumerated


def _readout(result):
    """An x-case solve's readout: the nearest distance, which targets are
    at it, and each arrival's links and witness."""
    near, arrivals, dag = result
    return near, [nd.dist == near for nd in dag.targets], arrivals


def _checking_every_midpoint(checked, floors=False):
    """An ``engine.solve_x_case`` that also solves each call with every
    midpoint relaxed (its bound and the bound's floor read as 0), asserts
    that both read out the same, or raise the same error, and records
    (midpoints enumerated, relaxed) of each call in ``checked``.  With
    ``floors``, a third solve reads only the floors as 0 and must read out
    the same too: the floor only spares measuring bounds."""
    x_case = engine.solve_x_case

    def checking_x_case(world, frame, sources, targets, dir_links=None):
        def run():
            return x_case(world, frame, sources, targets, dir_links=dir_links)

        def readout(*zeroed):
            with pytest.MonkeyPatch.context() as mp:
                for name in zeroed:
                    mp.setattr(composer, name, lambda *args: 0)
                try:
                    return _readout(run())
                except GeometryError as exc:
                    return str(exc)

        want = readout("_l1_to_box", "_l1_to_nearest")
        if floors:
            assert readout("_l1_to_box") == want
        try:
            got = run()
        except GeometryError as exc:
            assert str(exc) == want
            raise
        assert _readout(got) == want
        checked.append((len(got[2].nodes), got[2].relaxed))
        return got

    return checking_x_case


def test_bounded_relaxation_reads_out_as_every_midpoint_relaxed(monkeypatch):
    """On the seeds of ``test_key_ordered_relaxation_matches_all_pairs``,
    each x-case solve reads out the same with the L1 bound as with every
    midpoint relaxed, and as with every floor read as 0."""
    checked = []
    monkeypatch.setattr(engine, "solve_x_case",
                        _checking_every_midpoint(checked, floors=True))
    for seed in range(60):
        for kinds in (("point", "point"), ("polygon", "segment"),
                      ("polygon", "polygon")):
            inst = generate_instance(900 + seed, n_obstacles=20,
                                     coord_limit=200, source_kind=kinds[0],
                                     target_kind=kinds[1])
            solve(inst)
            pair_reference.solve(inst)
    assert len(checked) >= 100
    assert sum(relaxed < enumerated for enumerated, relaxed in checked) >= 400


@settings(max_examples=200, deadline=5000, derandomize=True, database=None)
@given(instances())
def test_bounded_relaxation_reads_out_as_every_midpoint_relaxed_on_fuzzed_instances(inst):
    """The same, on every x-case solve of ``solve`` and of the per-pair
    reference frontend over ``fuzz_instances``' strategy."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "solve_x_case", _checking_every_midpoint([]))
        solve(inst)
        pair_reference.solve(inst)


def test_a_class_solve_is_the_best_single_source_solve(monkeypatch):
    """A class solve's distance to each target is never below the least
    over its sources' single-source solves.  The nearest targets are those
    whose least is the nearest distance, and there the distance and the
    links equal the single-source solves' best: on every class solve of the
    polygon instances of fixed seeds."""
    solves = []
    monkeypatch.setattr(engine, "solve_x_case", _recording(solves))
    for seed in range(24):
        for kinds in (("polygon", "segment"), ("polygon", "polygon"),
                      ("segment", "polygon")):
            solve(generate_instance(900 + seed, n_obstacles=20,
                                    coord_limit=200, source_kind=kinds[0],
                                    target_kind=kinds[1]))
    monkeypatch.undo()
    checked = 0
    for world, frame, sources, targets, (near, arrivals, dag) in solves:
        if len(sources) * len(targets) == 1:
            continue
        for t, nd, arrs in zip(targets, dag.targets, arrivals):
            single = []
            for s in sources:
                try:
                    dist, (got,), _ = solve_x_case(world, frame, [s], [t])
                except GeometryError:
                    continue
                single.append((dist, min(lam for lam, _ in got.values())))
            best = min(single, default=(INF,))
            assert nd.dist >= best[0]
            assert (nd.dist == near) == (best[0] == near)
            if nd.dist == near:
                assert min(lam for lam, _ in arrs.values()) == best[1]
            checked += 1
    assert checked > 120


def test_one_x_case_solve_per_class(monkeypatch):
    """On the attach-small and point-small pools, whose attachments are all
    plain, an instance makes at most one x-case solve per distinct frame
    that ``classify`` gives its x-case attachment pairs, a frame and its y
    mirror counting as one."""
    calls = []
    x_case = engine.solve_x_case

    def counting_x_case(*args, **kw):
        calls.append(1)
        return x_case(*args, **kw)

    monkeypatch.setattr(engine, "solve_x_case", counting_x_case)
    classes = 0
    workloads = _perfbench("workloads")
    pools = workloads.base_pool("attach-small") + workloads.base_pool("point-small")
    for inst in pools:
        calls.clear()
        solve(inst)
        world = build_world(inst.obstacles)
        atts_s, atts_t = (_attachments(inst, term, _Lines(inst), world)[0]
                          for term in (inst.source, inst.target))
        assert all(a.out_dir is None for a in atts_s + atts_t)
        frames = {min(frame, frame.then(FLIP_Y), key=astuple)
                  for a in atts_s for b in atts_t
                  for kind, frame in [classify(world, a.junction2, b.junction2)]
                  if kind == "x"}
        assert len(calls) <= len(frames)
        classes += len(calls)
    assert classes >= 13


def _plain_x_frames(inst):
    """The world, the plain attachment points of each terminal, and the
    frames that ``classify`` reads some plain pair of them as an x-case in."""
    world = build_world(inst.obstacles)
    lines = _Lines(inst)
    sources, targets = ([a.junction2 for a in _attachments(inst, term, lines, world)[0]
                         if a.out_dir is None]
                        for term in (inst.source, inst.target))
    frames = {frame for s in sources for t in targets if s != t
              for kind, frame in [classify(world, s, t)] if kind == "x"}
    return world, sources, targets, frames


def _solved_or_error(world, frame, sources, targets):
    try:
        near, arrivals, _ = solve_x_case(world, frame, sources, targets)
    except GeometryError as exc:
        return str(exc)
    return near, arrivals


DATA = Path(__file__).resolve().parent / "data"
MIRROR_LEVEL_LEGS = instance_from_obj(json.loads(
    (DATA / "fuzz_mirror_level_legs.json").read_text()))


@settings(max_examples=200, deadline=5000, derandomize=True, database=None)
@given(instances())
@example(MIRROR_LEVEL_LEGS)
@example(Instance(obstacles=(WALL,), source=Terminal.of_point((0, 0)),
                  target=Terminal.of_point((20, 0))))
def test_a_frame_and_its_y_mirror_solve_alike(inst):
    """For every frame F that some plain pair of a fuzzed instance reads as
    an x-case in, the class solves in F and in F.then(FLIP_Y) give the same
    distance and, per target, the same arrival directions, links and
    witnesses in world coordinates (``composer``'s "A frame and its y
    mirror").  The fixed examples hold the two ties the frame's orientation
    could break: two sources level with a top and a bottom side of the
    hulls in the strip, where the frames took their witnesses from
    different sources before the readout skipped level first legs; and a
    wall whose top and bottom detours tie, whose midpoints share an x."""
    world, sources, targets, frames = _plain_x_frames(inst)
    for frame in frames:
        assert _solved_or_error(world, frame, sources, targets) \
            == _solved_or_error(world, frame.then(FLIP_Y), sources, targets)


def test_a_resumed_widening_matches_a_restarted_one(monkeypatch):
    """On polygon n = 800 r = 1 of ``terminal_scaling.py``, whose class
    solve widens its limit many times, each widened pass resumes at its
    westmost new midpoint (``composer._resume_at``).  Relaxing every pass
    afresh from the west gives every target and every midpoint the same
    distance and predecessors, and the same readout."""
    solves = []
    monkeypatch.setattr(engine, "solve_x_case", _recording(solves))
    solve(terminal_scaling.instance("polygon", 800, 1))
    monkeypatch.undo()
    ((world, frame, sources, targets, resumed),) = solves
    starts = []
    resume_at = composer._resume_at

    def restart(run, x):
        starts.append(resume_at(run, x))
        return 0

    monkeypatch.setattr(composer, "_resume_at", restart)
    restarted = solve_x_case(world, frame, sources, targets)

    def relaxation(result):
        near, arrivals, dag = result
        return (near, arrivals, [(nd.dist, nd.preds) for nd in dag.targets],
                [(nd.point, nd.dist, nd.preds) for nd in dag.nodes])

    assert relaxation(restarted) == relaxation(resumed)
    # several widened passes, and some resumed past the westmost node
    assert len(starts) >= 5 and max(starts) > 0


def _arrival_links(arrivals):
    """Arrival direction -> links, after checking that each witness's last
    segment moves in its direction."""
    for (dx, dy), (_, pts) in arrivals.items():
        (ax, ay), (bx, by) = pts[-2:]
        assert ((bx > ax) - (bx < ax), (by > ay) - (by < ay)) == (dx, dy)
    return {d: lam for d, (lam, _) in arrivals.items()}


def test_a_target_keeps_opposite_arrivals_along_one_axis():
    """A target's best legs are kept per world arrival direction.  On
    ``fuzz_mirror_level_legs.json``, in the frame that swaps x and y, a
    rising leg (from (104, 144)) and a falling one (from (152, 144)) reach
    the target (128, 264) moving +x and -x, each arriving "v" in its own
    frame; both arrivals are kept, with 2 links each.  The pocket target
    (128, 265), solved alone from (128, 144) with every first direction
    charged one link, keeps its -x arrival (3 links) beside the +x one."""
    frame = Xform(0, 1, 1, 0)
    world, sources, targets, _ = _plain_x_frames(MIRROR_LEVEL_LEGS)
    _, arrivals, _ = solve_x_case(world, frame, sources, targets)
    got = _arrival_links(arrivals[targets.index((128, 264))])
    assert got == {(1, 0): 2, (-1, 0): 2}
    ones = {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
    _, (pocket,), _ = solve_x_case(world, frame, [(128, 144)], [(128, 265)],
                                   dir_links=ones)
    assert _arrival_links(pocket) == {(0, 1): 4, (1, 0): 3, (-1, 0): 3}


def _recording_free_legs(mp, legs):
    """Record (view, quad, p, q, seeds, leg) of every leg ``free_leg``
    answers while ``mp`` is active."""
    answer = composer.free_leg

    def recording(view, quad, p, q, seeds, midpoint):
        leg = answer(view, quad, p, q, seeds, midpoint)
        if leg is not None:
            legs.append((view, quad, p, q, seeds, leg))
        return leg

    mp.setattr(composer, "free_leg", recording)


def _check_free_leg(view, quad, p, q, seeds, leg) -> str:
    """The region and sweep that ``leg`` replaces, with the same seeds,
    give its values and its witness; returns the leg's kind."""
    region = partition.build_staircase_region(view, quad, p, q)
    res = run_sweep(region, seed_h=seeds[0], seed_v=seeds[1])
    assert leg.region == (region.frame, region.s, region.t)
    if leg.lam_v is None:
        kind = "L"
        assert p[1] != q[1] and leg.lam_h == seeds[1]
        assert composer._horiz_readout(res) == (seeds[1], "h")
    else:
        kind = "straight"
        assert p[1] == q[1]
        assert (res.lam_h, res.lam_v) == (seeds[0], INF) == (leg.lam_h, leg.lam_v)
    got = PathResult.from_points(leg.points)
    want = PathResult.from_points(reconstruct_path(res, "h"))
    assert (got.length, got.links) == (want.length, want.links)
    assert got.points == want.points
    return kind


def _free_leg_kinds(pool) -> dict[str, int]:
    legs = []
    with pytest.MonkeyPatch.context() as mp:
        _recording_free_legs(mp, legs)
        for inst in pool:
            solve(inst)
    kinds = {"L": 0, "straight": 0}
    for leg in legs:
        kinds[_check_free_leg(*leg)] += 1
    return kinds


def test_free_legs_read_as_their_sweeps():
    """Every leg that ``free_leg`` answers on the point-small and
    attach-small base pools, the triangle-pruning instances and the pocket
    chain: with the leg's seeds, its region's sweep reads an L leg's
    ``seed_v`` eastward, arriving "h", and a straight leg's (seed_h, INF),
    and gives the leg's witness (see composer's "Legs without a region")."""
    workloads = _perfbench("workloads")
    pool = (workloads.base_pool("point-small") + workloads.base_pool("attach-small")
            + _triangle_instances() + [inst for _, inst in _pocket_instances(60)])
    kinds = _free_leg_kinds(pool)
    assert kinds["L"] > 100 and kinds["straight"] > 30, kinds


@settings(max_examples=300, deadline=5000, derandomize=True, database=None)
@given(instances())
def test_free_legs_read_as_their_sweeps_on_fuzzed_instances(inst):
    _free_leg_kinds([inst])


def test_a_free_leg_is_neither_classified_nor_built(monkeypatch):
    """Every leg the readout takes asks ``free_leg`` first; one it answers
    reaches neither ``classify`` nor ``build_staircase_region``, and every
    other reaches both once.  Point-small's x-case legs: 28 of 81 are
    answered, and so are 14 of attach-small's 34."""
    calls = {"free_leg": 0, "classify": 0, "build_staircase_region": 0}
    for name in calls:
        real = getattr(composer, name)
        monkeypatch.setattr(composer, name, lambda *args, real=real, name=name:
                            calls.__setitem__(name, calls[name] + 1) or real(*args))
    workloads = _perfbench("workloads")
    for pool, want in (("point-small", (28, 81)), ("attach-small", (14, 34))):
        answered = legs = 0
        for inst in workloads.base_pool(pool):
            for name in calls:
                calls[name] = 0
            report = solve(inst)
            free = report.stats["free_legs"]
            assert calls["classify"] == calls["build_staircase_region"] \
                == calls["free_leg"] - free
            answered += free
            legs += calls["free_leg"]
        assert (answered, legs) == want, pool
