"""The two-link rule: a plain, non-collinear pair with a free L is
answered by that L, without a classification, a staircase region or a
sweep.

Two checks against the sweep it replaces: ``solve`` with the rule switched
off (``free_corners`` patched to find no corner) gives every
(distance, links, path) unchanged, and, pair by pair, ``free_corners``
finds exactly the middle points of the sweep's two-link witnesses.  A
third checks ``free_corners``, which makes one blocking query per leg,
against ``_traced_free_corners``, which reads the legs' whole traces; the
blocking query itself is checked against its scan in
``test_index.test_blocking_queries_match_the_scans``.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings

from fuzz_instances import instances
from rectlink import engine, frontend, geometry
from rectlink.engine import build_world, solve_pair_raw
from rectlink.frontend import _attachments, _Lines, solve
from rectlink.partition import (
    FRAME_DL,
    FRAME_LD,
    FRAME_RU,
    FRAME_UR,
    _region_trace,
    free_corners,
    quadrant,
)
from test_frontend import _answer, _perfbench, _pocket_instances, _triangle_instances


def _traced_free_corners(world, frame, s, t):
    """``free_corners`` as it read traces: an L is free iff the traces of
    both its legs, the ones a staircase region reads, end at their start's
    y."""
    sq, tq = frame.apply(s), frame.apply(t)

    def straight(f, start, stop):
        pts = _region_trace(world, frame, f, start, stop).points
        return pts[-1][1] == pts[0][1]

    inv = frame.inverse()
    corners = []
    if straight(FRAME_RU, sq, tq) and straight(FRAME_DL, tq, sq):
        corners.append(inv.apply((tq[0], sq[1])))
    if straight(FRAME_UR, sq, tq) and straight(FRAME_LD, tq, sq):
        corners.append(inv.apply((sq[0], tq[1])))
    return sorted(corners)


def _check_free_corners(inst) -> tuple[int, int]:
    """On every plain, non-collinear attachment pair of ``inst``, in its
    quadrant frame: ``free_corners`` builds no trace and equals the traced
    version, and a pair with a free corner classifies as xy in that frame.
    Returns (pairs, pairs with a free corner)."""
    world, lines = build_world(inst.obstacles), _Lines(inst)
    ends = [[a.junction2 for a in _attachments(inst, term, lines, world)[0]
             if a.out_dir is None] for term in (inst.source, inst.target)]
    pairs = free = 0
    for s in ends[0]:
        for t in ends[1]:
            if s[0] == t[0] or s[1] == t[1]:
                continue
            q = quadrant(s, t)
            traces = world.traces_built
            got = free_corners(world, q, s, t)
            assert world.traces_built == traces, (s, t)
            assert got == _traced_free_corners(world, q, s, t), (s, t)
            if got:
                assert engine.classify(world, s, t) == ("xy", q), (s, t)
            pairs += 1
            free += bool(got)
    return pairs, free


def test_free_corners_match_the_traced_ones():
    """On the point-small and attach-small base pools and the
    triangle-pruning instances, every plain, non-collinear pair."""
    workloads = _perfbench("workloads")
    pool = (workloads.base_pool("point-small")
            + workloads.base_pool("attach-small") + _triangle_instances())
    counts = [_check_free_corners(inst) for inst in pool]
    pairs, free = sum(p for p, _ in counts), sum(f for _, f in counts)
    assert pairs > 17_000 and pairs - free > 2_000 and free > 15_000


@settings(max_examples=500, deadline=5000, derandomize=True, database=None)
@given(instances())
def test_free_corners_match_the_traced_ones_on_fuzzed_instances(inst):
    _check_free_corners(inst)


def _swept(inst):
    """``solve`` with the two-link rule off: every plain xy pair sweeps."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontend, "free_corners", lambda world, frame, s, t: [])
        return solve(inst)


def test_the_rule_keeps_every_answer():
    """On the point-small and attach-small base pools, the triangle-pruning
    instances and the pocket chain, ``solve`` gives the answers of the
    solve that sweeps every plain xy pair, with as many middle solves, and
    the rule answers over 700 pairs."""
    workloads = _perfbench("workloads")
    pool = (workloads.base_pool("point-small")
                 + workloads.base_pool("attach-small")
                 + _triangle_instances()
                 + [inst for _, inst in _pocket_instances(60)])
    answered = 0
    for k, inst in enumerate(pool):
        got = solve(inst)
        want = _swept(inst)
        assert _answer(got) == _answer(want), k
        assert got.stats["middle_solves"] == want.stats["middle_solves"], k
        assert want.stats["two_link_pairs"] == 0
        answered += got.stats["two_link_pairs"]
    assert len(pool) >= 300 + 88 + 630 + 55 and answered > 700


@settings(max_examples=500, deadline=5000, derandomize=True, database=None)
@given(instances())
def test_the_rule_keeps_every_fuzzed_answer(inst):
    assert _answer(solve(inst)) == _answer(_swept(inst))


def test_a_two_link_solve_measures_its_witness_once(monkeypatch):
    """A free L's witness lies on the grid, so ``solve`` measures it once,
    halved: ``geometry.path_metrics`` runs once per two-link solve of a
    point-small pair."""
    measure = geometry.path_metrics
    calls = []

    def counted(points):
        calls.append(list(points))
        return measure(points)

    # ``solve`` may call it through ``PathResult`` or by its own import
    monkeypatch.setattr(geometry, "path_metrics", counted)
    monkeypatch.setattr(frontend, "path_metrics", counted, raising=False)
    solved = 0
    for inst in _perfbench("workloads").base_pool("point-small")[:40]:
        calls.clear()
        got = solve(inst)
        if got.stats["two_link_pairs"] == 1 and got.stats["middle_solves"] == 1:
            assert len(calls) == 1 and got.links == 2
            solved += 1
    assert solved > 10


def test_free_corners_are_the_sweeps_two_link_witnesses():
    """For every plain, non-collinear xy pair of attachments of the
    point-small base pool and the triangle-pruning instances,
    ``free_corners`` is non-empty iff the sweep's fewest arrival links are
    two, and it holds exactly the middle points of the two-link
    witnesses."""
    pool = _perfbench("workloads").base_pool("point-small") + _triangle_instances()
    pairs = free = 0
    for k, inst in enumerate(pool):
        world, lines = build_world(inst.obstacles), _Lines(inst)
        ends = [[a.junction2 for a in _attachments(inst, term, lines, world)[0]
                 if a.out_dir is None] for term in (inst.source, inst.target)]
        for s in ends[0]:
            for t in ends[1]:
                kind, frame = engine.classify(world, s, t)
                if kind != "xy" or s[0] == t[0] or s[1] == t[1]:
                    continue
                corners = free_corners(world, frame, s, t)
                raw = solve_pair_raw(world, s, t, cls=(kind, frame))
                least = min(lam for lam, _ in raw.arrivals.values())
                assert bool(corners) == (least == 2), (k, s, t)
                assert corners == sorted(wit[1] for lam, wit in raw.arrivals.values()
                                         if lam == 2), (k, s, t)
                pairs += 1
                free += bool(corners)
    assert pairs > 14_000 and pairs - free > 800 and free > 13_000
