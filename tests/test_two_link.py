"""The two-link rule: a plain, non-collinear xy pair with a free L is
answered by that L, without a staircase region or a sweep.

Two checks against the sweep it replaces: ``solve`` with the rule switched
off (``free_corners`` patched to find no corner) gives every
(distance, links, path) unchanged, and, pair by pair, ``free_corners``
finds exactly the middle points of the sweep's two-link witnesses.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings

from fuzz_instances import instances
from rectlink import engine, frontend
from rectlink.engine import build_world, solve_pair_raw
from rectlink.frontend import _attachments, _Lines, solve
from rectlink.partition import free_corners
from test_frontend import _answer, _perfbench, _pocket_instances, _triangle_instances


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
