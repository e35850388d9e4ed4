"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root: python3 -m pytest perfbench -q
"""
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from tracer import METRICS, Tracer, layer_metrics, self_times, tail_percentile  # noqa: E402
from witness import WitnessChecker, measure  # noqa: E402


def _span(sid, t0, t1, parent):
    return (sid, f"s{sid}", t0, t1, parent, 0)


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, 0, 100, -1),
        _span(1, 10, 40, 0),
        _span(2, 20, 30, 1),
        _span(3, 50, 60, 0),
    ]
    assert self_times(spans) == {0: 60, 1: 20, 2: 10, 3: 10}


def test_tail_percentile_keeps_ten_beyond():
    for n in (11, 12, 21, 88, 100, 300, 1000):
        xs = list(range(n))
        random.Random(n).shuffle(xs)
        p, value = tail_percentile(xs)
        beyond = sum(x > value for x in xs)
        assert beyond >= 10
        # one percentile higher leaves fewer than ten beyond
        rank = -(-(p + 1) * n // 100)
        assert p == 100 or n - rank < 10
    assert tail_percentile(range(100)) == (90, 89)
    assert tail_percentile(range(300)) == (96, 287)
    assert tail_percentile(range(21)) == (52, 10)
    assert tail_percentile(range(10)) is None


def test_child_self_times_fit_in_parent_span():
    from rectlink.generator import generate_instance
    import rectlink.frontend

    inst = generate_instance(50_029, n_obstacles=12, coord_limit=200,
                             source_kind="polygon", target_kind="segment")
    tracer = Tracer()
    tracer.install()
    try:
        rectlink.frontend.solve(inst)
    finally:
        tracer.uninstall()
    assert rectlink.frontend.solve.__name__ == "solve"
    own = self_times(tracer.spans)
    dur = {s[0]: s[3] - s[2] for s in tracer.spans}
    kids = {}
    for sid, _, _, _, parent, _ in tracer.spans:
        kids.setdefault(parent, []).append(sid)
    assert len(kids) > 2
    for parent, children in kids.items():
        if parent >= 0:
            assert sum(own[c] for c in children) <= dur[parent]
    # self times of all spans under one root add up to the root's duration
    roots = kids[-1]
    assert len(roots) == 1
    assert sum(own.values()) == dur[roots[0]]


def test_missing_attribute_is_reported_absent():
    tracer = Tracer()
    tracer.install([("rectlink.engine", None, "no_such_stage", "partition.region", None),
                    ("rectlink.nowhere", None, "solve", "frontend.solve", None)])
    tracer.uninstall()
    absent = tracer.absent()
    assert absent["partition.region_ms"] == "rectlink.engine.no_such_stage no longer exists"
    assert "partition.region_us_per_event" in absent
    assert "frontend.attach_pairs" in absent
    assert "sweep.ms" not in absent
    layers = layer_metrics([], {}, 1)
    assert set(layers) == set(METRICS)


SQUARE = [[10, 10], [20, 10], [20, 20], [10, 20]]
OBJ = {"version": 1, "obstacles": [SQUARE],
       "source": {"kind": "point", "at": [0, 15]},
       "target": {"kind": "segment", "from": [30, 12], "to": [30, 18]}}


def test_witness_checker_accepts_a_true_witness():
    path = [(0, 15), (0, 20), (30, 20), (30, 18)]
    assert measure(path) == (37, 3)
    assert WitnessChecker(OBJ).problems(37, 3, path) == []
    # riding an obstacle's boundary is legal, obstacles are open
    assert WitnessChecker(OBJ).problems(37, 3, [(0, 15), (0, 10), (30, 10), (30, 12)]) == []


def test_witness_checker_rejects_bad_witnesses():
    chk = WitnessChecker(OBJ)
    through = chk.problems(30, 1, [(0, 15), (30, 15)])
    assert any("enters obstacle 0" in p for p in through)
    assert any("measures" in p for p in chk.problems(35, 3, [(0, 15), (0, 20), (30, 20)]))
    assert any("off the target" in p for p in chk.problems(25, 2, [(0, 15), (0, 20), (25, 20)]))
    assert any("off the source" in p for p in chk.problems(30, 1, [(0, 20), (30, 20)]))
    assert any("off the instance grid" in p
               for p in chk.problems(37, 3, [(0, 15), (0, 21), (30, 21), (30, 18)]))
    assert chk.problems(1, 1, [(0, 15), (1, 16)]) == ["diagonal step (0, 15) -> (1, 16)"]


def test_presentations_keep_answers():
    from rectlink.frontend import solve
    from rectlink.io import instance_from_obj, instance_to_obj
    from rectlink.generator import generate_instance

    base = [generate_instance(seed, n_obstacles=8, source_kind=sk, target_kind=tk)
            for seed, (sk, tk) in enumerate(workloads.TEST2_KINDS[:3] + [workloads.PP])]
    rng = random.Random(0)
    for inst in base:
        want = solve(inst)
        obj = instance_to_obj(inst)
        for _ in range(3):
            shown = workloads.present(obj, rng)
            got = solve(instance_from_obj(shown))
            assert (got.distance, got.links) == (want.distance, want.links)
            assert WitnessChecker(shown).problems(got.distance, got.links, got.path) == []
