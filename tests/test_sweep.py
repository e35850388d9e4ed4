import random

import pytest

from rectlink.engine import _double, build_world
from rectlink.generator import generate_instance
from rectlink.partition import build_staircase_region, classify
from rectlink.sweep import INF, NaiveStore, reconstruct_path, run_sweep
from rectlink.geometry import PathResult
from tree_store import ActiveRanges, TreeStore, final_state


def _regions(seeds, n_obstacles=8, coord_limit=120):
    """Staircase regions from random point pairs that classify as xy."""
    out = []
    for seed in seeds:
        inst = generate_instance(seed, n_obstacles=n_obstacles,
                                 coord_limit=coord_limit)
        world = build_world(list(inst.obstacles))
        s2 = _double(inst.source.point)
        t2 = _double(inst.target.point)
        kind, frame = classify(world, s2, t2)
        if kind != "xy" or s2[0] == t2[0] or s2[1] == t2[1]:
            continue
        out.append((seed, build_staircase_region(world, frame, s2, t2)))
    return out


class TestActiveRanges:
    def test_merge_on_activate(self):
        r = ActiveRanges()
        r.activate(0, 3)
        r.activate(5, 7)
        r.activate(4, 4)
        assert list(zip(r.los, r.his)) == [(0, 7)]

    def test_deactivate_splits(self):
        r = ActiveRanges()
        r.activate(0, 9)
        r.deactivate(3, 5)
        assert r.clip(0, 9) == [(0, 2), (6, 9)]
        assert r.contains(2) and not r.contains(4)

    def test_against_set_model(self):
        rng = random.Random(7)
        for _ in range(200):
            r = ActiveRanges()
            model: set[int] = set()
            for _ in range(30):
                lo = rng.randrange(0, 40)
                hi = lo + rng.randrange(0, 8)
                if rng.random() < 0.5:
                    r.activate(lo, hi)
                    model |= set(range(lo, hi + 1))
                else:
                    r.deactivate(lo, hi)
                    model -= set(range(lo, hi + 1))
            assert r.indices() == sorted(model)


class TestTreeStore:
    def test_random_ops_match_naive(self):
        rng = random.Random(3)
        for trial in range(120):
            m = rng.randrange(1, 25)
            naive, tree = NaiveStore(m), TreeStore(m)
            for _ in range(40):
                lo = rng.randrange(0, m)
                hi = rng.randrange(lo, m)
                op = rng.randrange(4)
                if op == 0:
                    v = float(rng.randrange(0, 50))
                    naive.assign(lo, hi, v, None)
                    tree.assign(lo, hi, v)
                elif op == 1:
                    v = float(rng.randrange(0, 50))
                    naive.chmin(lo, hi, v, None)
                    tree.chmin(lo, hi, v)
                elif op == 2:
                    naive.deactivate(lo, hi)
                    tree.deactivate(lo, hi)
                else:
                    assert naive.query(lo, hi)[0] == tree.query(lo, hi)[0]
            assert final_state(naive) == final_state(tree)


# (1, 2) seeds a fresh source; (2, 4) is a composer leg out of a winder
# midpoint reached in 2 links; (4, 5) and (3, 3) seed a path continued
# through its start point with per-direction link counts (dir_links)
@pytest.mark.parametrize("seed_h, seed_v", [(1, 2), (4, 5), (3, 3), (2, 4)])
def test_shadow_equivalence_on_random_regions(seed_h, seed_v):
    regions = _regions(range(0, 140))
    assert len(regions) >= 40
    for seed, region in regions:
        naive = run_sweep(region, NaiveStore(region.m), seed_h=seed_h, seed_v=seed_v)
        tree = run_sweep(region, TreeStore(region.m), seed_h=seed_h, seed_v=seed_v)
        assert naive.lam_h == tree.lam_h, f"seed {seed}"
        assert naive.lam_v == tree.lam_v, f"seed {seed}"
        assert naive.event_values == tree.event_values, f"seed {seed}"
        assert final_state(naive.store) == final_state(tree.store), f"seed {seed}"


def test_reconstruction_matches_sweep_value():
    for seed, region in _regions(range(300, 380)):
        store = NaiveStore(region.m)
        res = run_sweep(region, store)
        dist = abs(region.t[0] - region.s[0]) + abs(region.t[1] - region.s[1])
        for arr, lam in (("h", res.lam_h), ("v", res.lam_v)):
            if lam == INF:
                continue
            pts = reconstruct_path(region, store, arr)
            got = PathResult.from_points(pts)
            assert got.length == dist, f"seed {seed}"
            assert got.links == lam, f"seed {seed}"
            # xy-monotone in the region frame
            assert all(a[0] <= b[0] and a[1] <= b[1]
                       for a, b in zip(pts, pts[1:])), f"seed {seed}"


def test_reseeding_shifts_both_readouts():
    regions = _regions(range(500, 540))
    assert regions
    _, region = regions[0]
    base = run_sweep(region, NaiveStore(region.m), seed_h=1, seed_v=2)
    bumped = run_sweep(region, NaiveStore(region.m), seed_h=4, seed_v=5)
    if base.lam_h != INF:
        assert bumped.lam_h == base.lam_h + 3
    if base.lam_v != INF:
        assert bumped.lam_v == base.lam_v + 3
