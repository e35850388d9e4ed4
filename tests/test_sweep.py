import random

import pytest
from hypothesis import given, settings, strategies as st

from rectlink.engine import _double, build_world
from rectlink.generator import generate_instance
from rectlink.partition import (
    World,
    _hole_index,
    _hole_sections,
    build_staircase_region,
    classify,
)
from rectlink.sweep import INF, NaiveStore, reconstruct_path, run_sweep
from rectlink.geometry import PathResult, bounding_box
from frame_reference import columns, mapped_polygon, reference_tables
from store_reference import LoopStore
from tree_store import ActiveRanges, TreeStore, final_state


def _worlds_and_regions(seeds, n_obstacles=8, coord_limit=120):
    """Staircase regions from random point pairs that classify as xy,
    each with the world it was built from."""
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
        out.append((seed, world, build_staircase_region(world, frame, s2, t2)))
    return out


def _regions(seeds, n_obstacles=8, coord_limit=120):
    return [(seed, region) for seed, _, region
            in _worlds_and_regions(seeds, n_obstacles, coord_limit)]


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


# (op, lo, span, value, tag): the range is lo .. lo + span - 1, so a
# non-positive span gives an empty or reversed range
_OPS = st.lists(st.tuples(st.sampled_from("acdq"), st.integers(-3, 14),
                          st.integers(-2, 14),
                          st.sampled_from([0.0, 1.0, 2.0, 3.0, INF]),
                          st.none() | st.tuples(st.integers(0, 9),
                                                st.integers(0, 9))),
                min_size=4, max_size=30)


class TestSliceStore:
    @settings(max_examples=300)
    @given(st.integers(1, 12), _OPS)
    def test_matches_the_loop_store(self, m, ops):
        """``NaiveStore`` against the loop it replaced, on random operation
        sequences: assigns (INF included) and deactivations on in-range or
        empty ranges, chmins (INF included) on ranges that may run past
        either end, and queries on any range, empty, reversed or out of
        range.  Answers, write histories and final states must be equal."""
        new, old = NaiveStore(m), LoopStore(m)
        for seq, (op, lo, span, v, tag) in enumerate(ops):
            new.seq = old.seq = seq
            hi = lo + span - 1
            if op in "ad":
                # assign and deactivate get in-range ranges, possibly empty
                lo = min(max(lo, 0), m - 1)
                hi = min(max(hi, lo - 1), m - 1)
            if op == "a":
                new.assign(lo, hi, v, tag)
                old.assign(lo, hi, v, tag)
            elif op == "c":
                new.chmin(lo, hi, v, tag)
                old.chmin(lo, hi, v, tag)
            elif op == "d":
                new.deactivate(lo, hi)
                old.deactivate(lo, hi)
            else:
                assert new.query(lo, hi) == old.query(lo, hi)
        assert new.hist == old.hist
        assert final_state(new) == final_state(old)


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


def _sweep_readouts(region, seed_h, seed_v):
    store = NaiveStore(region.m)
    res = run_sweep(region, store, seed_h=seed_h, seed_v=seed_v)
    paths = {arr: reconstruct_path(region, store, arr)
             for arr, lam in (("h", res.lam_h), ("v", res.lam_v)) if lam < INF}
    return res.lam_h, res.lam_v, res.event_values, paths


def test_memoised_region_sweeps_like_a_fresh_one():
    """A region served again from the world's memo and swept with other
    seeds reads the same as a region built afresh for that sweep."""
    checked = 0
    for seed, world, region in _worlds_and_regions(range(60)):
        inv = region.frame.inverse()
        s2, t2 = inv.apply(region.s), inv.apply(region.t)
        for seed_h, seed_v in ((1, 2), (4, 5), (3, 3)):
            again = build_staircase_region(world, region.frame, s2, t2)
            assert again is region, seed
            fresh = build_staircase_region(World(world.obstacles), region.frame, s2, t2)
            assert fresh is not region
            assert _sweep_readouts(again, seed_h, seed_v) \
                == _sweep_readouts(fresh, seed_h, seed_v), (seed, seed_h, seed_v)
        checked += len(region.holes) > 0
    assert checked >= 5


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


def _reference_sections(world, frame, holes, x, skip):
    """Hole sections from freshly normalised mapped hull polygons."""
    out = []
    for hi in holes:
        if hi == skip:
            continue
        p = mapped_polygon(world.hull(hi), frame)
        box = bounding_box(p.vertices)
        if not (box.xlo < x < box.xhi):
            continue
        ys = [e.p[1] for e in p.horizontal_edges()
              if min(e.p[0], e.q[0]) <= x <= max(e.p[0], e.q[0])]
        out.append((min(ys), max(ys)))
    return out


def test_hole_sections_match_transformed_hulls():
    checked = 0
    for seed, world, region in _worlds_and_regions(range(0, 140)):
        polys = world.frame(region.frame)
        built = polys.tables_built
        for hi in region.holes:
            # every column the region build read, against an eager table
            assert columns(polys[hi]) \
                == reference_tables(world.hull(hi), region.frame), seed
        # the region build already built every hole's tables
        assert polys.tables_built == built, seed
        index = _hole_index(polys, region.holes)
        for x in range(region.s[0] - 1, region.t[0] + 2):
            for skip in [None] + region.holes:
                got = _hole_sections(polys, index, x, skip)
                want = _reference_sections(world, region.frame, region.holes,
                                           x, skip)
                assert got == want, f"seed {seed}, x {x}, skip {skip}"
                checked += len(want)
    assert checked > 0
