import random

import pytest
from hypothesis import given, settings, strategies as st

from rectlink.engine import _double, build_world
from rectlink.generator import generate_instance
from rectlink.partition import build_staircase_region, classify
from rectlink.sweep import INF, RunStore, provenance, reconstruct_path, run_sweep
from rectlink.geometry import PathResult, bounding_box
from diagonal import diagonal_region
from frame_reference import columns, mapped_polygon, reference_tables
from scan_reference import reread_events
from shapes import horizontal_edges
from store_reference import LoopStore
from tree_store import ActiveRanges, TreeStore, assert_stores_agree, final_state


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
            runs, tree = RunStore(m), TreeStore(m)
            for _ in range(40):
                lo = rng.randrange(0, m)
                hi = rng.randrange(lo, m)
                op = rng.randrange(4)
                if op == 0:
                    v = float(rng.randrange(0, 50))
                    runs.assign(lo, hi, v)
                    tree.assign(lo, hi, v)
                elif op == 1:
                    v = float(rng.randrange(0, 50))
                    runs.chmin(lo, hi, v)
                    tree.chmin(lo, hi, v)
                elif op == 2:
                    runs.deactivate(lo, hi)
                    tree.deactivate(lo, hi)
                else:
                    assert runs.query(lo, hi)[0] == tree.query(lo, hi)[0]
            assert final_state(runs) == final_state(tree)


# (op, lo, span, value): the range is lo .. lo + span - 1, so a
# non-positive span gives an empty or reversed range
_OPS = st.lists(st.tuples(st.sampled_from("acdq"), st.integers(-3, 14),
                          st.integers(-2, 14),
                          st.sampled_from([0.0, 1.0, 2.0, 3.0, INF])),
                min_size=4, max_size=30)


# stripe states: a value, INF (active but unreachable) or None (inactive)
_STATES = [0.0, 1.0, 2.0, 3.0, 5.0, INF, None]


class TestSliceStore:
    @settings(max_examples=300)
    @given(st.integers(1, 12), _OPS)
    def test_matches_the_loop_store(self, m, ops):
        """``RunStore`` against the reference loop store, on random operation
        sequences: assigns (INF included) and deactivations on in-range or
        empty ranges, chmins (INF included) on ranges that may run past
        either end, and queries on any range, empty, reversed or out of
        range.  Answers and final states must be equal; the writes' history
        is checked by ``test_provenance_matches_the_reference_history``."""
        new, old = RunStore(m), LoopStore(m)
        for op, lo, span, v in ops:
            hi = lo + span - 1
            if op in "ad":
                # assign and deactivate get in-range ranges, possibly empty
                lo = min(max(lo, 0), m - 1)
                hi = min(max(hi, lo - 1), m - 1)
            if op == "a":
                new.assign(lo, hi, v)
                old.assign(lo, hi, v, None)
            elif op == "c":
                new.chmin(lo, hi, v)
                old.chmin(lo, hi, v, None)
            elif op == "d":
                new.deactivate(lo, hi)
                old.deactivate(lo, hi)
            else:
                assert new.query(lo, hi) == old.query(lo, hi)
        assert final_state(new) == final_state(old)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_many_runs_match_the_loop_store(self, data):
        """The same check at up to 200 baselines, from a state cut into many
        runs: stripes of assigned values, INF and deactivated baselines,
        then interleaved deactivations, assigns, chmins over many stripes
        at once and queries, chmins and queries on ranges that may run past
        either end.  After every operation the runs are checked: starts
        strictly increasing from 0, and no two neighbouring runs equal."""
        m = data.draw(st.integers(1, 200), "m")
        new, old = RunStore(m), LoopStore(m)
        ops = []
        lo = 0
        for length, v in data.draw(st.lists(
                st.tuples(st.integers(1, 9), st.sampled_from(_STATES)),
                min_size=1, max_size=60), "stripes"):
            if lo >= m:
                break
            hi = min(lo + length, m) - 1
            ops.append(("d" if v is None else "a", lo, hi, v))
            lo = hi + 1
        for op, lo, span, v in data.draw(st.lists(st.tuples(
                st.sampled_from("aaddcccqq"), st.integers(-5, m + 4),
                st.integers(-2, m + 8), st.sampled_from(_STATES[:-1])),
                max_size=60), "ops"):
            hi = lo + span - 1
            if op in "ad":
                lo = min(max(lo, 0), m - 1)
                hi = min(max(hi, lo - 1), lo + 12, m - 1)
            ops.append((op, lo, hi, v))
        for op, lo, hi, v in ops:
            if op == "a":
                new.assign(lo, hi, v)
                old.assign(lo, hi, v, None)
            elif op == "c":
                new.chmin(lo, hi, v)
                old.chmin(lo, hi, v, None)
            elif op == "d":
                new.deactivate(lo, hi)
                old.deactivate(lo, hi)
            else:
                assert new.query(lo, hi) == old.query(lo, hi)
            starts, downs = new.starts, new.down
            assert starts[0] == 0 and starts[-1] < m
            assert all(a < b for a, b in zip(starts, starts[1:]))
            assert all(a != b for a, b in zip(downs, downs[1:]))
            assert len(new.up) == len(downs) == len(starts)
        assert final_state(new) == final_state(old)


# (1, 2) seeds a fresh source; (2, 4) is a composer leg out of a winder
# midpoint reached in 2 links; (4, 5) and (3, 3) seed a path continued
# through its start point with per-direction link counts (dir_links)
SEED_PAIRS = [(1, 2), (4, 5), (3, 3), (2, 4)]


@pytest.mark.parametrize("seed_h, seed_v", SEED_PAIRS)
def test_shadow_equivalence_on_random_regions(seed_h, seed_v):
    regions = _regions(range(0, 140))
    assert len(regions) >= 40
    for seed, region in regions:
        assert_stores_agree(region, seed_h, seed_v, f"seed {seed}")


def test_stores_agree_on_a_250_hole_diagonal():
    region = diagonal_region(250)
    assert (region.m, len(region.events)) == (502, 501)
    for seed_h, seed_v in SEED_PAIRS:
        assert_stores_agree(region, seed_h, seed_v, (seed_h, seed_v))


def test_stores_agree_on_a_2000_hole_diagonal():
    region = diagonal_region(2000)
    assert (region.m, len(region.events)) == (4002, 4001)
    assert_stores_agree(region)


def _replay_with_history(region, seed_h, seed_v):
    """``run_sweep``'s event loop on the reference loop store, each write
    tagged with the (event id, source baseline) that produced its value, or
    None for the horizontal seed and an unreachable value.  Returns the
    store and each baseline's (active, value) before each event and after
    the last."""
    store = LoopStore(region.m)
    states = []
    for eid, e in enumerate(region.events):
        states.append(list(zip(store.active, store.val)))
        store.seq = eid
        if e.kind == "originate":
            lo, hi = e.assign
            store.assign(lo, hi, seed_v, (eid, lo))
            store.assign(lo, lo, seed_h, None)
            continue
        v, arg = store.query(*e.src) if e.src is not None else (INF, -1)
        tag = (eid, arg) if arg >= 0 else None
        if e.chmin is not None:
            store.chmin(*e.chmin, v + 2, tag)
        if e.deactivate is not None:
            store.deactivate(*e.deactivate)
        if e.assign is not None:
            store.assign(*e.assign, v + 2, tag)
        if e.assign_inf is not None:
            store.assign(*e.assign_inf, INF, None)
    states.append(list(zip(store.active, store.val)))
    return store, states


def _check_provenance(region, seed_h, seed_v, bound_step=1):
    """Every active (baseline, bound) pair, at every ``bound_step``-th bound
    and after the last event, reads the writer the history recorded."""
    res = run_sweep(region, seed_h=seed_h, seed_v=seed_v)
    ref, states = _replay_with_history(region, seed_h, seed_v)
    last = len(states) - 1
    pairs = 0
    for bound in sorted(set(range(0, last, bound_step)) | {last}):
        for k, (active, value) in enumerate(states[bound]):
            if active:
                assert provenance(res, k, value, bound) \
                    == ref.prov_before(k, bound), (k, bound)
                pairs += 1
    return pairs


@pytest.mark.parametrize("seed_h, seed_v", SEED_PAIRS)
def test_provenance_matches_the_reference_history(seed_h, seed_v):
    pairs = 0
    for seed, region in _regions(range(0, 140)):
        pairs += _check_provenance(region, seed_h, seed_v)
    assert pairs > 5000


def test_provenance_matches_the_reference_history_on_a_diagonal():
    # all 251 502 pairs of the 250-hole diagonal take seconds; every fifth
    # bound still reads each baseline after splits and merges alike
    assert _check_provenance(diagonal_region(250), 1, 2, bound_step=5) > 50_000


def test_reconstruction_matches_sweep_value():
    for seed, region in _regions(range(300, 380)):
        res = run_sweep(region)
        dist = abs(region.t[0] - region.s[0]) + abs(region.t[1] - region.s[1])
        for arr, lam in (("h", res.lam_h), ("v", res.lam_v)):
            if lam == INF:
                continue
            pts = reconstruct_path(res, arr)
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
    base = run_sweep(region, RunStore(region.m), seed_h=1, seed_v=2)
    bumped = run_sweep(region, RunStore(region.m), seed_h=4, seed_v=5)
    if base.lam_h != INF:
        assert bumped.lam_h == base.lam_h + 3
    if base.lam_v != INF:
        assert bumped.lam_v == base.lam_v + 3


def _reference_sections(world, frame, holes, x):
    """Hole sections from freshly normalised mapped hull polygons."""
    out = []
    for hi in holes:
        p = mapped_polygon(world.hull(hi), frame)
        box = bounding_box(p.vertices)
        if not (box.xlo < x < box.xhi):
            continue
        ys = [e.p[1] for e in horizontal_edges(p)
              if min(e.p[0], e.q[0]) <= x <= max(e.p[0], e.q[0])]
        out.append((min(ys), max(ys)))
    return out


def test_nearest_sections_match_transformed_hulls():
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
        # every section read of the events, against the mapped hulls
        assert reread_events(region, lambda x: _reference_sections(
            world, region.frame, region.holes, x)) == region.events, seed
        checked += len(region.holes)
    assert checked > 0
