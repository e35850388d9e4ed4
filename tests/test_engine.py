import pytest

from rectlink.engine import build_world, solve_pair_raw
from rectlink.frontend import Attachment, _align_runs, _seed_links, solve
from rectlink.generator import generate_instance
from rectlink.geometry import GeometryError, PathResult, RectPolygon, first_dir
from rectlink.model import Instance, Terminal
from rectlink.oracle import oracle_solve
from shapes import in_open_box


def _outside_boxes(inst):
    return all(
        not in_open_box(ob.bbox, p)
        for ob in inst.obstacles
        for p in (inst.source.point, inst.target.point)
    )


def _solve_points(s, t, obstacles=()):
    return solve(Instance(obstacles=tuple(obstacles), source=Terminal.of_point(s),
                          target=Terminal.of_point(t)))


def test_empty_world_pair():
    ans = _solve_points((0, 0), (3, 4))
    assert (ans.distance, ans.links) == (7, 2)
    assert ans.path[0] == (0, 0) and ans.path[-1] == (3, 4)


def test_same_point_pair():
    ans = _solve_points((2, 2), (2, 2))
    assert (ans.distance, ans.links) == (0, 0)
    assert ans.path == [(2, 2)]


def test_straight_free_corridor():
    ob = RectPolygon([(2, 3), (8, 3), (8, 6), (2, 6)])
    ans = _solve_points((0, 0), (10, 0), [ob])
    assert (ans.distance, ans.links) == (10, 1)


def test_blocked_straight_line():
    # wall across the straight corridor forces a detour with extra links
    ob = RectPolygon([(3, -4), (5, -4), (5, 4), (3, 4)])
    ans = _solve_points((0, 0), (8, 0), [ob])
    assert ans.distance == 8 + 2 * 4
    assert ans.links == 3
    got = PathResult.from_points(ans.path)
    assert (got.length, got.links) == (ans.distance, ans.links)


def test_seeded_directions_change_link_counts():
    w = build_world([])
    raw = solve_pair_raw(w, (0, 0), (6, 0),
                         dir_links={(1, 0): 5, (-1, 0): 1, (0, 1): 1, (0, -1): 1})
    links, wit = raw.arrivals[(1, 0)]
    assert raw.dist2 == 6 and links == 5
    assert wit == [(0, 0), (6, 0)]


# The witness snap: ``solve`` aligns a doubled-coordinate witness to the
# doubled instance lines in one pass, then halves it.  ``_align_runs`` reads
# the instance lines undoubled.

def _on_lines(pts, xs2, ys2):
    return all(x in xs2 and y in ys2 for x, y in pts)


def _halves(xs2, ys2):
    return [x // 2 for x in xs2], [y // 2 for y in ys2]


def test_even_snap_slides_odd_runs():
    xs2, ys2 = [0, 4], [0, 2, 4, 6]
    snapped = _align_runs([(0, 0), (0, 3), (4, 3), (4, 6)], *_halves(xs2, ys2))
    assert _on_lines(snapped, xs2, ys2)
    got = PathResult.from_points(snapped)
    assert (got.length, got.links) == (10, 3)


def test_even_snap_avoids_neighbour_merge():
    # the odd horizontal run at y=3 must slide to 4, away from y=2
    xs2, ys2 = [0, 4, 8], [0, 2, 4, 6]
    pts = [(0, 0), (0, 2), (4, 2), (4, 3), (8, 3), (8, 6)]
    snapped = _align_runs(pts, *_halves(xs2, ys2))
    assert _on_lines(snapped, xs2, ys2)
    got = PathResult.from_points(snapped)
    assert (got.length, got.links) == (PathResult.from_points(pts).length, 5)
    assert (4, 4) in snapped and (8, 4) in snapped


def test_even_snap_rejects_impossible_inputs():
    # the run at x=2 lies between lines 0 and 4, and both would merge it
    # with a neighbouring run
    with pytest.raises(GeometryError):
        _align_runs([(0, 0), (0, 2), (2, 2), (2, 4), (4, 4)], [0, 2], [0, 1, 2])


@pytest.mark.parametrize("out_dir", [1, -1])
def test_even_snap_moves_a_pocket_junction_run(out_dir):
    # a lead leaves its box through the wall x=c=5 (doubled 10) and hands
    # over at the junction 2*c + out_dir; the middle turns north there, so
    # a vertical run sits on the odd junction line
    c2, jun = 10, 10 + out_dir
    xs2 = sorted({c2 - 4 * out_dir, c2, c2 + 8 * out_dir})
    ys2 = [0, 4, 12]
    pts = [(c2 - 4 * out_dir, 4), (jun, 4), (jun, 12), (c2 + 8 * out_dir, 12)]
    snapped = _align_runs(pts, *_halves(xs2, ys2))
    assert _on_lines(snapped, xs2, ys2)
    # the far line would merge the run with the last one; the wall is legal
    assert (c2, 4) in snapped and (c2, 12) in snapped
    before, after = PathResult.from_points(pts), PathResult.from_points(snapped)
    assert (after.length, after.links) == (before.length, before.links) == (20, 3)


@pytest.mark.parametrize("seed", range(0, 120, 2))
def test_pair_matches_oracle(seed):
    inst = generate_instance(seed, n_obstacles=10, coord_limit=160)
    if not _outside_boxes(inst):
        pytest.skip("terminal inside a bounding box")
    ans = solve(inst)
    assert ans.stats["middle_solves"] == 1
    ora = oracle_solve(inst, want_path=False)
    assert (ans.distance, ans.links) == (ora.distance, ora.links), f"seed {seed}"
    got = PathResult.from_points(ans.path)
    assert (got.length, got.links) == (ans.distance, ans.links)


@pytest.mark.parametrize("out, want", [
    ((1, 0), {(1, 0): 3, (0, 1): 2}),
    ((-1, 0), {(1, 0): 3, (0, 1): 4}),
    ((0, 1), {(1, 0): 2, (0, 1): 3}),
    ((0, -1), {(1, 0): 4, (0, 1): 3}),
])
def test_seeded_links_are_exact_for_the_pocket_seed_shapes(out, want):
    """``solve_pair_raw``'s precondition holds for ``_seed_links``' seeds,
    here with one link to the junction: in the empty world, (0, 0) to
    (6, 4) arrives in each direction with the fewest links of the two- and
    three-link paths, each charged its first run's seed."""
    seeds = _seed_links(Attachment(junction2=(0, 0), d2=0, links=1, out_dir=out))
    shapes = [[(0, 0), (6, 0), (6, 4)], [(0, 0), (0, 4), (6, 4)],
              [(0, 0), (3, 0), (3, 4), (6, 4)], [(0, 0), (0, 2), (6, 2), (6, 4)]]
    brute = {}
    for pts in shapes:
        arrive = first_dir(pts[-2:])
        links = len(pts) - 2 + seeds[first_dir(pts)]
        brute[arrive] = min(brute.get(arrive, links), links)
    raw = solve_pair_raw(build_world([]), (0, 0), (6, 4), dir_links=seeds)
    assert {d: lam for d, (lam, _) in raw.arrivals.items()} == brute == want
