import pytest

from rectlink.generator import generate_instance
from rectlink.geometry import Rect
from rectlink.model import Instance, Terminal, validate
from rectlink.oracle import OracleRefusal, build_hanan_graph, oracle_solve
from closest_pairs import oracle_closest_pairs
from oracle_reference import oracle_solve_reference
from shapes import rect_polygon, spiral_band

BOX = rect_polygon(Rect(10, 10, 20, 20))


def _pp(s, t, obstacles=(BOX,)):
    return Instance(obstacles=tuple(obstacles),
                    source=Terminal.of_point(s), target=Terminal.of_point(t))


def test_free_plane_straight_line():
    ans = oracle_solve(_pp((0, 5), (30, 5), obstacles=()))
    assert (ans.distance, ans.links) == (30, 1)


def test_free_plane_one_bend():
    ans = oracle_solve(_pp((0, 0), (7, 9), obstacles=()))
    assert (ans.distance, ans.links) == (16, 2)


def test_detour_around_box():
    # terminals horizontally aligned through the box: dip to the nearer box
    # edge and back, paying 10 extra length and two extra links
    ans = oracle_solve(_pp((5, 15), (25, 15)))
    assert ans.distance == 30
    assert ans.links == 3


def test_identical_points():
    ans = oracle_solve(_pp((0, 5), (0, 5), obstacles=()))
    assert (ans.distance, ans.links) == (0, 0)


def test_witness_is_consistent():
    ans = oracle_solve(_pp((5, 15), (25, 16)))
    assert ans.path is not None
    assert ans.path.length == ans.distance
    assert ans.path.links == ans.links
    assert ans.path.points[0] == (5, 15)
    assert ans.path.points[-1] == (25, 16)


def test_segment_terminal_projects():
    inst = Instance(obstacles=(), source=Terminal.of_segment((0, 0), (0, 10)),
                    target=Terminal.of_point((5, 4)))
    ans = oracle_solve(inst)
    assert (ans.distance, ans.links) == (5, 1)


def test_touching_terminals():
    inst = Instance(obstacles=(), source=Terminal.of_segment((0, 0), (10, 0)),
                    target=Terminal.of_segment((5, 0), (5, 7)))
    ans = oracle_solve(inst)
    assert (ans.distance, ans.links) == (0, 0)


def test_closest_pairs_aligned():
    pairs = oracle_closest_pairs(_pp((5, 3), (25, 3), obstacles=()))
    assert pairs == [((5, 3), (25, 3))]


def test_closest_pairs_segment_to_segment():
    inst = Instance(obstacles=(), source=Terminal.of_segment((0, 0), (0, 10)),
                    target=Terminal.of_segment((6, 2), (6, 8)))
    pairs = oracle_closest_pairs(inst)
    assert len(pairs) >= 2
    assert all(q[0] - p[0] == 6 and p[1] == q[1] for p, q in pairs)


def test_grid_cap_refusal():
    obstacles = tuple(
        rect_polygon(Rect(4 * k, 4 * k, 4 * k + 2, 4 * k + 2)) for k in range(300)
    )
    inst = Instance(obstacles=obstacles, source=Terminal.of_point((-5, -5)),
                    target=Terminal.of_point((1300, 1300)))
    with pytest.raises(OracleRefusal):
        build_hanan_graph(inst)


def _spiral(arms, scale):
    """Source in the spiral's core, target beyond its far corner: the path
    winds out along every arm, one link each."""
    band = spiral_band(arms, scale)
    top = max(x for x, _ in band.vertices), max(y for _, y in band.vertices)
    inst = Instance(obstacles=(band,), source=Terminal.of_point((0, 2 * scale)),
                    target=Terminal.of_point((top[0] + scale + 1, top[1] + scale + 1)))
    assert validate(inst) == []
    return inst


@pytest.mark.parametrize("want_path", [False, True])
def test_refuses_costs_beyond_float64(want_path):
    # length * big + links passes 2**53 here; summed in float64 it came out
    # as (102267073100, 148), though the answer has 200 links
    inst = _spiral(200, 2_556_549)
    assert build_hanan_graph(inst).shape == (203, 203)
    with pytest.raises(OracleRefusal, match=r"2\*\*53"):
        oracle_solve(inst, want_path=want_path)


@pytest.mark.parametrize("arms, scale, want", [
    (200, 2, (80006, 200)),
    (40, 2_556_549, (4_095_591_500, 40)),
])
def test_spirals_below_the_float64_limit_are_exact(arms, scale, want):
    inst = _spiral(arms, scale)
    ans = oracle_solve(inst)
    assert (ans.distance, ans.links) == want == oracle_solve_reference(inst, cap=1000)


@pytest.mark.parametrize("seed", range(25))
def test_fast_oracle_matches_reference(seed):
    inst = generate_instance(seed, n_obstacles=6, coord_limit=120)
    ans = oracle_solve(inst, want_path=True)
    assert (ans.distance, ans.links) == oracle_solve_reference(inst)


@pytest.mark.parametrize("kinds", [
    ("segment", "point"), ("segment", "segment"),
    ("polygon", "point"), ("polygon", "segment"), ("polygon", "polygon"),
])
@pytest.mark.parametrize("seed", range(6))
def test_fast_oracle_matches_reference_mixed_terminals(kinds, seed):
    inst = generate_instance(2000 + seed, n_obstacles=5, coord_limit=100,
                             source_kind=kinds[0], target_kind=kinds[1])
    ans = oracle_solve(inst, want_path=False)
    assert (ans.distance, ans.links) == oracle_solve_reference(inst)
