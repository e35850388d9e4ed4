import random

import pytest
from hypothesis import example, given, settings, strategies as st

import validate_reference
from rectlink import model
from rectlink.geometry import Rect, RectPolygon
from rectlink.model import Instance, Terminal, validate
from rectlink.partition import BoxIndex
from shapes import rect_polygon

BOX = rect_polygon(Rect(10, 10, 20, 20))


def _inst(source, target, obstacles=(BOX,)):
    return Instance(obstacles=tuple(obstacles), source=source, target=target)


def test_validate_accepts_simple_instance():
    inst = _inst(Terminal.of_point((0, 0)), Terminal.of_point((30, 5)))
    assert validate(inst) == []


def test_validate_rejects_point_inside_obstacle():
    inst = _inst(Terminal.of_point((15, 15)), Terminal.of_point((30, 5)))
    assert validate(inst)


def test_point_on_obstacle_boundary_breaks_general_position():
    # boundary contact is geometrically legal but shares a coordinate line,
    # which the strict general-position check refuses
    inst = _inst(Terminal.of_point((10, 15)), Terminal.of_point((30, 5)))
    assert any("shares" in e for e in validate(inst))


def test_validate_rejects_overlapping_boxes():
    other = rect_polygon(Rect(15, 15, 25, 25))
    inst = _inst(Terminal.of_point((0, 0)), Terminal.of_point((40, 5)), (BOX, other))
    assert any("overlap" in e for e in validate(inst))


def test_validate_rejects_shared_obstacle_coordinate():
    inst = _inst(
        Terminal.of_point((0, 0)),
        Terminal.of_point((50, 5)),
        (BOX, rect_polygon(Rect(20, 30, 40, 41))),
    )
    assert any("share corner" in e for e in validate(inst))


def test_validate_rejects_segment_through_obstacle():
    seg = Terminal.of_segment((5, 15), (25, 15))
    inst = _inst(seg, Terminal.of_point((30, 5)))
    assert validate(inst)


def test_segment_clear_of_obstacles_is_legal():
    seg = Terminal.of_segment((11, 5), (19, 5))
    inst = _inst(seg, Terminal.of_point((30, 25)))
    assert validate(inst) == []


def test_validate_rejects_segment_piercing_three_boxes():
    boxes = [rect_polygon(Rect(10 * k, 0, 10 * k + 5, 9)) for k in range(1, 4)]
    seg = Terminal.of_segment((1, 4), (50, 4))
    inst = _inst(seg, Terminal.of_point((60, 50)), boxes)
    assert any("pierces" in e for e in validate(inst))


def test_polygon_terminal_box_must_avoid_obstacle_boxes():
    poly = Terminal.of_polygon(rect_polygon(Rect(15, 25, 25, 35)))
    inst = _inst(poly, Terminal.of_point((40, 5)))
    assert not any("overlap" in e for e in validate(inst))
    bad = Terminal.of_polygon(rect_polygon(Rect(15, 15, 25, 25)))
    inst = _inst(bad, Terminal.of_point((40, 5)))
    assert validate(inst)



def _all_pairs_overlaps(boxes):
    """Reference: every pair of boxes, in index order."""
    return [f"obstacle boxes {i} and {j} overlap"
            for i in range(len(boxes)) for j in range(i + 1, len(boxes))
            if not boxes[i].interior_disjoint(boxes[j])]


def test_overlap_messages_match_all_pairs_reference():
    rng = random.Random(11)
    overlapping = 0
    for _ in range(300):
        n = rng.randrange(0, 25)
        span = rng.choice((40, 120, 400))
        boxes = []
        for _ in range(n):
            x, y = rng.randrange(span), rng.randrange(span)
            boxes.append(Rect(x, y, x + rng.randrange(1, 30),
                              y + rng.randrange(1, 30)))
        inst = _inst(Terminal.of_point((-7, -7)), Terminal.of_point((-9, -9)),
                     [rect_polygon(b) for b in boxes])
        got = [e for e in validate(inst) if e.startswith("obstacle boxes")]
        want = _all_pairs_overlaps(boxes)
        assert got == want
        overlapping += bool(want)
    assert 50 < overlapping < 300


# boxes on a 7 x 7 grid, at most 4 wide and tall: equal xlos, boxes
# touching along a side or at a corner, and nested boxes are all common
_GRID_BOXES = st.lists(
    st.builds(lambda x, y, w, h: Rect(x, y, x + w, y + h),
              st.integers(0, 6), st.integers(0, 6),
              st.integers(1, 4), st.integers(1, 4)),
    max_size=8)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_GRID_BOXES)
@example([])
@example([Rect(0, 0, 2, 2)])
@example([Rect(0, 0, 2, 2), Rect(0, 3, 2, 5), Rect(0, 1, 1, 4)])  # equal xlos
@example([Rect(0, 0, 2, 2), Rect(2, 0, 4, 2), Rect(0, 2, 2, 4)])  # sides touch
@example([Rect(0, 0, 2, 2), Rect(2, 2, 4, 4), Rect(2, -2, 3, 0)])  # corners touch
@example([Rect(0, 0, 6, 6), Rect(1, 1, 3, 3), Rect(2, 2, 3, 3)])   # nested
def test_the_index_overlap_proof_equals_an_all_pairs_test(boxes):
    """The sweep on the box index's doubled int lists names exactly the
    pairs whose interiors meet, in index order."""
    index = BoxIndex([rect_polygon(b) for b in boxes])
    assert [f"obstacle boxes {i} and {j} overlap" for i, j in model._overlaps(index)] \
        == _all_pairs_overlaps(boxes)


def _random_terminal(rng, span):
    x, y = rng.randrange(span), rng.randrange(span)
    kind = rng.randrange(3)
    if kind == 0:
        return Terminal.of_point((x, y))
    if kind == 1:
        d = rng.randrange(1, span // 2)
        end = (x + d, y) if rng.random() < 0.5 else (x, y + d)
        return Terminal.of_segment((x, y), end)
    return Terminal.of_polygon(rect_polygon(
        Rect(x, y, x + rng.randrange(1, 20), y + rng.randrange(1, 20))))


def test_terminal_checks_match_the_all_boxes_reference():
    """``validate`` tests a terminal only against the boxes of its
    x-window; the reference tests it against every box.  Terminals here
    land on, in and across boxes of every width."""
    rng = random.Random(29)
    flagged = 0
    for _ in range(400):
        span = rng.choice((40, 120, 400))
        boxes = []
        for _ in range(rng.randrange(0, 25)):
            x, y = rng.randrange(span), rng.randrange(span)
            boxes.append(rect_polygon(Rect(x, y, x + rng.randrange(1, 60),
                                           y + rng.randrange(1, 30))))
        inst = _inst(_random_terminal(rng, span), _random_terminal(rng, span),
                     boxes)
        want = validate_reference.validate(inst)
        assert validate(inst) == want
        flagged += any(e.startswith(("source", "target")) and "shares" not in e
                       for e in want)
    assert flagged > 100


# a ring through (0, 1) twice: its normalised vertex tuple depends on where
# the input ring starts
FIGURE_EIGHT = [(0, 1), (1, 1), (1, 5), (0, 5), (0, 1), (2, 1), (2, 4), (0, 4)]


@pytest.mark.parametrize("start", range(len(FIGURE_EIGHT)))
def test_validate_rejects_a_ring_through_a_vertex_twice(start):
    ring = FIGURE_EIGHT[start:] + FIGURE_EIGHT[:start]
    far = Terminal.of_point((30, 30))
    as_obstacle = _inst(Terminal.of_point((-30, -30)), far, [RectPolygon(ring)])
    assert validate(as_obstacle) == ["obstacle 0 ring passes through vertex (0, 1) twice"]
    as_terminal = _inst(Terminal.of_polygon(ring), far, ())
    assert validate(as_terminal) == ["source polygon ring passes through vertex (0, 1) twice"]


def test_all_coords_are_computed_once_per_instance():
    """``validate`` and ``solve`` read one pair of frozen coordinate sets."""
    from rectlink.frontend import solve
    from rectlink.generator import generate_instance

    inst = generate_instance(5, n_obstacles=6, coord_limit=120,
                             source_kind="segment", target_kind="polygon")
    xs, ys = inst.all_coords()
    assert isinstance(xs, frozenset) and isinstance(ys, frozenset)
    assert not validate(inst)
    solve(inst)
    got = inst.all_coords()
    assert got[0] is xs and got[1] is ys
    assert xs == {x for ob in inst.obstacles for x, _ in ob.vertices} \
        | {x for t in (inst.source, inst.target) for x, _ in t.coords()}


def test_validate_rejects_a_segment_one_unit_into_an_obstacle():
    bar = RectPolygon([(5, 0), (6, 0), (6, 10), (5, 10)])
    inst = _inst(Terminal.of_segment((0, 3), (10, 3)),
                 Terminal.of_point((30, 30)), [bar])
    assert validate(inst) == ["source segment crosses obstacle 0"]
    wide = RectPolygon([(5, 0), (7, 0), (7, 10), (5, 10)])
    inst = _inst(Terminal.of_segment((0, 3), (10, 3)),
                 Terminal.of_point((30, 30)), [wide])
    assert validate(inst) == ["source segment crosses obstacle 0"]


def _meets_interior_by_scan(seg, poly):
    """Reference: test every half-unit point along the segment."""
    ring2 = RectPolygon.from_normalised([(2 * x, 2 * y) for x, y in poly.vertices])
    (px, py), (qx, qy) = seg.p, seg.q
    if py == qy:
        return any(ring2.locate((x2, 2 * py)) > 0
                   for x2 in range(2 * min(px, qx), 2 * max(px, qx) + 1))
    return any(ring2.locate((2 * px, y2)) > 0
               for y2 in range(2 * min(py, qy), 2 * max(py, qy) + 1))


def test_segment_interior_test_matches_a_half_unit_scan():
    """Segments of every length, on and off the obstacle's own coordinate
    lines, against carved generated obstacles."""
    from rectlink.generator import generate_instance
    from rectlink.geometry import OrthoSegment
    from rectlink.model import _segment_meets_interior

    rng = random.Random(19)
    met = 0
    for seed in range(40):
        inst = generate_instance(600 + seed, n_obstacles=4, coord_limit=40,
                                 carve_prob=0.95, max_steps=4)
        for ob in inst.obstacles:
            box = ob.bbox
            for _ in range(25):
                x = rng.randint(box.xlo - 2, box.xhi + 2)
                y = rng.randint(box.ylo - 2, box.yhi + 2)
                if rng.random() < 0.5:
                    seg = OrthoSegment((x, y), (x + rng.randint(1, 12), y))
                else:
                    seg = OrthoSegment((x, y), (x, y + rng.randint(1, 12)))
                want = _meets_interior_by_scan(seg, ob)
                assert _segment_meets_interior(seg, ob) == want, (seed, ob, seg)
                met += want
    assert 500 < met < 3500
