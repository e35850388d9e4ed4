from rectlink.geometry import Rect
from rectlink.model import Instance, Terminal, validate

BOX = Rect(10, 10, 20, 20).to_polygon()


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
    other = Rect(15, 15, 25, 25).to_polygon()
    inst = _inst(Terminal.of_point((0, 0)), Terminal.of_point((40, 5)), (BOX, other))
    assert any("overlap" in e for e in validate(inst))


def test_validate_rejects_shared_obstacle_coordinate():
    inst = _inst(
        Terminal.of_point((0, 0)),
        Terminal.of_point((50, 5)),
        (BOX, Rect(20, 30, 40, 41).to_polygon()),
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
    boxes = [Rect(10 * k, 0, 10 * k + 5, 9).to_polygon() for k in range(1, 4)]
    seg = Terminal.of_segment((1, 4), (50, 4))
    inst = _inst(seg, Terminal.of_point((60, 50)), boxes)
    assert any("pierces" in e for e in validate(inst))


def test_polygon_terminal_box_must_avoid_obstacle_boxes():
    poly = Terminal.of_polygon(Rect(15, 25, 25, 35).to_polygon())
    inst = _inst(poly, Terminal.of_point((40, 5)))
    assert not any("overlap" in e for e in validate(inst))
    bad = Terminal.of_polygon(Rect(15, 15, 25, 25).to_polygon())
    inst = _inst(bad, Terminal.of_point((40, 5)))
    assert validate(inst)

