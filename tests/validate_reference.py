"""``model.validate`` as it was before its counting fast path, kept as a
reference.

``validate`` is that function, but for its box overlaps: every obstacle
vertex goes through the per-vertex loop, on valid input too, and every
pair of boxes is tested for meeting interiors, with no sweep.
``_validate_terminal`` is the terminal check as it was before it read
only the terminal's x-window of boxes: it tests the terminal against
every box.  The other helpers it
reads are ``rectlink.model``'s, which the fast path left unchanged, so it
differs from ``model.validate`` only in how the per-vertex checks and the
box overlaps are made and in which boxes a terminal is tested against.
``tests/test_validate_reference.py`` checks that both return the same list.
"""
from rectlink.geometry import COORD_LIMIT
from rectlink.model import (
    POINT,
    POLYGON,
    SEGMENT,
    Instance,
    _repeated_vertex,
    _segment_meets_interior,
    _segment_meets_open_rect,
)


def _validate_terminal(name, term, instance, boxes):
    """Problems of one terminal; ``boxes`` are the obstacles' boxes."""
    problems = []
    obs = instance.obstacles
    if term.kind == POINT:
        for i, ob in enumerate(obs):
            # closed containment implies the closed box holds the point
            if boxes[i].contains(term.point) and ob.contains(term.point):
                problems.append(f"{name} point lies on obstacle {i}")
    elif term.kind == SEGMENT:
        seg = term.segment
        pierced = 0
        for i, ob in enumerate(obs):
            if _segment_meets_interior(seg, ob):
                problems.append(f"{name} segment crosses obstacle {i}")
            if _segment_meets_open_rect(seg, boxes[i]):
                pierced += 1
        if pierced > 2:
            problems.append(f"{name} segment pierces {pierced} bounding boxes")
    else:
        v = _repeated_vertex(term.polygon)
        if v is not None:
            problems.append(f"{name} polygon ring passes through vertex {v} twice")
        tb = term.bbox
        for i, box in enumerate(boxes):
            if not tb.interior_disjoint(box):
                problems.append(f"{name} polygon box overlaps obstacle box {i}")
        other = instance.target
        if name == "source" and other.kind == POLYGON \
                and not tb.interior_disjoint(other.bbox):
            problems.append("terminal polygon boxes overlap")
    return problems


def validate(instance: Instance) -> list[str]:
    """Return a list of problems; an empty list means the instance is legal."""
    problems: list[str] = []
    obs = instance.obstacles

    xs_all, ys_all = instance.all_coords()
    if max(map(abs, xs_all), default=0) > COORD_LIMIT \
            or max(map(abs, ys_all), default=0) > COORD_LIMIT:
        # name the coordinate the loop meets first
        for c in xs_all | ys_all:
            if abs(c) > COORD_LIMIT:
                problems.append(f"coordinate {c} exceeds |{COORD_LIMIT}|")
                break

    for i, ob in enumerate(obs):
        v = _repeated_vertex(ob)
        if v is not None:
            problems.append(f"obstacle {i} ring passes through vertex {v} twice")

    boxes = [ob.bbox for ob in obs]
    # every pair, tested directly: no sweep, no sorted order
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if not boxes[i].interior_disjoint(boxes[j]):
                problems.append(f"obstacle boxes {i} and {j} overlap")

    # general position: no two obstacles share a vertex x or y, and terminal
    # coordinates stay off every obstacle's coordinate lines
    seen_x: dict[int, int] = {}
    seen_y: dict[int, int] = {}
    for i, ob in enumerate(obs):
        for x, y in ob.vertices:
            if seen_x.setdefault(x, i) != i:
                problems.append(f"obstacles {seen_x[x]} and {i} share corner x={x}")
            if seen_y.setdefault(y, i) != i:
                problems.append(f"obstacles {seen_y[y]} and {i} share corner y={y}")
    for name, term in (("source", instance.source), ("target", instance.target)):
        for x, y in term.coords():
            if x in seen_x:
                problems.append(f"{name} shares x={x} with obstacle {seen_x[x]}")
            if y in seen_y:
                problems.append(f"{name} shares y={y} with obstacle {seen_y[y]}")

    for name, term in (("source", instance.source), ("target", instance.target)):
        problems.extend(_validate_terminal(name, term, instance, boxes))

    return problems
