"""``model.validate`` as it was before its counting fast path, kept as a
reference.

``validate`` is that function verbatim: every obstacle vertex goes through
the per-vertex loop, on valid input too.  It reads the helpers of
``rectlink.model``, which the fast path left unchanged, so it differs from
``model.validate`` only in how the per-vertex checks are made.
``tests/test_validate_reference.py`` checks that both return the same list.
"""
from rectlink.geometry import COORD_LIMIT
from rectlink.model import (
    Instance,
    _overlapping_boxes,
    _repeated_vertex,
    _validate_terminal,
)


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
    for i, j in _overlapping_boxes(boxes):
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
