"""A hypothesis strategy over instance structure, for differential fuzzing.

``instances()`` draws small valid instances whose terminal edges face
obstacle flanks at tight spacing:

* obstacles sit in distinct slots of a 3 x 3 grid of slots, one lattice
  unit apart, each a box with optionally carved corners (one step each)
  and an optional notch in its top side (a carved pocket);
* a terminal is a point, a segment running along a gap lane between slot
  rows or columns (so its edges face the flanks on both sides), or a
  polygon, with carved corners and notches, in a slot of its own; a point
  or segment target may instead lie inside a polygon source's ring;
* in about half the examples that have a carved corner or a notch, one
  terminal moves into such a pocket, inside the obstacle's box: a point
  there, or a segment from there out through one of the pocket's doors,
  ending at most at the slot's gap lane on that side;
* every coordinate is ``LATTICE * u + r``: obstacle ``k`` uses residue
  ``k + 1``, the terminals use residue 0, and a target inside the source's
  ring uses residue 7, so no two obstacles share a line and no terminal
  lies on an obstacle's line, as ``validate`` asks.  A pocket is one
  lattice unit square, so a residue-0 point lies strictly inside it.

The shapes shrink towards fewer obstacles, fewer carvings, plain boxes and
terminals outside every box.
"""
from __future__ import annotations

from typing import NamedTuple

from hypothesis import strategies as st

from rectlink.geometry import RectPolygon
from rectlink.model import Instance, Terminal, validate

LATTICE = 8        # residues 1..7 for obstacles, 0 for terminals
SLOT = 6           # lattice units per slot side; a slot's last unit is gap
SLOTS = 3


class Pocket(NamedTuple):
    """A one-unit pocket of a carved box, in lattice units: the slot's
    lower-left corner, the pocket cell's lower-left corner, and the outward
    directions of the box walls its doors lie on."""

    u0: int
    v0: int
    cell: tuple[int, int]
    doors: tuple[tuple[int, int], ...]


def _ring(draw, u0: int, v0: int, r: int
          ) -> tuple[RectPolygon, tuple[int, int, int], list[Pocket]]:
    """A carved box in the slot whose lower-left lattice corner is
    ``(u0, v0)``, with residue ``r``: lattice span 3..4 per side, each
    corner optionally carved by one step, and the top side optionally
    notched.  Also returns ``(xlo, ylo, xhi)`` in lattice units: the cells
    just above ``ylo + 1``, from ``xlo + 1`` to ``xhi - 1``, lie inside the
    ring whatever was carved; and the pockets the carvings and the notch
    leave in the box."""
    w = draw(st.integers(3, SLOT - 2))
    h = draw(st.integers(3, SLOT - 2))
    du = draw(st.integers(0, SLOT - 2 - w))
    dv = draw(st.integers(0, SLOT - 2 - h))
    xlo, ylo = u0 + du, v0 + dv
    xhi, yhi = xlo + w, ylo + h

    def c(u: int) -> int:
        return LATTICE * u + r

    # the ring runs counterclockwise from the south-west corner; a carved
    # corner is a one-unit step, and a notch replaces the top corners'
    # carvings
    ring = []
    pockets: list[Pocket] = []
    corners = [("sw", xlo, ylo), ("se", xhi, ylo), ("ne", xhi, yhi), ("nw", xlo, yhi)]
    notch = draw(st.booleans()) and w >= 3 and h >= 3
    for name, x, y in corners:
        steps = draw(st.integers(0, 1))
        sx = 1 if name in ("sw", "nw") else -1
        sy = 1 if name in ("sw", "se") else -1
        if steps == 0 or (notch and name in ("ne", "nw")):
            pts = [(x, y)]
        else:
            if name in ("sw", "ne"):
                pts = [(x, y + sy), (x + sx, y + sy), (x + sx, y)]
            else:
                pts = [(x + sx, y), (x + sx, y + sy), (x, y + sy)]
            # the carved cell opens through both walls at the corner
            pockets.append(Pocket(u0, v0, (min(x, x + sx), min(y, y + sy)),
                                  ((-sx, 0), (0, -sy))))
        ring.extend(pts)
        if name == "ne" and notch:
            # a U-shaped pocket opening up through the top side
            mid = xlo + 1
            ring.extend([(mid + 1, yhi), (mid + 1, yhi - 1), (mid, yhi - 1), (mid, yhi)])
            pockets.append(Pocket(u0, v0, (mid, yhi - 1), ((0, 1),)))
    return RectPolygon([(c(x), c(y)) for x, y in ring]), (xlo, ylo, xhi), pockets


@st.composite
def _in_pocket(draw, pockets: list[Pocket]) -> Terminal:
    """A point at a pocket's residue-0 spot, or a segment from there out
    through one of its doors to a lattice unit between the box and the
    slot's gap lane on that side."""
    pk = draw(st.sampled_from(pockets))
    p = (LATTICE * (pk.cell[0] + 1), LATTICE * (pk.cell[1] + 1))
    if draw(st.booleans()):
        return Terminal.of_point(p)
    d = draw(st.sampled_from(pk.doors))
    axis = 0 if d[0] else 1
    if d[axis] < 0:
        # the wall lies r above the cell's low lattice line, so a far end
        # on that line is already outside the box
        lo = (pk.u0, pk.v0)[axis] - 1
        far = draw(st.integers(lo, pk.cell[axis]))
    else:
        hi = (pk.u0, pk.v0)[axis] + SLOT - 1
        far = draw(st.integers(pk.cell[axis] + 2, hi))
    q = (LATTICE * far, p[1]) if axis == 0 else (p[0], LATTICE * far)
    return Terminal.of_segment(p, q)


@st.composite
def _terminal(draw, kind: str, free_slots: list[tuple[int, int]]) -> Terminal:
    if kind == "polygon":
        i, j = draw(st.sampled_from(free_slots))
        free_slots.remove((i, j))
        return Terminal.of_polygon(_ring(draw, SLOT * i, SLOT * j, 0)[0])
    if kind == "segment":
        # along a gap lane: the lattice unit just before a slot row/column
        lane = SLOT * draw(st.integers(0, SLOTS)) - 1
        a = draw(st.integers(-1, SLOT * SLOTS))
        b = draw(st.integers(-1, SLOT * SLOTS).filter(lambda b: b != a))
        lo, hi = sorted((a, b))
        if draw(st.booleans()):
            return Terminal.of_segment((LATTICE * lo, LATTICE * lane),
                                       (LATTICE * hi, LATTICE * lane))
        return Terminal.of_segment((LATTICE * lane, LATTICE * lo),
                                   (LATTICE * lane, LATTICE * hi))
    lane_u = SLOT * draw(st.integers(0, SLOTS)) - 1
    v = draw(st.integers(-1, SLOT * SLOTS))
    return Terminal.of_point((LATTICE * lane_u, LATTICE * v))


@st.composite
def instances(draw, kinds=("point", "segment", "polygon")) -> Instance:
    slots = [(i, j) for i in range(SLOTS) for j in range(SLOTS)]
    taken = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=6,
                          unique=True))
    rings = [_ring(draw, SLOT * i, SLOT * j, k + 1) for k, (i, j) in enumerate(taken)]
    obstacles = tuple(ring for ring, _, _ in rings)
    free = [s for s in slots if s not in taken]
    source_kind = draw(st.sampled_from([k for k in kinds if k != "point"]))
    target_kind = draw(st.sampled_from(kinds))
    if source_kind == "polygon" and target_kind != "polygon" and draw(st.booleans()):
        # the target inside the source's ring, one row above its bottom
        i, j = draw(st.sampled_from(free))
        ring, (xlo, ylo, xhi), _ = _ring(draw, SLOT * i, SLOT * j, 0)
        source = Terminal.of_polygon(ring)
        y = LATTICE * (ylo + 1) + 7
        x = LATTICE * draw(st.integers(xlo + 1, xhi - 1)) + 7
        if target_kind == "point":
            target = Terminal.of_point((x, y))
        else:
            target = Terminal.of_segment((LATTICE * (xlo + 1) + 7, y), (x, y))
    else:
        source = draw(_terminal(source_kind, free))
        target = draw(_terminal(target_kind, free))
    pockets = [pk for _, _, pks in rings for pk in pks]
    if pockets and draw(st.booleans()):
        if draw(st.booleans()):
            source = draw(_in_pocket(pockets))
        else:
            target = draw(_in_pocket(pockets))
    inst = Instance(obstacles=obstacles, source=source, target=target)
    problems = validate(inst)
    if problems:
        raise AssertionError(f"the strategy drew an invalid instance: {problems}")
    return inst
