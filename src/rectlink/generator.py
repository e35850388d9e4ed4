"""Seeded random instance generation.

All coordinates used by distinct obstacles (and by terminals relative to
obstacles) are globally distinct, so generated instances always satisfy the
strict general-position rules enforced by :func:`rectlink.model.validate`.
"""
from __future__ import annotations

import math
import random
from typing import Optional, Sequence

from .geometry import Point, Rect, RectPolygon
from .model import Instance, Terminal, validate

# attempts that ``generate_instance`` makes before it gives up
MAX_ATTEMPTS = 50


class GenerationError(RuntimeError):
    pass


class _CoordPool:
    """Hands out integers from [0, limit] without ever repeating one per axis."""

    def __init__(self, rng: random.Random, limit: int):
        self.rng = rng
        self.limit = limit
        self.used_x: set[int] = set()
        self.used_y: set[int] = set()

    def _draw(self, lo: int, hi: int, used: set[int]) -> Optional[int]:
        if hi < lo:
            return None
        free = [c for c in range(lo, hi + 1) if c not in used]
        if not free:
            return None
        c = self.rng.choice(free)
        used.add(c)
        return c

    def draw_x(self, lo: int, hi: int) -> Optional[int]:
        return self._draw(lo, hi, self.used_x)

    def draw_y(self, lo: int, hi: int) -> Optional[int]:
        return self._draw(lo, hi, self.used_y)


def _carve_corner(rng: random.Random, pool: _CoordPool, box: Rect,
                  corner: str, max_steps: int) -> list[Point]:
    """Staircase vertices replacing one box corner, or [] to keep the corner.

    The notch stays within the corner quarter of the box so the polygon keeps
    touching all four box sides and opposite notches cannot meet.
    """
    xmid_lo = box.xlo + (box.xhi - box.xlo) // 4
    xmid_hi = box.xhi - (box.xhi - box.xlo) // 4
    ymid_lo = box.ylo + (box.yhi - box.ylo) // 4
    ymid_hi = box.yhi - (box.yhi - box.ylo) // 4
    steps = rng.randint(1, max_steps)
    xs: list[int] = []
    ys: list[int] = []
    for _ in range(steps):
        if corner in ("ne", "se"):
            x = pool.draw_x(xmid_hi, box.xhi - 1)
        else:
            x = pool.draw_x(box.xlo + 1, xmid_lo)
        if corner in ("ne", "nw"):
            y = pool.draw_y(ymid_hi, box.yhi - 1)
        else:
            y = pool.draw_y(box.ylo + 1, ymid_lo)
        if x is None or y is None:
            break
        xs.append(x)
        ys.append(y)
    if not xs:
        return []
    # order the step corners so they form a staircase cut at the chosen corner
    if corner == "ne":
        xs.sort()
        ys.sort(reverse=True)
        pts = [(box.xhi, ys[-1])]
        for k in range(len(xs) - 1, -1, -1):
            pts.append((xs[k], ys[k]))
            if k:
                pts.append((xs[k], ys[k - 1]))
        pts.append((xs[0], box.yhi))
        return pts
    if corner == "nw":
        xs.sort()
        ys.sort()
        pts = [(xs[-1], box.yhi)]
        for k in range(len(xs) - 1, -1, -1):
            pts.append((xs[k], ys[k]))
            if k:
                pts.append((xs[k - 1], ys[k]))
        pts.append((box.xlo, ys[0]))
        return pts
    if corner == "sw":
        xs.sort()
        ys.sort(reverse=True)
        pts = [(box.xlo, ys[0])]
        for k in range(len(xs)):
            pts.append((xs[k], ys[k]))
            if k + 1 < len(xs):
                pts.append((xs[k], ys[k + 1]))
        pts.append((xs[-1], box.ylo))
        return pts
    # corner == "se"
    xs.sort()
    ys.sort()
    pts = [(xs[0], box.ylo)]
    for k in range(len(xs)):
        pts.append((xs[k], ys[k]))
        if k + 1 < len(xs):
            pts.append((xs[k + 1], ys[k]))
    pts.append((box.xhi, ys[-1]))
    return pts


def _make_obstacle(rng: random.Random, pool: _CoordPool, box: Rect,
                   carve_prob: float, max_steps: int) -> RectPolygon:
    """A rectilinear polygon inside ``box`` touching all four box sides."""
    ring: list[Point] = []
    corners = {
        "sw": (box.xlo, box.ylo),
        "se": (box.xhi, box.ylo),
        "ne": (box.xhi, box.yhi),
        "nw": (box.xlo, box.yhi),
    }
    for name in ("sw", "se", "ne", "nw"):
        cut: list[Point] = []
        if rng.random() < carve_prob:
            cut = _carve_corner(rng, pool, box, name, max_steps)
        ring.extend(cut if cut else [corners[name]])
    return RectPolygon(ring)


def _place_boxes(rng: random.Random, pool: _CoordPool, n: int, limit: int,
                 tries: int) -> list[Rect]:
    boxes: list[Rect] = []
    # shrink boxes as the count grows, or large instances cannot fit
    crowd = math.isqrt(max(1, n // 8))
    min_side = max(4, limit // (40 * crowd))
    max_side = max(min_side + 2, limit // (6 * crowd))
    for _ in range(tries):
        if len(boxes) == n:
            break
        w = rng.randint(min_side, max_side)
        h = rng.randint(min_side, max_side)
        xlo = rng.randint(0, limit - w)
        ylo = rng.randint(0, limit - h)
        cand = Rect(xlo, ylo, xlo + w, ylo + h)
        if any(not cand.interior_disjoint(b) for b in boxes):
            continue
        # claim the four corner coordinates; skip the spot if any is taken
        if (xlo in pool.used_x or xlo + w in pool.used_x
                or ylo in pool.used_y or ylo + h in pool.used_y):
            continue
        pool.used_x.update((xlo, xlo + w))
        pool.used_y.update((ylo, ylo + h))
        boxes.append(cand)
    if len(boxes) < n:
        raise GenerationError(f"placed only {len(boxes)} of {n} boxes")
    return boxes


def _free_point(rng: random.Random, pool: _CoordPool, limit: int,
                obstacles: Sequence[RectPolygon], tries: int = 500) -> Point:
    for _ in range(tries):
        x = rng.randint(0, limit)
        y = rng.randint(0, limit)
        if x in pool.used_x or y in pool.used_y:
            continue
        p = (x, y)
        if any(ob.bbox.contains(p) and ob.contains(p) for ob in obstacles):
            continue
        pool.used_x.add(x)
        pool.used_y.add(y)
        return p
    raise GenerationError("no room for a free point terminal")


def _segment_terminal(rng: random.Random, pool: _CoordPool, limit: int,
                      inst_obstacles: Sequence[RectPolygon],
                      allow_box_pierce: bool, tries: int = 500) -> Terminal:
    from .model import _segment_meets_interior, _segment_meets_open_rect
    from .geometry import OrthoSegment

    boxes = [ob.bbox for ob in inst_obstacles]
    for _ in range(tries):
        horizontal = rng.random() < 0.5
        length = rng.randint(2, max(3, limit // 5))
        x = rng.randint(0, limit - (length if horizontal else 0))
        y = rng.randint(0, limit - (0 if horizontal else length))
        if horizontal:
            p, q = (x, y), (x + length, y)
            bad = x in pool.used_x or x + length in pool.used_x or y in pool.used_y
        else:
            p, q = (x, y), (x, y + length)
            bad = y in pool.used_y or y + length in pool.used_y or x in pool.used_x
        if bad:
            continue
        seg = OrthoSegment(p, q)
        if any(_segment_meets_interior(seg, ob) for ob in inst_obstacles):
            continue
        pierced = sum(_segment_meets_open_rect(seg, b) for b in boxes)
        if pierced > 2 or (pierced and not allow_box_pierce):
            continue
        pool.used_x.update((p[0], q[0]))
        pool.used_y.update((p[1], q[1]))
        return Terminal.of_segment(p, q)
    raise GenerationError("no room for a segment terminal")


def _polygon_terminal(rng: random.Random, pool: _CoordPool, limit: int,
                      inst_obstacles: Sequence[RectPolygon],
                      other_box: Optional[Rect], tries: int = 500) -> Terminal:
    boxes = [ob.bbox for ob in inst_obstacles]
    for _ in range(tries):
        w = rng.randint(3, max(4, limit // 10))
        h = rng.randint(3, max(4, limit // 10))
        xlo = rng.randint(0, limit - w)
        ylo = rng.randint(0, limit - h)
        cand = Rect(xlo, ylo, xlo + w, ylo + h)
        if any(not cand.interior_disjoint(b) for b in boxes):
            continue
        if other_box is not None and not cand.interior_disjoint(other_box):
            continue
        if (xlo in pool.used_x or xlo + w in pool.used_x
                or ylo in pool.used_y or ylo + h in pool.used_y):
            continue
        pool.used_x.update((xlo, xlo + w))
        pool.used_y.update((ylo, ylo + h))
        local = _CoordPool(rng, limit)
        local.used_x = pool.used_x
        local.used_y = pool.used_y
        poly = _make_obstacle(rng, local, cand, carve_prob=0.5, max_steps=2)
        return Terminal.of_polygon(poly)
    raise GenerationError("no room for a polygon terminal")


def generate_instance(
    seed: int,
    n_obstacles: int = 8,
    coord_limit: int = 200,
    source_kind: str = "point",
    target_kind: str = "point",
    carve_prob: float = 0.6,
    max_steps: int = 3,
    allow_box_pierce: bool = True,
) -> Instance:
    """Build a random valid instance; deterministic in all its arguments."""
    rng = random.Random(seed)
    for _ in range(MAX_ATTEMPTS):
        try:
            inst = _attempt(rng, n_obstacles, coord_limit, source_kind,
                            target_kind, carve_prob, max_steps, allow_box_pierce)
        except GenerationError:
            continue
        if not validate(inst):
            return inst
    raise GenerationError(
        f"could not generate a valid instance (seed={seed}, n={n_obstacles})"
    )


def _attempt(rng, n, limit, source_kind, target_kind, carve_prob, max_steps,
             allow_box_pierce) -> Instance:
    pool = _CoordPool(rng, limit)
    boxes = _place_boxes(rng, pool, n, limit, tries=40 * max(n, 1) + 200)
    obstacles = tuple(
        _make_obstacle(rng, pool, b, carve_prob, max_steps) for b in boxes
    )

    def make(kind: str, other: Optional[Terminal]) -> Terminal:
        if kind == "point":
            return Terminal.of_point(_free_point(rng, pool, limit, obstacles))
        if kind == "segment":
            return _segment_terminal(rng, pool, limit, obstacles, allow_box_pierce)
        if kind == "polygon":
            ob = other.bbox if other is not None and other.kind == "polygon" else None
            return _polygon_terminal(rng, pool, limit, obstacles, ob)
        raise ValueError(f"unknown terminal kind {kind!r}")

    source = make(source_kind, None)
    target = make(target_kind, source)
    return Instance(obstacles=obstacles, source=source, target=target)
