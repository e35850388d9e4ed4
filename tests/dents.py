"""Dented obstacles for tests.

Every obstacle the generator makes is orthoconvex, and an orthoconvex
obstacle is its own rectilinear convex hull, so a check that compares an
instance with its hulled copy needs obstacles the hull changes.
``dent_instance`` cuts a rectangular notch into one edge of each obstacle.
The notch keeps the obstacle's box, uses only coordinates that nothing in
the instance uses yet, and leaves the obstacle simple, so the dented
instance stays valid.
"""
from __future__ import annotations

from typing import Optional

from rectlink.geometry import Point, RectPolygon
from rectlink.model import Instance


def dent(poly: RectPolygon, used: tuple[set[int], set[int]], rng,
         tries: int = 20) -> Optional[RectPolygon]:
    """``poly`` with a notch cut into one of its edges, or None when
    ``tries`` draws all fail.  ``used`` holds the x and the y coordinates
    in use; the notch's new ones are added to it."""
    vs = poly.vertices
    n = len(vs)
    for _ in range(tries):
        k = rng.randrange(n)
        p, q = vs[k], vs[(k + 1) % n]
        axis = 0 if p[1] == q[1] else 1       # the axis the edge runs along
        other = 1 - axis
        lo, hi = sorted((p[axis], q[axis]))
        free = [c for c in range(lo + 1, hi) if c not in used[axis]]
        if len(free) < 2:
            continue
        a, b = sorted(rng.sample(free, 2))
        # the ring is counterclockwise, so the interior lies to the left
        ahead = 1 if q[axis] > p[axis] else -1
        inward = ahead if axis == 0 else -ahead
        base = p[other]
        depths = [base + inward * d for d in range(1, 6)
                  if base + inward * d not in used[other]]
        if not depths:
            continue
        c = rng.choice(depths)

        def pt(u: int, v: int) -> Point:
            return (u, v) if axis == 0 else (v, u)

        # the notch [a, b] x [base, c] may touch no edge but edge k
        vlo, vhi = sorted((base, c))
        if any(max(min(e[axis], f[axis]), a) <= min(max(e[axis], f[axis]), b)
               and max(min(e[other], f[other]), vlo)
               <= min(max(e[other], f[other]), vhi)
               for i in range(n) if i != k
               for e, f in [(vs[i], vs[(i + 1) % n])]):
            continue
        first, second = (a, b) if ahead > 0 else (b, a)
        notch = [pt(first, base), pt(first, c), pt(second, c), pt(second, base)]
        used[axis].update((a, b))
        used[other].add(c)
        return RectPolygon(list(vs[:k + 1]) + notch + list(vs[k + 1:]))
    return None


def dent_instance(inst: Instance, rng) -> Instance:
    """``inst`` with a notch cut into every obstacle that takes one."""
    xs, ys = inst.all_coords()
    used = (set(xs), set(ys))
    obstacles = []
    for ob in inst.obstacles:
        obstacles.append(dent(ob, used, rng) or ob)
    return Instance(obstacles=tuple(obstacles), source=inst.source,
                    target=inst.target)
