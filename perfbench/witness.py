"""Independent re-measurement of a solver witness.

Works on the plain JSON instance object and shares no code with the
package, so a defect in the package's own path checks cannot hide here.
"""
from __future__ import annotations


def measure(path) -> tuple[int, int]:
    """L1 length and link count of a rectilinear polyline.

    Zero-length steps are dropped; consecutive steps along one axis in the
    same direction form one link, a reversal starts a new one.
    """
    length = links = 0
    prev_dir = None
    for (x0, y0), (x1, y1) in zip(path, path[1:]):
        if (x0, y0) == (x1, y1):
            continue
        if x0 != x1 and y0 != y1:
            raise ValueError(f"diagonal step {(x0, y0)} -> {(x1, y1)}")
        d = ((x1 > x0) - (x1 < x0), (y1 > y0) - (y1 < y0))
        if d != prev_dir:
            links += 1
        prev_dir = d
        length += abs(x1 - x0) + abs(y1 - y0)
    return length, links


def _ring_edges(ring):
    return list(zip(ring, ring[1:] + ring[:1]))


def _on_edge(p, a, b) -> bool:
    (px, py), (ax, ay), (bx, by) = p, a, b
    if ax == bx:
        return px == ax and min(ay, by) <= py <= max(ay, by)
    return py == ay and min(ax, bx) <= px <= max(ax, bx)


def _inside(p, edges) -> bool:
    """Even-odd test for a point known to be off the boundary."""
    px, py = p
    count = 0
    for (ax, ay), (bx, by) in edges:
        if ax == bx and ax > px and min(ay, by) <= py < max(ay, by):
            count += 1
    return count % 2 == 1


def _on_terminal(p, term) -> bool:
    kind = term["kind"]
    if kind == "point":
        return list(p) == list(term["at"])
    if kind == "segment":
        return _on_edge(p, term["from"], term["to"])
    edges = _ring_edges([tuple(v) for v in term["vertices"]])
    return any(_on_edge(p, a, b) for a, b in edges) or _inside(p, edges)


class _Obstacle:
    def __init__(self, ring):
        ring = [tuple(v) for v in ring]
        self.xs = sorted({v[0] for v in ring})
        self.ys = sorted({v[1] for v in ring})
        # doubled coordinates keep the sample points between breaks integral
        self.edges2 = [((2 * a[0], 2 * a[1]), (2 * b[0], 2 * b[1]))
                       for a, b in _ring_edges(ring)]

    def meets_interior(self, a, b) -> bool:
        """Whether the closed link a-b meets the open polygon."""
        axis = 0 if a[1] == b[1] else 1
        lo, hi = sorted((a[axis], b[axis]))
        fixed = a[1 - axis]
        span, across = (self.xs, self.ys) if axis == 0 else (self.ys, self.xs)
        if not across[0] < fixed < across[-1] or hi <= span[0] or lo >= span[-1]:
            return False
        # inside/outside can only change at the polygon's own coordinates,
        # so one sample strictly between consecutive breaks decides each piece
        breaks = sorted({lo, hi, *(c for c in span if lo < c < hi)})
        for u, v in zip(breaks, breaks[1:]):
            q = (u + v, 2 * fixed) if axis == 0 else (2 * fixed, u + v)
            if not any(_on_edge(q, e0, e1) for e0, e1 in self.edges2) \
                    and _inside(q, self.edges2):
                return True
        return False


class WitnessChecker:
    """Checks reported (distance, links, path) triples for one instance."""

    def __init__(self, obj: dict):
        self.obj = obj
        xs, ys = set(), set()
        rings = list(obj["obstacles"])
        for ring in rings:
            for x, y in ring:
                xs.add(x)
                ys.add(y)
        for term in (obj["source"], obj["target"]):
            pts = {"point": lambda t: [t["at"]],
                   "segment": lambda t: [t["from"], t["to"]],
                   "polygon": lambda t: t["vertices"]}[term["kind"]](term)
            for x, y in pts:
                xs.add(x)
                ys.add(y)
        self.xs, self.ys = xs, ys
        self.obstacles = [_Obstacle(ring) for ring in rings]

    def problems(self, distance: int, links: int, path) -> list[str]:
        path = [tuple(p) for p in path]
        if not path:
            return ["empty witness"]
        out = []
        try:
            got = measure(path)
        except ValueError as exc:
            return [str(exc)]
        if got != (distance, links):
            out.append(f"witness measures {got}, report says {(distance, links)}")
        if not _on_terminal(path[0], self.obj["source"]):
            out.append(f"witness starts at {path[0]}, off the source")
        if not _on_terminal(path[-1], self.obj["target"]):
            out.append(f"witness ends at {path[-1]}, off the target")
        off = [p for p in path if p[0] not in self.xs or p[1] not in self.ys]
        if off:
            out.append(f"witness vertex {off[0]} is off the instance grid")
        for a, b in zip(path, path[1:]):
            if a == b:
                continue
            hit = next((k for k, ob in enumerate(self.obstacles)
                        if ob.meets_interior(a, b)), None)
            if hit is not None:
                out.append(f"link {a} -> {b} enters obstacle {hit}")
                break
        return out
