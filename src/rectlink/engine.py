"""Point-to-point minimum-link shortest paths among hulled obstacles.

The work happens at doubled coordinates so that hull-side midpoints, which
the x-monotone composer turns around on, are exact integers.  Results are
mapped back before returning: links are scale-free and lengths halve.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from typing import Optional

from .composer import solve_x_case
from .geometry import GeometryError, PathResult, Point, RectPolygon, Xform
from .partition import World, build_staircase_region, classify
from .sweep import INF, NaiveStore, reconstruct_path, run_sweep

UNIT_DIRS: tuple[Point, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))


@dataclass
class PairAnswer:
    distance: int
    links: int
    path: list[Point]
    case: str                       # "same", "xy" or "x"
    stats: dict = field(default_factory=dict)


@dataclass
class RawAnswer:
    """Doubled-coordinate answer with per-arrival-direction link counts.

    ``arrivals`` maps the unit direction a shortest path can arrive at the
    target with to (links, witness corner list), all in doubled coordinates.
    A zero-length pair uses the single key ``(0, 0)``.
    """

    dist2: int
    arrivals: dict[Point, tuple[int, list[Point]]]
    case: str
    stats: dict = field(default_factory=dict)

    @property
    def links(self) -> int:
        return min(l for l, _ in self.arrivals.values())


def _double(p: Point) -> Point:
    return (2 * p[0], 2 * p[1])


def _first_dir(pts: list[Point]) -> Point:
    (x0, y0), (x1, y1) = pts[0], pts[1]
    return ((x1 > x0) - (x1 < x0), (y1 > y0) - (y1 < y0))


def _even_snap(points: list[Point], length: int, links: int) -> list[Point]:
    """Slide odd-coordinate runs onto even lines, preserving length and links.

    Winder midpoints and pocket-door junctions sit at odd doubled
    coordinates; every obstacle coordinate is even, so a one-unit slide of
    a run between consecutive even lines never crosses an obstacle
    boundary.  Each run slides whichever way avoids merging with its
    neighbours; path endpoints are already even, so runs never contain one.
    """
    merged = list(PathResult.from_points(points).points)
    for axis in (0, 1):
        for k in range(len(merged) - 1):
            a, b = merged[k], merged[k + 1]
            if a[axis] != b[axis] or a[axis] % 2 == 0:
                continue
            prev = merged[k - 1][axis] if k else None
            nxt = merged[k + 2][axis] if k + 2 < len(merged) else None
            for v in (a[axis] + 1, a[axis] - 1):
                if v != prev and v != nxt:
                    break
            if axis == 0:
                merged[k], merged[k + 1] = (v, a[1]), (v, b[1])
            else:
                merged[k], merged[k + 1] = (a[0], v), (b[0], v)
    got = PathResult.from_points(merged)
    if got.length != length or got.links != links \
            or any(c % 2 for p in got.points for c in p):
        raise GeometryError("could not snap witness to the integer grid")
    return got.points


def build_world(obstacles: list[RectPolygon]) -> World:
    """Doubled-coordinate hull world for ``solve_pair`` calls."""
    scaled = [RectPolygon([_double(v) for v in o.vertices]) for o in obstacles]
    return World.from_obstacles(scaled)


def solve_pair_raw(world: World, s2: Point, t2: Point,
                   dir_links: Optional[dict[Point, float]] = None) -> RawAnswer:
    """Doubled-coordinate solve with direction-seeded link counts.

    ``dir_links`` gives the link count of a path that leaves ``s2`` in each
    unit direction (all 1 for a fresh source); this lets a caller continue
    a partial path straight through ``s2`` without paying an extra link.
    """
    if dir_links is None:
        dir_links = {d: 1.0 for d in UNIT_DIRS}
    kind, frame = classify(world, s2, t2)
    if kind == "same":
        return RawAnswer(dist2=0, arrivals={(0, 0): (0, [s2])}, case="same")
    inv = frame.inverse()
    if kind == "xy" and (s2[0] == t2[0] or s2[1] == t2[1]):
        # collinear pair classified monotone in both axes: the straight
        # corridor is free and is the only candidate
        d = _first_dir([s2, t2])
        dist2 = abs(t2[0] - s2[0]) + abs(t2[1] - s2[1])
        return RawAnswer(dist2=dist2,
                         arrivals={d: (int(dir_links[d]), [s2, t2])},
                         case="xy",
                         stats={"events": 0, "regions": 0, "case": "xy"})
    if kind == "xy":
        seed_h = dir_links[inv.apply((1, 0))]
        seed_v = dir_links[inv.apply((0, 1))] + 1
        region = build_staircase_region(world, frame, s2, t2)
        store = NaiveStore(region.m)
        res = run_sweep(region, store, seed_h=seed_h, seed_v=seed_v)
        dist2 = abs(t2[0] - s2[0]) + abs(t2[1] - s2[1])
        arrivals: dict[Point, tuple[int, list[Point]]] = {}
        for arr, lam in (("h", res.lam_h), ("v", res.lam_v)):
            if lam == INF:
                continue
            pts = reconstruct_path(region, store, arr)
            witness = PathResult.from_points([inv.apply(p) for p in pts])
            # the first segment is charged its seeded link count, not 1
            seeded = witness.links - 1 + dir_links[_first_dir(witness.points)]
            if seeded != lam or witness.length != dist2:
                raise GeometryError("witness disagrees with the sweep")
            adir = inv.apply((1, 0)) if arr == "h" else inv.apply((0, 1))
            arrivals[adir] = (int(lam), witness.points)
        stats = {"events": len(region.events), "regions": 1, "case": "xy"}
        return RawAnswer(dist2=dist2, arrivals=arrivals, case="xy", stats=stats)
    dist2, arrivals, dag = solve_x_case(world, frame, s2, t2, dir_links=dir_links)
    stats = {"events": dag.events, "regions": dag.regions,
             "midpoints": len(dag.nodes), "case": "x"}
    return RawAnswer(dist2=dist2, arrivals=arrivals, case="x", stats=stats)


def solve_pair(world: World, s: Point, t: Point) -> PairAnswer:
    """Distance, fewest links and a witness path between two points.

    ``world`` comes from ``build_world``; ``s`` and ``t`` are original
    coordinates and must lie outside every obstacle bounding box.
    """
    raw = solve_pair_raw(world, _double(s), _double(t))
    if raw.case == "same":
        return PairAnswer(distance=0, links=0, path=[s], case="same")
    links, path2 = min(raw.arrivals.values())
    if raw.dist2 % 2:
        raise GeometryError("odd doubled distance")
    path2 = _even_snap(path2, raw.dist2, links)
    path = [(x // 2, y // 2) for x, y in path2]
    return PairAnswer(distance=raw.dist2 // 2, links=links, path=path,
                      case=raw.case, stats=raw.stats)
