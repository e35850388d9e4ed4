"""Point-to-point minimum-link shortest paths among hulled obstacles.

The work happens at doubled coordinates so that hull-side midpoints, which
the x-monotone composer turns around on, are exact integers.  The world
keeps the obstacles in instance coordinates and doubles as it reads them
(``partition.World``); every point ``solve_pair_raw`` takes or returns is
doubled, and ``frontend.solve`` maps the final witness back (links are
scale-free and lengths halve).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .composer import solve_x_case
from .geometry import UNIT_DIRS, GeometryError, PathResult, Point, RectPolygon, Xform, first_dir
from .partition import INF, World, build_staircase_region, classify
from .sweep import reconstruct_path, run_sweep


@dataclass
class RawAnswer:
    """Doubled-coordinate answer with per-arrival-direction link counts.

    ``arrivals`` maps the unit direction a shortest path can arrive at the
    target with to (links, witness corner list), all in doubled coordinates.
    """

    dist2: int
    arrivals: dict[Point, tuple[int, list[Point]]]
    case: str
    stats: dict = field(default_factory=dict)


def _double(p: Point) -> Point:
    return (2 * p[0], 2 * p[1])


def build_world(obstacles: Sequence[RectPolygon]) -> World:
    """Doubled-coordinate world for ``solve_pair_raw`` calls.

    The world doubles as it reads.  This stays a function because the
    benchmark's tracer (``perfbench/tracer.py``) times it as the
    ``partition.world`` span; without it, ``partition.world_ms`` and
    ``partition.world_builds`` would be reported absent.
    """
    return World(obstacles)


def solve_pair_raw(world: World, s2: Point, t2: Point,
                   dir_links: Optional[dict[Point, float]] = None,
                   cls: Optional[tuple[str, Xform]] = None) -> RawAnswer:
    """Doubled-coordinate solve with direction-seeded link counts.

    ``dir_links`` gives the link count of a path that leaves ``s2`` in each
    unit direction (all 1 for a fresh source); this lets a caller continue
    a partial path straight through ``s2`` without paying an extra link.
    ``cls`` is the pair's ``classify(world, s2, t2)`` when the caller has
    already computed it.  The points must differ: ``s2 != t2``.
    """
    if dir_links is None:
        dir_links = {d: 1.0 for d in UNIT_DIRS}
    kind, frame = classify(world, s2, t2) if cls is None else cls
    inv = frame.inverse()
    if kind == "xy" and (s2[0] == t2[0] or s2[1] == t2[1]):
        # collinear pair classified monotone in both axes: the straight
        # corridor is free and is the only candidate
        d = first_dir([s2, t2])
        dist2 = abs(t2[0] - s2[0]) + abs(t2[1] - s2[1])
        return RawAnswer(dist2=dist2,
                         arrivals={d: (int(dir_links[d]), [s2, t2])},
                         case="xy")
    if kind == "xy":
        seed_h = dir_links[inv.apply((1, 0))]
        seed_v = dir_links[inv.apply((0, 1))] + 1
        region = build_staircase_region(world, frame, s2, t2)
        res = run_sweep(region, seed_h=seed_h, seed_v=seed_v)
        dist2 = abs(t2[0] - s2[0]) + abs(t2[1] - s2[1])
        arrivals: dict[Point, tuple[int, list[Point]]] = {}
        for arr, lam in (("h", res.lam_h), ("v", res.lam_v)):
            if lam == INF:
                continue
            pts = reconstruct_path(res, arr)
            witness = PathResult.from_points([inv.apply(p) for p in pts])
            # the first segment is charged its seeded link count, not 1
            seeded = witness.links - 1 + dir_links[first_dir(witness.points)]
            if seeded != lam or witness.length != dist2:
                raise GeometryError("witness disagrees with the sweep")
            adir = inv.apply((1, 0)) if arr == "h" else inv.apply((0, 1))
            arrivals[adir] = (int(lam), witness.points)
        stats = {"events": len(region.events), "regions": 1}
        return RawAnswer(dist2=dist2, arrivals=arrivals, case="xy", stats=stats)
    dist2, arrivals, dag = solve_x_case(world, frame, [s2], [t2],
                                        dir_links=dir_links)
    stats = {"events": dag.events, "regions": dag.regions,
             "free_legs": dag.free_legs,
             "midpoints": (len(dag.nodes), dag.relaxed)}
    return RawAnswer(dist2=dist2, arrivals=arrivals[0], case="x", stats=stats)

