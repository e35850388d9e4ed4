"""Point-to-point minimum-link shortest paths among hulled obstacles.

The work happens at doubled coordinates so that hull-side midpoints, which
the x-monotone composer turns around on, are exact integers.  The world
keeps the obstacles in instance coordinates and doubles as it reads them
(``partition.World``); every point ``solve_pair_raw`` takes or returns is
doubled, and ``frontend.solve`` maps the final witness back (links are
scale-free and lengths halve).  ``reconstruct_path`` is imported only for
the benchmark's tracer (``perfbench/tracer.py``), which wraps it here; the
readout is ``composer.read_arrivals``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .composer import SubregionDag, _Node, read_arrivals, solve_x_case, source_seeds
from .geometry import IDENTITY, UNIT_DIRS, Point, RectPolygon, Xform, first_dir
from .partition import World, build_staircase_region, classify
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
    The answer is exact only when the counts of perpendicular directions
    differ by at most 1, as ``frontend._seed_links``' do.  Otherwise a path
    may turn only to leave along the cheaper axis, on no baseline of the
    region: with 5 east and 1 elsewhere, the empty world's (0, 0) to (6, 4)
    reads 6 links arriving north, where north, east, north takes 3.
    ``cls`` is the pair's ``classify(world, s2, t2)`` when the caller has
    already computed it.  The points must differ: ``s2 != t2``.
    """
    if dir_links is None:
        dir_links = {d: 1.0 for d in UNIT_DIRS}
    kind, frame = classify(world, s2, t2) if cls is None else cls
    if kind == "x":
        dist2, (arrivals,), dag = solve_x_case(world, frame, [s2], [t2], dir_links=dir_links)
    elif s2[0] == t2[0] or s2[1] == t2[1]:
        # collinear pair classified monotone in both axes: the straight
        # corridor is free and is the only candidate
        d = first_dir([s2, t2])
        return RawAnswer(dist2=abs(t2[0] - s2[0]) + abs(t2[1] - s2[1]),
                         arrivals={d: (int(dir_links[d]), [s2, t2])}, case="xy")
    else:
        region = build_staircase_region(world, frame, s2, t2)
        seed_h, seed_v = source_seeds(dir_links, frame.inverse())
        sweep = run_sweep(region, seed_h=seed_h, seed_v=seed_v)
        # one leg from source 0, read in the world's own frame
        dist2 = abs(t2[0] - s2[0]) + abs(t2[1] - s2[1])
        dag = SubregionDag(nodes=[], targets=[_Node(point=t2, hull=-1, dist=dist2)],
                           regions=1, events=len(region.events))
        arrivals = read_arrivals(IDENTITY, [], dag.targets[0], [(("src", 0), sweep)], dir_links)
    return RawAnswer(dist2=dist2, arrivals=arrivals, case=kind, stats=dag.stats())
