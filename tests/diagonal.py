"""A staircase region with ``k`` square holes strictly between s and t.

Hole i is the square [3i + 1, 3i + 2] x [3i + 1, 3i + 2] in instance
coordinates.  A world answers in doubled coordinates, where the square is
[6i + 2, 6i + 4] x [6i + 2, 6i + 4], s is (0, 0) and t is (6k, 6k).
Nothing blocks the four boundary traces, so every square is a hole and no
two share an x or a y: the region has m = 2k + 2 baselines (y(s), y(t) and
each hole's bottom and top) and 2k + 1 events (the originate, then a split
and a merge per hole).  Tests use it for regions far larger than the
generator's pools give.
"""
from __future__ import annotations

from rectlink.geometry import IDENTITY, RectPolygon
from rectlink.partition import StaircaseRegion, World, build_staircase_region


def diagonal_region(k: int) -> StaircaseRegion:
    squares = [RectPolygon([(3 * i + 1, 3 * i + 1), (3 * i + 2, 3 * i + 1),
                            (3 * i + 2, 3 * i + 2), (3 * i + 1, 3 * i + 2)])
               for i in range(k)]
    return build_staircase_region(World(squares), IDENTITY, (0, 0), (6 * k, 6 * k))
