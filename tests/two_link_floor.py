"""Two-link solves against their floor, on perfbench's point-small pool.

Usage (from the repository root; pytest does not collect this file):

    PYTHONPATH=src python3 tests/two_link_floor.py [--passes 15]

Most of point-small's 300 base instances (206) are two-link pairs: a free
L answers the only attachment pair before any middle solve, so the pool's
median solve is one of them.  Such a solve cannot do less than its floor:
build the world (its ``BoxIndex``), ``validate`` on it, test the pair's
Ls in its quadrant frame (``free_corners``) and measure one witness
(``path_metrics`` of the L, halved).  Everything else ``solve``
does for it is overhead around that floor.

Each pass times, per two-link instance, ``solve`` and the floor back to
back; an instance's time is the lower median of its passes (interference
only slows a call down), and the headline is the p50 over the instances of
each, and their difference.

The stage table times ``solve`` in place, in passes of their own: it wraps
the module attributes ``solve`` calls (``frontend.build_world``,
``frontend.validate``, ``frontend._attachments``,
``frontend.free_corners``, and ``path_metrics``, which measures every
witness, in ``geometry`` and in ``frontend`` where that imports it) with
clocks, and charges what is left of each solve to ``solve``'s own steps:
the stats dict, the pair list, the counters, the witness check and the
report.  Each row is the mean over the instances of their per-stage lower
medians, so the rows add up to the mean total; the wrappers' own calls
make that total a little above the clean one.  Nothing is gated.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.append(str(HERE.parent / "perfbench"))

from rectlink import frontend, geometry
from rectlink.engine import _double, build_world
from rectlink.model import validate
from rectlink.partition import free_corners, quadrant

import workloads

MEASURE = "witness measure (path_metrics)"
# (label, module, attribute), in the order a solve first calls them
WRAPPED = [
    ("world (BoxIndex)", frontend, "build_world"),
    ("validate", frontend, "validate"),
    ("attachments", frontend, "_attachments"),
    ("L test (free_corners)", frontend, "free_corners"),
    (MEASURE, geometry, "path_metrics"),
] + ([(MEASURE, frontend, "path_metrics")] if hasattr(frontend, "path_metrics") else [])
OWN = "solve's own steps"


def two_link_pool() -> list:
    """point-small's base instances that one free L answers."""
    out = []
    for inst in workloads.base_pool("point-small"):
        stats = frontend.solve(inst).stats
        if stats["two_link_pairs"] == 1 and stats["middle_solves"] == 1:
            out.append(inst)
    return out


def floor(inst) -> None:
    """World, ``validate``, the L test and one witness measure."""
    world = build_world(inst.obstacles)
    if validate(inst, world.index):
        raise ValueError("invalid instance")
    s, t = inst.source.point, inst.target.point
    s2, t2 = _double(s), _double(t)
    cx, cy = free_corners(world, quadrant(s2, t2), s2, t2)[0]
    geometry.path_metrics([s, (cx // 2, cy // 2), t])


def _us(fn, arg) -> float:
    t0 = time.perf_counter_ns()
    fn(arg)
    return (time.perf_counter_ns() - t0) / 1e3


def headline(pool: list, passes: int) -> tuple[float, float]:
    """p50 over the pool of each instance's lower-median ``solve`` and
    floor times, in microseconds."""
    solve_us = [[] for _ in pool]
    floor_us = [[] for _ in pool]
    for _ in range(passes):
        for k, inst in enumerate(pool):
            solve_us[k].append(_us(frontend.solve, inst))
            floor_us[k].append(_us(floor, inst))
    return (statistics.median(map(statistics.median_low, solve_us)),
            statistics.median(map(statistics.median_low, floor_us)))


def stages(pool: list, passes: int) -> dict[str, float]:
    """Mean over the pool of each stage's lower-median time, in
    microseconds, with ``solve``'s callees wrapped in place."""
    spent: dict[str, float] = {}

    def clocked(label, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[label] += time.perf_counter_ns() - t0
        return wrapper

    labels = list(dict.fromkeys(label for label, _, _ in WRAPPED)) + [OWN]
    per = {label: [[] for _ in pool] for label in labels}
    saved = [(mod, name, getattr(mod, name)) for _, mod, name in WRAPPED]
    for (label, mod, name), (_, _, fn) in zip(WRAPPED, saved):
        setattr(mod, name, clocked(label, fn))
    try:
        for _ in range(passes):
            for k, inst in enumerate(pool):
                spent.update((label, 0) for label in labels)
                total = _us(frontend.solve, inst)
                for label in labels[:-1]:
                    per[label][k].append(spent[label] / 1e3)
                per[OWN][k].append(total - sum(spent.values()) / 1e3)
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
    return {label: statistics.fmean(map(statistics.median_low, per[label]))
            for label in labels}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--passes", type=int, default=15)
    args = ap.parse_args()
    pool = two_link_pool()
    solve_p50, floor_p50 = headline(pool, args.passes)
    print(f"two-link solves: {len(pool)} of point-small's 300, "
          f"{args.passes} passes, lower median per instance")
    print(f"solve p50 {solve_p50:6.1f} us")
    print(f"floor p50 {floor_p50:6.1f} us  (world + validate + L test + one witness measure)")
    print(f"overhead  {solve_p50 - floor_p50:6.1f} us  "
          f"({(solve_p50 - floor_p50) / solve_p50:.0%} of solve)")
    print()
    rows = stages(pool, args.passes)
    width = max(map(len, rows))
    print(f"{'stage, in place':<{width}}  mean us")
    for label, us in rows.items():
        print(f"{label:<{width}}  {us:7.1f}")
    print(f"{'total':<{width}}  {sum(rows.values()):7.1f}")


if __name__ == "__main__":
    main()
