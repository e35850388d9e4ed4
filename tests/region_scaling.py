"""Staircase-region scaling: region build and sweep cost per event.

Usage (from the repository root; pytest does not collect this file):

    PYTHONPATH=src python3 tests/region_scaling.py [--reps 3]

Instances: the point pairs ``generate_instance(97*n + r, n,
coord_limit=30*n)`` for n = 200, 400, 800, 1 600, 3 200, 6 400 and 12 800
and r = 0..2 (the benchmark's point-large rule, extended; generating one
instance takes about 15 s at n = 12 800).  Each is solved ``--reps``
times by ``frontend.solve``, every solve in a world of its own, with
``build_staircase_region`` and ``run_sweep`` timed by ``perf_counter``
where ``engine`` and ``composer`` call them.  A row prints, summed over
the solve's regions: holes, events, the hull tables (``_FramePoly``) and
climb chains (``_build_hug`` calls) built while the regions were built,
and each stage's least-of-reps time in microseconds per event.  Then one
line per size gives each stage's time per event over that size's three
instances (their times summed over their events summed), and the last
lines each stage's log-log slope from n = 200 to 12 800, of its time
(summed over r) against n and against the events (summed over r): 1 is
linear growth.
"""
from __future__ import annotations

import argparse
import math
import time

from rectlink import composer, engine, partition
from rectlink import sweep as sweep_module
from rectlink.frontend import solve
from rectlink.generator import generate_instance

SIZES = (200, 400, 800, 1600, 3200, 6400, 12800)
SEEDS = range(3)


def instance(n: int, r: int):
    return generate_instance(97 * n + r, n_obstacles=n, coord_limit=30 * n)


def measure(inst) -> dict:
    """One solve's region and sweep totals (times in seconds)."""
    got = {"holes": 0, "events": 0, "tables": 0, "chains": 0,
           "region_s": 0.0, "sweep_s": 0.0}
    build, sweep, build_hug = (partition.build_staircase_region,
                               sweep_module.run_sweep, partition._build_hug)
    in_region = False

    def counting_hug(*args):
        if in_region:
            got["chains"] += 1
        return build_hug(*args)

    def timed_build(world, *args):
        nonlocal in_region
        w = getattr(world, "world", world)
        tables = w.hull_tables_built
        in_region = True
        t0 = time.perf_counter()
        region = build(world, *args)
        got["region_s"] += time.perf_counter() - t0
        in_region = False
        got["tables"] += w.hull_tables_built - tables
        got["holes"] += len(region.holes)
        got["events"] += len(region.events)
        return region

    def timed_sweep(*args, **kw):
        t0 = time.perf_counter()
        res = sweep(*args, **kw)
        got["sweep_s"] += time.perf_counter() - t0
        return res

    partition._build_hug = counting_hug
    for mod in (engine, composer):
        mod.build_staircase_region, mod.run_sweep = timed_build, timed_sweep
    try:
        solve(inst)
    finally:
        partition._build_hug = build_hug
        for mod in (engine, composer):
            mod.build_staircase_region, mod.run_sweep = build, sweep
    return got


def slope(a: float, b: float, x_a: float, x_b: float) -> float:
    return math.log(b / a) / math.log(x_b / x_a)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()
    totals = {}
    print(f"{'n':>5} {'r':>1} {'holes':>6} {'events':>6} {'tables':>6} {'chains':>6}"
          f" {'region us/ev':>12} {'sweep us/ev':>11}")
    for n in SIZES:
        tot = totals[n] = {"events": 0, "region_s": 0.0, "sweep_s": 0.0}
        for r in SEEDS:
            inst = instance(n, r)
            runs = [measure(inst) for _ in range(args.reps)]
            row = runs[-1]
            region_s = min(g["region_s"] for g in runs)
            sweep_s = min(g["sweep_s"] for g in runs)
            ev = row["events"]
            tot["events"] += ev
            tot["region_s"] += region_s
            tot["sweep_s"] += sweep_s
            print(f"{n:5d} {r:1d} {row['holes']:6d} {ev:6d} {row['tables']:6d}"
                  f" {row['chains']:6d} {1e6 * region_s / max(ev, 1):12.2f}"
                  f" {1e6 * sweep_s / max(ev, 1):11.2f}", flush=True)
    print(f"{'n':>5} {'events':>6} {'region us/ev':>12} {'sweep us/ev':>11}")
    for n, tot in totals.items():
        ev = max(tot["events"], 1)
        print(f"{n:5d} {tot['events']:6d} {1e6 * tot['region_s'] / ev:12.2f}"
              f" {1e6 * tot['sweep_s'] / ev:11.2f}")
    lo, hi = totals[SIZES[0]], totals[SIZES[-1]]
    for stage in ("region_s", "sweep_s"):
        print(f"{stage[:-2]:>6} slope n={SIZES[0]}..{SIZES[-1]}:"
              f" vs n {slope(lo[stage], hi[stage], SIZES[0], SIZES[-1]):.2f},"
              f" vs events {slope(lo[stage], hi[stage], lo['events'], hi['events']):.2f}")


if __name__ == "__main__":
    main()
