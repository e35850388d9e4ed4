"""Sweep store scaling: ``rectlink.sweep.RunStore`` against the reference
``TreeStore`` on large regions.

Usage (from the repository root; pytest does not collect this file):

    PYTHONPATH=src python3 tests/store_scaling.py

Regions: ``tests/diagonal.py``'s k = 250, 500, 1 000 and 2 000 diagonals,
and the three regions with the most baselines that point-large's solves
sweep (the benchmark's point-large pool rule: ``generate_instance(97*n + r,
n, coord_limit=30*n)`` for 16, 4 and 1 instances at n = 200, 400, 800),
each swept with the seeds its solve used.  Each row prints the median of
five ``run_sweep`` wall times per store and microseconds per event.  Two
checks follow, and the script exits 1 if either fails: the production
store is no slower than ``TreeStore`` on every diagonal, and its
microseconds per event at k = 2 000 stay within 1.5x of k = 250.
"""
from __future__ import annotations

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import rectlink.composer
import rectlink.engine
from rectlink.frontend import solve
from rectlink.generator import generate_instance
from rectlink.sweep import RunStore, run_sweep

from diagonal import diagonal_region
from tree_store import TreeStore

DIAGONALS = (250, 500, 1000, 2000)
POINT_LARGE = ((200, 16), (400, 4), (800, 1))
REPS = 5
STORES = (("RunStore", RunStore), ("TreeStore", TreeStore))


def point_large_regions(count: int = 3) -> list[tuple[str, object, float, float]]:
    """(label, region, seed_h, seed_v) of the ``count`` largest regions
    that point-large's solves sweep, largest first."""
    seen = []
    originals = {mod: mod.run_sweep for mod in (rectlink.engine, rectlink.composer)}

    def recording(orig):
        def wrapper(region, store=None, seed_h=1, seed_v=2):
            seen.append((region, seed_h, seed_v))
            return orig(region, store, seed_h=seed_h, seed_v=seed_v)
        return wrapper

    for mod, orig in originals.items():
        mod.run_sweep = recording(orig)
    try:
        for n, count_n in POINT_LARGE:
            for r in range(count_n):
                before = len(seen)
                solve(generate_instance(97 * n + r, n_obstacles=n,
                                        coord_limit=30 * n))
                seen[before:] = [(f"n={n} r={r}", *s) for s in seen[before:]]
    finally:
        for mod, orig in originals.items():
            mod.run_sweep = orig
    seen.sort(key=lambda s: -s[1].m)
    return seen[:count]


def median_ms(region, store_cls, seed_h: float, seed_v: float) -> float:
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        run_sweep(region, store_cls(region.m), seed_h=seed_h, seed_v=seed_v)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def row(label: str, region, seed_h: float = 1, seed_v: float = 2) -> dict:
    events = len(region.events)
    ms = {name: median_ms(region, cls, seed_h, seed_v) for name, cls in STORES}
    cells = "  ".join(f"{name} {ms[name]:8.2f} ms {1000 * ms[name] / events:6.2f} us/event"
                      for name, _ in STORES)
    print(f"{label:<22} m {region.m:5d}  events {events:5d}  {cells}", flush=True)
    return ms | {"events": events}


def main() -> int:
    diag = {k: row(f"diagonal k={k}", diagonal_region(k)) for k in DIAGONALS}
    for label, region, seed_h, seed_v in point_large_regions():
        row(f"point-large {label}", region, seed_h, seed_v)
    ok = True
    for k, got in diag.items():
        if got["RunStore"] > got["TreeStore"]:
            print(f"FAIL: RunStore slower than TreeStore at k={k}")
            ok = False
    per_event = {k: got["RunStore"] / got["events"] for k, got in diag.items()}
    ratio = per_event[DIAGONALS[-1]] / per_event[DIAGONALS[0]]
    print(f"RunStore us/event, k={DIAGONALS[-1]} over k={DIAGONALS[0]}: {ratio:.2f}")
    if ratio > 1.5:
        print("FAIL: us/event grows more than 1.5x")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
