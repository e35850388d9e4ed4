"""``model.validate`` scaling: milliseconds per 1 000 obstacle vertices.

Usage (from the repository root; pytest does not collect this file):

    PYTHONPATH=src python3 tests/validate_scaling.py

Instances: point pairs by ``rectlink bench``'s rule, ``generate_instance(
97*n + r, n, coord_limit=30*n)`` for n = 800 … 12 800 and r = 0, 1, 2.
Each row prints the median of five ``validate`` wall times.  Called
alone, ``validate`` builds the obstacles' ``BoxIndex`` itself, so each time
covers the index build and the checks on it: what a solve pays for both,
since a solve builds the index in its world and ``validate`` reads it.
There are two forms:

* cold: on an instance freshly decoded from its JSON object, so the shared
  coordinate sets (``Instance.all_coords``) and the obstacle boxes are
  built inside the timing, as in a single ``rectlink solve``;
* warm: on an instance that has been validated before, as in the
  benchmark, which reuses its instance objects.

It also prints the overlap proof's (``model._overlaps``) median time on a
built index and its share of the warm and cold times.  A closing table
gives, per n, the median over r of the milliseconds per 1 000 vertices
and their ratio to n = 800.  Nothing is gated.
"""
from __future__ import annotations

import statistics
import time

from rectlink.generator import generate_instance
from rectlink.io import instance_from_obj, instance_to_obj
from rectlink.model import _overlaps, validate
from rectlink.partition import BoxIndex

SIZES = (800, 1600, 3200, 6400, 12800)
RS = (0, 1, 2)
REPS = 5


def _ms(fn, arg) -> float:
    t = time.perf_counter()
    fn(arg)
    return (time.perf_counter() - t) * 1000.0


def measure(n: int, r: int) -> dict:
    inst = generate_instance(97 * n + r, n_obstacles=n, coord_limit=30 * n)
    obj = instance_to_obj(inst)
    vertices = sum(len(ob.vertices) for ob in inst.obstacles)
    cold = []
    for _ in range(REPS):
        fresh = instance_from_obj(obj)
        cold.append(_ms(validate, fresh))
    warm = [_ms(validate, inst) for _ in range(REPS)]
    index = BoxIndex(inst.obstacles)
    overlap = [_ms(_overlaps, index) for _ in range(REPS)]
    return {"n": n, "r": r, "vertices": vertices,
            "cold": statistics.median(cold), "warm": statistics.median(warm),
            "overlap": statistics.median(overlap)}


def main() -> None:
    rows = []
    print(f"{'n':>6} {'r':>2} {'vertices':>9} {'cold ms':>9} {'cold/1k':>8} "
          f"{'warm ms':>9} {'warm/1k':>8} {'overlap ms':>11} "
          f"{'of warm':>8} {'of cold':>8}")
    for n in SIZES:
        for r in RS:
            row = measure(n, r)
            rows.append(row)
            per_k = 1000.0 / row["vertices"]
            print(f"{n:>6} {r:>2} {row['vertices']:>9} {row['cold']:>9.2f} "
                  f"{row['cold'] * per_k:>8.3f} {row['warm']:>9.2f} "
                  f"{row['warm'] * per_k:>8.3f} {row['overlap']:>11.2f} "
                  f"{row['overlap'] / row['warm']:>8.0%} "
                  f"{row['overlap'] / row['cold']:>8.0%}", flush=True)
    print()
    print(f"{'n':>6} {'cold/1k':>8} {'x n=800':>8} {'warm/1k':>8} {'x n=800':>8}")
    base = None
    for n in SIZES:
        got = [row for row in rows if row["n"] == n]
        cold = statistics.median(row["cold"] * 1000.0 / row["vertices"] for row in got)
        warm = statistics.median(row["warm"] * 1000.0 / row["vertices"] for row in got)
        base = base or (cold, warm)
        print(f"{n:>6} {cold:>8.3f} {cold / base[0]:>8.2f} "
              f"{warm:>8.3f} {warm / base[1]:>8.2f}")


if __name__ == "__main__":
    main()
