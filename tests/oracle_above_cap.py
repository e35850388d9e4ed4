"""Exactness above the oracle's grid cap: the oracle against ``solve`` on
large polygon-polygon instances.

Usage (from the repository root; pytest does not collect this file):

    PYTHONPATH=src python3 tests/oracle_above_cap.py

For n in (100, 200, 400) and r in (0, 1, 2) the instance is
``generate_instance(97*n + r, n, coord_limit=30*n, source_kind="polygon",
target_kind="polygon")``.  Each oracle runs with cap 4000 and a witness in
a fresh child process, which reports its own peak RSS (``ru_maxrss``); its
(distance, links) must equal ``solve``'s.  A grid is not started when its
memory estimate exceeds half of physical memory: the estimate is the
largest bytes per state of the n = 100 runs (child peak RSS over the
``2 * nx * ny`` direction states) times the grid's own states.  Prints one
line per instance and exits 1 if any answer disagrees.
"""
from __future__ import annotations

import multiprocessing
import os
import resource
import sys
import time

from rectlink.frontend import solve
from rectlink.generator import generate_instance
from rectlink.oracle import OracleRefusal, oracle_solve

SIZES = (100, 200, 400)
CAP = 4000


def instance(n: int, r: int):
    return generate_instance(97 * n + r, n, coord_limit=30 * n,
                             source_kind="polygon", target_kind="polygon")


def run_oracle(n: int, r: int):
    """(answer or refusal text, seconds, peak RSS bytes) of one oracle run."""
    inst = instance(n, r)
    t0 = time.perf_counter()
    try:
        ans = oracle_solve(inst, want_path=True, cap=CAP)
        out = (ans.distance, ans.links)
    except OracleRefusal as exc:
        out = f"refused: {exc}"
    seconds = time.perf_counter() - t0
    return out, seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def main() -> int:
    budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2
    ctx = multiprocessing.get_context("spawn")
    per_state = None
    bad = 0
    for n in SIZES:
        measured = []
        for r in range(3):
            inst = instance(n, r)
            nx, ny = map(len, inst.all_coords())
            states = 2 * nx * ny
            head = f"n={n:4d} r={r} grid {nx}x{ny}"
            if per_state is not None and per_state * states > budget:
                print(f"{head}  skipped: estimate {per_state * states / 2**20:.0f} MB "
                      f"exceeds half of memory ({budget / 2**20:.0f} MB)", flush=True)
                continue
            with ctx.Pool(1) as pool:
                ora, secs, rss = pool.apply(run_oracle, (n, r))
            measured.append(rss / states)
            t0 = time.perf_counter()
            report = solve(inst)
            got = (report.distance, report.links)
            agree = ora == got
            bad += not agree
            print(f"{head}  oracle {ora} in {secs:.2f} s, peak {rss / 2**20:.0f} MB "
                  f"({rss / states:.0f} B/state)  solve {got} in "
                  f"{time.perf_counter() - t0:.2f} s  {'agree' if agree else 'DISAGREE'}",
                  flush=True)
        if n == SIZES[0]:
            per_state = max(measured)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
