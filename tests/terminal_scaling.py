"""Solve time for large point, segment and polygon terminal pairs.

Usage (from the repository root; pytest does not collect this file):

    PYTHONPATH=src python3 tests/terminal_scaling.py [--reps 3]

Instances: ``generate_instance(97*n + r, n, coord_limit=30*n,
source_kind=k, target_kind=k)`` for k = point, segment and polygon, each
n = 100, 200, 400, 800 and r = 0, 1, 2.  Each instance is solved ``--reps``
times in one process; its time is the median wall time (``perf_counter``).
A row per instance prints the candidates (``stats["candidates"]``, summed
over both terminals, as enumerated/kept), the attachments
(``stats["attachments"]``, source and target), the middle solves, the
two-link pairs among them (``stats["two_link_pairs"]``, the plain xy pairs
a free L answered without a sweep), the x-case midpoints (``stats["midpoints"]``, enumerated/relaxed), the median
time and the answer.  A closing table gives, per kind and n, the
p50 and the max of the instances' times.  The last line is one JSON
object holding every row and the table.  The script gates nothing;
``test_frontend.py::test_large_terminal_answers_match_the_bench_record``
solves its segment and polygon instances in tier-1 and checks their
answers against ``BENCH_terminals.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import time

from rectlink.frontend import solve
from rectlink.generator import generate_instance
from rectlink.model import Instance

KINDS = ("point", "segment", "polygon")
SIZES = (100, 200, 400, 800)
RS = (0, 1, 2)


def instance(kind: str, n: int, r: int) -> Instance:
    """The scaling instance of terminal kind ``kind``, size ``n`` and
    repeat ``r``."""
    return generate_instance(97 * n + r, n, coord_limit=30 * n,
                             source_kind=kind, target_kind=kind)


def measure(kind: str, n: int, r: int, reps: int) -> dict:
    inst = instance(kind, n, r)
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        report = solve(inst)
        times.append(time.perf_counter() - t)
    stats = report.stats
    # a checkout from before the candidate filter reports no counts
    cands = stats.get("candidates", ((None, None), (None, None)))
    # and one from before the bounded x-case relaxation no midpoints
    mids = stats.get("midpoints", (None, None))
    # and one from before the two-link rule no two-link pairs
    two = stats.get("two_link_pairs")
    return {"kind": kind, "n": n, "r": r,
            "candidates": [list(c) for c in cands],
            "attachments": list(stats["attachments"]),
            "middle_solves": stats["middle_solves"],
            "two_link_pairs": two,
            "midpoints": list(mids),
            "solve_s": statistics.median(times),
            "answer": [report.distance, report.links]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=3,
                    help="solves per instance; the median counts")
    args = ap.parse_args()
    rows = []
    print(f"{'kind':<8} {'n':>5} {'r':>2} {'candidates':>11} {'attachments':>12} "
          f"{'middle':>7} {'two-link':>8} {'midpoints':>10} {'solve s':>8}  answer",
          flush=True)
    for kind in KINDS:
        for n in SIZES:
            for r in RS:
                row = measure(kind, n, r, args.reps)
                rows.append(row)
                (es, ks), (et, kt) = row["candidates"]
                cands = f"{es + et}/{ks + kt}" if es is not None else "-"
                atts = "{}/{}".format(*row["attachments"])
                mids = ("{}/{}".format(*row["midpoints"])
                        if row["midpoints"][0] is not None else "-")
                two = "-" if row["two_link_pairs"] is None else row["two_link_pairs"]
                print(f"{kind:<8} {n:>5} {r:>2} {cands:>11} {atts:>12} "
                      f"{row['middle_solves']:>7} {two:>8} {mids:>10} "
                      f"{row['solve_s']:>8.3f}  "
                      f"{row['answer']}", flush=True)
    print()
    print(f"{'kind':<8} {'n':>5} {'p50 s':>8} {'max s':>8}")
    table = []
    for kind in KINDS:
        for n in SIZES:
            got = [row["solve_s"] for row in rows if row["kind"] == kind and row["n"] == n]
            entry = {"kind": kind, "n": n, "p50_s": statistics.median(got),
                     "max_s": max(got)}
            table.append(entry)
            print(f"{kind:<8} {n:>5} {entry['p50_s']:>8.3f} {entry['max_s']:>8.3f}")
    print(json.dumps({"rows": rows, "table": table}, separators=(",", ":")))


if __name__ == "__main__":
    main()
