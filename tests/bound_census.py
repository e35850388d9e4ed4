"""Census of the pair loop: candidates, attachments, middle solves, class
solves, memo traffic and CPU time of ``frontend.solve`` on the pools that
exercise it.

Usage (from the repository root; pytest does not collect this file):

    PYTHONPATH=src python3 tests/bound_census.py [--reps 3]

Pools, one row each: perfbench's attach-small base pool, the 630
instances of ``test_frontend._triangle_instances``, the 59-instance pocket
chain (``test_frontend._pocket_instances(60)``) and the polygon-polygon
instances ``generate_instance(97*n + r, n, coord_limit=30*n,
source_kind="polygon", target_kind="polygon")`` at n = 400, r = 0..2.  A
row sums ``SolveReport.stats`` over its instances and, per instance, the
least ``time.process_time`` of ``--reps`` solves.  ``candidates`` sums
``stats["candidates"]`` over both terminals as enumerated/kept (the filter
drops the rest), and ``atts`` sums ``stats["attachments"]``, the
attachments the kept candidates make.  ``two-link`` is
``stats["two_link_pairs"]``, the plain xy pairs a free L answered without a
region (each is also one of ``middle``).  The traffic columns are
``stats["regions"]`` (staircase regions swept, each built for its sweep),
``free legs`` (``stats["free_legs"]``, the x-case legs that a straight run
or a free L answered without a region; not among ``regions``),
``stats["traces_built"]`` (traces the world's memo computed),
``StepCurve`` builds (counted by wrapping ``partition.StepCurve.__init__``
while the pool is solved; a memoised trace builds its curve once, so
builds above ``traces_built`` are curves of copies), ``classify`` (calls
of ``engine.classify`` and ``composer.classify``, the frontend's and the
pair engine's classifications and the composer legs', counted by wrapping
both module attributes while the pool is solved) and
``stats["midpoints"]`` as admitted/relaxed (the hull-side midpoints of
the hulls whose box floor the x-case solves' limits reached, and those
the goal-directed relaxation relaxed).  The per-instance counts come from
the last of its ``--reps`` solves.  A row ends with the first 12 hex digits of a SHA-256 over every
(distance, links, path), so the answers of two checkouts compare at a
glance.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.append(str(HERE.parent / "perfbench"))

from rectlink import composer, engine, partition
from rectlink.frontend import solve
from rectlink.generator import generate_instance

import workloads
from test_frontend import _pocket_instances, _triangle_instances


def pools():
    yield "attach-small", workloads.base_pool("attach-small")
    yield "triangle", _triangle_instances()
    yield "pocket chain", [inst for _, inst in _pocket_instances(60)]
    for r in range(3):
        yield f"poly-poly n=400 r={r}", [generate_instance(
            97 * 400 + r, 400, coord_limit=30 * 400,
            source_kind="polygon", target_kind="polygon")]


def census(instances, reps: int) -> dict:
    row = {"instances": len(instances), "enumerated": 0, "kept": 0,
           "attachments": 0, "middle_solves": 0, "two_link_pairs": 0, "classes": 0,
           "regions": 0, "free_legs": 0, "traces_built": 0, "curves": 0, "classify": 0,
           "enumerated_midpoints": 0, "relaxed_midpoints": 0, "cpu_s": 0.0}
    answers = []
    builds = [0]
    init = partition.StepCurve.__init__

    def counting_init(self, points):
        builds[0] += 1
        init(self, points)

    classifies = [0]
    wrapped = {mod: mod.classify for mod in (engine, composer)}

    def counting(classify):
        def counted(*args):
            classifies[0] += 1
            return classify(*args)
        return counted

    partition.StepCurve.__init__ = counting_init
    for mod, classify in wrapped.items():
        mod.classify = counting(classify)
    try:
        for inst in instances:
            times = []
            for _ in range(reps):
                builds[0] = classifies[0] = 0
                t0 = time.process_time()
                report = solve(inst)
                times.append(time.process_time() - t0)
            row["cpu_s"] += min(times)
            for key in ("middle_solves", "classes", "regions", "traces_built"):
                row[key] += report.stats[key]
            # a checkout from before the two-link or free-leg rule reports none
            row["two_link_pairs"] += report.stats.get("two_link_pairs", 0)
            row["free_legs"] += report.stats.get("free_legs", 0)
            row["curves"] += builds[0]
            row["classify"] += classifies[0]
            enumerated, relaxed = report.stats["midpoints"]
            row["enumerated_midpoints"] += enumerated
            row["relaxed_midpoints"] += relaxed
            for enumerated, kept in report.stats["candidates"]:
                row["enumerated"] += enumerated
                row["kept"] += kept
            row["attachments"] += sum(report.stats["attachments"])
            answers.append([report.distance, report.links, report.path])
    finally:
        partition.StepCurve.__init__ = init
        for mod, classify in wrapped.items():
            mod.classify = classify
    blob = json.dumps(answers, separators=(",", ":")).encode()
    row["answers"] = hashlib.sha256(blob).hexdigest()[:12]
    return row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=3,
                    help="solves per instance; the least CPU time counts")
    args = ap.parse_args()
    print(f"{'pool':<20} {'inst':>5} {'candidates':>11} {'atts':>6} "
          f"{'middle':>7} {'two-link':>8} {'classes':>7} "
          f"{'regions':>7} {'free legs':>9} {'traces':>7} {'curves':>7} {'classify':>8} "
          f"{'midpoints':>11} {'cpu s':>7}  answers",
          flush=True)
    for name, instances in pools():
        row = census(instances, args.reps)
        cands = f"{row['enumerated']}/{row['kept']}"
        mids = f"{row['enumerated_midpoints']}/{row['relaxed_midpoints']}"
        print(f"{name:<20} {row['instances']:5d} {cands:>11} {row['attachments']:6d} "
              f"{row['middle_solves']:7d} {row['two_link_pairs']:8d} "
              f"{row['classes']:7d} "
              f"{row['regions']:7d} {row['free_legs']:9d} {row['traces_built']:7d} {row['curves']:7d} "
              f"{row['classify']:8d} "
              f"{mids:>11} {row['cpu_s']:7.3f}  {row['answers']}", flush=True)


if __name__ == "__main__":
    main()
