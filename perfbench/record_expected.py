"""Rewrite expected.json: pool digests and the point-large answer table.

Usage (from the repository root): python3 perfbench/record_expected.py

Run it only when a pool is meant to change.  Pools whose grids the oracle
refuses get a table of (distance, links) from the solver, each answer's
witness re-measured first; the benchmark compares every later run to it.
"""
import json
import sys

import workloads
from run import HERE, import_program
from witness import WitnessChecker


def main() -> int:
    rectlink = import_program()
    from rectlink.io import instance_to_obj

    out = {"digests": {}, "answers": {}}
    for name, wl in sorted(workloads.WORKLOADS.items()):
        insts = workloads.base_pool(name)
        objs = [instance_to_obj(inst) for inst in insts]
        out["digests"][name] = workloads.pool_digest(objs)
        if wl.oracle:
            continue
        table = []
        for inst, obj in zip(insts, objs):
            rep = rectlink.frontend.solve(inst)
            problems = WitnessChecker(obj).problems(rep.distance, rep.links, rep.path)
            if problems:
                print(f"{name}: {problems[0]}", file=sys.stderr)
                return 1
            table.append([rep.distance, rep.links])
        out["answers"][name] = table
    (HERE / "expected.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
