"""Command line front end.

Subcommands: solve, oracle, check, gen, bench, render.  Exit codes:
0 success, 1 validation failure, 2 parse/format error, 3 oracle size
refusal.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn, Optional

from .bench import rows_to_csv, run_bench
from .frontend import solve as solve_instance
from .generator import GenerationError, generate_instance
from .geometry import GeometryError
from .io import (
    FormatError,
    dump_instance,
    load_instance,
    result_to_obj,
)
from .model import InvalidInstance, validate
from .render import render

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_REFUSED = 3


def _load(path: str):
    try:
        with open(path) as fp:
            return load_instance(fp)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except FormatError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _invalid(problems: list[str]) -> NoReturn:
    for p in problems:
        print(f"invalid: {p}", file=sys.stderr)
    raise SystemExit(EXIT_INVALID)


def _validated(path: str):
    inst = _load(path)
    problems = validate(inst)
    if problems:
        _invalid(problems)
    return inst


def _emit_json(obj, out: Optional[str]) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _solved(path: str):
    """The instance at ``path`` and its solve report; a failed solve exits
    as ``_load`` and ``_invalid`` do.  ``solve`` validates the instance
    itself."""
    inst = _load(path)
    try:
        return inst, solve_instance(inst)
    except InvalidInstance as exc:
        _invalid(exc.problems)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _cmd_solve(args) -> int:
    inst, report = _solved(args.file)
    obj = result_to_obj(report.distance, report.links, report.path, report.stats)
    _emit_json(obj, args.json)
    if args.svg:
        with open(args.svg, "w") as fp:
            fp.write(render(inst, report))
    print(f"distance={report.distance} links={report.links}", file=sys.stderr)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    # the oracle pulls in numpy and scipy; only this subcommand needs them
    from .oracle import OracleRefusal, oracle_solve

    inst = _validated(args.file)
    try:
        ans = oracle_solve(inst)
    except OracleRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    _emit_json(result_to_obj(ans.distance, ans.links, ans.path,
                             {"grid": list(ans.grid_shape)}), args.json)
    return EXIT_OK


def _cmd_check(args) -> int:
    inst = _load(args.file)
    problems = validate(inst)
    for p in problems:
        print(p)
    if problems:
        return EXIT_INVALID
    print("ok")
    return EXIT_OK


def _cmd_gen(args) -> int:
    try:
        inst = generate_instance(
            args.seed,
            n_obstacles=args.obstacles,
            coord_limit=args.coord_max,
            source_kind=args.kind,
            target_kind=args.kind,
            allow_box_pierce=args.allow_box_pierce,
        )
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    dump_instance(inst, sys.stdout)
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        print(f"error: bad --sizes {args.sizes!r}", file=sys.stderr)
        return EXIT_PARSE
    rows = run_bench(sizes, reps=args.reps, seed=args.seed)
    text = rows_to_csv(rows)
    if args.csv:
        with open(args.csv, "w") as fp:
            fp.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_render(args) -> int:
    inst, result = _solved(args.file) if args.solve else (_validated(args.file), None)
    svg = render(inst, result)
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(svg)
    else:
        sys.stdout.write(svg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rectlink",
        description="Minimum-link rectilinear shortest paths among box-disjoint obstacles",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("file")
    p.add_argument("--json", metavar="OUT", help="write the result JSON here")
    p.add_argument("--svg", metavar="OUT", help="also render the solution")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="run the exact grid oracle")
    p.add_argument("file")
    p.add_argument("--json", metavar="OUT")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("check", help="validate an instance file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="generate a random instance on stdout")
    p.add_argument("--obstacles", type=int, default=8)
    p.add_argument("--coord-max", type=int, default=200)
    p.add_argument("--kind", choices=("point", "segment", "polygon"),
                   default="point")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-box-pierce", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="time the solver over a size sweep")
    p.add_argument("--sizes", default="50,100,200,400")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", metavar="OUT")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("render", help="render an instance (and optionally its solution)")
    p.add_argument("file")
    p.add_argument("--out", metavar="OUT")
    p.add_argument("--solve", action="store_true",
                   help="solve first and draw the path")
    p.set_defaults(func=_cmd_render)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
