"""Differential fuzzing of ``solve`` over instance structure.

Each drawn instance (``fuzz_instances.instances``) is solved three ways:
``frontend.solve``, the bound-free per-pair frontend on every candidate
(``pair_reference.solve``) and the Hanan-grid oracle.  The three must give
the same (distance, links), and the solve's witness must re-measure to its
answer.  The tier-1 run draws a fixed, derandomised set of examples; a
longer run sets ``RECTLINK_FUZZ_EXAMPLES``:

    RECTLINK_FUZZ_EXAMPLES=10000 PYTHONPATH=src python -m pytest tests/test_fuzz.py

A failing example is written, shrunk, to ``tests/data/fuzz_failure.json``;
renamed to ``tests/data/fuzz_<name>.json`` it becomes a regression case of
``test_fuzz_fixtures_keep_their_answers``.
"""
from __future__ import annotations

import json
import os
from pathlib import Path

from hypothesis import given, settings

import pair_reference
from fuzz_instances import instances
from rectlink.frontend import solve
from rectlink.geometry import PathResult
from rectlink.io import instance_from_obj, instance_to_obj
from rectlink.oracle import oracle_solve
from shapes import in_open_box

DATA = Path(__file__).resolve().parent / "data"
EXAMPLES = int(os.environ.get("RECTLINK_FUZZ_EXAMPLES", "500"))


def _check(inst) -> None:
    got = solve(inst)
    ora = oracle_solve(inst, want_path=False)
    ref = pair_reference.solve(inst)
    assert (got.distance, got.links) == (ora.distance, ora.links)
    assert (got.distance, got.links) == (ref.distance, ref.links)
    walked = PathResult.from_points(got.path)
    assert (walked.length, walked.links) == (got.distance, got.links)


@settings(max_examples=EXAMPLES, deadline=5000, derandomize=True, database=None)
@given(instances())
def test_solve_matches_the_references_on_fuzzed_instances(inst):
    try:
        _check(inst)
    except Exception:
        # hypothesis replays the shrunk example last, so the file ends up
        # holding it
        (DATA / "fuzz_failure.json").write_text(
            json.dumps(instance_to_obj(inst), indent=1) + "\n")
        raise


def test_a_quarter_of_the_examples_have_a_pocket_terminal():
    """The strategy moves a terminal into a box pocket often enough to test
    the pocket search against the oracle: in at least 50 of 200 draws."""
    pocketed = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(instances())
    def draw(inst):
        starts = [term.point if term.kind == "point" else term.segment.p
                  for term in (inst.source, inst.target) if term.kind != "polygon"]
        pocketed.append(any(in_open_box(ob.bbox, p)
                            for ob in inst.obstacles for p in starts))

    draw()
    assert len(pocketed) == 200 and sum(pocketed) >= 50


def test_fuzz_fixtures_keep_their_answers():
    """Every instance the fuzzer ever shrank a failure to, or that is kept
    for the filter's one-link slide, still agrees with both references."""
    paths = sorted(DATA.glob("fuzz_*.json"))
    assert paths
    for path in paths:
        _check(instance_from_obj(json.loads(path.read_text())))
