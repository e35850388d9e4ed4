"""Every region a solve builds equals the reference build's region.

``region_reference.build_staircase_region`` is the region build as it was
before its section reads ran in one closure and its events were built as
plain tuples.  Each drawn instance (``fuzz_instances.instances``: point,
segment and polygon terminals, pockets included) is solved once, with
``build_staircase_region`` recorded where ``engine`` and ``composer`` call
it; the reference then rebuilds every recorded region from the same world
and arguments, and the baselines, holes and events must be equal, each
event an ``Event``.  Fuzzed instances are small, so few of their regions
have holes; generated instances of 120 carved obstacles, over every
terminal-kind pair, add regions with hundreds of holes and section reads.
"""
from __future__ import annotations

from collections import Counter

from hypothesis import given, settings

import region_reference
from fuzz_instances import instances
from rectlink import composer, engine
from rectlink.frontend import solve
from rectlink.generator import generate_instance
from rectlink.partition import Event

EXAMPLES = 300
KINDS = ("point", "segment", "polygon")


def _built_regions(inst) -> list[tuple[tuple, object]]:
    """(arguments, region) of every region build while ``inst`` is solved."""
    built = []
    originals = {mod: mod.build_staircase_region for mod in (engine, composer)}

    def recording(build):
        def wrapper(*args):
            region = build(*args)
            built.append((args, region))
            return region
        return wrapper

    for mod, build in originals.items():
        mod.build_staircase_region = recording(build)
    try:
        solve(inst)
    finally:
        for mod, build in originals.items():
            mod.build_staircase_region = build
    return built


def _check_regions(inst, seen: Counter) -> None:
    for args, region in _built_regions(inst):
        want = region_reference.build_staircase_region(*args)
        assert region.baselines == want.baselines, args[1:]
        assert region.holes == want.holes, args[1:]
        assert region.events == want.events, args[1:]
        assert all(type(e) is Event for e in region.events)
        seen["regions"] += 1
        seen["holes"] += len(region.holes)
        seen["events"] += len(region.events)


def test_fuzzed_regions_match_the_reference_build():
    seen: Counter = Counter()

    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
    @given(instances())
    def check(inst):
        seen["instances"] += 1
        for kind in (inst.source.kind, inst.target.kind):
            seen[kind] += 1
        _check_regions(inst, seen)

    check()
    assert seen["instances"] == EXAMPLES
    assert min(seen["point"], seen["segment"], seen["polygon"]) > 30, seen
    assert seen["regions"] > 200 and seen["events"] > 400, seen


def test_generated_regions_with_many_holes_match_the_reference_build():
    seen: Counter = Counter()
    for seed in range(54):
        inst = generate_instance(8800 + seed, n_obstacles=120, coord_limit=2400,
                                 source_kind=KINDS[seed % 3],
                                 target_kind=KINDS[seed // 3 % 3], carve_prob=0.9)
        _check_regions(inst, seen)
    assert seen["holes"] > 300 and seen["events"] > 3000, seen
