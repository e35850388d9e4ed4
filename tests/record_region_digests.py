"""Record a SHA-256 of every staircase region's baselines, holes and events.

Usage (from the repository root):

    PYTHONPATH=src python3 tests/record_region_digests.py

writes ``tests/data/region_digests.json``.  The regions covered are the ones
built while the bound-free per-pair reference frontend
(``pair_reference.solve``) solves the ``point-small``, ``attach-small`` and
``point-large`` base pools of ``perfbench/workloads.py`` (in pool order, one per call of
``build_staircase_region`` from ``engine`` or ``composer``: every call
builds its region), the regions of ``test_index._xy_regions`` (all eight
total frames) and ``diagonal.diagonal_region(250)``.
``tests/test_region_digests.py`` recomputes them: a change to how regions
are built must leave every region's events as they were.

A composer leg that ``composer.free_leg`` answers builds no region, yet
the recording was made when every leg built one.  So the recorder also
builds the region of each leg ``free_leg`` answers, at that leg's place in
the sequence, and every region the pools ask for is still checked.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data" / "region_digests.json"
PERFBENCH = str(HERE.parent / "perfbench")
EVENT_FIELDS = ("x", "kind", "src", "assign", "assign_inf", "chmin", "deactivate")


def region_digest(region) -> str:
    """SHA-256 of the JSON of (baselines, holes, events as field tuples)."""
    events = [[getattr(e, f) for f in EVENT_FIELDS] for e in region.events]
    blob = json.dumps([region.baselines, region.holes, events],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def pool_region_digests(name: str) -> list[str]:
    """Digests of the regions built while the per-pair reference solves a
    perfbench base pool."""
    if PERFBENCH not in sys.path:
        sys.path.append(PERFBENCH)
    import workloads
    from pair_reference import solve
    from rectlink import composer, engine, partition

    built = []
    originals = {mod: mod.build_staircase_region for mod in (engine, composer)}
    free_leg = composer.free_leg

    def recording(build):
        def wrapper(*args):
            region = build(*args)
            built.append(region_digest(region))
            return region
        return wrapper

    def recording_free_leg(view, quad, p, q, seeds, midpoint):
        leg = free_leg(view, quad, p, q, seeds, midpoint)
        if leg is not None:
            region = partition.build_staircase_region(view, quad, p, q)
            built.append(region_digest(region))
        return leg

    for mod, build in originals.items():
        mod.build_staircase_region = recording(build)
    composer.free_leg = recording_free_leg
    try:
        for inst in workloads.base_pool(name):
            solve(inst)
    finally:
        for mod, build in originals.items():
            mod.build_staircase_region = build
        composer.free_leg = free_leg
    return built


def all_digests() -> dict[str, list[str]]:
    from diagonal import diagonal_region
    from test_index import _xy_regions

    return {
        "point-small": pool_region_digests("point-small"),
        "attach-small": pool_region_digests("attach-small"),
        "point-large": pool_region_digests("point-large"),
        "xy_regions": [region_digest(r) for _, _, r in _xy_regions()],
        "diagonal_250": [region_digest(diagonal_region(250))],
    }


def main() -> None:
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(all_digests(), indent=1) + "\n")


if __name__ == "__main__":
    main()
