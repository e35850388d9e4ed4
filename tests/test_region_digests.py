"""Every staircase region is built exactly as the recorded digests say.

``tests/data/region_digests.json`` holds a SHA-256 of each region's
baselines, holes and events, written by ``record_region_digests.py``.  A
change to the region build must reproduce them all, region by region.
"""
import json

from record_region_digests import DATA, all_digests


def test_region_digests_match_the_recording():
    want = json.loads(DATA.read_text())
    got = all_digests()
    assert got.keys() == want.keys()
    for name in want:
        assert len(got[name]) == len(want[name]), name
        bad = [k for k, (g, w) in enumerate(zip(got[name], want[name])) if g != w]
        assert bad == [], (name, bad[:10])
