import io as _io
import re

import pytest

from rectlink.generator import generate_instance
from rectlink.io import (
    FormatError,
    dump_instance,
    instance_from_obj,
    instance_to_obj,
    load_instance,
    result_to_obj,
)
from rectlink.geometry import PathResult


@pytest.mark.parametrize("kinds", [("point", "point"), ("segment", "polygon")])
def test_roundtrip(kinds):
    inst = generate_instance(11, n_obstacles=4, source_kind=kinds[0], target_kind=kinds[1])
    buf = _io.StringIO()
    dump_instance(inst, buf)
    buf.seek(0)
    assert load_instance(buf) == inst


def test_obj_roundtrip_preserves_kinds():
    inst = generate_instance(5, source_kind="segment")
    obj = instance_to_obj(inst)
    assert obj["source"]["kind"] == "segment"
    assert instance_from_obj(obj) == inst


def test_malformed_inputs():
    with pytest.raises(FormatError):
        load_instance(_io.StringIO("not json"))
    with pytest.raises(FormatError):
        instance_from_obj({"version": 1, "obstacles": []})
    with pytest.raises(FormatError):
        instance_from_obj({"version": 1, "obstacles": [],
                           "source": {"kind": "blob"},
                           "target": {"kind": "point", "at": [0, 0]}})
    with pytest.raises(FormatError):
        instance_from_obj({"obstacles": [], "source": {"kind": "point", "at": [0, 0]},
                           "target": {"kind": "point", "at": [1, 1]}})
    # the version must be the JSON integer 1, not a value equal to it
    for version in (True, 1.0):
        with pytest.raises(FormatError, match=re.escape(repr(version))):
            instance_from_obj({"version": version, "obstacles": [],
                               "source": {"kind": "point", "at": [0, 0]},
                               "target": {"kind": "point", "at": [1, 1]}})
    # a coordinate must be a JSON integer, not one that int() would coerce
    point = {"kind": "point", "at": [0, 0]}
    ring = [[10, 10], [20, 10], [20, 18], [10, 18]]
    for bad, named in (({"kind": "point", "at": [-2.9, "1"]}, "-2.9"),
                       ({"kind": "point", "at": [4, "1"]}, "'1'"),
                       ({"kind": "point", "at": [4.7, 1]}, "4.7"),
                       ({"kind": "point", "at": [4.0, 1]}, "4.0"),
                       ({"kind": "point", "at": [True, 1]}, "True"),
                       ({"kind": "segment", "from": [0, 5], "to": [9, 5.5]}, "5.5"),
                       ({"kind": "polygon", "vertices": [[False, 3]] + ring[1:]},
                        "False")):
        with pytest.raises(FormatError, match=re.escape(named)):
            instance_from_obj({"version": 1, "obstacles": [], "source": bad,
                               "target": point})
    for k in range(4):
        bent = [list(v) for v in ring]
        bent[k][k % 2] = [1.5, "7", True, None][k]
        with pytest.raises(FormatError, match=re.escape(repr(bent[k][k % 2]))):
            instance_from_obj({"version": 1, "obstacles": [bent],
                               "source": point, "target": point})


def test_result_obj():
    path = PathResult.from_points([(0, 0), (3, 0), (3, 2)])
    obj = result_to_obj(5, 2, path, {"events": 7})
    assert obj == {"distance": 5, "links": 2,
                   "path": [[0, 0], [3, 0], [3, 2]], "stats": {"events": 7}}
