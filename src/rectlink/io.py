"""JSON serialisation of instances and results."""
from __future__ import annotations

import json
from itertools import chain
from typing import Any, IO

from .geometry import Point, RectPolygon
from .model import Instance, POINT, SEGMENT, Terminal


class FormatError(ValueError):
    pass


VERSION = 1


def terminal_to_obj(t: Terminal) -> dict[str, Any]:
    if t.kind == POINT:
        return {"kind": "point", "at": list(t.point)}
    if t.kind == SEGMENT:
        return {"kind": "segment", "from": list(t.segment.p), "to": list(t.segment.q)}
    return {"kind": "polygon", "vertices": [list(v) for v in t.polygon.vertices]}


def _points(seq: Any) -> list[Point]:
    """The ``[x, y]`` pairs of ``seq`` as points.  A coordinate must be a
    JSON integer: a float, a string or a bool would be read as a different
    instance than the file holds."""
    pts = [(x, y) for x, y in seq]
    if not set(map(type, chain.from_iterable(pts))) <= {int}:
        bad = next(v for v in chain.from_iterable(pts) if type(v) is not int)
        raise FormatError(f"coordinate is not an integer: {bad!r}")
    return pts


def terminal_from_obj(obj: Any) -> Terminal:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError(f"terminal must be an object with a 'kind': {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "point":
            return Terminal.of_point(_points([obj["at"]])[0])
        if kind == "segment":
            return Terminal.of_segment(*_points([obj["from"], obj["to"]]))
        if kind == "polygon":
            return Terminal.of_polygon(_points(obj["vertices"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed {kind} terminal: {exc}") from exc
    raise FormatError(f"unknown terminal kind {kind!r}")


def instance_to_obj(inst: Instance) -> dict[str, Any]:
    return {
        "version": VERSION,
        "obstacles": [[list(v) for v in ob.vertices] for ob in inst.obstacles],
        "source": terminal_to_obj(inst.source),
        "target": terminal_to_obj(inst.target),
    }


def instance_from_obj(obj: Any) -> Instance:
    if not isinstance(obj, dict):
        raise FormatError("instance must be a JSON object")
    version = obj.get("version")
    # a JSON integer: true and 1.0 compare equal to 1 but are not the version
    if type(version) is not int or version != VERSION:
        raise FormatError(f"unsupported or missing instance version: {version!r}")
    try:
        obstacles = tuple(
            RectPolygon(_points(ring))
            for ring in obj.get("obstacles", [])
        )
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed obstacle ring: {exc}") from exc
    for key in ("source", "target"):
        if key not in obj:
            raise FormatError(f"instance is missing {key!r}")
    return Instance(
        obstacles=obstacles,
        source=terminal_from_obj(obj["source"]),
        target=terminal_from_obj(obj["target"]),
    )


def result_to_obj(distance: int, links: int, path,
                  stats: dict[str, Any] | None = None) -> dict[str, Any]:
    """``path`` may be a PathResult, a plain point sequence, or None."""
    obj: dict[str, Any] = {"distance": distance, "links": links}
    if path is not None:
        obj["path"] = [list(p) for p in getattr(path, "points", path)]
    if stats:
        obj["stats"] = stats
    return obj


def dump_instance(inst: Instance, fp: IO[str]) -> None:
    json.dump(instance_to_obj(inst), fp, indent=2, sort_keys=True)
    fp.write("\n")


def load_instance(fp: IO[str]) -> Instance:
    try:
        obj = json.load(fp)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return instance_from_obj(obj)
