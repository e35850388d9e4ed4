"""JSON serialisation of instances and results."""
from __future__ import annotations

import json
from typing import Any, IO

from .geometry import RectPolygon
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


def terminal_from_obj(obj: Any) -> Terminal:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError(f"terminal must be an object with a 'kind': {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "point":
            x, y = obj["at"]
            return Terminal.of_point((int(x), int(y)))
        if kind == "segment":
            px, py = obj["from"]
            qx, qy = obj["to"]
            return Terminal.of_segment((int(px), int(py)), (int(qx), int(qy)))
        if kind == "polygon":
            return Terminal.of_polygon([(int(x), int(y)) for x, y in obj["vertices"]])
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
    if version != VERSION:
        raise FormatError(f"unsupported or missing instance version: {version!r}")
    try:
        obstacles = tuple(
            RectPolygon([(int(x), int(y)) for x, y in ring])
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
