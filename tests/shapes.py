"""Polygon helpers that only tests need.

The package builds polygons from rings and reads their edges as tables, so
these conveniences for writing and inspecting test shapes live here.
"""
from __future__ import annotations

from rectlink.geometry import OrthoSegment, Rect, RectPolygon, _signed_area2


def rect_polygon(r: Rect) -> RectPolygon:
    """The rectangle as a four-vertex polygon."""
    return RectPolygon(r.corners)


def area2(poly: RectPolygon) -> int:
    """Twice the polygon's area (its ring is counterclockwise)."""
    return _signed_area2(poly.vertices)


def horizontal_edges(poly: RectPolygon) -> list[OrthoSegment]:
    return [e for e in poly.edges() if e.horizontal]
