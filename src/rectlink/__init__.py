"""Minimum-link rectilinear shortest paths among box-disjoint obstacles."""

from .geometry import (
    OrthoSegment,
    PathResult,
    Point,
    Rect,
    RectPolygon,
    Xform,
    path_metrics,
    rectilinear_convex_hull,
)
from .model import Instance, InvalidInstance, Terminal, validate

__all__ = [
    "Instance",
    "InvalidInstance",
    "OrthoSegment",
    "PathResult",
    "Point",
    "Rect",
    "RectPolygon",
    "Terminal",
    "Xform",
    "path_metrics",
    "rectilinear_convex_hull",
    "validate",
]

__version__ = "0.1.0"
