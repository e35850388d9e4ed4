"""The two-pass ``geometry.path_metrics``, kept as a reference.

It copies the points as tuples, drops zero-length steps (rejecting a
diagonal one), then merges each run of steps in one direction; a reversal
ends a link.  ``tests/test_geometry.py`` checks the package's one-pass
version against it.
"""
from rectlink.geometry import GeometryError


def path_metrics(points):
    """``(vertices, length, links)`` of a rectilinear polyline."""
    if not points:
        raise GeometryError("empty polyline")
    pts = [tuple(p) for p in points]
    out = [pts[0]]
    for p in pts[1:]:
        if p == out[-1]:
            continue
        if p[0] != out[-1][0] and p[1] != out[-1][1]:
            raise GeometryError(f"diagonal step {out[-1]} -> {p}")
        out.append(p)
    merged = [out[0]]
    for p in out[1:]:
        if len(merged) >= 2:
            a, b = merged[-2], merged[-1]
            same_axis = (a[0] == b[0] == p[0]) or (a[1] == b[1] == p[1])
            if same_axis:
                # merge only if the direction is preserved; a reversal ends a link
                forward = (p[0] - b[0]) * (b[0] - a[0]) + (p[1] - b[1]) * (b[1] - a[1]) > 0
                if forward:
                    merged[-1] = p
                    continue
        merged.append(p)
    length = 0
    links = 0
    for a, b in zip(merged, merged[1:]):
        length += abs(a[0] - b[0]) + abs(a[1] - b[1])
        links += 1
    return merged, length, links
