import random

import pytest
from hypothesis import example, given, settings, strategies as st

from rectlink.geometry import (
    FLIP_X,
    FLIP_Y,
    IDENTITY,
    SWAP,
    GeometryError,
    OrthoSegment,
    Rect,
    RectPolygon,
    Xform,
    _is_orthoconvex,
    _normalize_ring,
    _signed_area2,
    bounding_box,
    path_metrics,
    rectilinear_convex_hull,
)
from rectlink.generator import generate_instance
from rectlink.partition import World, _FramePoly
import path_metrics_reference
from dents import dent_instance
from fuzz_instances import instances
from shapes import area2, rect_polygon
from test_frontend import _perfbench

L_SHAPE = [(0, 0), (4, 0), (4, 2), (2, 2), (2, 5), (0, 5)]


def test_polygon_normalisation_is_ccw():
    poly = RectPolygon(list(reversed(L_SHAPE)))
    assert area2(poly) == area2(RectPolygon(L_SHAPE))
    assert poly.vertices == RectPolygon(L_SHAPE).vertices


def test_polygon_rejects_diagonal_edges():
    with pytest.raises(GeometryError):
        RectPolygon([(0, 0), (3, 1), (0, 2)])


def test_locate():
    poly = RectPolygon(L_SHAPE)
    assert poly.locate((1, 1)) == 1
    assert poly.locate((3, 3)) == -1
    assert poly.locate((4, 1)) == 0
    assert poly.locate((2, 3)) == 0
    assert poly.locate((-1, 0)) == -1


def test_locate_notch_ray_through_vertex():
    poly = RectPolygon(L_SHAPE)
    # leftward ray from (3, 2) passes along the notch edge
    assert poly.locate((3, 2)) == 0
    assert poly.locate((5, 2)) == -1


def test_hull_of_rectangle_is_itself():
    r = rect_polygon(Rect(0, 0, 4, 3))
    assert rectilinear_convex_hull(r).vertices == r.vertices


def test_hull_of_l_shape():
    hull = rectilinear_convex_hull(RectPolygon(L_SHAPE))
    assert set(hull.vertices) == {(0, 0), (4, 0), (4, 2), (2, 2), (2, 5), (0, 5)}
    # the L is already rectilinearly convex: its notch staircase survives
    assert area2(hull) == area2(RectPolygon(L_SHAPE))


def test_hull_of_plus_is_itself():
    # a plus meets every axis-parallel line in one segment, so it is its own hull
    plus = RectPolygon(
        [(2, 0), (4, 0), (4, 2), (6, 2), (6, 4), (4, 4), (4, 6), (2, 6), (2, 4), (0, 4), (0, 2), (2, 2)]
    )
    hull = rectilinear_convex_hull(plus)
    assert hull.vertices == plus.vertices


def test_hull_fills_crossing_notch():
    # a T shape has a notch not aligned with any staircase; the hull fills it
    t_shape = RectPolygon([(0, 2), (6, 2), (6, 4), (4, 4), (4, 6), (2, 6), (2, 4), (0, 4)])
    hull = rectilinear_convex_hull(t_shape)
    assert hull.locate((1, 5)) == -1  # NW corner area stays outside
    assert hull.locate((3, 5)) >= 0


def test_hull_vertices_are_polygon_vertices_or_box_corners():
    poly = RectPolygon([(0, 0), (6, 0), (6, 3), (4, 3), (4, 5), (2, 5), (2, 7), (0, 7)])
    hull = rectilinear_convex_hull(poly)
    allowed = set(poly.vertices) | set(poly.bbox.corners)
    assert set(hull.vertices) <= allowed


def test_hull_contains_polygon_vertices():
    poly = RectPolygon([(0, 0), (5, 0), (5, 2), (3, 2), (3, 4), (5, 4), (5, 6), (0, 6)])
    hull = rectilinear_convex_hull(poly)
    for v in poly.vertices:
        assert hull.locate(v) >= 0


def test_xform_roundtrip():
    p = (3, -7)
    for t in (IDENTITY, FLIP_X, FLIP_Y, SWAP, SWAP.then(FLIP_X)):
        assert t.inverse().apply(t.apply(p)) == p


def test_xform_composition_order():
    t = SWAP.then(FLIP_X)
    p = (2, 5)
    assert t.apply(p) == FLIP_X.apply(SWAP.apply(p))


def _matmul(f, g):
    """``g @ f`` as a coefficient tuple: f is applied first."""
    return (g.a * f.a + g.b * f.c, g.a * f.b + g.b * f.d,
            g.c * f.a + g.d * f.c, g.c * f.b + g.d * f.d)


def test_xforms_are_interned():
    """The eight transforms are shared instances: composing, inverting,
    rebuilding, pickling and copying return them, and equality, hashing
    and sets read as they would for values."""
    import copy
    import pickle
    from dataclasses import astuple

    assert len(set(XFORMS)) == 8
    for f in XFORMS:
        assert Xform(*astuple(f)) is f
        assert Xform(a=f.a, b=f.b, c=f.c, d=f.d) is f
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.copy(f) is f and copy.deepcopy(f) is f
        assert copy.deepcopy([f, {f: f}]) == [f, {f: f}]
        assert repr(f) == f"Xform(a={f.a}, b={f.b}, c={f.c}, d={f.d})"
        inv = f.inverse()
        assert inv is Xform(f.a, f.c, f.b, f.d) and f.then(inv) is IDENTITY
        for g in XFORMS:
            h = f.then(g)
            assert astuple(h) == _matmul(f, g) and h is Xform(*_matmul(f, g))
            assert (h == g) == (astuple(h) == astuple(g))
            assert (h in {g}) == (h == g)
        assert hash(f) == hash(Xform(*astuple(f))) and f in set(XFORMS)
        assert f != astuple(f) and astuple(f) not in {f}
    with pytest.raises(GeometryError):
        Xform(2, 0, 0, 1)


def test_path_metrics_single_point():
    assert path_metrics([(1, 1)]) == ([(1, 1)], 0, 0)


def test_path_metrics_merges_collinear():
    pts, length, links = path_metrics([(0, 0), (2, 0), (5, 0), (5, 3)])
    assert pts == [(0, 0), (5, 0), (5, 3)]
    assert length == 8
    assert links == 2


def test_path_metrics_counts_reversal_as_new_link():
    pts, length, links = path_metrics([(0, 0), (4, 0), (2, 0)])
    assert length == 6
    assert links == 2


def test_path_metrics_drops_zero_steps():
    pts, length, links = path_metrics([(0, 0), (0, 0), (3, 0), (3, 0)])
    assert pts == [(0, 0), (3, 0)]
    assert links == 1


def test_path_metrics_rejects_diagonal():
    with pytest.raises(GeometryError):
        path_metrics([(0, 0), (1, 1)])


@st.composite
def _even_polylines(draw):
    """A rectilinear polyline with even coordinates: steps along a drawn
    axis by a drawn even amount, zero included, so zero-length steps,
    collinear runs and reversals all occur."""
    x, y = (2 * draw(st.integers(-50, 50)) for _ in range(2))
    pts = [(x, y)]
    for axis, d in draw(st.lists(st.tuples(st.integers(0, 1), st.integers(-4, 4)),
                                 max_size=12)):
        x, y = (x + 2 * d, y) if axis == 0 else (x, y + 2 * d)
        pts.append((x, y))
    return pts


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_even_polylines())
@example([(0, 0), (0, 0), (4, 0), (4, 0)])            # zero-length steps
@example([(0, 0), (2, 0), (6, 0), (6, 4), (6, 10)])   # collinear runs
@example([(0, 0), (8, 0), (2, 0), (2, 6), (2, -4)])   # reversals
@example([(-6, 4)])
def test_halving_commutes_with_path_metrics(pts2):
    """``solve`` measures an on-grid doubled witness once, after halving it:
    for even coordinates, ``path_metrics`` of the halved points is the
    halved ``path_metrics`` of the doubled ones."""
    pts, length, links = path_metrics(pts2)
    assert path_metrics([(x // 2, y // 2) for x, y in pts2]) \
        == ([(x // 2, y // 2) for x, y in pts], length // 2, links)


@st.composite
def _polylines(draw):
    """A polyline whose steps are drawn along x, along y or, rarely,
    diagonally, by -3 to 3, zero included; each point is a tuple or a
    list."""
    x, y = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
    pts = [(x, y)]
    for axis, d in draw(st.lists(st.tuples(st.sampled_from("xxxyyyd"),
                                           st.integers(-3, 3)), max_size=10)):
        x, y = x + d * (axis != "y"), y + d * (axis != "x")
        pts.append((x, y))
    return [list(p) if draw(st.booleans()) else p for p in pts]


def _measured(measure, points):
    try:
        return measure(points)
    except GeometryError as exc:
        return str(exc)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_polylines())
@example([])                                           # no point
@example([[3, 4]])                                     # a single list point
@example([(0, 0), [0, 0], (3, 0), [3, 0], (3, 0)])     # zero-length steps
@example([(0, 0), (4, 0), [2, 0], (2, 0), (6, 0)])     # reversals
@example([(0, 0), (2, 0), (2, 0), (5, 0), (5, -1)])    # a run across a zero step
@example([[0, 0], (0, 2), [1, 3]])                     # a diagonal after a step
def test_path_metrics_matches_the_two_pass_reference(points):
    """The one-pass ``path_metrics`` gives the points, length, links and
    errors of ``tests/path_metrics_reference.py``, and tuples throughout."""
    got = _measured(path_metrics, points)
    assert got == _measured(path_metrics_reference.path_metrics, points)
    if not isinstance(got, str):
        assert all(type(p) is tuple for p in got[0])


def test_segment_contains():
    s = OrthoSegment((0, 0), (0, 5))
    assert s.vertical
    assert s.contains((0, 3))
    assert not s.contains((1, 3))


@st.composite
def _rect_polys(draw):
    # random staircase polygon: union of stacked rectangles sharing x=0
    n = draw(st.integers(2, 5))
    widths = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    heights = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    ring = [(0, 0)]
    y = 0
    ring.append((widths[0], 0))
    for k in range(n - 1):
        y += heights[k]
        ring.append((widths[k], y))
        ring.append((widths[k + 1], y))
    y += heights[-1]
    ring.append((widths[-1], y))
    ring.append((0, y))
    try:
        return RectPolygon(ring)
    except GeometryError:
        # duplicate widths can make the ring self-touching; skip those
        from hypothesis import assume

        assume(False)


@given(_rect_polys())
def test_hull_is_convex_and_covers(poly):
    hull = rectilinear_convex_hull(poly)
    hull2 = rectilinear_convex_hull(hull)
    assert hull2.vertices == hull.vertices
    for v in poly.vertices:
        assert hull.locate(v) >= 0
    assert area2(hull) >= area2(poly)


# the eight signed axis permutations
XFORMS = ([Xform(sx, 0, 0, sy) for sx in (1, -1) for sy in (1, -1)]
          + [Xform(0, sx, sy, 0) for sx in (1, -1) for sy in (1, -1)])


@given(_rect_polys())
def test_transform_matches_normalising_the_mapped_ring(poly):
    """A hull's frame ring, and its frame box as a world's index serves
    it (and as the frame's own tables build it, unchecked), equal the
    vertices and box of ``RectPolygon`` of the ring mapped through the
    doubling and the frame; the doubled ring has four times the area."""
    assert poly.bbox == bounding_box(poly.vertices)
    for t in XFORMS:
        want = RectPolygon([t.apply((2 * x, 2 * y)) for x, y in poly.vertices])
        ft = World([poly]).frame(t)
        fp = _FramePoly(poly, t, Rect(ft.xlo[0], ft.ylo[0], ft.xhi[0], ft.yhi[0]))
        assert fp.box == bounding_box(want.vertices) == ft[0].box
        assert fp.ring == want.vertices
        assert _signed_area2(fp.ring) == 4 * area2(poly)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(0, 40),
       st.integers(0, 40))
def test_an_ordered_box_equals_the_checked_one(xlo, ylo, w, h):
    """``Rect.from_ordered`` skips only the emptiness check: the box equals,
    hashes, prints and stays frozen as ``Rect(...)`` does."""
    got, want = Rect.from_ordered(xlo, ylo, xlo + w, ylo + h), Rect(xlo, ylo, xlo + w, ylo + h)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert {got: 1}[want] == 1
    with pytest.raises(AttributeError):
        got.xlo = 0


def test_bounding_box_of_no_points_is_an_error():
    with pytest.raises(GeometryError):
        bounding_box([])
    with pytest.raises(GeometryError):
        bounding_box(iter(()))


def _reference_staircase(points, sx, sy):
    """Maxima of ``(sx*x, sy*y)`` dominance, sorted by sx*x ascending."""
    pts = sorted(set(points), key=lambda p: (sx * p[0], sy * p[1]))
    best = None
    keep = []
    for p in reversed(pts):
        v = sy * p[1]
        if best is None or v > best:
            keep.append(p)
            best = v
    keep.reverse()
    return keep


def _reference_hull(poly):
    """The four-staircase construction, for every polygon."""
    pts = list(poly.vertices)
    ne = _reference_staircase(pts, 1, 1)        # x asc, y desc
    nw = _reference_staircase(pts, -1, 1)       # x desc, y desc -> reverse: x asc, y asc
    sw = _reference_staircase(pts, -1, -1)
    se = _reference_staircase(pts, 1, -1)

    ring = []

    def walk(chain, corner_of):
        for i, p in enumerate(chain):
            if ring and ring[-1] != p:
                ring.append(corner_of(ring[-1], p))
            ring.append(p)

    # walk the four staircases, dipping to the inner corner between
    # consecutive maxima so notches aligned with a staircase survive
    nw_up = list(reversed(nw))        # x asc, y asc: leftmost to topmost
    walk(nw_up, lambda a, b: (b[0], a[1]))
    walk(ne, lambda a, b: (a[0], b[1]))
    se_down = list(reversed(se))      # x desc, y desc: rightmost to bottommost
    walk(se_down, lambda a, b: (b[0], a[1]))
    walk(sw, lambda a, b: (a[0], b[1]))
    return RectPolygon(ring)


def _meets_every_line_once(poly):
    """Brute force: every half-integer axis-parallel line crosses the
    boundary at most twice, so meets the polygon in at most one interval."""
    vs = poly.vertices
    edges = list(zip(vs, vs[1:] + vs[:1]))
    box = poly.bbox
    for axis, lo, hi in ((0, box.xlo, box.xhi), (1, box.ylo, box.yhi)):
        for c in range(lo, hi):
            # edges along the other axis that span the line at c + 1/2
            crossings = sum(1 for a, b in edges if a[1 - axis] == b[1 - axis]
                            and min(a[axis], b[axis]) <= c < max(a[axis], b[axis]))
            if crossings > 2:
                return False
    return True


def _lattice_walk(ring):
    """Lattice points of the ring's boundary, each step of length one."""
    out = []
    for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
        dx, dy = (bx > ax) - (bx < ax), (by > ay) - (by < ay)
        x, y = ax, ay
        while (x, y) != (bx, by):
            out.append((x, y))
            x, y = x + dx, y + dy
    return out


@st.composite
def _notched_polys(draw):
    """A staircase polygon or a rectangle with rectangular notches cut
    into its edges; notches that make the ring touch itself are redrawn."""
    if draw(st.booleans()):
        ring = list(draw(_rect_polys()).vertices)
    else:
        ring = list(Rect(0, 0, draw(st.integers(3, 12)),
                         draw(st.integers(3, 12))).corners)
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(ring) - 1))
        (ax, ay), (bx, by) = ring[k], ring[(k + 1) % len(ring)]
        length = abs(bx - ax) + abs(by - ay)
        if length < 3:
            continue
        u = ((bx > ax) - (bx < ax), (by > ay) - (by < ay))
        n = (-u[1], u[0])          # inward: left of a counterclockwise edge
        a = draw(st.integers(1, length - 2))
        b = draw(st.integers(a + 1, length - 1))
        d = draw(st.integers(1, 6))
        p0 = (ax + a * u[0], ay + a * u[1])
        p1 = (ax + b * u[0], ay + b * u[1])
        notch = [p0, (p0[0] + d * n[0], p0[1] + d * n[1]),
                 (p1[0] + d * n[0], p1[1] + d * n[1]), p1]
        cut = ring[:k + 1] + notch + ring[k + 1:]
        walk = _lattice_walk(cut)
        if len(set(walk)) == len(walk) and _signed_area2(cut) > 0:
            ring = cut
    return RectPolygon(ring)


def _check_hull(poly):
    _check_orthoconvex(poly.vertices)
    hull = rectilinear_convex_hull(poly)
    assert hull == _reference_hull(poly)
    assert (hull is poly) == _meets_every_line_once(poly)
    return hull


@given(st.one_of(_rect_polys(), _notched_polys()))
def test_hull_fast_path_matches_the_staircase_construction(poly):
    _check_hull(poly)


U_SHAPE = [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]
T_SHAPE = [(0, 2), (6, 2), (6, 4), (4, 4), (4, 6), (2, 6), (2, 4), (0, 4)]
COMB = [(0, 0), (5, 0), (5, 3), (4, 3), (4, 1), (3, 1), (3, 3), (2, 3),
        (2, 1), (1, 1), (1, 3), (0, 3)]
H_SHAPE = [(0, 0), (1, 0), (1, 2), (2, 2), (2, 0), (3, 0), (3, 5), (2, 5),
           (2, 3), (1, 3), (1, 5), (0, 5)]
Z_SHAPE = [(0, 0), (2, 0), (2, 1), (3, 1), (3, 3), (1, 3), (1, 2), (0, 2)]
PLUS = [(2, 0), (4, 0), (4, 2), (6, 2), (6, 4), (4, 4), (4, 6), (2, 6),
        (2, 4), (0, 4), (0, 2), (2, 2)]


@pytest.mark.parametrize("ring, own_hull", [
    (U_SHAPE, False), (COMB, False), (H_SHAPE, False),
    (L_SHAPE, True), (T_SHAPE, True), (Z_SHAPE, True), (PLUS, True),
    (Rect(0, 0, 4, 3).corners, True),
])
def test_hull_takes_both_branches(ring, own_hull):
    poly = RectPolygon(ring)
    assert (_check_hull(poly) is poly) == own_hull


def _reference_is_orthoconvex(vertices):
    """The original check: reflex flags over three zipped copies of the
    ring, then every cyclically consecutive pair of flags."""
    vs = list(vertices)
    reflex = [(bx - ax) * (cy - by) - (by - ay) * (cx - bx) < 0
              for (ax, ay), (bx, by), (cx, cy) in zip(vs[-1:] + vs[:-1], vs, vs[1:] + vs[:1])]
    return not any(p and q for p, q in zip(reflex, reflex[1:] + reflex[:1]))


# counterclockwise rings whose only consecutive reflex pair is their last
# and first vertex: a U dented from the top, a square dented from the west
WRAPPED_DENTS = [
    [(1, 1), (1, 3), (0, 3), (0, 0), (3, 0), (3, 3), (2, 3), (2, 1)],
    [(2, 1), (0, 1), (0, 0), (4, 0), (4, 4), (0, 4), (0, 3), (2, 3)],
]


def _check_orthoconvex(vertices):
    got = _is_orthoconvex(vertices)
    assert got == _reference_is_orthoconvex(vertices), vertices
    return got


@pytest.mark.parametrize("ring", WRAPPED_DENTS)
def test_convexity_check_reads_the_pair_across_the_ring_start(ring):
    """A reflex pair straddling the ring's start, in every rotation."""
    assert _signed_area2(ring) > 0
    for k in range(len(ring)):
        assert _check_orthoconvex(ring[k:] + ring[:k]) is False


def test_convexity_check_matches_the_zipped_one_on_the_pools():
    """Every obstacle of the three perfbench pools (all orthoconvex), and
    the dented copies of generated instances (``dents.py``), read the same
    as the zipped check."""
    workloads = _perfbench("workloads")
    rings = [ob.vertices for name in ("point-small", "attach-small", "point-large")
             for inst in workloads.base_pool(name) for ob in inst.obstacles]
    assert all(_check_orthoconvex(vs) for vs in rings)
    dented = [ob.vertices for seed in range(40)
              for ob in dent_instance(generate_instance(seed, n_obstacles=8,
                                                        coord_limit=120, carve_prob=0.6),
                                      random.Random(seed)).obstacles]
    got = [_check_orthoconvex(vs) for vs in dented]
    assert got.count(False) > 100 and got.count(True) > 0


@settings(max_examples=100, deadline=5000, derandomize=True, database=None)
@given(instances())
def test_convexity_check_matches_the_zipped_one_on_fuzzed_obstacles(inst):
    """The fuzz strategy's obstacles (``_check_hull`` also checks the
    generated polygons above)."""
    for ob in inst.obstacles:
        _check_orthoconvex(ob.vertices)


def _reference_normalize_ring(vertices):
    """The original routine: rescan the ring after every dropped vertex."""
    vs = [tuple(v) for v in vertices]
    out = []
    for v in vs:
        if not out or out[-1] != v:
            out.append(v)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    changed = True
    while changed and len(out) > 2:
        changed = False
        for i in range(len(out)):
            a = out[i - 1]
            b = out[i]
            c = out[(i + 1) % len(out)]
            if (a[0] == b[0] == c[0]) or (a[1] == b[1] == c[1]):
                out.pop(i)
                changed = True
                break
    start = min(range(len(out)), key=lambda i: out[i])
    out = out[start:] + out[:start]
    return tuple(out)


def _reference_polygon(vertices):
    """Vertices the original constructor kept: it normalised a clockwise
    ring a second time after reversing it."""
    vs = _reference_normalize_ring(vertices)
    if len(vs) >= 4 and _signed_area2(vs) < 0:
        vs = _reference_normalize_ring(tuple(reversed(vs)))
    return vs


@st.composite
def _rings(draw):
    # axis-parallel walks on a small grid, so repeats, collinear runs,
    # spikes and self-touching rings are all common; closed by one more
    # axis-parallel step when the walk ends off its start's lines
    coord = st.integers(0, 4)
    x, y = draw(coord), draw(coord)
    ring = [(x, y)]
    for _ in range(draw(st.integers(0, 14))):
        if draw(st.booleans()):
            x = draw(coord)
        else:
            y = draw(coord)
        ring.append((x, y))
    if x != ring[0][0] and y != ring[0][1]:
        ring.append((ring[0][0], y))
    return ring


def _same_ring(got, want):
    """Equal, or, for a ring through some vertex twice, equal up to the
    rotation: both routines start at the first copy of the least vertex
    they keep, and they may keep different copies."""
    if len(set(want)) == len(want):
        return got == want
    return any(got == want[k:] + want[:k] for k in range(len(want)))


@given(_rings())
def test_normalize_ring_matches_the_rescanning_routine(ring):
    got, want = _normalize_ring(ring), _reference_normalize_ring(ring)
    # a ring that collapses below four vertices is rejected whichever
    # vertices survive, and the two routines may keep different ones
    if len(want) < 4:
        assert len(got) < 4
    else:
        assert _same_ring(got, want)
    want = _reference_polygon(ring)
    if len(want) < 4:
        with pytest.raises(GeometryError):
            RectPolygon(ring)
    else:
        assert _same_ring(RectPolygon(ring).vertices, want)
