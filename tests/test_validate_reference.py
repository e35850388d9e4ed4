"""``model.validate`` against its per-vertex reference.

``tests/validate_reference.py`` keeps ``validate`` as it was before the
counting fast path.  Both must return the same list, in the same order, on
the three perfbench base pools and on instances mutated to break each
per-vertex check.  The fast path must carry every pool instance, so a
silent fallback fails here instead of showing up as a slowdown.
"""
import pytest

import validate_reference
from rectlink import model
from rectlink.geometry import COORD_LIMIT, RectPolygon
from rectlink.model import Instance, Terminal, validate
from test_frontend import _perfbench

POOLS = ("point-small", "attach-small", "point-large")

# a ring through (0, 1) twice, and a ring with two vertical edges on x = 4
FIGURE_EIGHT = [(0, 1), (1, 1), (1, 5), (0, 5), (0, 1), (2, 1), (2, 4), (0, 4)]
C_SHAPE = [(0, 0), (4, 0), (4, 1), (2, 1), (2, 2), (4, 2), (4, 3), (0, 3)]
SQUARE = [(0, 0), (2, 0), (2, 2), (0, 2)]


@pytest.fixture(scope="module")
def pools():
    return {name: _perfbench("workloads").base_pool(name) for name in POOLS}


@pytest.fixture
def fallbacks(monkeypatch):
    """Instances whose counts did not prove the per-vertex checks."""
    seen = []
    counted = model._counted

    def recording(instance, boxes):
        ok = counted(instance, boxes)
        if not ok:
            seen.append(instance)
        return ok

    monkeypatch.setattr(model, "_counted", recording)
    return seen


def _remap(inst, fx, fy, extra=()):
    """The instance with every x mapped by ``fx`` and every y by ``fy``,
    and the obstacle rings ``extra`` appended as they are."""
    def pts(vs):
        return [(fx(x), fy(y)) for x, y in vs]

    def term(t):
        if t.kind == "point":
            return Terminal.of_point(pts([t.point])[0])
        if t.kind == "segment":
            return Terminal.of_segment(*pts([t.segment.p, t.segment.q]))
        return Terminal.of_polygon(pts(t.polygon.vertices))

    obstacles = [RectPolygon(pts(ob.vertices)) for ob in inst.obstacles]
    obstacles += [RectPolygon(ring) for ring in extra]
    return Instance(tuple(obstacles), term(inst.source), term(inst.target))


def _same(x):
    return x


def _far(inst, ring, sx=0, sy=0):
    """``inst`` plus the obstacle ``ring``, moved beyond every coordinate,
    and then by twice the coordinate limit along ``(sx, sy)``."""
    xs, ys = inst.all_coords()
    dx = max(xs) + 10 + 2 * sx * COORD_LIMIT
    dy = max(ys) + 10 + 2 * sy * COORD_LIMIT
    return _remap(inst, _same, _same, [[(x + dx, y + dy) for x, y in ring]])


def _owner(inst, axis, c):
    """What holds the line ``c`` on ``axis``: an obstacle index, or the
    kind of a terminal."""
    for i, ob in enumerate(inst.obstacles):
        if any(v[axis] == c for v in ob.vertices):
            return i
    for term in (inst.source, inst.target):
        if any(v[axis] == c for v in term.coords()):
            return term.kind
    raise AssertionError(c)


def _merges(inst):
    """(family, mutated instance) for the first merge of each family per
    axis: two neighbouring lines drawn into one by shifting every line from
    the upper one on by their gap.  The map keeps the order of all other
    lines, so only that pair meets."""
    for axis, name in ((0, "x"), (1, "y")):
        lines = sorted(inst.all_coords()[axis])
        done = set()
        for lo, hi in zip(lines, lines[1:]):
            a, b = _owner(inst, axis, lo), _owner(inst, axis, hi)
            if isinstance(a, int) and isinstance(b, int):
                family = f"corner {name}" if a != b else None
            elif isinstance(a, int) or isinstance(b, int):
                family = f"{b if isinstance(a, int) else a} on a line"
            else:
                family = None
            if family is None or family in done:
                continue
            done.add(family)

            def f(c, lo=lo, hi=hi):
                return c - (hi - lo) if c >= hi else c

            yield family, _remap(inst, *((f, _same) if axis == 0 else (_same, f)))


def test_the_pools_take_the_fast_path(pools, fallbacks):
    checked = 0
    for name in POOLS:
        for k, inst in enumerate(pools[name]):
            assert validate(inst) == validate_reference.validate(inst) == [], (name, k)
            checked += 1
    assert checked == 409
    assert fallbacks == []


def test_mutations_give_the_reference_problems(pools, fallbacks):
    """Each family breaks one per-vertex check, or (``inner x``) shares an
    x inside one obstacle, which is legal; the count declines all of them
    and the loop names the same problems.  Overlapping boxes and zero
    obstacles keep the fast path."""
    bases = pools["point-small"][:40] + pools["attach-small"] + pools["point-large"][:2]
    cases: dict[str, list] = {}
    for inst in bases:
        for family, mutated in _merges(inst):
            cases.setdefault(family, []).append(mutated)
        cases.setdefault("ring twice", []).append(_far(inst, FIGURE_EIGHT))
        cases.setdefault("inner x", []).append(_far(inst, C_SHAPE))
        for fx, fy in (((lambda c: c + COORD_LIMIT), _same),
                       (_same, (lambda c: c - 2 * COORD_LIMIT))):
            cases.setdefault("beyond the limit", []).append(_remap(inst, fx, fy))
        for sx, sy in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            cases.setdefault("beyond the limit", []).append(_far(inst, SQUARE, sx, sy))
        # scaled by 4, so a copy of an obstacle moved by one unit takes
        # fresh lines and overlaps only boxes
        copy = [(4 * x + 1, 4 * y + 1) for x, y in inst.obstacles[0].vertices]
        cases.setdefault("overlapping boxes", []).append(
            _remap(inst, (lambda c: 4 * c), (lambda c: 4 * c), [copy]))
        cases.setdefault("no obstacles", []).append(
            Instance((), inst.source, inst.target))

    expect = {
        "corner x": "share corner x=",
        "corner y": "share corner y=",
        "point on a line": "shares",
        "segment on a line": "shares",
        "polygon on a line": "shares",
        "ring twice": "ring passes through vertex",
        "beyond the limit": "coordinate ",
        "overlapping boxes": "obstacle boxes",
    }
    assert set(cases) == set(expect) | {"inner x", "no obstacles"}
    declined = 0
    for family, insts in sorted(cases.items()):
        for k, inst in enumerate(insts):
            want = validate_reference.validate(inst)
            before = len(fallbacks)
            assert validate(inst) == want, (family, k)
            fell_back = len(fallbacks) > before
            if family == "inner x":
                assert want == [] and fell_back, k
            elif family == "no obstacles":
                assert not fell_back, k
            else:
                assert any(expect[family] in p for p in want), (family, k, want)
                assert fell_back == (family != "overlapping boxes"), (family, k)
            declined += fell_back
    assert declined == len(fallbacks) > 1000
