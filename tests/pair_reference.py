"""The per-pair frontend loop, kept as a bound-free reference.

``solve`` is ``frontend.solve`` without the candidate filter and without
class solves: every attachment of every candidate
(``tests/candidate_reference.py``), and every attachment pair, in order of
its obstacle-blind L1 bound, gets its own middle solve until that bound
exceeds the best distance found, and the first strict improvement wins.  It
reads the package's pocket search and pair engine but shares none of
``frontend.solve``'s filtering or pruning.  ``tests/test_frontend.py``
checks that both give the same (distance, links).
"""
from candidate_reference import attachments
from rectlink.engine import _double, build_world, solve_pair_raw
from rectlink.frontend import (
    SolveReport,
    _align_runs,
    _Lines,
    _l1,
    _neg,
    _seed_links,
)
from rectlink.geometry import GeometryError, PathResult, first_dir
from rectlink.model import validate


def solve(instance):
    problems = validate(instance)
    if problems:
        raise GeometryError("invalid instance: " + "; ".join(problems))
    lines = _Lines(instance)
    world = build_world(instance.obstacles)
    atts_s, search_s, cands_s, _ = attachments(instance, instance.source, lines,
                                               world)
    atts_t, search_t, cands_t, _ = attachments(instance, instance.target, lines,
                                               world)
    if not atts_s or not atts_t:
        raise GeometryError("a terminal has no connection to the free plane")

    stats = {"middle_solves": 0, "events": 0, "regions": 0,
             "attachments": (len(atts_s), len(atts_t))}
    best = None

    def offer(d2, links, pts2):
        nonlocal best
        if best is None or (d2, links) < (best[0], best[1]):
            best = (d2, links, pts2)

    for searches, cands, forward in ((search_s, cands_t, True),
                                     (search_t, cands_s, False)):
        for gs in searches:
            for q in cands:
                got = gs.at(q) if gs.grid.box.contains(q) else None
                if got is not None:
                    route = [_double(v) for v in got[2]]
                    offer(2 * got[0], got[1], route if forward else route[::-1])

    pairs = sorted(
        ((a.d2 + _l1(a.junction2, b.junction2) + b.d2, i, j)
         for i, a in enumerate(atts_s) for j, b in enumerate(atts_t)),
        key=lambda t: t[0])
    for lb, i, j in pairs:
        if best is not None and lb > best[0]:
            break
        a, b = atts_s[i], atts_t[j]
        if a.junction2 == b.junction2:
            if a.out_dir is None or a.out_dir != b.out_dir:
                merge = a.out_dir is not None
                pts = list(a.lead2) + list(reversed(b.lead2))[1:]
                offer(a.d2 + b.d2, a.links + b.links - merge, pts)
            continue
        raw = solve_pair_raw(world, a.junction2, b.junction2,
                             dir_links=_seed_links(a))
        stats["middle_solves"] += 1
        stats["events"] += raw.stats.get("events", 0)
        stats["regions"] += raw.stats.get("regions", 0)
        for adir, (lam, wit) in raw.arrivals.items():
            if a.out_dir is not None and first_dir(wit) == _neg(a.out_dir):
                continue
            if b.out_dir is not None and adir == b.out_dir:
                continue
            merge = 1 if b.out_dir is not None and adir == _neg(b.out_dir) else 0
            pts = list(a.lead2) + list(wit)[1:] + list(reversed(b.lead2))[1:]
            offer(a.d2 + raw.dist2 + b.d2, lam + b.links - merge, pts)

    if best is None:
        raise GeometryError("terminals are not connected")
    stats["traces_built"] = world.traces_built
    d2, links, pts2 = best
    if d2 % 2:
        raise GeometryError("odd doubled distance")
    if len(pts2) == 1:
        path = [(pts2[0][0] // 2, pts2[0][1] // 2)]
    else:
        pts2 = _align_runs(PathResult.from_points(pts2).points,
                           lines.xs, lines.ys)
        check = PathResult.from_points([(x // 2, y // 2) for x, y in pts2])
        if check.length * 2 != d2 or check.links != links \
                or any(p[0] not in lines.xs_set or p[1] not in lines.ys_set
                       for p in check.points):
            raise GeometryError("witness disagrees with the combined costs")
        path = list(check.points)
    return SolveReport(distance=d2 // 2, links=links, path=path, stats=stats)
