"""Benchmark harness for the sweep solver.

Runs the solver on seeded random point-terminal instances of increasing
obstacle counts and reports per-size medians of the sweep event count and
wall time.  The coordinate range grows linearly with the obstacle count
so density stays roughly constant across sizes.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from .frontend import solve
from .generator import generate_instance


@dataclass(frozen=True)
class BenchRow:
    n: int          # obstacle count
    N: int          # total obstacle vertices
    events: int     # sweep events, median over repetitions
    ms: float       # wall time, median over repetitions


CSV_HEADER = "n,N,events,ms"


def run_bench(sizes: list[int], reps: int = 3, seed: int = 0) -> list[BenchRow]:
    rows = []
    for n in sizes:
        events, times, verts = [], [], []
        for r in range(reps):
            inst = generate_instance(seed * 10_000 + 97 * n + r, n_obstacles=n,
                                     coord_limit=max(200, 30 * n))
            t0 = time.perf_counter()
            report = solve(inst)
            times.append((time.perf_counter() - t0) * 1000.0)
            events.append(report.stats.get("events", 0))
            verts.append(sum(len(p.vertices) for p in inst.obstacles))
        rows.append(BenchRow(n=n,
                             N=int(statistics.median(verts)),
                             events=int(statistics.median(events)),
                             ms=statistics.median(times)))
    return rows


def rows_to_csv(rows: list[BenchRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.n},{r.N},{r.events},{r.ms:.3f}")
    return "\n".join(lines) + "\n"
