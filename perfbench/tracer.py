"""Outside-in layer tracing for the traced benchmark run.

The tracer replaces the module and class attributes each layer is called
through with timing wrappers, so no package file is edited.  Each wrapper
records one span (id, name, start, end, parent span, instance id) and the
counts for its layer at the same boundary.  Spans stay in memory until the
run ends.  A layer's self time is its span's duration minus the part of it
covered by child spans.

An attribute that no longer exists is not wrapped; every metric that needs
it is reported absent, with the reason, instead of failing the run.
"""
from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict


def _events(region) -> int:
    return len(region.events)


def _count_sweep(tr, span, res, args, kw):
    if span == "sweep.run":
        tr.count("sweep.events", _events(args[0]))


def _count_region(tr, span, res, args, kw):
    tr.count("partition.region_events", _events(res))


def _count_world(tr, span, res, args, kw):
    tr.count("partition.world_builds")


def _count_xcase(tr, span, res, args, kw):
    dag = res[2]
    tr.count("composer.midpoints", len(dag.nodes))
    tr.count("composer.subregions", dag.regions)


def _count_pair(tr, span, res, args, kw):
    tr.count(f"engine.case_{res.case}")


def _count_search(tr, span, res, args, kw):
    tr.count("pockets.search_calls")


def _count_crossings(tr, span, res, args, kw):
    tr.count("pockets.crossings", len(res))


def _count_solve(tr, span, res, args, kw):
    a_s, a_t = res.stats["attachments"]
    tr.count("frontend.attach_pairs", a_s * a_t)


def _count_oracle(tr, span, res, args, kw):
    nx, ny = res.grid_shape
    tr.count("oracle.grid_nodes", nx * ny)


def _sweep_span(args, kw):
    store = args[1] if len(args) > 1 else kw.get("store")
    return "sweep.shadow" if type(store).__name__ == "TreeStore" else "sweep.run"


# (module, class or None, attribute, span name or chooser, counter)
WRAPS = [
    ("rectlink.frontend", None, "solve", "frontend.solve", _count_solve),
    ("rectlink.frontend", None, "validate", "model.validate", None),
    ("rectlink.frontend", None, "build_world", "partition.world", None),
    ("rectlink.partition", "World", "__init__", "partition.world", _count_world),
    ("rectlink.partition", "World", "frame", "partition.frame", None),
    ("rectlink.engine", None, "classify", "partition.classify", None),
    ("rectlink.composer", None, "classify", "partition.classify", None),
    ("rectlink.engine", None, "build_staircase_region", "partition.region", _count_region),
    ("rectlink.composer", None, "build_staircase_region", "partition.region", _count_region),
    ("rectlink.composer", None, "trace_ru", "partition.trace", None),
    ("rectlink.engine", None, "run_sweep", _sweep_span, _count_sweep),
    ("rectlink.composer", None, "run_sweep", _sweep_span, _count_sweep),
    ("rectlink.engine", None, "reconstruct_path", "sweep.reconstruct", None),
    ("rectlink.composer", None, "reconstruct_path", "sweep.reconstruct", None),
    ("rectlink.engine", None, "solve_x_case", "composer.xcase", _count_xcase),
    ("rectlink.frontend", None, "solve_pair_raw", "engine.pair", _count_pair),
    ("rectlink.frontend", None, "BoxGrid", "pockets.search", None),
    ("rectlink.frontend", None, "GridSearch", "pockets.search", _count_search),
    ("rectlink.pockets", "GridSearch", "crossings", "pockets.search", _count_crossings),
    ("rectlink.oracle", None, "oracle_solve", "oracle.solve", _count_oracle),
    ("rectlink.oracle", None, "build_hanan_graph", "oracle.graph", None),
    ("rectlink.io", None, "instance_from_obj", "io.decode", None),
]

# the span each counter is recorded at
COUNTED_AT = {
    "partition.world_builds": "partition.world",
    "partition.region_events": "partition.region",
    "sweep.events": "sweep.run",
    "composer.midpoints": "composer.xcase",
    "composer.subregions": "composer.xcase",
    "engine.case_same": "engine.pair",
    "engine.case_xy": "engine.pair",
    "engine.case_x": "engine.pair",
    "pockets.search_calls": "pockets.search",
    "pockets.crossings": "pockets.search",
    "frontend.attach_pairs": "frontend.solve",
    "oracle.grid_nodes": "oracle.solve",
}

# per-layer metrics: name -> (unit, how, source)
#   self:  summed self time of a span name, in ms
#   calls: number of spans of a name
#   count: summed counter
#   or a derived rule handled in layer_metrics
METRICS = {
    "model.validate_ms": ("ms", "self", "model.validate"),
    "partition.world_ms": ("ms", "self", "partition.world"),
    "partition.world_builds": ("count", "count", "partition.world_builds"),
    "partition.frame_ms": ("ms", "self", "partition.frame"),
    "partition.frame_calls": ("count", "calls", "partition.frame"),
    "partition.classify_ms": ("ms", "self", "partition.classify"),
    "partition.classify_calls": ("count", "calls", "partition.classify"),
    "partition.region_ms": ("ms", "self", "partition.region"),
    "partition.region_calls": ("count", "calls", "partition.region"),
    "partition.region_events": ("count", "count", "partition.region_events"),
    "partition.region_us_per_event": ("us/event", "ratio",
                                      ("partition.region_ms", "partition.region_events", 1000.0)),
    "partition.trace_ms": ("ms", "self", "partition.trace"),
    "partition.trace_calls": ("count", "calls", "partition.trace"),
    "sweep.ms": ("ms", "self", "sweep.run"),
    "sweep.shadow_ms": ("ms", "self", "sweep.shadow"),
    "sweep.calls": ("count", "calls", "sweep.run"),
    "sweep.events": ("count", "count", "sweep.events"),
    "sweep.reconstruct_ms": ("ms", "self", "sweep.reconstruct"),
    "composer.xcase_self_ms": ("ms", "self", "composer.xcase"),
    "composer.xcase_calls": ("count", "calls", "composer.xcase"),
    "composer.midpoints": ("count", "count", "composer.midpoints"),
    "composer.subregions": ("count", "count", "composer.subregions"),
    "engine.pair_self_ms": ("ms", "self", "engine.pair"),
    "engine.pair_calls": ("count", "calls", "engine.pair"),
    "engine.pair_calls_max": ("count", "max_calls", "engine.pair"),
    "engine.case_same": ("count", "count", "engine.case_same"),
    "engine.case_xy": ("count", "count", "engine.case_xy"),
    "engine.case_x": ("count", "count", "engine.case_x"),
    "pockets.search_ms": ("ms", "self", "pockets.search"),
    "pockets.search_calls": ("count", "count", "pockets.search_calls"),
    "pockets.crossings": ("count", "count", "pockets.crossings"),
    "frontend.self_ms": ("ms", "self", "frontend.solve"),
    "frontend.attach_pairs": ("count", "count", "frontend.attach_pairs"),
    "frontend.pair_yield": ("ratio", "ratio", ("instances", "engine.pair_calls", 1.0)),
    "oracle.graph_ms": ("ms", "self", "oracle.graph"),
    "oracle.self_ms": ("ms", "self", "oracle.solve"),
    "oracle.grid_nodes": ("count", "count", "oracle.grid_nodes"),
    "io.decode_ms": ("ms", "self", "io.decode"),
}


def self_times(spans) -> dict[int, int]:
    """Self time per span id: duration minus the time its children cover.

    ``spans`` holds (id, name, start, end, parent, instance) tuples.  The
    children of one span never overlap (one thread, nested calls), so the
    time they cover is the sum of their durations.
    """
    covered = Counter()
    for _, _, t0, t1, parent, _ in spans:
        covered[parent] += t1 - t0
    return {sid: (t1 - t0) - covered[sid] for sid, _, t0, t1, _, _ in spans}


def tail_percentile(values, beyond: int = 10):
    """Highest whole percentile with at least ``beyond`` values above it.

    Uses nearest rank: percentile p is the ceil(p * N / 100)-th smallest
    value.  Returns (p, value), or None when N <= ``beyond``.
    """
    xs = sorted(values)
    n = len(xs)
    for p in range(100, 0, -1):
        rank = -(-p * n // 100)
        if n - rank >= beyond:
            return p, xs[rank - 1]
    return None


class Tracer:
    """Installs the wrappers and holds the spans and counts they record."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.instance = -1
        self.missing: dict[str, str] = {}     # span or counter -> reason
        self._stack: list[int] = []
        self._next = 0
        self._saved: list[tuple] = []

    def count(self, name: str, k: int = 1) -> None:
        self.counts[self.instance][name] += k

    def _wrap(self, fn, name, counter):
        tracer = self

        def wrapper(*args, **kw):
            span = name(args, kw) if callable(name) else name
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                res = fn(*args, **kw)
            finally:
                t1 = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((sid, span, t0, t1, parent, tracer.instance))
            if counter is not None:
                try:
                    counter(tracer, span, res, args, kw)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError) as exc:
                    tracer.missing.setdefault(
                        f"counts@{span}",
                        f"cannot read counts at {span}: {exc!r}")
            return res

        return wrapper

    def install(self, wraps=WRAPS) -> None:
        for mod, cls, attr, name, counter in wraps:
            spans = ("sweep.run", "sweep.shadow") if callable(name) else (name,)
            where = f"{mod}.{cls + '.' if cls else ''}{attr}"
            try:
                owner = importlib.import_module(mod)
                if cls:
                    owner = getattr(owner, cls)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                for s in spans:
                    self.missing.setdefault(s, f"{where} no longer exists")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def absent(self) -> dict[str, str]:
        """Metrics that cannot be reported, with the reason."""
        out = {}
        for metric in METRICS:
            reasons = [self.missing[n] for n in sorted(_needs(metric)) if n in self.missing]
            if reasons:
                out[metric] = reasons[0]
        return out


def _needs(metric: str) -> set[str]:
    _, how, source = METRICS[metric]
    if how == "ratio":
        return set().union(*(_needs(m) for m in source[:2] if m in METRICS))
    if how == "count":
        return {COUNTED_AT[source], f"counts@{COUNTED_AT[source]}"}
    return {source}


def layer_metrics(spans, counts: dict[int, Counter], instances: int) -> dict:
    """Per-layer metrics summed over the given spans and instance counts."""
    own = self_times(spans)
    self_ns = Counter()
    calls = Counter()
    per_instance_calls = defaultdict(Counter)
    for sid, name, _, _, _, inst in spans:
        self_ns[name] += own[sid]
        calls[name] += 1
        per_instance_calls[name][inst] += 1
    total = Counter()
    for c in counts.values():
        total.update(c)
    out: dict[str, float] = {}
    for metric, (_, how, source) in METRICS.items():
        if how == "self":
            out[metric] = self_ns[source] / 1e6
        elif how == "calls":
            out[metric] = calls[source]
        elif how == "max_calls":
            out[metric] = max(per_instance_calls[source].values(), default=0)
        elif how == "count":
            out[metric] = total[source]
    out["instances"] = instances
    for metric, (_, how, source) in METRICS.items():
        if how == "ratio":
            num, den, scale = source
            out[metric] = scale * out[num] / out[den] if out[den] else 0.0
    del out["instances"]
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
