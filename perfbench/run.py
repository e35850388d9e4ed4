"""rectlink benchmark: one closed-loop caller solving fixed instance pools.

Usage (from the repository root):

    python3 perfbench/run.py --workload point-small --seed 1 --seconds 16 --trace 0

It imports ``rectlink`` from ``src/`` next to this directory and exits with
code 2 when that source tree is missing.  One process, no threads: each
instance is solved with ``rectlink.frontend.solve`` with its default
arguments, exactly as ``rectlink solve`` calls it.  Passes over the whole
pool repeat, in a seeded order, until ``--seconds`` have gone by.  An
instance's latency is the lower median of its passes, each call's wall time
rescaled to a reference box speed (``speed.py``).  One pass of point-large
takes longer than a run's ``--seconds``, so there it is a single sample.
Where the grid fits, the first pass also runs
``rectlink.oracle.oracle_solve`` on each instance, as ``rectlink oracle``
does; its answer is the reference and its time the oracle's latency.
Set-up time is rescaled by a reference import (``setup_probe.py``).

Workloads (see ``workloads.py`` for how the pools are drawn):

* ``point-small``: 300 point-point instances of the acceptance-test shape;
  one middle solve each, no pockets, so it isolates the pair engine.
* ``attach-small``: 88 segment and polygon instances from the acceptance
  tests' terminal mixes; attachment pairing and many middle solves dominate.
  No terminal in this pool starts inside an obstacle's box, so the pocket
  search never runs (3 in 400 acceptance test 1 instances need it).
* ``point-large``: 21 point-point instances with n in {200, 400, 800} at
  ``rectlink bench`` density; one huge staircase region each.  The oracle
  refuses these grids, so answers are checked against ``expected.json``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from ``tracer.py`` and the tracing overhead.  Every solve is checked:
its witness is re-measured (``witness.py``) and its (distance, links) must
equal the oracle's, or the recorded answer on ``point-large``.  Human-readable
lines come first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results, and the spans of a
traced run, are written under ``.bench_build/perfbench/``.

The benchmark refuses to run (exit code 3) when the generator no longer
produces the pools recorded in ``expected.json``.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from setup_probe import REFERENCE_S
from speed import SpeedTrack
from tracer import METRICS, Tracer, layer_metrics, median_metrics, tail_percentile
from witness import WitnessChecker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
MIN_PASSES = 1
SHOW_FAILURES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_p50_ms": "ms",
    "solve_tail_ms": "ms",
    "solve_max_ms": "ms",
    "solve_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def import_program():
    """Import rectlink from this checkout's source tree, and nowhere else."""
    if not (SRC / "rectlink" / "__init__.py").is_file():
        fail(f"no rectlink source tree at {SRC}", 2)
    sys.path.insert(0, str(SRC))
    import rectlink
    import rectlink.frontend
    import rectlink.io
    import rectlink.oracle

    if Path(rectlink.__file__).resolve().parent != (SRC / "rectlink").resolve():
        fail(f"imported rectlink from {rectlink.__file__}, not {SRC}", 2)
    return rectlink


def build_inputs(name: str, seed: int):
    """The run's instance objects, the pass-order rng and the answer table."""
    from rectlink.io import instance_to_obj

    expected = json.loads((HERE / "expected.json").read_text())
    base = [instance_to_obj(inst) for inst in workloads.base_pool(name)]
    digest = workloads.pool_digest(base)
    if digest != expected["digests"][name]:
        fail(f"the generator's {name} pool changed (digest {digest}, recorded "
             f"{expected['digests'][name]}); refusing to run", 3)
    rng = workloads.seeded_rng(name, seed)
    objs = [workloads.present(obj, rng) for obj in base]
    return objs, rng, expected["answers"].get(name)


def measure_setup(objs: list) -> tuple[list[float], list[float]]:
    """Set-up times in fresh interpreters (imports plus decoding the pool),
    each followed by the reference import's time (setup_probe.py)."""
    payload = json.dumps(objs)
    setups, refs = [], []
    for _ in range(SETUP_REPEATS):
        for arg, out in ((str(SRC), setups), ("--reference", refs)):
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), arg],
                input=payload, capture_output=True, text=True, timeout=120, cwd=ROOT)
            if proc.returncode != 0:
                fail(f"set-up probe failed: {proc.stderr.strip()}", 4)
            out.append(float(proc.stdout.split()[-1]))
    return setups, refs


class Runner:
    """Closed-loop passes over one pool, with every answer checked."""

    def __init__(self, rectlink, objs, answers, use_oracle: bool):
        self.frontend = rectlink.frontend
        self.oracle = rectlink.oracle
        self.insts = [rectlink.io.instance_from_obj(obj) for obj in objs]
        self.checkers = [WitnessChecker(obj) for obj in objs]
        # reference answers: the recorded table, or the oracle's once it ran
        self.want = [tuple(a) for a in answers] if answers else [None] * len(objs)
        self.use_oracle = use_oracle
        self.solve_ms: list[list[float]] = [[] for _ in objs]
        self.solve_raw_ms: list[list[float]] = [[] for _ in objs]
        self.oracle_ms: list[float] = []
        self.oracle_raw_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[int, str] = {}

    def run_pass(self, order, oracle: bool, tracer=None, tag: int = 0):
        """Solve every instance once, in ``order``; with ``oracle``, also run
        the oracle on each.  Returns rescaled and raw solve ms, by index."""
        calls = []
        with SpeedTrack() as speed:
            for idx in order:
                if tracer is not None:
                    tracer.instance = tag * 1_000_000 + idx
                inst = self.insts[idx]
                self.attempted += 1
                report, exc, t0, t1, net = speed.call(self.frontend.solve, inst)
                err = None if exc is None else f"solve raised {exc!r}"
                calls.append(("solve", idx, t0, t1, net))
                if oracle and self.use_oracle:
                    ans, exc, t0, t1, onet = speed.call(self.oracle.oracle_solve, inst)
                    if exc is None:
                        self.want[idx] = (ans.distance, ans.links)
                    else:
                        err = err or f"oracle raised {exc!r}"
                    calls.append(("oracle", idx, t0, t1, onet))
                err = err or self.check(idx, report)
                if err is not None:
                    self.failed += 1
                    self.failures.setdefault(idx, err)
        solve_ms, raw_ms = [0.0] * len(order), [0.0] * len(order)
        if oracle and self.use_oracle:
            self.oracle_ms, self.oracle_raw_ms = [0.0] * len(order), [0.0] * len(order)
        for kind, idx, t0, t1, net in calls:
            raw = net * 1e3
            scaled = raw * speed.factor(t0, t1)
            if kind == "solve":
                solve_ms[idx], raw_ms[idx] = scaled, raw
            else:
                self.oracle_ms[idx], self.oracle_raw_ms[idx] = scaled, raw
        return solve_ms, raw_ms

    def check(self, idx: int, report):
        want = self.want[idx]
        if want is None:
            return "no reference answer"
        got = (report.distance, report.links)
        if got != want:
            return f"answer {got}, reference {want}"
        problems = self.checkers[idx].problems(report.distance, report.links, report.path)
        return problems[0] if problems else None


def latency_summary(lat: list[float], prefix: str) -> dict:
    """p50, tail, max and throughput of per-instance latencies in ms."""
    out = {
        f"{prefix}_p50_ms": statistics.median(lat),
        f"{prefix}_max_ms": max(lat),
        f"{prefix}_per_s": len(lat) / (sum(lat) / 1e3),
        f"{prefix}_n": len(lat),
    }
    tail = tail_percentile(lat)
    if tail is not None:
        out[f"{prefix}_tail_pct"], out[f"{prefix}_tail_ms"] = tail
    return out


def medians(per_instance: list[list[float]]) -> list[float]:
    """Each instance's median over passes; the lower one for an even count,
    since interference only ever slows a call down."""
    return [statistics.median_low(samples) for samples in per_instance]


def untraced_run(runner: Runner, rng, seconds: float) -> int:
    """Passes until ``seconds`` are up; the oracle runs in the first only."""
    order = list(range(len(runner.insts)))
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        rng.shuffle(order)
        scaled, raw = runner.run_pass(order, oracle=passes == 0)
        for k in order:
            runner.solve_ms[k].append(scaled[k])
            runner.solve_raw_ms[k].append(raw[k])
        passes += 1
    return passes


def traced_run(runner: Runner, tracer: Tracer, setup_spans, rng, seconds: float):
    """Pairs of one untraced and one traced pass until ``seconds`` are up.

    Returns the per-layer medians over traced passes, the pair count and the
    rescaled solver time of an untraced and of a traced pass.  The speed
    spins inside calls land in the self time of the span they interrupt,
    about 1.5 % of it (speed.py).
    """
    order = list(range(len(runner.insts)))
    untraced: list[list[float]] = [[] for _ in order]
    traced: list[list[float]] = [[] for _ in order]
    per_pass = []
    start = time.perf_counter()
    pairs = 0
    while pairs < 1 or time.perf_counter() - start < seconds:
        rng.shuffle(order)
        scaled, _ = runner.run_pass(order, oracle=pairs == 0)
        for k in order:
            untraced[k].append(scaled[k])
        pairs += 1
        rng.shuffle(order)
        tracer.counts.clear()
        mark = len(tracer.spans)
        tracer.install()
        try:
            scaled, _ = runner.run_pass(order, oracle=True, tracer=tracer, tag=pairs)
        finally:
            tracer.uninstall()
        for k in order:
            traced[k].append(scaled[k])
        per_pass.append(layer_metrics(
            setup_spans + tracer.spans[mark:], tracer.counts, len(order)))
    return (median_metrics(per_pass), pairs,
            sum(medians(untraced)), sum(medians(traced)))


def write_spans(path: Path, spans) -> None:
    with path.open("w") as fp:
        fp.write("id,name,start_ns,end_ns,parent,instance\n")
        for span in spans:
            fp.write(",".join(map(str, span)) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    rectlink = import_program()
    wl = workloads.WORKLOADS[args.workload]
    objs, rng, answers = build_inputs(wl.name, args.seed)
    if not wl.oracle and (answers is None or len(answers) != len(objs)):
        fail(f"expected.json holds no answer table for {wl.name}", 3)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {wl.name} seed {args.seed}: {len(objs)} instances, "
          f"closed loop, 1 caller, oracle {'on' if wl.oracle else 'off'}")

    result: dict = {"workload": wl.name, "seed": args.seed, "instances": len(objs)}
    metrics: dict[str, dict] = {}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            runner = Runner(rectlink, objs, answers, wl.oracle)
        finally:
            tracer.uninstall()
        setup_spans = list(tracer.spans)
        layers, pairs, plain, with_trace = traced_run(
            runner, tracer, setup_spans, rng, args.seconds)
        absent = tracer.absent()
        if not wl.oracle:
            print("  oracle.* read 0: the oracle refuses this pool's grids, so it is not run")
        overhead = with_trace / plain - 1.0
        print(f"traced {pairs} pass(es) against {pairs} untraced: "
              f"overhead {overhead:+.1%} ({with_trace / 1e3:.3f} s vs "
              f"{plain / 1e3:.3f} s of solver time per pass)")
        for m, (unit, _, _) in METRICS.items():
            if m in absent:
                print(f"  {m:34s} absent: {absent[m]}")
            else:
                print(f"  {m:34s} {layers[m]:14.3f} {unit}")
                metrics[m] = {"value": layers[m], "unit": unit}
        result.update(layers=layers, absent=absent, overhead=overhead,
                      traced_pass_s=with_trace / 1e3, untraced_pass_s=plain / 1e3,
                      passes=pairs)
        write_spans(OUT / f"{stem}-spans.csv", tracer.spans)
    else:
        setup, setup_ref = measure_setup(objs)
        runner = Runner(rectlink, objs, answers, wl.oracle)
        passes = untraced_run(runner, rng, args.seconds)
        e2e = {"setup_s": statistics.median(setup) * REFERENCE_S
               / statistics.median(setup_ref)}
        e2e.update(latency_summary(medians(runner.solve_ms), "solve"))
        raw = latency_summary(medians(runner.solve_raw_ms), "raw")
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if "solve_tail_ms" not in e2e:
            fail("too few instances for a tail percentile", 4)
        print(f"{passes} pass(es); latency is each instance's lower median over "
              f"them, rescaled to the reference box speed (speed.py)")
        print(f"  setup_s        {e2e['setup_s']:12.4f} s   (median of {len(setup)}, rescaled "
              f"by the reference import; raw {statistics.median(setup):.4f} s)")
        print(f"  solve_p50_ms   {e2e['solve_p50_ms']:12.3f} ms")
        print(f"  solve_tail_ms  {e2e['solve_tail_ms']:12.3f} ms  "
              f"(p{e2e['solve_tail_pct']} of N={e2e['solve_n']})")
        print(f"  solve_max_ms   {e2e['solve_max_ms']:12.3f} ms")
        print(f"  solve_per_s    {e2e['solve_per_s']:12.3f} 1/s")
        print(f"  peak_rss_mb    {e2e['peak_rss_mb']:12.1f} MB")
        print(f"  (raw wall time: p50 {raw['raw_p50_ms']:.3f} ms, max "
              f"{raw['raw_max_ms']:.3f} ms, {raw['raw_per_s']:.3f} 1/s)")
        if wl.oracle:
            e2e.update(latency_summary(runner.oracle_ms, "oracle"))
            print(f"  oracle_p50_ms  {e2e['oracle_p50_ms']:12.3f} ms")
            print(f"  oracle_per_s   {e2e['oracle_per_s']:12.3f} 1/s")
        else:
            print("  oracle_p50_ms, oracle_per_s: absent (the oracle refuses these grids)")
        e2e["fail_frac"] = runner.failed / runner.attempted
        print(f"  fail_frac      {e2e['fail_frac']:12.4f}     "
              f"({runner.failed} of {runner.attempted} solves)")
        metrics = {m: {"value": e2e[m], "unit": u} for m, u in END_TO_END_UNITS.items()}
        result.update(end_to_end=e2e, raw_wall=raw, setup_samples=setup,
                      setup_reference_samples=setup_ref, passes=passes, solve_ms=runner.solve_ms,
                      solve_raw_ms=runner.solve_raw_ms, oracle_ms=runner.oracle_ms,
                      oracle_raw_ms=runner.oracle_raw_ms)

    for idx, msg in sorted(runner.failures.items())[:SHOW_FAILURES]:
        print(f"  FAIL instance {idx}: {msg}")
    result.update(attempted=runner.attempted, failed=runner.failed,
                  failures={str(k): v for k, v in runner.failures.items()})
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
