"""Benchmark of the graded-workbench library on seeded, exactly checked workloads.

Usage, from the repository root:

    python3 bench/run.py --workload presented-rings --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: each operation
starts when the previous one has returned.  Set-up (import, seeded input
generation, parsing and oracle expansion) is timed on its own; then
passes run until the next one would end after --seconds.  Each pass
builds fresh rings, modules and groups and checks every output against
the catalog or theory (see workloads.py).

--trace 0 reports the end-to-end metrics.  --trace 1 spends part of the
time on untraced passes, then traces set-up, counts field scalar calls
in one pass, and traces the remaining passes; it reports the per-layer
metrics (see layers.py) and writes the spans of the last traced pass to
bench/out/.  Either way every metric measured is printed by name with
its unit on standard error, --trace 1 printing all of them.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import spans
import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")

SETUP_REPEATS = 9
# speed samples taken on either side of the short set-up
SETUP_SAMPLES = 25
# share of --seconds spent on untraced passes in a traced run
UNTRACED_SHARE = 0.35

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "slowest_op_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Outcome:
    """Attempted and failed operations over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._reported = set()

    def record(self, name, problems):
        """Count one operation; the first failure of each name is printed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if name not in self._reported:
                self._reported.add(name)
                print(f"FAILED {name}:", *problems[:3], sep="\n  ", file=sys.stderr)


class Pass:
    """One pass: its unscaled wall seconds, and its times at the reference
    speed (see speed.py)."""

    def __init__(self, wall, cpu, slowest, scale):
        self.raw_wall = wall
        self.wall = wall * scale
        self.cpu = cpu * scale
        self.slowest = slowest * scale


def run_pass(ops, outcome, probe=None):
    """Run one pass; returns (wall seconds, cpu seconds, slowest operation),
    leaving out the time the speed probe took."""

    def probe_spent():
        return probe.spent if probe else 0.0

    def clock():
        return time.perf_counter() - probe_spent()

    ctx = {}
    slowest = 0.0
    wall0, cpu0 = clock(), time.process_time() - probe_spent()
    for op in ops:
        start = clock()
        try:
            result = op.run(ctx)
            elapsed = clock() - start
            problems = op.check(result, ctx)
        except Exception:  # a raising operation is a failed one, not the end
            elapsed = clock() - start
            problems = [traceback.format_exc()]
        slowest = max(slowest, elapsed)
        outcome.record(op.name, problems)
    return clock() - wall0, time.process_time() - probe_spent() - cpu0, slowest


def run_passes(make_ops, spec, outcome, deadline, min_passes=1, around=None):
    """Passes until the next would end after `deadline`, at least min_passes.

    around(pass_fn) wraps each pass, for tracing.
    """
    passes = []
    with speed.SpeedProbe() as probe:
        while True:
            gc.collect()
            ops = make_ops(spec)
            first = len(probe.samples)
            times = (run_pass(ops, outcome, probe) if around is None
                     else around(lambda: run_pass(ops, outcome, probe)))
            passes.append(Pass(*times, probe.scale(first)))
            if len(passes) >= min_passes:
                typical = statistics.median(p.raw_wall for p in passes)
                if time.perf_counter() + typical > deadline:
                    return passes


def timed_setup(setup, seed, import_s):
    """Seeded inputs, and the set-up seconds at the reference speed: the
    import plus the median of SETUP_REPEATS set-ups."""
    times = []
    with speed.SpeedProbe() as probe:
        for _ in range(SETUP_SAMPLES):
            probe.take()
        for _ in range(SETUP_REPEATS):
            spent, start = probe.spent, time.perf_counter()
            spec = setup(seed)
            times.append(time.perf_counter() - start - (probe.spent - spent))
        for _ in range(SETUP_SAMPLES):
            probe.take()
    return spec, (import_s + statistics.median(times)) * probe.scale()


def end_to_end(passes, setup_s):
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "slowest_op_s": statistics.median(p.slowest for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def traced_run(name, setup, make_ops, seed, spec, deadline, outcome, plain_wall):
    """Per-layer metrics: a traced set-up, a counting pass, traced passes."""
    import gradedalg
    import layers
    import workloads

    tracer = spans.Tracer()
    modules = spans.library_modules(gradedalg, workloads)
    with spans.patched(layers.traced_replacements(tracer), modules):
        setup(seed)
    in_setup = layers.layer_metrics(tracer)

    counts = {}
    with spans.patched(layers.counting_replacements(counts), modules):
        run_pass(make_ops(spec), outcome)

    per_pass = []

    def traced_pass(fn):
        tracer.reset()
        with spans.patched(layers.traced_replacements(tracer), modules):
            row = fn()
        per_pass.append(layers.layer_metrics(tracer))
        return row

    traced = run_passes(make_ops, spec, outcome, deadline, min_passes=2,
                        around=traced_pass)

    # fresh-state guard: every count repeats exactly from pass to pass,
    # so no cache leaks from one pass into the next
    for before, after in zip(per_pass, per_pass[1:]):
        drift = [f"{k}: {before[k]} then {after[k]}" for k in before
                 if not k.endswith(("self_s", "ratio")) and before[k] != after[k]]
        outcome.record("fresh-state guard", drift)

    # counts and ratios repeat exactly, so the last pass stands for all
    metrics = dict(per_pass[-1])
    for key, value in in_setup.items():
        if key.endswith("self_s"):
            metrics[key] = value + statistics.median(p[key] for p in per_pass)
        elif not key.endswith("ratio"):
            metrics[key] += value
    metrics.update(counts)
    metrics[layers.OVERHEAD] = statistics.median(p.wall for p in traced) / plain_wall

    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{name}-seed{seed}.json.gz"))
    return metrics, layers.metric_units()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "gradedalg", "__init__.py")):
        print(f"library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import gradedalg
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(gradedalg.__file__))) != SRC:
        print(f"imported gradedalg from {gradedalg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    setup, make_ops = workloads.WORKLOADS[args.workload]
    outcome = Outcome()

    spec, setup_s = timed_setup(setup, args.seed, import_s)
    start = time.perf_counter()
    share = UNTRACED_SHARE if args.trace else 1.0
    passes = run_passes(make_ops, spec, outcome, start + share * args.seconds)
    e2e = end_to_end(passes, setup_s)
    metrics, units = e2e, END_TO_END
    if args.trace:
        metrics, units = traced_run(args.workload, setup, make_ops, args.seed, spec,
                                    start + args.seconds, outcome, e2e["wall_s"])

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} untraced passes "
          f"of {statistics.median(p.raw_wall for p in passes):.3f} s unscaled, "
          f"{outcome.attempted} operations, {outcome.failed} failed", file=sys.stderr)
    shown = dict(e2e, fail_rate=outcome.failed / outcome.attempted)
    shown_units = dict(END_TO_END, fail_rate="ratio")
    if args.trace:
        shown.update(metrics)
        shown_units.update(units)
    for key, unit in shown_units.items():
        value = shown[key]
        print(f"  {key} {value if isinstance(value, int) else f'{value:.6g}'} {unit}",
              file=sys.stderr)

    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
