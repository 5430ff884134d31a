"""Record the benchmark of a change against its parent in a BENCH_<n>.json file.

Usage, from the repository root, with the parent commit checked out
elsewhere (git clone or git archive, not a worktree):

    python3 tools/bench_record.py --parent ../parent --change . \
        --seeds 1 13 --out BENCH_6.json

For each workload of the change's BENCHMARK.json it runs
`bench/run.py --trace 0` at the benchmark's run length in ten pairs, one
run on each checkout.  The order inside a pair alternates (parent first, then
change first) and the seeds take turns two pairs at a time, so drift in
the machine's speed, the order and the seed fall on both sides alike.
The file holds, per workload and side, each end-to-end metric's median,
quartiles and runs, the fail rate, and the same summary of each run's
median unscaled pass seconds (the `untraced passes of X s unscaled`
figure on run.py's stderr), which shows how far a pass is from the speed
probe's sampling period.  A side whose median pass is under
SHORT_PASS_FACTOR times that period (PERIOD_S, read from the change's
bench/speed.py without running it) is listed under `short_passes` and
named in a warning on stderr: such a pass can end before the probe's
first sample.  Per metric it also holds the pairs the change
won and two verdicts: `gain`, when the change won at
least nine tenths of the pairs and the medians differ by more than the
parent's interquartile range, and `within_bound`, when the change's
median is no worse than the parent's by more than the relative bound in
the change's BENCHMARK.json.  The seconds of every preset_run are timed
the same way, ten alternating pairs of fresh processes, and kept with
their medians, quartiles, runs and the pairs the change won.  Then come,
for each side, the tier-1 wall time and the `wc -l` line count of src/.
A run that exits non-zero stops the recording with its checkout,
workload, seed, exit code and last lines of stderr.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

PAIRS = 10  # the fewest pairs a claimed gain is judged on
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
STDERR_TAIL = 20  # lines of a failed run's stderr shown
UNSCALED = re.compile(r"untraced passes of ([0-9.]+) s unscaled")
SHORT_PASS_FACTOR = 1.25  # passes under this many probe periods are flagged


class RunFailed(RuntimeError):
    """A benchmark run that exited non-zero."""


def bench_run(checkout, workload, seed, seconds):
    """One `bench/run.py --trace 0` run: its parsed last line of output,
    with the median unscaled pass seconds from its stderr summary line
    (None if that line is missing) under "unscaled_pass_s"."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        tail = "\n".join(out.stderr.splitlines()[-STDERR_TAIL:])
        raise RunFailed(f"bench/run.py in {checkout}, workload {workload}, seed {seed}, "
                        f"exited {out.returncode}; last lines of stderr:\n{tail}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    found = UNSCALED.search(out.stderr)
    result["unscaled_pass_s"] = float(found.group(1)) if found else None
    return result


def summarize(values):
    """Median, quartiles (inclusive method) and the values themselves."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def summarize_side(results):
    """Per-metric summaries of one side's runs of one workload."""
    metrics = {}
    for name, entry in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = dict(summarize(values), unit=entry["unit"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    passes = [r["unscaled_pass_s"] for r in results if r.get("unscaled_pass_s") is not None]
    return {"metrics": metrics, "fail_rate": failed / attempted if attempted else None,
            "unscaled_pass_s": summarize(passes) if passes else None}


def probe_period(checkout):
    """PERIOD_S of the checkout's bench/speed.py, read from its source."""
    with open(os.path.join(checkout, "bench", "speed.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "PERIOD_S" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise ValueError(f"no PERIOD_S in {checkout}/bench/speed.py")


def short_passes(workloads, floor):
    """The sides, of workloads as recorded, whose median unscaled pass
    is under floor seconds: {workload, side, median_s} each."""
    return [{"workload": name, "side": side, "median_s": passes["median"]}
            for name, entry in workloads.items()
            for side in ("parent", "change")
            if (passes := entry[side]["unscaled_pass_s"]) and passes["median"] < floor]


def verdicts(parent, change, bounds):
    """Per metric (all lower-is-better): pairs won by the change, and whether
    that is a gain and whether the change stays within the metric's bound."""
    out = {}
    for name in parent[0]["metrics"]:
        p = summarize([r["metrics"][name]["value"] for r in parent])
        c = summarize([r["metrics"][name]["value"] for r in change])
        won = sum(cr["metrics"][name]["value"] < pr["metrics"][name]["value"]
                  for pr, cr in zip(parent, change))
        out[name] = {
            "change_won_pairs": won,
            "gain": (won >= 0.9 * len(parent)
                     and p["median"] - c["median"] > p["q3"] - p["q1"]),
            "within_bound": (None if name not in bounds
                             else c["median"] <= p["median"] * (1 + bounds[name])),
        }
    return out


def tier1(checkout):
    """Wall seconds and pytest's summary line of the tier-1 suite."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    t0 = time.perf_counter()
    out = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = out.stdout.strip().splitlines()
    return {"wall_s": wall, "summary": lines[-1] if lines else "", "exit": out.returncode}


PRESET_TIMES = """
import gc, json, time
from gradedalg.presets import preset_names, preset_run
out = {}
for name in preset_names():
    gc.collect()
    t0 = time.perf_counter()
    preset_run(name)
    out[name] = time.perf_counter() - t0
print(json.dumps(out))
"""


def preset_seconds(checkout):
    """Seconds of each preset_run, all in one fresh process.

    The cyclic garbage collector runs to completion before each preset is
    timed, so no preset pays for the garbage the ones before it left.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    out = subprocess.run([sys.executable, "-c", PRESET_TIMES], cwd=checkout, env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def in_pairs(parent, change, label, measure):
    """measure(checkout, k) for k < PAIRS on both checkouts, the side that
    runs first alternating from pair to pair: (parent runs, change runs)."""
    runs = ([], [])
    for k in range(PAIRS):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            runs[side].append(measure((parent, change)[side], k))
        print(f"{label}: pair {k + 1}/{PAIRS}", file=sys.stderr)
    return runs


def src_lines(checkout):
    """Total `wc -l` over the Python files under src/."""
    total = 0
    for root, _, files in os.walk(os.path.join(checkout, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    floor = SHORT_PASS_FACTOR * probe_period(args.change)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    record = {
        "command": "python3 bench/run.py --workload W --seed S --seconds T --trace 0",
        "seconds": seconds,
        "pairs": PAIRS,
        "seeds": args.seeds,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    for workload in (w["name"] for w in benchmark["workloads"]):
        try:
            parent, change = in_pairs(
                args.parent, args.change, workload,
                lambda checkout, k: bench_run(
                    checkout, workload, args.seeds[k // 2 % len(args.seeds)], seconds))
        except RunFailed as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        record["workloads"][workload] = {
            "parent": summarize_side(parent),
            "change": summarize_side(change),
            "verdicts": verdicts(parent, change, bounds),
        }
    record["short_pass_floor_s"] = floor
    record["short_passes"] = short_passes(record["workloads"], floor)
    for short in record["short_passes"]:
        print(f"warning: {short['workload']} passes on the {short['side']} take "
              f"{short['median_s']} s unscaled, under {floor} s", file=sys.stderr)
    parent, change = in_pairs(args.parent, args.change, "presets",
                              lambda checkout, k: preset_seconds(checkout))
    record["preset_seconds"] = {
        name: {"parent": summarize([r[name] for r in parent]),
               "change": summarize([r[name] for r in change]),
               "change_won_pairs": sum(c[name] < p[name] for p, c in zip(parent, change))}
        for name in parent[0]}
    for key, measure in (("tier1", tier1), ("src_lines", src_lines)):
        record[key] = {"parent": measure(args.parent), "change": measure(args.change)}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
