#!/usr/bin/env python3
"""Gates a change on perfbench, run back to back against a base checkout.

    git worktree add ../base main && python3 tools/perf_gate.py ../base

Runs every BENCHMARK.json workload in both trees on one machine: five
alternating pairs of untraced runs (seeds 1-5, the base first on odd seeds),
then, where the workload has exact counters, one traced seed-1 run per side.
Each tree builds into its own .bench_build.  The gate fails when a run on
either side fails, when an end-to-end metric's median is worse than the
base's by more than its BENCHMARK.json bound, when an exact work counter
rises, or when an output the traced run prints exactly (the grid's mean
error) differs from the base's -- unless tests/golden/ differs between the
trees, which declares the change output-changing and prints the moved
output as "changed (goldens re-baselined)" instead.  A metric whose base
spread (interquartile range over median) is wider than its bound is
reported unresolved and does not fail.  When an end-to-end
row is WORSE or unresolved on a workload with a traced pair, the gate also
prints that pair's per-layer metrics so the row names the layer that moved:
exact ones (unit count or flag) first, then the rest, each group largest
relative move first.  The rest come from one traced run per side, which
host noise alone can move, and are marked so.  Wall-clock numbers
do not port across machines, and allocation counts depend on the standard
library, so both are compared against the base in the same job, never
against a checked-in number.  Exits 0 on pass, 1 on failure and 2 on a usage
error.
"""
import json
import math
import os
import statistics
import subprocess
import sys
import time

SEEDS = (1, 2, 3, 4, 5)
SECONDS = 5
# Per workload: traced counters that may not rise, and flags that must read 1.
COUNTERS_NOT_RISING = {
    "paper_grid": ("core.sim_runs", "trace.events", "skeleton.built"),
    "scale_1024": ("sim.events", "alloc.per_event"),
}
FLAGS_MUST_BE_ONE = {"scale_1024": ("alloc.exact_repeat",)}
# Per workload: traced outputs that must be bit-for-bit equal to the base's
# while the goldens are unchanged.
OUTPUTS_EQUAL = {"paper_grid": ("core.mean_error_pct",)}
TRACED = set(COUNTERS_NOT_RISING) | set(FLAGS_MUST_BE_ONE) | set(OUTPUTS_EQUAL)
REBASELINED = "changed (goldens re-baselined)"
# Per-layer units whose values repeat exactly from run to run.
EXACT_UNITS = ("count", "flag")


def parse_run(returncode, stdout):
    """The run's result line as a dict, with its exit status under "exit"."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        result = {}
    result["exit"] = returncode
    return result


def run_problem(run):
    """Why a run does not count, or None when it does."""
    if run["exit"] != 0:
        return "exit %d" % run["exit"]
    if "metrics" not in run:
        return "no result line"
    if run.get("correct") is not True:
        return "correct: false"
    if run.get("failed", 0) > 0:
        return "%d failed" % run["failed"]
    return None


def metric(run, name):
    entry = run["metrics"].get(name)
    return None if entry is None else entry["value"]


def adverse(base, change, better):
    """Relative move of change against base, positive when it is worse."""
    move = (change - base) / base if base else 0.0
    return move if better == "lower" else -move


def compare_end_to_end(end_to_end, workload, base_runs, change_runs):
    """One row per end-to-end metric of one workload's untraced runs."""
    rows = []
    for spec in end_to_end:
        name, bound, better = spec["name"], spec["bound"], spec["better"]
        base = [metric(run, name) for run in base_runs]
        change = [metric(run, name) for run in change_runs]
        if None in base or None in change:
            rows.append((workload, name, None, None, None, "MISSING"))
            continue
        base_median = statistics.median(base)
        change_median = statistics.median(change)
        quartiles = statistics.quantiles(base, n=4, method="inclusive")
        spread = ((quartiles[2] - quartiles[0]) / base_median
                  if base_median else 0.0)
        every_run_better = all(adverse(b, c, better) < 0
                               for b in base for c in change)
        if spread > bound and not every_run_better:
            verdict = "unresolved"
        elif adverse(base_median, change_median, better) > bound:
            verdict = "WORSE"
        else:
            verdict = "ok"
        rows.append((workload, name, base_median, change_median, spread,
                     verdict))
    return rows


def compare_counters(workload, base_run, change_run, rebaselined=False):
    """One row per exact counter and exact output of one workload's traced
    runs; `rebaselined` says the goldens differ between the trees."""
    rows = []
    for name in COUNTERS_NOT_RISING.get(workload, ()):
        base, change = metric(base_run, name), metric(change_run, name)
        if base is None or change is None:
            verdict = "MISSING"
        else:
            verdict = ("WORSE" if change > base else
                       "equal" if change == base else "lower")
        rows.append((workload, name, base, change, None, verdict))
    for name in FLAGS_MUST_BE_ONE.get(workload, ()):
        base, change = metric(base_run, name), metric(change_run, name)
        verdict = ("WORSE" if change != 1 else
                   "equal" if base == 1 else "ok")
        rows.append((workload, name, base, change, None, verdict))
    for name in OUTPUTS_EQUAL.get(workload, ()):
        base, change = metric(base_run, name), metric(change_run, name)
        if base is None or change is None:
            verdict = "MISSING"
        elif change == base:
            verdict = "equal"
        else:
            verdict = REBASELINED if rebaselined else "CHANGED"
        rows.append((workload, name, base, change, None, verdict))
    return rows


def goldens_differ(base_tree, change_tree):
    """Whether tests/golden/ holds other file names or bytes in the trees."""
    def read(tree):
        root = os.path.join(tree, "tests", "golden")
        files = {}
        for folder, _, names in os.walk(root):
            for name in names:
                path = os.path.join(folder, name)
                with open(path, "rb") as f:
                    files[os.path.relpath(path, root)] = f.read()
        return files
    return read(base_tree) != read(change_tree)


def compare(end_to_end, base, change, rebaselined=False):
    """Rows (workload, metric, base, change, spread, verdict) for two sides.

    Each side maps a workload to {"runs": [untraced run per seed], "traced":
    run}, every run a parse_run() dict; "traced" is there only for workloads
    in TRACED.  A failed run gets a FAILED row, and the workload's
    comparisons are left out.  `rebaselined` says the goldens differ between
    the trees, so an exact output may move.
    """
    rows = []
    for workload in base:
        failures = []
        for name, side in (("base", base[workload]),
                           ("change", change[workload])):
            labelled = [("seed %d" % seed, run)
                        for seed, run in zip(SEEDS, side["runs"])]
            if "traced" in side:
                labelled.append(("traced", side["traced"]))
            for label, run in labelled:
                problem = run_problem(run)
                if problem:
                    failures.append((workload, name + " " + label, None,
                                     problem, None, "FAILED"))
        if failures:
            rows += failures
            continue
        rows += compare_end_to_end(end_to_end, workload,
                                   base[workload]["runs"],
                                   change[workload]["runs"])
        if workload in TRACED:
            rows += compare_counters(workload, base[workload]["traced"],
                                     change[workload]["traced"], rebaselined)
    return rows


def layer_deltas(benchmark, rows, base, change):
    """Rows (workload, metric, base, change, delta, exact) naming the moved
    layers.

    For every workload with a WORSE or unresolved end-to-end row and a traced
    pair on both sides: each BENCHMARK.json per_layer metric that both traced
    runs report, with its relative delta (change - base) / |base|.  `exact`
    is true for a metric whose unit is in EXACT_UNITS.  Exact rows come
    first; within each group rows are sorted by the size of the delta,
    largest first.  A metric reading 0 on both sides belongs to a layer the
    workload does not run and is left out.
    """
    end_to_end = {spec["name"] for spec in benchmark["end_to_end"]}
    flagged = []
    for workload, name, _, _, _, verdict in rows:
        if (name in end_to_end and verdict in ("WORSE", "unresolved")
                and workload not in flagged):
            flagged.append(workload)
    out = []
    for workload in flagged:
        base_run = base[workload].get("traced")
        change_run = change[workload].get("traced")
        if base_run is None or change_run is None:
            continue
        layer = []
        for spec in benchmark["per_layer"]:
            b = metric(base_run, spec["name"])
            c = metric(change_run, spec["name"])
            if b is None or c is None or b == c == 0:
                continue
            delta = (c - b) / abs(b) if b else math.copysign(math.inf, c)
            exact = spec.get("unit") in EXACT_UNITS
            layer.append((workload, spec["name"], b, c, delta, exact))
        layer.sort(key=lambda row: (not row[5], -abs(row[4])))
        out += layer
    return out


def passed(rows):
    return not any(row[5] in ("WORSE", "CHANGED", "FAILED", "MISSING")
                   for row in rows)


def format_row(row):
    workload, name, base, change, spread, verdict = row
    # Exact outputs print every digit, so a one-ulp move shows.
    exact = name in OUTPUTS_EQUAL.get(workload, ())

    def cell(value, form="%.17g" if exact else "%.6g"):
        if value is None:
            return "-"
        return form % value if isinstance(value, (int, float)) else value
    return "%-11s %-20s base %-12s change %-14s spread %-6s %s" % (
        workload, name, cell(base), cell(change), cell(spread, "%.3f"),
        verdict)


def format_layer_row(row):
    workload, name, base, change, delta, exact = row
    return "%-11s %-32s base %-12.6g change %-12.6g %+.1f%%%s" % (
        workload, name, base, change, 100.0 * delta,
        "" if exact else " (one traced run)")


def run(command, side, tree, workload, seed, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(SECONDS), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True)
    result = parse_run(done.returncode, done.stdout)
    problem = run_problem(result)
    print("perf_gate: %s %s seed %d trace %d: %.0f s%s" % (
        side, workload, seed, trace,
        time.monotonic() - started, ", " + problem if problem else ""),
        file=sys.stderr, flush=True)
    if problem:
        sys.stderr.write(done.stdout)
    return result


def main(argv):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if len(argv) != 2:
        print("usage: perf_gate.py BASE_DIR", file=sys.stderr)
        return 2
    base_tree = os.path.abspath(argv[1])
    with open(os.path.join(here, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    command = benchmark["command"]
    if not os.path.isfile(os.path.join(base_tree, command[-1])):
        print("perf_gate: %s has no %s" % (base_tree, command[-1]),
              file=sys.stderr)
        return 2

    sides = {"base": base_tree, "change": here}
    results = {side: {} for side in sides}
    for workload in (w["name"] for w in benchmark["workloads"]):
        for side in sides:
            results[side][workload] = {"runs": []}
        for seed in SEEDS:
            order = ("base", "change") if seed % 2 else ("change", "base")
            for side in order:
                results[side][workload]["runs"].append(
                    run(command, side, sides[side], workload, seed, 0))
        if workload in TRACED:
            for side in sides:
                results[side][workload]["traced"] = run(
                    command, side, sides[side], workload, 1, 1)

    rows = compare(benchmark["end_to_end"], results["base"],
                   results["change"], goldens_differ(base_tree, here))
    for row in rows:
        print(format_row(row))
    layers = layer_deltas(benchmark, rows, results["base"], results["change"])
    if layers:
        print("per-layer deltas of the traced seed-1 pair:")
        for row in layers:
            print(format_layer_row(row))
    ok = passed(rows)
    print("perf gate: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
