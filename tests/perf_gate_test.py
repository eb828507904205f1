#!/usr/bin/env python3
"""Checks tools/perf_gate.py's verdicts on canned perfbench results."""
import contextlib
import importlib.util
import io
import json
import math
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "tools", "perf_gate.py")
_SPEC = importlib.util.spec_from_file_location("perf_gate", _PATH)
perf_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_gate)

END_TO_END = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
]
PER_LAYER = [{"name": "sim.queue_ns_per_event"},
             {"name": "sim.stack_ns_per_event"},
             {"name": "sim.net_share"},
             {"name": "svc.capacity_rps"}]
BENCHMARK = {"end_to_end": END_TO_END, "per_layer": PER_LAYER}
COUNTERS = {"sim.events": 771402, "alloc.per_event": 14.87859508,
            "alloc.exact_repeat": 1}


def result(metrics, correct=True, failed=0):
    line = json.dumps({"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": {name: {"value": value, "unit": "-"}
                                   for name, value in metrics.items()}})
    return perf_gate.parse_run(0, "machine {}\n" + line + "\n")


def side(walls, counters=COUNTERS):
    """scale_1024 runs with the given wall_s per seed and one traced run."""
    return {"scale_1024": {
        "runs": [result({"wall_s": w, "ops_per_s": 100.0 / w}) for w in walls],
        "traced": result(counters),
    }}


def grid_side(mean_error):
    """paper_grid runs and one traced run reporting `mean_error`."""
    return {"paper_grid": {
        "runs": [result({"wall_s": w, "ops_per_s": 150.0 / w}) for w in TIGHT],
        "traced": result({"core.sim_runs": 570, "trace.events": 1000,
                          "skeleton.built": 30,
                          "core.mean_error_pct": mean_error}),
    }}


def verdicts(base, change, rebaselined=False):
    rows = perf_gate.compare(END_TO_END, base, change, rebaselined)
    return {row[1]: row[5] for row in rows}


def passes(base, change):
    return perf_gate.passed(perf_gate.compare(END_TO_END, base, change))


LATE = ("CHECK FAILED: run invalid: the open-loop generator ran 40 ms late "
        "at p99 (bound 25 ms)")

# A perfbench stand-in: its first N calls (N read from ./invalid_runs) print
# serve_mix's lateness note and an invalid result and exit 1, later calls a
# valid result.  It counts its calls in ./calls.
STUB = """
import json, sys
calls = int(open("calls").read())
open("calls", "w").write(str(calls + 1))
bad = calls < int(open("invalid_runs").read())
if bad:
    print(%r)
print(json.dumps({"correct": not bad, "attempted": 10, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}))
sys.exit(1 if bad else 0)
""" % LATE

TIGHT = [2.0, 2.02, 1.98, 2.01, 1.99]
WIDE = [2.0, 1.4, 2.6, 1.5, 2.5]  # spread 0.5, wider than the 0.25 bound


class PerfGateTest(unittest.TestCase):
    def test_identical_sides_pass(self):
        got = verdicts(side(TIGHT), side(TIGHT))
        self.assertEqual(got, {"wall_s": "ok", "ops_per_s": "ok",
                               "sim.events": "equal",
                               "alloc.per_event": "equal",
                               "alloc.exact_repeat": "equal"})
        self.assertTrue(passes(side(TIGHT), side(TIGHT)))

    def test_slower_wall_with_tight_base_fails(self):
        slower = [w * 1.3 for w in TIGHT]
        self.assertEqual(verdicts(side(TIGHT), side(slower))["wall_s"],
                         "WORSE")
        self.assertFalse(passes(side(TIGHT), side(slower)))

    def test_slower_wall_with_wide_base_is_unresolved(self):
        slower = [w * 1.3 for w in WIDE]
        self.assertEqual(verdicts(side(WIDE), side(slower))["wall_s"],
                         "unresolved")
        self.assertTrue(passes(side(WIDE), side(slower)))

    def test_one_more_event_fails(self):
        more = dict(COUNTERS, **{"sim.events": COUNTERS["sim.events"] + 1})
        got = verdicts(side(TIGHT), side(TIGHT, more))
        self.assertEqual(got["sim.events"], "WORSE")
        self.assertFalse(passes(side(TIGHT), side(TIGHT, more)))

    def test_incorrect_change_run_fails(self):
        change = side(TIGHT)
        change["scale_1024"]["runs"][2] = result({"wall_s": 2.0},
                                                 correct=False)
        self.assertEqual(verdicts(side(TIGHT), change),
                         {"change seed 3": "FAILED"})
        self.assertFalse(passes(side(TIGHT), change))

    def test_allocation_count_that_did_not_repeat_fails(self):
        unrepeated = dict(COUNTERS, **{"alloc.exact_repeat": 0})
        got = verdicts(side(TIGHT), side(TIGHT, unrepeated))
        self.assertEqual(got["alloc.exact_repeat"], "WORSE")
        self.assertFalse(passes(side(TIGHT), side(TIGHT, unrepeated)))

    def test_moved_end_to_end_row_names_its_layers(self):
        base_layers = dict(COUNTERS, **{"sim.queue_ns_per_event": 10.0,
                                        "sim.stack_ns_per_event": 20.0,
                                        "svc.capacity_rps": 0})
        # sim.net_share only on the change side, sim.host_s not a layer
        # metric, svc.capacity_rps 0 on both sides: none is listed.
        change_layers = dict(COUNTERS, **{"sim.queue_ns_per_event": 15.0,
                                          "sim.stack_ns_per_event": 19.0,
                                          "sim.net_share": 0.5,
                                          "sim.host_s": 9.0,
                                          "svc.capacity_rps": 0})
        for base_walls in (TIGHT, WIDE):  # WORSE, then unresolved
            base = side(base_walls, base_layers)
            change = side([w * 1.3 for w in base_walls], change_layers)
            rows = perf_gate.compare(END_TO_END, base, change)
            got = perf_gate.layer_deltas(BENCHMARK, rows, base, change)
            self.assertEqual(
                [(row[1], row[2], row[3]) for row in got],
                [("sim.queue_ns_per_event", 10.0, 15.0),
                 ("sim.stack_ns_per_event", 20.0, 19.0)])
            self.assertAlmostEqual(got[0][4], 0.5)
            self.assertAlmostEqual(got[1][4], -0.05)
            self.assertIn("+50.0%", perf_gate.format_layer_row(got[0]))

    def test_layer_rows_from_one_traced_run_are_marked_and_listed_last(self):
        benchmark = {"end_to_end": END_TO_END, "per_layer": [
            {"name": "sim.host_s.fattree", "unit": "s"},
            {"name": "sim.net_share", "unit": "ratio"},
            {"name": "sim.events", "unit": "count"},
            {"name": "alloc.exact_repeat", "unit": "flag"}]}
        base = side(TIGHT, dict(COUNTERS, **{"sim.host_s.fattree": 0.18,
                                             "sim.net_share": 0.2}))
        # The exact rows move less than the timed ones and still come first.
        change = side([w * 1.3 for w in TIGHT],
                      dict(COUNTERS, **{"sim.host_s.fattree": 0.2034,
                                        "sim.net_share": 0.286,
                                        "sim.events": 771403,
                                        "alloc.exact_repeat": 0}))
        rows = perf_gate.compare(END_TO_END, base, change)
        got = perf_gate.layer_deltas(benchmark, rows, base, change)
        self.assertEqual([row[1] for row in got],
                         ["alloc.exact_repeat", "sim.events",
                          "sim.net_share", "sim.host_s.fattree"])
        lines = [perf_gate.format_layer_row(row) for row in got]
        for line in lines[:2]:
            self.assertNotIn("(one traced run)", line)
        for line in lines[2:]:
            self.assertTrue(line.endswith(" (one traced run)"), line)
        self.assertIn("+43.0%", lines[2])
        # Marking changes no verdict.
        self.assertEqual(verdicts(base, change)["wall_s"], "WORSE")

    def test_unmoved_end_to_end_rows_name_no_layer(self):
        base = side(TIGHT, dict(COUNTERS, **{"sim.net_share": 0.2}))
        change = side(TIGHT, dict(COUNTERS, **{"sim.net_share": 0.4}))
        rows = perf_gate.compare(END_TO_END, base, change)
        self.assertEqual(perf_gate.layer_deltas(BENCHMARK, rows, base, change),
                         [])

    def test_equal_mean_error_passes(self):
        got = verdicts(grid_side(7.7913), grid_side(7.7913))
        self.assertEqual(got["core.mean_error_pct"], "equal")
        self.assertTrue(perf_gate.passed(perf_gate.compare(
            END_TO_END, grid_side(7.7913), grid_side(7.7913))))

    def test_one_ulp_mean_error_move_fails(self):
        moved = math.nextafter(7.7913, math.inf)
        got = verdicts(grid_side(7.7913), grid_side(moved))
        self.assertEqual(got["core.mean_error_pct"], "CHANGED")
        rows = perf_gate.compare(END_TO_END, grid_side(7.7913),
                                 grid_side(moved))
        self.assertFalse(perf_gate.passed(rows))
        row = [r for r in rows if r[1] == "core.mean_error_pct"][0]
        self.assertIn("7.7913000000000006", perf_gate.format_row(row))

    def test_mean_error_move_with_rebaselined_goldens_passes(self):
        got = verdicts(grid_side(7.7913), grid_side(7.8173), True)
        self.assertEqual(got["core.mean_error_pct"],
                         "changed (goldens re-baselined)")
        self.assertTrue(perf_gate.passed(perf_gate.compare(
            END_TO_END, grid_side(7.7913), grid_side(7.8173), True)))

    def test_goldens_differ_compares_names_and_bytes(self):
        with tempfile.TemporaryDirectory() as base, \
                tempfile.TemporaryDirectory() as change:
            for tree in (base, change):
                os.makedirs(os.path.join(tree, "tests", "golden"))
                with open(os.path.join(tree, "tests", "golden", "a.txt"),
                          "w") as f:
                    f.write("table\n")
            self.assertFalse(perf_gate.goldens_differ(base, change))
            with open(os.path.join(change, "tests", "golden", "a.txt"),
                      "w") as f:
                f.write("table \n")
            self.assertTrue(perf_gate.goldens_differ(base, change))
            with open(os.path.join(change, "tests", "golden", "a.txt"),
                      "w") as f:
                f.write("table\n")
            with open(os.path.join(change, "tests", "golden", "b.txt"),
                      "w") as f:
                f.write("")
            self.assertTrue(perf_gate.goldens_differ(base, change))

    def test_run_without_result_line_fails(self):
        run = perf_gate.parse_run(2, "perfbench: build failed\n")
        self.assertEqual(perf_gate.run_problem(run), "exit 2")
        run = perf_gate.parse_run(0, "samples 1 2 3\n")
        self.assertEqual(perf_gate.run_problem(run), "no result line")
        self.assertEqual(perf_gate.run_problem(result({}, failed=3)),
                         "3 failed")

    def stub_run(self, invalid_runs):
        """perf_gate.run on the stub; returns (result, calls, stderr)."""
        with tempfile.TemporaryDirectory() as tree:
            with open(os.path.join(tree, "stub.py"), "w") as f:
                f.write(STUB)
            for name, value in (("calls", 0), ("invalid_runs", invalid_runs)):
                with open(os.path.join(tree, name), "w") as f:
                    f.write(str(value))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                run = perf_gate.run([sys.executable, "stub.py"], "base",
                                    tree, "serve_mix", 3, 0)
            with open(os.path.join(tree, "calls")) as f:
                return run, int(f.read()), err.getvalue()

    def test_invalid_run_is_rerun_on_the_same_seed(self):
        run, calls, err = self.stub_run(2)
        self.assertEqual(calls, 3)
        self.assertIsNone(perf_gate.run_problem(run))
        self.assertIn("base serve_mix seed 3 trace 0: rerun 1 of 2", err)
        self.assertIn("base serve_mix seed 3 trace 0: rerun 2 of 2", err)

    def test_run_still_invalid_after_two_reruns_fails(self):
        run, calls, err = self.stub_run(5)
        self.assertEqual(calls, 3)
        self.assertEqual(perf_gate.run_problem(run), "run invalid")
        self.assertEqual(err.count(": rerun "), 2)
        change = side(TIGHT)
        change["scale_1024"]["runs"][0] = run
        self.assertEqual(verdicts(side(TIGHT), change),
                         {"change seed 1": "FAILED"})

    def test_only_a_run_invalid_note_without_failures_is_rerun(self):
        line = json.dumps({"correct": False, "attempted": 10, "failed": 0,
                           "metrics": {}})
        late = perf_gate.parse_run(1, LATE + "\n" + line + "\n")
        self.assertTrue(perf_gate.invalid(late))
        # Another failed check, a failed operation, or no note at all: the
        # run is wrong, not unmeasured.
        lost = "CHECK FAILED: 1 open request(s) not answered exactly once"
        for stdout in (LATE + "\n" + lost + "\n" + line,
                       LATE + "\n" + line.replace('"failed": 0',
                                                   '"failed": 2'),
                       line):
            run = perf_gate.parse_run(1, stdout + "\n")
            self.assertFalse(perf_gate.invalid(run), stdout)
            self.assertNotEqual(perf_gate.run_problem(run), "run invalid")


if __name__ == "__main__":
    unittest.main()
