#!/usr/bin/env python3
"""Tests of run.py: names, the metric arithmetic, the coverage check, the
seed pool and the source digest's file selection. Runs without building
anything:

    python3 e2ebench/test_run.py
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def fake_result(run_s, setup_s, accesses, rss, metrics=None, calls=None):
    return {"run_s": run_s, "setup_s": setup_s, "accesses": accesses,
            "peak_rss_mb": rss, "metrics": metrics or {}, "calls": calls or {}}


class NamesTest(unittest.TestCase):
    def test_workloads_match_the_benchmark_file(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))
        self.assertEqual(sorted(run.COVERAGE), sorted(run.WORKLOADS))
        for name in names:
            self.assertRegex(name, run.NAME_RE)

    def test_end_to_end_metrics_match_the_benchmark_file(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END_UNITS)
        emitted = run.end_to_end([fake_result(1.0, 0.1, 10, 20)])
        self.assertEqual(set(emitted), set(declared))
        for name in emitted:
            self.assertRegex(name, run.NAME_RE)

    def test_per_layer_metrics_match_the_ledger(self):
        # Every name LedgerMetrics emits, plus run.py's trace overhead and
        # output file sizes.
        source = (run.HERE / "ledger.cc").read_text()
        ledger = re.findall(r'\{"([A-Za-z0-9_.-]+)",', source)
        declared = [m["name"] for m in BENCHMARK["per_layer"]]
        self.assertEqual(sorted(declared), sorted(
            ledger + list(run.FILE_METRICS) + ["ledger.trace_overhead"]))
        for name in declared:
            self.assertRegex(name, run.NAME_RE)

    def test_coverage_names_are_layers(self):
        source = (run.HERE / "ledger.cc").read_text()
        layers = set(re.findall(r'return "([a-z_.]+)";', source))
        layers.add("mrc.recompute")
        for expectation in run.COVERAGE.values():
            for name in expectation["hit"] + expectation["bypass"]:
                self.assertIn(name, layers)


class ArithmeticTest(unittest.TestCase):
    def test_end_to_end_reports_medians(self):
        results = [fake_result(1.0, 0.2, 100, 30),
                   fake_result(2.0, 0.1, 100, 10),
                   fake_result(4.0, 0.3, 100, 20)]
        m = run.end_to_end(results)
        self.assertEqual(m["run_s"]["value"], 2.0)
        self.assertEqual(m["setup_s"]["value"], 0.2)
        self.assertEqual(m["accesses_per_s"]["value"], 50.0)
        self.assertEqual(m["peak_rss_mb"]["value"], 20)

    def test_trace_overhead_is_the_median_paired_ratio(self):
        def traced(run_s, closure):
            return fake_result(run_s, 0, 0, 0, metrics={
                "ledger.closure": {"value": closure, "unit": "ratio"}})
        pairs = [(fake_result(1.0, 0, 0, 0), traced(1.1, 0.98)),
                 (fake_result(2.0, 0, 0, 0), traced(2.4, 1.0)),
                 (fake_result(1.0, 0, 0, 0), traced(1.3, 0.99))]
        m = run.per_layer([t for _, t in pairs], pairs)
        self.assertAlmostEqual(m["ledger.trace_overhead"]["value"], 1.2)
        self.assertEqual(m["ledger.closure"]["value"], 0.99)


class CoverageTest(unittest.TestCase):
    def check(self, name, calls):
        w = run.Workload.__new__(run.Workload)
        w.name = name
        layers = {k: 1 for k in run.COVERAGE[name]["hit"]}
        layers.update({k: 0 for k in run.COVERAGE[name]["bypass"]})
        layers.update(calls)
        return w.covered(fake_result(1, 0, 5, 0, calls=layers))

    def test_predicted_calls_pass(self):
        for name in run.WORKLOADS:
            self.assertTrue(self.check(name, {}))

    def test_bypassed_generation_on_replay_is_required(self):
        self.assertFalse(self.check("replay", {"workload": 3}))

    def test_missing_diagnosis_on_tier_thrash_fails(self):
        self.assertFalse(self.check("tier-thrash", {"mrc.diagnose": 0}))

    def test_diagnosis_on_overload_fails(self):
        self.assertFalse(self.check("overload", {"mrc.diagnose": 1}))

    def test_capture_writes_on_overload_fail(self):
        self.assertFalse(self.check("overload", {"replay.write": 2}))


class SeedPoolTest(unittest.TestCase):
    def test_every_seed_covers_the_pool_in_a_fixed_order(self):
        for seed in range(10):
            order = run.pool_order(seed)
            self.assertEqual(sorted(order), sorted(run.SIM_SEEDS))
            self.assertEqual(order, run.pool_order(seed))
        self.assertNotEqual(run.pool_order(0), run.pool_order(1))


class SourceIdentityTest(unittest.TestCase):
    def test_leftovers_are_not_sources(self):
        self.assertTrue(run.is_source(run.HERE / "run.py"))
        self.assertTrue(run.is_source(run.ROOT / "src" / "sim" / "a.cc"))
        self.assertFalse(run.is_source(run.HERE / "__pycache__" / "run.pyc"))
        self.assertFalse(run.is_source(run.HERE / ".bench_build" / "x"))

    def test_toolchain_mismatch_is_named(self):
        self.assertEqual(run.toolchain_note("GNU 12.2.0", "GNU 12.2.0"), "")
        self.assertIn("GNU 13.1.0",
                      run.toolchain_note("GNU 12.2.0", "GNU 13.1.0"))


if __name__ == "__main__":
    unittest.main()
