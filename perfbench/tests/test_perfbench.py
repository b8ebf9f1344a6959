#!/usr/bin/env python3
"""Self-tests of the benchmark (run from the source tree's root):

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark, then checks that every metric the program can
print is declared in BENCHMARK.json with the same unit and vice versa,
that BENCHMARK.json keeps to the benchmark contract's shape, and runs
the C++ self-tests (quantile helper, seeded schedule, catalogue).
"""

import json
import os
import re
import subprocess
import sys
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(TESTS_DIR))

import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJsonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build(["vdce_perfbench", "perfbench_selftest"])
        listing = subprocess.run(
            [os.path.join(cls.out, "vdce_perfbench"), "--list-metrics"],
            check=True, capture_output=True, text=True).stdout
        cls.printed = {"workload": {}, "end_to_end": {}, "per_layer": {}}
        for line in listing.splitlines():
            kind, name, unit = line.split()
            cls.printed[kind][name] = unit

    def test_printed_metrics_are_declared_and_vice_versa(self):
        spec = load_spec()
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[kind]}
            self.assertEqual(self.printed[kind], declared, kind)

    def test_contract_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
            self.assertLessEqual(m["bound"], e2e["setup_s"]["bound"])
            self.assertRegex(m["unit"], UNIT)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)

    def test_workloads_are_the_programs(self):
        spec = load_spec()
        self.assertEqual(sorted(self.printed["workload"]),
                         sorted(w["name"] for w in spec["workloads"]))

    def test_cpp_self_tests(self):
        subprocess.run([os.path.join(self.out, "perfbench_selftest")],
                       check=True)


if __name__ == "__main__":
    unittest.main()
