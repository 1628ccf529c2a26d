"""Smoke self-test of the benchmark: each workload at a tiny size.

    python3 perfbench/selftest.py

Checks the metric names and units against BENCHMARK.json, that a wrong
expected value is counted as a failure, that output digests repeat, that
tracing reports a missing name as absent, and the command-line contract
(last line of stdout; non-zero exit without the package source).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402

bench._import_package()

import poincount  # noqa: E402
from perfbench import jobs, tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
TABULATED_SIGMA5 = [0, 1, 1, 0, 1, 1, 1, 1]


def _units(final: dict) -> dict:
    return {name: metric["unit"] for name, metric in final["metrics"].items()}


class SelfTest(unittest.TestCase):
    def test_workload_names_match_the_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(jobs.WORKLOADS))

    def test_every_workload_reports_every_metric(self):
        for workload in jobs.WORKLOADS:
            with self.subTest(workload=workload):
                plain = bench.run(workload, 3, 0, trace=False, size="tiny")["final"]
                self.assertTrue(plain["correct"], plain)
                self.assertEqual(plain["failed"], 0)
                self.assertEqual(_units(plain), END_TO_END)
                self.assertTrue(all(m["value"] > 0 for m in plain["metrics"].values()))
                traced = bench.run(workload, 3, 0, trace=True, size="tiny")
                self.assertTrue(traced["final"]["correct"], traced["final"])
                self.assertEqual(_units(traced["final"]), PER_LAYER)
                self.assertEqual(traced["details"]["trace"]["absent"], [])

    def test_wrong_expected_value_counts_in_fail_ratio(self):
        saved = jobs.EXPECTED_STRATA_H["sigma5"]
        jobs.EXPECTED_STRATA_H["sigma5"] = TABULATED_SIGMA5
        try:
            result = bench.run("strata-demo", 3, 0, trace=False, size="tiny")
        finally:
            jobs.EXPECTED_STRATA_H["sigma5"] = saved
        final, details = result["final"], result["details"]
        self.assertFalse(final["correct"])
        self.assertEqual(final["failed"], final["attempted"])
        self.assertEqual(details["fail_ratio"], 1.0)
        self.assertIn("sigma5", details["failures"][0]["reason"])

    def test_digests_repeat_for_a_seed(self):
        first = bench.run("analyze-series", 5, 0, trace=False, size="tiny")["details"]
        again = bench.run("analyze-series", 5, 0, trace=False, size="tiny")["details"]
        other = bench.run("analyze-series", 6, 0, trace=False, size="tiny")["details"]
        self.assertEqual(first["digests"], again["digests"])
        self.assertNotEqual(first["digest"], other["digest"])

    def test_missing_names_are_absent_and_patches_restore(self):
        original = poincount.hilbert.gf_from_hilbert
        targets = tracer.TARGETS + (
            tracer.Target("jetflow.gone", "poincount.jetflow", "no_such_function"),
            tracer.Target("jetflow.gone_method", "poincount.jetflow", "NoSuchClass.method"),
        )
        patches = tracer.Patches(tracer.Tracer(), targets)
        try:
            self.assertEqual(patches.absent, ["jetflow.gone", "jetflow.gone_method"])
            self.assertEqual(len(patches.bound_in["hilbert.gf_from_hilbert"]), 5)
            self.assertIsNot(poincount.catalog.gf_from_hilbert, original)
        finally:
            patches.restore()
        for module in (poincount, poincount.hilbert, poincount.catalog, poincount.cli, poincount.jetflow):
            self.assertIs(module.gf_from_hilbert, original)

    def test_command_line_contract(self):
        argv = [sys.executable, "perfbench/run.py", "--workload", "catalog-verify",
                "--seed", "1", "--seconds", "0", "--trace", "0", "--size", "tiny"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        final = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(final), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(final["correct"])

    def test_fails_without_the_package_source(self):
        bare = bench.RESULTS / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (bare / "perfbench").mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in (ROOT / "perfbench").glob("*.py"):
                shutil.copy(path, bare / "perfbench")
            argv = [sys.executable, "perfbench/run.py", "--workload", "catalog-verify",
                    "--seed", "1", "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
