#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark, at a size that runs in seconds.

    python3 perfbench/test_perfbench.py        (from the repository root)

Runs every workload at --size self (a 0.05-scale trace, a fixed small amount
of work) traced and untraced, and fails if an output check, the span
reconciliation (coverage_ratio >= 0.9), the metric catalog or the
determinism of retrain_steady's feed breaks, so a broken oracle shows up
here instead of after a full run.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
WORKLOADS = ["serve_trained", "retrain_steady", "live_loop"]


def run(workload, seed=42, trace="0", cwd=ROOT, env=None):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", trace, "--size", "self"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    return done


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class PerfbenchSelfCheck(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def check_run(self, workload, trace, seed=42):
        done = run(workload, seed=seed, trace=trace)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = result_of(done)
        self.assertTrue(result["correct"], done.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        section = "per_layer" if trace == "1" else "end_to_end"
        expected = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        if trace == "0":
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        return result, done

    def test_untraced_workloads_pass_their_checks(self):
        for workload in WORKLOADS:
            for seed in (42, 7):
                with self.subTest(workload=workload, seed=seed):
                    self.check_run(workload, "0", seed=seed)

    def test_traced_workloads_reconcile(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = self.check_run(workload, "1")
                coverage = result["metrics"]["coverage_ratio"]["value"]
                if workload != "live_loop":
                    self.assertGreaterEqual(coverage, 0.9)
                self.assertGreater(result["metrics"]["trace.overhead_ratio"]
                                   ["value"], -1)

    def test_retrain_steady_feed_is_a_function_of_the_seed(self):
        def feed_sha1(seed):
            done = run("retrain_steady", seed=seed)
            self.assertEqual(done.returncode, 0, done.stderr[-3000:])
            match = re.search(r"final feed v\d+ sha1 ([0-9a-f]{40})",
                              done.stderr)
            self.assertIsNotNone(match, done.stderr[-3000:])
            return match.group(1)
        first = feed_sha1(42)
        self.assertEqual(first, feed_sha1(42))
        self.assertNotEqual(first, feed_sha1(7))

    def test_catalog_matches_benchmark_json(self):
        done = run("serve_trained")  # builds the binary if needed
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        if not build.is_absolute():
            build = ROOT / build
        listed = subprocess.run([str(build / "perfbench" / "e2e_bench"),
                                 "--list-metrics"], capture_output=True,
                                text=True, check=True).stdout.split("\n")
        catalog = {"end_to_end": {}, "per_layer": {}}
        for line in filter(None, listed):
            section, name, unit = line.split()
            catalog[section][name] = unit
        for section in catalog:
            self.assertEqual(
                catalog[section],
                {m["name"]: m["unit"] for m in self.spec[section]})

    def test_fails_without_the_program_sources(self):
        scratch = ROOT / ".bench_build" / "perfbench-isolated"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            shutil.copytree(HERE, scratch / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "serve_trained", "--seed", "1", "--seconds", "1"],
                cwd=scratch, env=env, capture_output=True, text=True,
                timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
