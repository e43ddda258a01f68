#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Runs every workload at tiny size through perfbench/run.py (which
builds the binary first) and checks the output contract, that a
corrupted bitstream fails the run, that one seed reproduces its
bytes, that compare.py refuses results from different environments,
and that run.py refuses a tree without library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCH = json.load(handle)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def tiny(workload, trace, *extra, seed=5):
    return run_bench("--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace), "--tiny",
                     *extra)


def last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkContract(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = tiny(workload, trace)
                    self.assertEqual(done.returncode, 0,
                                     done.stdout[-2000:] + done.stderr[-2000:])
                    result = last_json(done)
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in BENCH[group]}
                    printed = {name: metric["unit"] for name, metric
                               in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))

    def test_corrupted_bitstream_fails_the_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = tiny(workload, 0, "--corrupt")
                self.assertNotEqual(done.returncode, 0)
                self.assertFalse(last_json(done)["correct"])

    def test_one_seed_reproduces_its_bytes(self):
        digests = []
        for _ in range(2):
            self.assertEqual(tiny("paper-v1", 0, seed=7).returncode, 0)
            with open(os.path.join(ROOT, ".bench_out",
                                   "paper-v1-seed7.json")) as handle:
                digests.append(json.load(handle)["digests"])
        self.assertEqual(digests[0], digests[1])


class Tools(unittest.TestCase):
    def test_compare_refuses_different_environments(self):
        env = {"workload": "paper-v1", "seed": "1", "seconds": "12",
               "trace": "0", "scale": "paper", "nproc": "4",
               "pool_threads": "4", "simd": "avx2", "compiler": "12.2.0",
               "build_type": "RelWithDebInfo", "commit": "a",
               "source_digest": "b"}
        result = {"env": env, "correct": True, "attempted": 1, "failed": 0,
                  "check_failures": [],
                  "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
        other = json.loads(json.dumps(result))
        other["env"]["simd"] = "scalar"
        other["metrics"]["setup_s"]["value"] = 2.0
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, data in (("a.json", result), ("b.json", other)):
                paths.append(os.path.join(tmp, name))
                with open(paths[-1], "w") as handle:
                    json.dump(data, handle)
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py"), *paths],
                capture_output=True, text=True)
        self.assertEqual(done.returncode, 3)
        self.assertIn("simd", done.stdout)
        self.assertNotIn("%", done.stdout)

    def test_refuses_a_tree_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("--workload", "paper-v1", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
