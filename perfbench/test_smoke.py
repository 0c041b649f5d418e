#!/usr/bin/env python3
"""Self-test of the benchmark at smoke sizes (seconds per run).

    python3 perfbench/test_smoke.py

Checks that every workload, traced and untraced, emits each metric that
BENCHMARK.json declares with the declared unit, that its correctness checks
ran and passed, and that the benchmark refuses to run without the source
tree beside it.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "5",
         "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("run.py failed: " + proc.stderr[-3000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = os.path.join(ROOT, ".bench_out", "%s-seed5-trace%d-smoke" % (
        workload, trace), "record.json")
    with open(record_path) as f:
        return result, json.load(f)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        result, record = run_smoke(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], record["checks"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], float, m["name"])
        self.assertTrue(record["checks"])
        self.assertTrue(all(c["ok"] for c in record["checks"]))
        for key in ("nproc", "cpu_model", "compiler", "build_type",
                    "git_commit", "source_sha256"):
            self.assertIn(key, record["machine"])
        return record

    def test_detect(self):
        for trace in (0, 1):
            record = self.check("detect", trace)
            names = [c["check"] for c in record["checks"]]
            self.assertIn("scores identical at widths 1 and 4", names)

    def test_stream(self):
        for trace in (0, 1):
            record = self.check("stream", trace)
            names = [c["check"] for c in record["checks"]]
            self.assertIn("replayed scores == engine scores", names)
            if trace:
                self.assertIn("engine stages <= client latency", names)
                self.assertTrue(record["steps"])

    def test_refuses_without_sources(self):
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        with tempfile.TemporaryDirectory(
                dir=os.path.join(ROOT, ".bench_out")) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "stream",
                 "--seed", "1", "--seconds", "2", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
