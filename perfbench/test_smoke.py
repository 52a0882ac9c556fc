#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, must pass every output check and report exactly the metrics
BENCHMARK.json lists, with their units.

    python3 perfbench/test_smoke.py        # from the root of a checkout
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fanout256", "chat2k", "codegen-pd", "gateway-sse")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return done


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertNotIn("FAILED", done.stdout)
        self.assertTrue(result["correct"], done.stdout[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return result, done.stdout

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, out = self.check(w, 0)
                self.assertIn("requests: sent", out)
                self.assertIn("percentile samples", out)

    def test_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, out = self.check(w, 1)
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreater(metrics["trace.run_s"], 0)
                # The program's layers (the benchmark's residual left out)
                # cover nearly all of every traced run, and never more.
                sums = [line for line in out.splitlines() if line.startswith("sum ")]
                self.assertTrue(sums, out[-2000:])
                for line in sums:
                    share = float(line.split()[2].rstrip("%"))
                    self.assertGreaterEqual(share, 90.0, line)
                    self.assertLessEqual(share, 100.0, line)
                residuals = [line for line in out.splitlines() if "(residual:" in line]
                self.assertEqual(len(residuals), len(sums), out[-2000:])
                # Every Chrome trace the run names is trace-event JSON.
                traces = [p.strip().rstrip(",") for line in out.splitlines()
                          if line.startswith("chrome trace") for p in line.split(":", 1)[1].split(", ")]
                self.assertTrue(traces, out[-2000:])
                for path in traces:
                    with open(os.path.join(ROOT, path)) as f:
                        events = json.load(f)["traceEvents"]
                    spans = [e for e in events if e["ph"] == "X"]
                    self.assertTrue(spans, path)
                    for e in spans:
                        self.assertGreaterEqual(e["dur"], 0)
                        self.assertIn("ts", e)
                        self.assertIn("tid", e)
                # Only the P/D workload migrates KV.
                if w == "codegen-pd":
                    self.assertGreater(metrics["sim.kv_migrations"], 0)
                else:
                    self.assertEqual(metrics["sim.kv_migrations"], 0)
                if w == "chat2k":
                    self.assertEqual(metrics["rtc.hit_share"], 0)

    def test_outside_a_checkout_fails_without_a_result(self):
        import shutil
        import tempfile
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "target", "__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "chat2k", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
