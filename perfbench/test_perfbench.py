#!/usr/bin/env python3
"""The benchmark's own checks.  Run from the root of the repository:

    python3 perfbench/test_perfbench.py

Each test runs perfbench/run.py for a short window (about a minute in
all, most of it the adhoc_joins and serve_43 windows).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

RUN = os.path.join("perfbench", "run.py")
OUT = os.path.join(".bench_build", "perfbench-out")


def run(*args, cwd="."):
    return subprocess.run([sys.executable, RUN, *args], capture_output=True,
                          text=True, cwd=cwd, timeout=900)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class PerfbenchTest(unittest.TestCase):
    def test_corrupted_reference_digest_is_caught(self):
        done = run("--workload", "adhoc_joins", "--seed", "1", "--seconds", "1",
                   "--trace", "0", "--corrupt-reference")
        self.assertNotEqual(done.returncode, 0, done.stdout)
        result = last_json(done.stdout)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("digest mismatches: 1 of", done.stdout)

    def test_traced_spans_account_for_request_time(self):
        done = run("--workload", "serve_43", "--seed", "2", "--seconds", "1",
                   "--trace", "1")
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        metrics = last_json(done.stdout)["metrics"]
        with open(os.path.join(OUT, "serve_43-seed2-trace1-spans.json")) as f:
            spans = json.load(f)["spans"]
        # Recompute the reducer's result independently: self time of a
        # request root = its duration minus the union of its children.
        children = {}
        for s in spans:
            children.setdefault(s["parent"], []).append(s)
        total = unattributed = 0
        for root in (s for s in spans if s["parent"] < 0 and s["name"] == "request"):
            kids = sorted((c["start_ns"], c["end_ns"]) for c in children.get(root["id"], []))
            covered, end = 0, root["start_ns"]
            for a, b in kids:
                a, b = max(a, end), min(b, root["end_ns"])
                if b > a:
                    covered += b - a
                    end = b
            total += root["end_ns"] - root["start_ns"]
            unattributed += root["end_ns"] - root["start_ns"] - covered
            self.assertTrue({c["rid"] for c in children.get(root["id"], [])} <= {root["rid"]})
        self.assertGreater(total, 0)
        self.assertAlmostEqual(metrics["trace.unattributed_share"]["value"],
                               unattributed / total, places=9)
        self.assertLess(unattributed / total, 0.10)

    def test_tree_without_sources_fails_without_a_result(self):
        bare = os.path.join(".bench_build", "bare-tree")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
        shutil.copy("BENCHMARK.json", bare)
        try:
            done = run("--workload", "serve_43", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
