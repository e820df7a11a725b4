#!/usr/bin/env python3
"""Smoke test of the zbench benchmark.

Runs every workload at --tiny size, untraced and traced, through run.py and
checks the result line against BENCHMARK.json: its keys, the metric names
and units, and that every output check passed.  Also checks the watchdog,
the span file of traced runs, and that a directory holding only the
benchmark files fails without printing a result.  From the repository root:

    python3 zbench/test_smoke.py
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("zbench", "run.py")
BUILD = os.path.abspath(os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra, cwd=ROOT, env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "5",
           "--seconds", "0.2", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert lines, "no output"
    return json.loads(lines[-1])


class Schema(unittest.TestCase):
    def check_result(self, res, metrics):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIs(res["correct"], True)
        self.assertEqual(res["failed"], 0)
        self.assertIsInstance(res["attempted"], int)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in metrics])
        for m in metrics:
            got = res["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res = result_of(run(w["name"], 0))
                self.check_result(res, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0,
                                       m["name"])

    def test_every_workload_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res = result_of(run(w["name"], 1))
                self.check_result(res, SPEC["per_layer"])
                self.assertGreater(res["metrics"]["trace.wall_s"]["value"], 0)
                spans = os.path.join(BUILD, "spans",
                                     w["name"] + ".spans.jsonl")
                with open(spans) as f:
                    rows = [json.loads(line) for line in f]
                self.assertGreater(len(rows), 1)
                ids = {r["id"] for r in rows}
                for r in rows:
                    self.assertEqual(set(r), {"id", "name", "start_s", "end_s",
                                              "parent"})
                    self.assertLessEqual(r["start_s"], r["end_s"])
                    self.assertTrue(r["parent"] == 0 or r["parent"] in ids)


class Watchdog(unittest.TestCase):
    def test_hang_is_a_failed_run(self):
        res = result_of(run("serve_mix", 0, "--watchdog-s", "0.01"))
        self.assertIs(res["correct"], False)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], res["attempted"])
        self.assertEqual(list(res["metrics"]),
                         [m["name"] for m in SPEC["end_to_end"]])


class BenchmarkFilesOnly(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = os.path.join(BUILD, "smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        try:
            proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare, env=env)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
