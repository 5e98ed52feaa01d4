"""Tests of the repository benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

Run from the root of a checkout; the first test builds the benchmark (as
perfbench/run.py does). The smoke-sized runs take about a minute in all.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def setUpModule():
    run.build()


def binary(*args):
    return subprocess.run([run.BINARY, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)


def ops(workload, seed):
    done = binary("--workload", workload, "--seed", str(seed), "--print-ops")
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def run_py(workload, trace, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(PERFBENCH, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


class OperationLists(unittest.TestCase):
    def test_same_seed_same_list_and_other_seed_other_list(self):
        for workload in ("sort_mix", "serve_mix"):
            with self.subTest(workload=workload):
                first = ops(workload, 1)
                self.assertGreaterEqual(len(first), 40)
                self.assertEqual(first, ops(workload, 1))
                self.assertNotEqual(first, ops(workload, 2))

    def test_seed_reorders_a_fixed_multiset(self):
        # The seed draws the order, not the mix, so every seed does the
        # same amount of work.
        def kinds(workload, seed):
            return sorted(line.split(" data=")[0].split('"id"')[0]
                          for line in ops(workload, seed))
        self.assertEqual(kinds("sort_mix", 1), kinds("sort_mix", 2))

    def test_synth_all_is_one_fixed_operation(self):
        # The find-all run has no input to draw: the same list every seed.
        self.assertEqual(ops("synth_all", 1), ops("synth_all", 2))
        self.assertEqual(len(ops("synth_all", 1)), 1)


class Checkers(unittest.TestCase):
    def test_checkers_reject_wrong_outputs(self):
        done = binary("--self-test", "--kernels-dir",
                      os.path.join(ROOT, "kernels_prebuilt"))
        self.assertEqual(done.returncode, 0, done.stdout)
        out = done.stdout
        for case in ("kernel: last instr dropped", "sort: two elements swapped",
                     "keyval: payloads left their keys",
                     "select: wrong element at rank",
                     "topk: top two out of order",
                     "reply: forged wrong kernel", "reply: rejected"):
            line = next(l for l in out.splitlines() if l.startswith(case))
            self.assertIn("rejected", line)
        self.assertIn("self-test: ok", out)


class SmokeRuns(unittest.TestCase):
    def check_result(self, workload, trace):
        done = run_py(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        section = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in section})
        for m in section:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        return result, done.stdout

    def test_every_workload_emits_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = self.check_result(workload, 0)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_every_workload_emits_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, out = self.check_result(workload, 1)
                self.assertIn("tracing overhead", out)
                metrics = result["metrics"]
                self.assertEqual(metrics["cache.bad_entries"]["value"], 0)
                if workload == "sort_mix":
                    # sort_mix makes no call into search or the service:
                    # their metrics show the bypass as 0.
                    for name in ("search.states_generated", "tables.build_ms",
                                 "search.synth_ms_p50", "service.hit_us_p50"):
                        self.assertEqual(metrics[name]["value"], 0, name)
                    self.assertGreater(
                        metrics["sortlib.quicksort_ns_per_elem"]["value"], 0)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(PERFBENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_py("sort_mix", 0, cwd=bare,
                          script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
