#!/usr/bin/env python3
"""The benchmark's own determinism test.

    python3 perfbench/test_perfbench.py

Runs every workload briefly (--quick) under the event engine and the
lockstep engine (BLUESCALE_LOCKSTEP=1), and at 1 and 4 sweep threads, and
asserts that the output digest and every modelled metric are identical,
and that each run reports correct outputs and no failed operation.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build helper)

CONFIGS = (
    ("event, 1 thread", {}, 1),
    ("lockstep, 1 thread", {"BLUESCALE_LOCKSTEP": "1"}, 1),
    ("event, 4 threads", {}, 4),
)


def quick_run(binary, workload, env_extra, threads, seed=7):
    env = dict(os.environ)
    env.pop("BLUESCALE_LOCKSTEP", None)
    env.update(env_extra)
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--quick",
         "--threads", str(threads)],
        stdout=subprocess.PIPE, env=env, text=True, check=True,
        timeout=run.RUN_TIMEOUT_S).stdout.splitlines()
    # "# digest" and "# model" lines are the deterministic outputs.
    outputs = [l for l in out if l.startswith(("# digest", "# model"))]
    return outputs, json.loads(out[-1])


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def check_workload(self, workload):
        reference = None
        for name, env, threads in CONFIGS:
            with self.subTest(config=name):
                outputs, result = quick_run(self.binary, workload, env,
                                            threads)
                self.assertTrue(result["correct"], result)
                self.assertEqual(result["failed"], 0, result)
                self.assertGreater(result["attempted"], 0, result)
                self.assertTrue(any(l.startswith("# digest")
                                    for l in outputs))
                if reference is None:
                    reference = outputs
                else:
                    self.assertEqual(outputs, reference)

    def test_fig6_dense_64(self):
        self.check_workload("fig6-dense-64")

    def test_deep_light_256(self):
        self.check_workload("deep-light-256")

    def test_admission_d4(self):
        self.check_workload("admission-d4")

    def test_seed_changes_inputs(self):
        a, _ = quick_run(self.binary, "admission-d4", {}, 1, seed=7)
        b, _ = quick_run(self.binary, "admission-d4", {}, 1, seed=8)
        self.assertNotEqual(a, b)


if __name__ == "__main__":
    unittest.main()
