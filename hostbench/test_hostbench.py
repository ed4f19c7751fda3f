#!/usr/bin/env python3
"""Tests of the host-performance benchmark itself.

    python3 hostbench/test_hostbench.py

Builds hostbench the way run.py does, then checks that its
deterministic output repeats exactly, that the seed reaches the
serving workload's arrivals, that tracing leaves the documents
unchanged, and that malformed arguments exit 2 with a message.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BUILD_DIR = os.path.join(
    run.ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build(BUILD_DIR)


def sample(workload, seed, **kw):
    result, err = run.run_sample(BINARY, workload, seed, **kw)
    if err:
        raise AssertionError("%s seed %d: %s" % (workload, seed, err))
    return result


def deterministic(result):
    """Everything a sample reports that must not depend on the host."""
    return result["digest"], result["doc"], result["kernel"]


class Determinism(unittest.TestCase):
    def test_counters_repeat_across_invocations(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a, b = sample(w, 5), sample(w, 5)
                self.assertEqual(deterministic(a), deterministic(b))
                self.assertEqual(run.check_doc(w, a["doc"]), [])

    def test_seed_changes_serving_arrivals_and_digest(self):
        a, b = sample("serve_tp8", 1), sample("serve_tp8", 2)
        self.assertNotEqual(a["digest"], b["digest"])
        self.assertNotEqual(a["doc"]["ttft_p50_s"], b["doc"]["ttft_p50_s"])
        self.assertEqual(a["doc"]["params"]["seed"], 1)
        self.assertEqual(b["doc"]["params"]["seed"], 2)

    def test_tracing_leaves_output_unchanged(self):
        for w in ("serve_tp8", "comm_octo_pdes"):
            with self.subTest(workload=w):
                plain, traced = sample(w, 3), sample(w, 3, trace=True)
                self.assertEqual(deterministic(plain),
                                 deterministic(traced))
                self.assertNotIn("spans", plain)
                self.assertTrue(traced["spans"])

    def test_pdes_document_matches_serial(self):
        pdes = sample("comm_octo_pdes", 4)
        serial = sample("comm_octo_pdes", 4, serial=True)
        self.assertEqual(pdes["digest"], serial["digest"])
        self.assertGreater(pdes["kernel"]["pdes_windows"], 0)
        self.assertEqual(serial["kernel"]["pdes_windows"], 0)


class Contract(unittest.TestCase):
    def test_reported_metrics_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        s = sample("comm_octo_pdes", 1)
        traced = sample("comm_octo_pdes", 1, trace=True)
        replay = sample("comm_octo_pdes", 1, replay=True)
        e2e = [(n, u) for n, u, _ in run.end_to_end([s])]
        layers = [(n, u) for n, u, _ in run.per_layer(
            "comm_octo_pdes", [traced], [s], [replay], [1.0])]
        self.assertEqual(e2e, [(m["name"], m["unit"])
                               for m in spec["end_to_end"]])
        self.assertEqual(layers, [(m["name"], m["unit"])
                                  for m in spec["per_layer"]])


class MalformedArguments(unittest.TestCase):
    def expect_exit_2(self, cmd):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=60)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertTrue(proc.stderr.strip())
        self.assertNotIn("Traceback", proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_driver_rejects_bad_arguments(self):
        for args in (["--workload", "nope", "--seed", "1"],
                     ["--workload", "serve_tp8", "--seed", "banana"],
                     ["--workload", "serve_tp8", "--seed", "-1"],
                     ["--workload", "serve_tp8", "--seed", "1",
                      "--seconds", "0"],
                     ["--workload", "serve_tp8", "--seed", "1",
                      "--trace", "2"],
                     ["--seed", "1"]):
            with self.subTest(args=args):
                self.expect_exit_2([sys.executable, run.__file__] + args)

    def test_binary_rejects_bad_arguments(self):
        for args in (["--workload", "nope", "--seed", "1"],
                     ["--workload", "apu_cfd", "--seed", "12Q"],
                     ["--workload", "apu_cfd", "--seed", ""],
                     ["--workload", "apu_cfd", "--seed",
                      "99999999999999999999999"],
                     ["--workload", "apu_cfd", "--seed", "1", "--serial"],
                     ["--workload", "apu_cfd", "--seed"],
                     ["--workload", "apu_cfd"],
                     ["--bogus"]):
            with self.subTest(args=args):
                self.expect_exit_2([BINARY] + args)


if __name__ == "__main__":
    unittest.main()
