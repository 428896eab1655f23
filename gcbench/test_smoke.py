#!/usr/bin/env python3
"""Smoke tests of the GC benchmark at tiny sizes (--smoke).

    python3 gcbench/test_smoke.py

Run from the repository root; builds the benchmark first if needed.  Checks
that every metric BENCHMARK.json names is printed, finite and carries its
unit; that two runs of one seed give bit-identical counts; that another seed
changes the generated inputs; and that the traced run writes a valid Chrome
trace and layer table.
"""
import json
import math
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Metrics that are exact counts of a deterministic execution.
E2E_COUNTS = ["gc_steps_p50", "gc_bytes_per_reclaimed"]
LAYER_COUNTS = ["core.rounds_per_gc", "core.detections_per_cycle", "lgc.traced_per_reclaimed",
                "cycle.summary_reuse_pct", "adgc.msgs_per_reclaimed", "cycle.cdms_per_cycle",
                "cycle.cdm_bytes_per_cycle", "cycle.wasted_tracks", "cycle.e2e_steps_mean",
                "net.msgs_per_reclaimed", "rm.propagates_per_req"]


def run(workload, seed, trace=0, check=True):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if check and (proc.returncode != 0 or not lines):
        raise AssertionError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), lines


def values(result, names):
    return {n: result["metrics"][n]["value"] for n in names}


class Smoke(unittest.TestCase):
    def check_metrics(self, result, spec):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_end_to_end_metrics_printed_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, lines = run(w, 1)
                self.check_metrics(result, SPEC["end_to_end"])
                stamp = json.loads(next(l for l in lines if l.startswith("stamp "))[6:])
                for key in ("nproc", "compiler", "build_type", "git_rev", "workload", "seed",
                            "config"):
                    self.assertIn(key, stamp)
                self.assertEqual(stamp["workload"], w)

    def test_counts_repeat_for_one_seed_and_change_with_another(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, lines_a = run(w, 7)
                b, lines_b = run(w, 7)
                c, lines_c = run(w, 8)
                self.assertEqual(values(a, E2E_COUNTS), values(b, E2E_COUNTS))
                inputs = [next(l for l in lines if l.startswith("inputs "))
                          for lines in (lines_a, lines_b, lines_c)]
                self.assertEqual(inputs[0], inputs[1])
                self.assertNotEqual(inputs[0], inputs[2])

    def test_traced_run_reports_layers_and_writes_trace(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, lines = run(w, 3, trace=1)
                b, _ = run(w, 3, trace=1)
                self.check_metrics(a, SPEC["per_layer"])
                self.assertEqual(values(a, LAYER_COUNTS), values(b, LAYER_COUNTS))
                trace = pathlib.Path(next(l for l in lines if l.startswith("trace "))[6:])
                events = json.loads(trace.read_text())["traceEvents"]
                spans = [e for e in events if e["ph"] == "X"]
                self.assertTrue(spans)
                for e in spans:
                    self.assertGreaterEqual(e["dur"], 0)
                    self.assertLess(e["args"]["parent"], e["args"]["span"])
                layers = pathlib.Path(next(l for l in lines if l.startswith("layers "))[7:])
                self.assertIn("obs.overhead_pct", layers.read_text())

    @unittest.expectedFailure
    def test_store_daemon_collects_all_garbage(self):
        # store_daemon is not in BENCHMARK.json: the library leaves some of
        # its cross-shard cyclic garbage uncollected (README.md, "Known
        # failure").  This starts passing once that is fixed.
        result, _ = run("store_daemon", 1, check=False)
        self.assertTrue(result["correct"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
