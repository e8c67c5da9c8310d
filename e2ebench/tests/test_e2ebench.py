#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark at a tiny size.

Run from the root of the source tree (builds the harness on first use):

    python3 -m unittest discover -s e2ebench/tests -v

Checks that every metric named in BENCHMARK.json is printed with its
unit and that names it does not list are refused, that count-type metrics repeat exactly under one seed and move
under another, that the swap workload's generation accounting holds,
and that the benchmark refuses to run without the sources it measures.
"""

import contextlib
import glob
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
READS = 96
COUNT_METRICS = ["index.seeds_per_read", "gbwt.decodes_per_read",
                 "map.extensions_per_read"]


def bench(workload, seed, trace, seconds=1.0, root=ROOT):
    """Run the benchmark command; returns (exit code, provenance, result)."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace",
                             str(trace), "--reads", str(READS)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, None, None
    return (proc.returncode, json.loads(lines[-2])["provenance"],
            json.loads(lines[-1]))


class MemoBench:
    """Each (workload, seed, trace) runs once per test session."""
    cache = {}

    @classmethod
    def get(cls, workload, seed, trace, tag=0):
        key = (workload, seed, trace, tag)
        if key not in cls.cache:
            cls.cache[key] = bench(workload, seed, trace)
        return cls.cache[key]


class MetricsPrinted(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        names = {spec["name"] for spec in specs}
        self.assertEqual(set(result["metrics"]), names)
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(metric["value"], (int, float))

    def test_every_metric_printed_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                code, provenance, result = MemoBench.get(workload, 11, 0)
                self.assertEqual(code, 0)
                self.check_metrics(result, SPEC["end_to_end"])
                for spec in SPEC["end_to_end"]:
                    self.assertGreater(
                        result["metrics"][spec["name"]]["value"], 0)
                for key in ("commit", "cpu", "nproc", "seed",
                            "timed_seconds", "warmup_reads",
                            "steal_ticks_delta", "p50_samples"):
                    self.assertIn(key, provenance)
                code, _, result = MemoBench.get(workload, 11, 1)
                self.assertEqual(code, 0)
                self.check_metrics(result, SPEC["per_layer"])

    def test_unknown_or_missing_names_are_refused(self):
        sys.path.insert(0, os.path.join(ROOT, "e2ebench"))
        import run
        end_to_end = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
        self.assertEqual(set(run.with_units(end_to_end, 0)), set(end_to_end))
        self.assertEqual(run.with_units({}, 1)["io.load_ms"]["value"], 0)
        for values, trace in (({**end_to_end, "bogus": 1.0}, 0),
                              ({"setup_s": 1.0}, 0),
                              (end_to_end, 1)):
            with self.assertRaises(SystemExit), \
                    contextlib.redirect_stderr(io.StringIO()):
                run.with_units(values, trace)


class CountsRepeat(unittest.TestCase):
    def test_same_seed_same_counts_other_seed_moves(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                _, _, a = MemoBench.get(workload, 11, 1)
                _, _, b = MemoBench.get(workload, 11, 1, tag=1)
                _, _, c = MemoBench.get(workload, 12, 1)
                for name in COUNT_METRICS:
                    va = a["metrics"][name]["value"]
                    self.assertEqual(va, b["metrics"][name]["value"], name)
                    self.assertNotEqual(va, c["metrics"][name]["value"],
                                        name)
                _, _, a = MemoBench.get(workload, 11, 0)
                _, _, b = MemoBench.get(workload, 11, 0, tag=1)
                self.assertEqual(a["metrics"]["correct_frac"]["value"],
                                 b["metrics"]["correct_frac"]["value"])

    def test_correct_frac_follows_the_truth(self):
        # The analogs map every read correctly, so correct_frac reads 1.0
        # under every seed; show instead that it is computed from the
        # truth: the same GAF scored against another seed's truth (same
        # read names, other sample positions) collapses.
        _, _, own = MemoBench.get("serve-yeast", 11, 0)
        MemoBench.get("serve-yeast", 12, 0)
        (data,) = glob.glob(os.path.join(
            ROOT, ".bench_build", "e2ebench-inputs", f"*-r{READS}",
            "serve-yeast"))
        binary = os.path.join(ROOT, ".bench_build", "e2ebench", "e2ebench")

        def score(truth_seed):
            out = subprocess.run(
                [binary, "score", "--gaf",
                 os.path.join(data, "mapped-11.gaf"), "--reads",
                 os.path.join(data, f"reads-{truth_seed}.tsv")],
                capture_output=True, text=True, check=True).stdout
            counts = json.loads(out)
            return counts["correct"] / counts["reads"]

        self.assertEqual(score(11), own["metrics"]["correct_frac"]["value"])
        self.assertLess(score(12), 0.5 * score(11))


class SwapHygiene(unittest.TestCase):
    def test_generations_account_for_every_reload(self):
        code, provenance, result = bench("serve-human-swap", 11, 0,
                                         seconds=3.0)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(provenance["reloads"], 1)
        self.assertEqual(provenance["final_generation"],
                         provenance["reloads"] + 1)


class RefusesWithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(
                ROOT, ".bench_build")) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            code, provenance, result = bench("serve-yeast", 11, 0,
                                             root=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main(verbosity=2)
