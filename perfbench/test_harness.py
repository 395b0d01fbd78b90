"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

from run import ROOT, BenchError, Ops, Pass, expected_digests, levenshtein, output_digests, verify
from spans import Span, calls_under, layer_totals, self_times
from workloads import commands

HERE = Path(__file__).resolve().parent


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


class SpanArithmetic(unittest.TestCase):
    # cli.main [0, 10]
    #   metrics.score_corpus [1, 6]
    #     metrics.tokenize [2, 3]
    #     metrics.edit_distance_norm [3, 5]
    #   corpus.dump_records [7, 9]
    SPANS = [
        Span("cli.main", 0.0, 10.0, -1, 1),
        Span("metrics.score_corpus", 1.0, 6.0, 0, 1),
        Span("metrics.tokenize", 2.0, 3.0, 1, 1),
        Span("metrics.edit_distance_norm", 3.0, 5.0, 1, 1, work=12.0),
        Span("corpus.dump_records", 7.0, 9.0, 0, 1, work=100.0),
    ]

    def test_self_time_subtracts_direct_children(self):
        self.assertEqual(self_times(self.SPANS), [3.0, 2.0, 1.0, 2.0, 2.0])

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [Span("cli.main", 0.0, 10.0, -1, 1),
                 Span("metrics.bleu", 1.0, 5.0, 0, 1),
                 Span("metrics.meteor", 4.0, 12.0, 0, 1)]
        self.assertEqual(self_times(spans)[0], 1.0)

    def test_layer_totals(self):
        totals = layer_totals(self.SPANS + [Span("metrics.tokenize", 6.5, 7.0, 0, 1)])
        self.assertEqual(totals["metrics.tokenize"]["calls"], 2)
        self.assertEqual(totals["metrics.tokenize"]["busy_s"], 1.5)
        self.assertEqual(totals["cli.main"]["self_s"], 2.5)
        self.assertEqual(totals["metrics.edit_distance_norm"]["work"], 12.0)
        self.assertEqual(totals["charts.ap_report"]["calls"], 0)
        self.assertEqual(calls_under(self.SPANS, "metrics.tokenize", "metrics.score_corpus"), 1)
        self.assertEqual(calls_under(self.SPANS, "metrics.tokenize", "cli.main"), 0)

    def test_levenshtein_oracle(self):
        self.assertEqual(levenshtein("kitten", "sitting"), 3)
        self.assertEqual(levenshtein("", "abc"), 3)
        self.assertEqual(levenshtein(("a", "b"), ("a", "b")), 0)


class OutputCheck(unittest.TestCase):
    def test_tampered_output_is_a_failed_operation(self):
        cmds = commands("score-docs", 0, "tiny")
        with tempfile.TemporaryDirectory() as tmp:
            run_dir = Path(tmp)
            (run_dir / "out").mkdir()
            report = run_dir / "out" / "score.json"
            report.write_text('{"f1": 0.5}\n')
            expected = output_digests(run_dir, cmds)
            report.write_text('{"f1": 0.6}\n')
            tampered = Pass([0], output_digests(run_dir, cmds))
            ops = Ops()
            verify([Pass([0], expected), tampered, Pass([1], expected)], expected, cmds, ops, "t")
        self.assertEqual((ops.attempted, ops.failed), (3, 2))

    def test_input_set_without_recorded_digests_is_an_error(self):
        self.assertIn("out/score.json", expected_digests("score-docs", "tiny", 0))
        with self.assertRaises(BenchError):
            expected_digests("score-docs", "tiny", 10**6)


class EndToEnd(unittest.TestCase):
    def test_tiny_smoke_run_has_no_failed_operations(self):
        done = run_bench("--workload", "all", "--size", "tiny", "--seconds", "0.5")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual((result["correct"], result["failed"]), (True, 0))
        self.assertEqual(done.stdout.count("ops_failed_frac"), 3)
        for line in done.stdout.splitlines():
            if "ops_failed_frac" in line:
                self.assertEqual(line.split()[1], "0")

    def test_tiny_traced_run_counts_layers(self):
        done = run_bench("--workload", "all", "--size", "tiny", "--seconds", "0.5",
                         "--trace", "1")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertTrue(result["correct"], done.stdout)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(metrics["score-docs/metrics.tokenize.calls"], 20)
        self.assertEqual(metrics["engines/metrics.edit_distance_norm.calls"], 0)
        self.assertGreater(metrics["dedup-lines/corpus.dedup_filter.pair_eval_frac"], 0.5)
        self.assertLessEqual(metrics["dedup-lines/corpus.dedup_filter.pair_eval_frac"], 1.0)

    def test_without_the_program_it_fails_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("--workload", "score-docs", "--seconds", "1", cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
