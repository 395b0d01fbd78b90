#!/usr/bin/env python3
"""Benchmark the scoring layers on a seeded corpus of 300 documents of 400 words.

The corpus comes from the ``score-docs`` generator of ``perfbench/inputs.py``
(seed 0; one document in five is zh, one prediction in ten heavily garbled),
sized to 300 documents of exactly 400 words. For each granularity this
records the time of every scoring layer over the whole corpus (``tokenize``
of both sides, then ``edit_distance_norm``, ``prf``, ``bleu`` and ``meteor``
on the tokenized pairs) and of one ``score_corpus`` call, given per sample.
It does so once for this checkout's ``src`` ("after") and once for the
``src`` of the git revision given by ``--before``, exported to a temporary
directory. Each measurement is a fresh process that tokenizes the corpus
once untimed first, so the word-mode pattern is compiled outside the timed
block in both trees. The ROUNDS rounds interleave the two trees, alternating
which goes first; every figure is recorded as the median over rounds with
the interquartile range between rounds next to it. Both trees must return
the same corpus report. The core count and the Python version are recorded
with the results.

    python benchmarks/bench_scoring.py --before HEAD       # uncommitted work vs HEAD
    python benchmarks/bench_scoring.py --before HEAD~1 --out /tmp/scoring.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_startup import export_src

ROOT = Path(__file__).resolve().parents[1]
SEED = 0
DOCS = 300
DOC_WORDS = 400
ROUNDS = 5
GRANULARITIES = ("word", "char")
LAYERS = ("tokenize", "edit_distance_norm", "prf", "bleu", "meteor")

# Runs in a fresh process with one tree's src on the import path: times each
# layer over the corpus in argv[1] at granularity argv[2] and prints the
# times, in ms, with the corpus report as one JSON object.
CHILD = """\
import json, sys, time
from ocrkit import metrics
from ocrkit.corpus import load_records, pair_by_id

folder, granularity = sys.argv[1:]
refs = load_records(folder + "/gt.jsonl")
hyps = load_records(folder + "/pred.jsonl")
texts = [(r.ground_truth, h.ground_truth) for r, h in pair_by_id(refs, hyps)]
for r, h in texts:
    metrics.tokenize(r, granularity), metrics.tokenize(h, granularity)

start = time.perf_counter()
pairs = [(metrics.tokenize(r, granularity), metrics.tokenize(h, granularity)) for r, h in texts]
ms = {"tokenize": (time.perf_counter() - start) * 1e3}
for layer in ("edit_distance_norm", "prf", "bleu", "meteor"):
    fn = getattr(metrics, layer)
    start = time.perf_counter()
    for ref, hyp in pairs:
        fn(ref, hyp)
    ms[layer] = (time.perf_counter() - start) * 1e3
start = time.perf_counter()
report = metrics.score_corpus(refs, hyps, granularity)
ms["score_corpus_per_sample"] = (time.perf_counter() - start) * 1e3 / len(texts)
print(json.dumps({"ms": ms, "report": report.as_dict()}))
"""


def write_corpus(folder: Path) -> None:
    """gt.jsonl and pred.jsonl from perfbench's score-docs generator."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "src"))
    import inputs

    size = {"docs": DOCS, "doc_words": (DOC_WORDS, DOC_WORDS)}
    folder.mkdir()
    inputs.score_docs(random.Random(f"score-docs:{SEED}"), size, folder)


def run_child(src: Path, folder: Path, granularity: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", CHILD, str(folder), granularity],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{src}: {granularity} run exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout)


def spread(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": quartiles[2] - quartiles[0]}


def measure(before: Path, after: Path, folder: Path) -> dict:
    """Per-layer median and IQR of both trees, runs interleaved round by round."""
    trees = [("before", before), ("after", after)]
    results = {}
    for granularity in GRANULARITIES:
        runs: dict[str, list[dict]] = {"before": [], "after": []}
        reports = {}
        for k in range(ROUNDS):
            for label, src in trees if k % 2 == 0 else trees[::-1]:
                out = run_child(src, folder, granularity)
                runs[label].append(out["ms"])
                reports[label] = out["report"]
        if reports["before"] != reports["after"]:
            raise SystemExit(f"{granularity}: the trees disagree: {reports}")
        results[granularity] = {
            label: {key: spread([ms[key] for ms in runs[label]]) for key in runs[label][0]}
            for label in runs
        }
        print(f"{granularity} granularity, ms over {DOCS} pairs (median ± IQR of {ROUNDS})")
        print(f"  {'layer':<26}{'before':>20}{'after':>20}")
        for key in (*LAYERS, "score_corpus_per_sample"):
            cells = [results[granularity][label][key] for label in ("before", "after")]
            print(f"  {key:<26}" + "".join(f"{c['median']:>11.2f} ± {c['iqr']:<6.2f}" for c in cells))
    return results


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--before", required=True, help="git revision to compare with")
    parser.add_argument("--out", default="BENCH_scoring.json")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp) / "corpus"
        write_corpus(folder)
        results = measure(export_src(args.before, Path(tmp)), ROOT / "src", folder)
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.before],
                         capture_output=True, text=True, check=True).stdout.strip()
    report = {
        "before": f"src at {args.before} ({sha})",
        "after": "src of this checkout",
        "corpus": f"perfbench score-docs generator, seed {SEED}, {DOCS} docs of {DOC_WORDS} words",
        "units": "ms over the whole corpus; score_corpus_per_sample in ms per sample; "
                 "median and interquartile range over rounds",
        "rounds": ROUNDS,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
