#!/usr/bin/env python3
"""Benchmark ``dedup_filter`` on a seeded corpus of 100 test x 1000 training texts.

The corpus comes from the ``dedup-lines`` generator of ``perfbench/inputs.py``
(seed 0; texts of 20 to 400 characters, one test text in ten a light edit of
a training text), sized to 100 test and 1000 training texts, and is filtered
at threshold 0.9. Each measurement is a fresh process that loads both files
untimed and then times one ``dedup_filter`` call, tokenization included; the
figure is test x train pairs per second. It is taken once for this
checkout's ``src`` ("after") and once for the ``src`` of the git revision
given by ``--before``, exported to a temporary directory. The ROUNDS rounds
interleave the two trees, alternating which goes first; pairs/s is recorded
as the median over rounds with the interquartile range between rounds next
to it. Both trees must keep the same test ids. The core count and the
Python version are recorded with the results.

    python benchmarks/bench_dedup.py --before HEAD       # uncommitted work vs HEAD
    python benchmarks/bench_dedup.py --before HEAD~1 --out /tmp/dedup.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_scoring import spread
from bench_startup import export_src

ROOT = Path(__file__).resolve().parents[1]
SEED = 0
TEST = 100
TRAIN = 1000
CHARS = (20, 400)
THRESHOLD = 0.9
ROUNDS = 5

# Runs in a fresh process with one tree's src on the import path: filters the
# corpus in argv[1] at threshold argv[2] and prints pairs/s and the kept ids
# as one JSON object.
CHILD = """\
import json, sys, time
from ocrkit.corpus import dedup_filter, load_records

folder, threshold = sys.argv[1], float(sys.argv[2])
test = load_records(folder + "/test.jsonl")
train = load_records(folder + "/train.jsonl")
start = time.perf_counter()
kept = dedup_filter(test, train, threshold)
seconds = time.perf_counter() - start
print(json.dumps({"pairs_per_s": len(test) * len(train) / seconds,
                  "kept": [s.id for s in kept.samples]}))
"""


def write_corpus(folder: Path) -> None:
    """test.jsonl and train.jsonl from perfbench's dedup-lines generator."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "src"))
    import inputs

    size = {"dedup_test": TEST, "dedup_train": TRAIN, "dedup_chars": CHARS}
    folder.mkdir()
    inputs.dedup_lines(random.Random(f"dedup-lines:{SEED}"), size, folder)


def run_child(src: Path, folder: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", CHILD, str(folder), str(THRESHOLD)],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{src}: run exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout)


def measure(before: Path, after: Path, folder: Path) -> dict:
    """Pairs/s median and IQR of both trees, runs interleaved round by round."""
    trees = [("before", before), ("after", after)]
    rates: dict[str, list[float]] = {"before": [], "after": []}
    kept = {}
    for k in range(ROUNDS):
        for label, src in trees if k % 2 == 0 else trees[::-1]:
            out = run_child(src, folder)
            rates[label].append(out["pairs_per_s"])
            kept[label] = out["kept"]
            print(f"  round {k + 1} {label:<6} {out['pairs_per_s']:8.0f} pairs/s", flush=True)
    if kept["before"] != kept["after"]:
        raise SystemExit(f"the trees keep different ids: {kept}")
    results = {label: {"pairs_per_s": spread(values)} for label, values in rates.items()}
    results["kept"] = len(kept["after"])
    print(f"pairs/s over {TEST} x {TRAIN} pairs (median ± IQR of {ROUNDS})")
    for label in ("before", "after"):
        cell = results[label]["pairs_per_s"]
        print(f"  {label:<8}{cell['median']:>10.0f} ± {cell['iqr']:.0f}")
    return results


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--before", required=True, help="git revision to compare with")
    parser.add_argument("--out", default="BENCH_dedup.json")
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
        "corpus": f"perfbench dedup-lines generator, seed {SEED}, {TEST} test x {TRAIN} "
                  f"train texts of {CHARS[0]}-{CHARS[1]} chars, threshold {THRESHOLD}",
        "units": "test x train pairs per second of one dedup_filter call; "
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
