"""What each workload runs, on how much input, and how its work is counted.

This module imports nothing from ocrkit, so the benchmark process can import
it without paying (or pre-paying) the program's import time.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("score-docs", "dedup-lines", "engines")

# Input counts per size. "full" is what timed runs use; "tiny" keeps the
# harness self-tests fast.
SIZES = {
    "full": {
        "docs": 40, "doc_words": (200, 400),
        "dedup_test": 10, "dedup_train": 24, "dedup_chars": (20, 400),
        "geometry": 200, "charts": 120, "chart_scored": 150,
        "pool_pages": 40, "composed": 60, "stage_prev": 1200, "stage_new": 300,
    },
    "tiny": {
        "docs": 10, "doc_words": (30, 60),
        "dedup_test": 10, "dedup_train": 12, "dedup_chars": (20, 80),
        "geometry": 5, "charts": 4, "chart_scored": 6,
        "pool_pages": 6, "composed": 3, "stage_prev": 10, "stage_new": 4,
    },
}

# Seeds map onto this many input sets, seed % INPUT_SETS; digests.json holds
# the expected output digests of every input set at every size.
INPUT_SETS = 32

MIX_RATIO = 0.8
DEDUP_THRESHOLD = 0.9
PAGES_PER_SAMPLE = 3


@dataclass(frozen=True)
class Command:
    """One ocrkit CLI invocation; paths are relative to the run directory."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # files or directories whose bytes are checked
    units: int                # workload units this invocation completes


def commands(workload: str, seed: int, size: str) -> list[Command]:
    """The CLI sequence of one pass, reading ``in/`` and writing ``out/``."""
    n = SIZES[size]
    if workload == "score-docs":
        return [Command(
            ("score", "--gt", "in/gt.jsonl", "--pred", "in/pred.jsonl",
             "--granularity", "word", "--json", "out/score.json"),
            ("out/score.json",), n["docs"])]
    if workload == "dedup-lines":
        # Units are all test x train pairs, also when a later version prunes some.
        return [Command(
            ("dedup", "--test", "in/test.jsonl", "--train", "in/train.jsonl",
             "--threshold", str(DEDUP_THRESHOLD), "--out", "out/kept.jsonl"),
            ("out/kept.jsonl",), n["dedup_test"] * n["dedup_train"])]
    if workload == "engines":
        mixed = n["stage_new"] + int(MIX_RATIO * n["stage_prev"] + 1e-9)
        return [
            Command(("gen-geometry", "--seed", str(seed), "--n", str(n["geometry"]),
                     "--out", "out/geometry.jsonl"), ("out/geometry.jsonl",), n["geometry"]),
            Command(("gen-chart", "--seed", str(seed), "--n", str(n["charts"]), "--form", "dict",
                     "--out", "out/charts_dict.jsonl"), ("out/charts_dict.jsonl",), n["charts"]),
            Command(("gen-chart", "--seed", str(seed + 1), "--n", str(n["charts"]),
                     "--form", "table", "--specs-dir", "out/specs",
                     "--out", "out/charts_table.jsonl"),
                    ("out/charts_table.jsonl", "out/specs"), n["charts"]),
            Command(("compose-pages", "--pool", "in/pool.jsonl", "--n", str(PAGES_PER_SAMPLE),
                     "--count", str(n["composed"]), "--seed", str(seed),
                     "--out", "out/pages.jsonl"), ("out/pages.jsonl",), n["composed"]),
            Command(("mix", "--previous", "in/stage_prev.jsonl", "--new", "in/stage_new.jsonl",
                     "--ratio", str(MIX_RATIO), "--seed", str(seed), "--out", "out/mixed.jsonl"),
                    ("out/mixed.jsonl",), mixed),
            *(Command(("chart-score", "--gt", f"in/chart_gt_{form}.jsonl",
                       "--pred", f"in/chart_pred_{form}.jsonl", "--json", f"out/ap_{form}.json"),
                      (f"out/ap_{form}.json",), n["chart_scored"])
              for form in ("dict", "table")),
        ]
    raise ValueError(f"unknown workload {workload!r}")
