#!/usr/bin/env python3
"""Benchmark the bit-parallel Levenshtein kernel against the plain DP recurrence.

Both run on the same seeded pairs of random token tuples at each length: one
pair of equal lengths and one whose short side has ``length // 20`` tokens,
where the kernel reads the short side against the long side as its pattern.
The plain two-row dynamic programme is the "before" and ``levenshtein`` the
"after". Their distances must agree. Per-call times, the core count and the
Python version are written to a JSON file.

    PYTHONPATH=src python benchmarks/bench_edit_distance.py
    PYTHONPATH=src python benchmarks/bench_edit_distance.py --out /tmp/edit_distance.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import time

from ocrkit._kernels import levenshtein

SIZES = (10, 200, 1000, 5000)  # sequence lengths
REPEATS = 3  # timed batches per call, best kept
ALPHABET = 64  # distinct tokens


def plain_dp(a, b) -> int:
    """Two-row Levenshtein recurrence, one cell at a time."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def per_call_s(fn, a, b, min_batch_s: float = 0.05) -> float:
    """Best over REPEATS batches of the mean time per call."""
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn(a, b)
        elapsed = time.perf_counter() - t0
        if elapsed >= min_batch_s:
            break
        number *= 2
    best = elapsed / number
    for _ in range(REPEATS - 1):
        t0 = time.perf_counter()
        for _ in range(number):
            fn(a, b)
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", default="BENCH_edit_distance.json")
    args = parser.parse_args()

    rng = random.Random(0)
    vocab = [f"t{k}" for k in range(ALPHABET)]
    rows = []
    print(f"{'length':>8}{'short':>8}{'plain DP':>14}{'levenshtein':>14}{'speedup':>10}")
    for size in SIZES:
        for short in (size, size // 20):
            a = tuple(rng.choice(vocab) for _ in range(short))
            b = tuple(rng.choice(vocab) for _ in range(size))
            distance = levenshtein(a, b)
            if distance != plain_dp(a, b):
                raise SystemExit(f"kernel disagrees with the plain DP at {short} x {size}")
            before = per_call_s(plain_dp, a, b)
            after = per_call_s(levenshtein, a, b)
            rows.append({"length": size, "short": short, "distance": distance,
                         "before_ms": before * 1e3, "after_ms": after * 1e3})
            print(f"{size:>8}{short:>8}{before * 1e3:>12.3f}ms{after * 1e3:>12.3f}ms"
                  f"{before / after:>9.1f}x")

    report = {
        "before": (
            "plain two-row DP reference (plain_dp), not the numpy kernel it replaced"
        ),
        "after": "ocrkit._kernels.levenshtein (bit-parallel)",
        "shapes": "per length: equal lengths, then a short side of length // 20",
        "alphabet": ALPHABET,
        "seed": 0,
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": rows,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
