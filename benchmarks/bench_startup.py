#!/usr/bin/env python3
"""Benchmark CLI startup: fresh ``python -m ocrkit.cli <sub> --help`` processes.

For every subcommand this records the median wall time of fresh processes
and the ocrkit modules such a process loads, once for this checkout's
``src`` ("after") and once for the ``src`` of the git revision given by
``--before``, which is exported to a temporary directory.
Runs of the two trees are interleaved, so slow spells of the machine hit
both alike. The median wall time of ``python -c pass`` is recorded as the
interpreter's own floor. Without cached bytecode (``PYTHONDONTWRITEBYTECODE``
set and no ``__pycache__``) every imported module is compiled from source in
every process; the setting is recorded with the results.

    python benchmarks/bench_startup.py --before HEAD       # uncommitted work vs HEAD
    python benchmarks/bench_startup.py --before HEAD~1 --out /tmp/startup.json
"""

from __future__ import annotations

import argparse
import json
import os
import io
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 11  # fresh processes per subcommand and tree

SUBCOMMANDS = (
    "score", "chart-score", "tile-plan", "stitch", "make-finegrained", "compose-pages",
    "paste-layout", "gen-geometry", "gen-chart", "validate-format", "dedup", "mix",
)

# Runs the CLI the way the installed ``ocrkit`` script does, then lists the
# ocrkit modules that were loaded, on stderr, when the process exits.
PROBE = """\
import atexit, sys
atexit.register(lambda: print(
    *sorted(m for m in sys.modules if m.partition(".")[0] == "ocrkit"), file=sys.stderr))
sys.argv[0] = "ocrkit"
from ocrkit.cli import main
sys.exit(main())
"""


def run(argv: list[str], src: Path) -> str:
    """Run ``argv`` with ``src`` on the import path; return its stderr."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}: {done.stderr}")
    return done.stderr


def wall_s(argv: list[str], src: Path) -> float:
    start = time.perf_counter()
    run(argv, src)
    return time.perf_counter() - start


def modules(sub: str, src: Path) -> list[str]:
    return run([sys.executable, "-c", PROBE, sub, "--help"], src).split()


def export_src(rev: str, dest: Path) -> Path:
    """Write the ``src`` tree of git revision ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest / "src"


def measure(before: Path, after: Path) -> dict:
    """Interleaved startup timings and loaded modules of both trees."""
    trees = {"before": before, "after": after}
    times: dict[tuple[str, str], list[float]] = {}
    floor = []
    for _ in range(RUNS):
        floor.append(wall_s([sys.executable, "-c", "pass"], trees["after"]))
        for sub in SUBCOMMANDS:
            for label, src in trees.items():
                argv = [sys.executable, "-m", "ocrkit.cli", sub, "--help"]
                times.setdefault((sub, label), []).append(wall_s(argv, src))

    rows = []
    print(f"{'subcommand':<18}{'before':>10}{'after':>10}  ocrkit modules after")
    for sub in SUBCOMMANDS:
        row = {"subcommand": sub}
        for label, src in trees.items():
            row[f"{label}_ms"] = statistics.median(times[sub, label]) * 1e3
            row[f"{label}_modules"] = modules(sub, src)
        rows.append(row)
        print(f"{sub:<18}{row['before_ms']:>8.1f}ms{row['after_ms']:>8.1f}ms  "
              f"{' '.join(row['after_modules'])}")
    floor_ms = statistics.median(floor) * 1e3
    print(f"python -c pass: {floor_ms:.1f}ms")

    return {
        "command": "python -m ocrkit.cli <subcommand> --help",
        "runs": RUNS,
        "python_floor_ms": floor_ms,
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": rows,
    }



def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--before", required=True, help="git revision to compare with")
    parser.add_argument("--out", default="BENCH_startup.json")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        report = measure(export_src(args.before, Path(tmp)), ROOT / "src")
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.before],
                         capture_output=True, text=True, check=True).stdout.strip()
    report = {"before": f"src at {args.before} ({sha})", "after": "src of this checkout", **report}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
