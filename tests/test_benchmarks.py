"""The benchmark scripts start: their imports and argument tables are sound."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _help(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv, "--help"], env=env, capture_output=True,
                          text=True, cwd=ROOT)


@pytest.mark.parametrize("sub", ["startup", "scoring", "dedup", "kernel", "parse"])
def test_compare_subcommand_help_exits_zero(sub):
    done = _help(str(ROOT / "benchmarks" / "compare.py"), sub)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"usage: compare.py {sub} [-h] --before BEFORE [--out OUT]")

