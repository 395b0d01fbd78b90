"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ocrkit

_LIST_OCRKIT_MODULES = (
    "import sys; print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'ocrkit'))"
)


@pytest.fixture
def ocrkit_modules_after():
    """Run statements in a fresh interpreter; return the ocrkit modules it loaded."""

    def run(statements: str) -> list[str]:
        env = dict(os.environ)
        src = str(Path(ocrkit.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", f"{statements}\n{_LIST_OCRKIT_MODULES}"],
            env=env, capture_output=True, text=True, check=True,
        )
        return done.stdout.split()

    return run
