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


def _child_env() -> dict[str, str]:
    """The environment for a fresh interpreter that imports this ocrkit."""
    env = dict(os.environ)
    src = str(Path(ocrkit.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def ocrkit_modules_after():
    """Run statements in a fresh interpreter; return the ocrkit modules it loaded."""

    def run(statements: str) -> list[str]:
        done = subprocess.run(
            [sys.executable, "-c", f"{statements}\n{_LIST_OCRKIT_MODULES}"],
            env=_child_env(), capture_output=True, text=True, check=True,
        )
        return done.stdout.split()

    return run


@pytest.fixture
def stdlib_modules_after():
    """Run statements in a fresh interpreter; return the modules outside ocrkit
    it loaded that a bare ``python -c pass`` has not."""

    def modules(statements: str) -> set[str]:
        done = subprocess.run(
            [sys.executable, "-c", f"{statements}\nimport sys; print(*sys.modules)"],
            env=_child_env(), capture_output=True, text=True, check=True,
        )
        return {m for m in done.stdout.split() if m.partition(".")[0] != "ocrkit"}

    floor = modules("pass")
    return lambda statements: modules(statements) - floor


@pytest.fixture
def ocrkit_cli():
    """Run the CLI in a fresh interpreter under the POSIX locale, stdin given as bytes."""

    def run(argv: list[str], stdin: bytes) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "ocrkit.cli", *argv],
            input=stdin, env={**_child_env(), "LC_ALL": "C"}, capture_output=True,
        )

    return run
