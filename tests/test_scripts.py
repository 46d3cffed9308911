"""The timing scripts in scripts/ start, and refuse a SRC_DIR without entlab.

Both checks stop before anything is timed, so each run takes well under a
second.  Each script runs in its own interpreter, as from the command line.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("time_*.py"))


def _run(script: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.stem)
def test_help_exits_0(script):
    done = _run(script, "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ")


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.stem)
def test_a_src_dir_without_entlab_exits_2_and_times_nothing(script, tmp_path):
    # PYTHONPATH holds this checkout's src/, so an unguarded import would find
    # entlab there and time this checkout instead of SRC_DIR.
    done = _run(script, str(tmp_path))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert str(tmp_path) in done.stderr
