"""The timing scripts in scripts/ start, and refuse a SRC_DIR without entlab;
``timing.measure`` makes the calls it promises and returns one record.

The script checks stop before anything is timed, so each run takes well under
a second.  Each script, and ``timing.measure``, runs in its own interpreter,
as from the command line: importing ``timing`` pins the BLAS threads of the
process that imports it.
"""

from __future__ import annotations

import json
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


MEASURE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import timing
out = {}
for repeats in (1, 4):
    calls = []
    first, record = timing.measure(lambda: calls.append(len(calls)) or len(calls), repeats)
    out[repeats] = {"calls": len(calls), "first": first, "record": record}
json.dump(out, sys.stdout)
"""


def test_measure_returns_the_first_result_and_one_nominal_record():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", MEASURE, str(ROOT / "scripts")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    for repeats, out in json.loads(done.stdout).items():
        assert out["calls"] == int(repeats) + 1
        assert out["first"] == 1
        record = out["record"]
        assert sorted(record) == ["median_s", "q1_q3_s", "repeats", "speed_scale"]
        assert record["repeats"] == int(repeats)
        q1, q3 = record["q1_q3_s"]
        assert 0 <= q1 <= record["median_s"] <= q3
        if repeats == "1":
            assert q1 == record["median_s"] == q3
        assert record["speed_scale"] > 0
