"""scripts/digit_ledger.py refuses a tree without entlab, lists nothing between
a tree and itself, and exactly the outputs that read a function whose values
a copy moves by 1e-13, none of them explained.

The ledger runs read the golden CLI cases only (``--sources cli``), each tree in its
own interpreter, so each takes a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Appended to a copy of entropy.py: collision_entropy, which only the h2 value
# of `entlab entropy` reads, returns 1e-13 more in relative terms.
PLANT = """

_planted = collision_entropy


def collision_entropy(rho, sigma):
    return _planted(rho, sigma) * (1.0 + 1e-13)
"""


def _ledger(old: Path, new: Path) -> tuple[int, dict]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, str(ROOT / "scripts" / "digit_ledger.py"), str(old), str(new), "--sources", "cli"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode in (0, 1), done.stderr
    return done.returncode, json.loads(done.stdout)


def test_a_tree_without_entlab_is_refused(tmp_path):
    for trees in ([tmp_path, ROOT / "src"], [ROOT / "src", tmp_path]):
        argv = [sys.executable, str(ROOT / "scripts" / "digit_ledger.py"), *map(str, trees)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and str(tmp_path) in done.stderr


def test_a_tree_against_itself_lists_nothing():
    code, out = _ledger(ROOT / "src", ROOT / "src")
    assert code == 0
    assert out["moved"] == []
    assert out["summary"]["cli"]["outputs"] == 20 and out["summary"]["csv"]["outputs"] == 4


def test_a_planted_change_lists_exactly_the_outputs_that_read_it(tmp_path):
    shutil.copytree(ROOT / "src" / "entlab", tmp_path / "entlab", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "entlab" / "entropy.py", "a", encoding="utf-8") as fh:
        fh.write(PLANT)
    code, out = _ledger(ROOT / "src", tmp_path)
    moved = {(row[0], row[1]): row for row in out["moved"]}
    # The two `entropy --quantity all` cases print h2, and one of them is also a CSV case.
    assert set(moved) == {("cli/entropy_mixed4", "json.h2"), ("cli/entropy_pure5", "json.h2"), ("csv/entropy_mixed4", "rows[0].h2")}
    for _, _, old, new, delta, old_12, new_12, _, _ in out["moved"]:
        assert new == pytest.approx(old * (1.0 + 1e-13), rel=1e-15, abs=0.0)
        assert delta == abs(new - old) and old_12 == new_12
    # mixed4.json is a dense state, so its h2 has no evidence.  pure5.json is
    # stored as amplitudes, but the planted move is more than twice the
    # roundoff of its entropies, so the evidence does not explain it either.
    assert moved["cli/entropy_mixed4", "json.h2"][7].startswith("none")
    pure = moved["cli/entropy_pure5", "json.h2"]
    assert isinstance(pure[7], float) and pure[8] > 2.0
    assert out["summary"]["cli"]["unexplained"] == 2 and out["summary"]["csv"]["unexplained"] == 1
    assert code == 1
