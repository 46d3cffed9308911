"""scripts/digit_ledger.py refuses a tree without entlab, lists nothing between
a tree and itself, and exactly the outputs that read a function whose values
a copy moves by 1e-13, none of them explained; a cone optimum moved inside its
certified interval is explained, one moved outside it is not, a move within
the spread of an output under a global phase, or under diagonal phases on
the random instrument's unitaries, is explained, one beyond it is not, and
so is a move of the instrument's probabilities within the weight defect of
its working factor.

The ledger runs read the golden CLI cases only (``--sources cli``), each tree in its
own interpreter, so each takes a few seconds.
"""

from __future__ import annotations

import json
import math
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


# Appended to a copy of entropy.py: every cone optimum is scaled by 1 + SCALE,
# which the test fills in.  The dual bound stays, so the certified interval of
# the old tree is about 5e-11 wide, relative.
CONE_PLANT = """

import dataclasses as _dataclasses

_planted_cone = conditional_min_entropy


def conditional_min_entropy(rho, cond):
    result = _planted_cone(rho, cond)
    return _dataclasses.replace(result, optimum=result.optimum * (1.0 + SCALE))
"""

# The CLI golden outputs that read a cone solve: H_max in `entropy --quantity
# all`, and the sequential costs.
CONE_OUTPUTS = {"cli/entropy_mixed4", "cli/entropy_pure5", "cli/seq_mixed4", "csv/entropy_mixed4"}


# Appended to a copy of assisted.py: every float of the `entlab assist` report
# is scaled by 1 + SCALE, which the test fills in.
ASSIST_PLANT = """

import dataclasses as _dataclasses

_planted_assist = assisted_lower_bound


def assisted_lower_bound(state, a_labels, b_labels, helpers):
    report = _planted_assist(state, a_labels, b_labels, helpers)
    scaled = {k: v * (1.0 + SCALE) for k, v in _dataclasses.asdict(report).items() if isinstance(v, float)}
    return _dataclasses.replace(report, **scaled)
"""


# Appended to a copy of decoupling.py: one field of every outcome row of the
# random instrument, FIELD, is scaled by 1 + SCALE; the test fills in both.
INSTRUMENT_PLANT = """

import dataclasses as _dataclasses

_planted_instrument = simulate_random_instrument


def simulate_random_instrument(state, spec, reference, with_minentropy_bound=False, keep_outcomes=False):
    result = _planted_instrument(state, spec, reference, with_minentropy_bound, keep_outcomes)
    rows = tuple({**row, "FIELD": row["FIELD"] * (1.0 + SCALE)} for row in result.outcome_rows)
    return _dataclasses.replace(result, outcome_rows=rows)
"""


def _planted_copy(tmp_path: Path, module: str, plant: str) -> Path:
    shutil.copytree(ROOT / "src" / "entlab", tmp_path / "entlab", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "entlab" / f"{module}.py", "a", encoding="utf-8") as fh:
        fh.write(plant)
    return tmp_path


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
    code, out = _ledger(ROOT / "src", _planted_copy(tmp_path, "entropy", PLANT))
    moved = {(row[0], row[1]): row for row in out["moved"]}
    # The two `entropy --quantity all` cases print h2, and one of them is also a CSV case.
    assert set(moved) == {("cli/entropy_mixed4", "json.h2"), ("cli/entropy_pure5", "json.h2"), ("csv/entropy_mixed4", "rows[0].h2")}
    for _, _, old, new, delta, old_12, new_12, _, _ in out["moved"]:
        assert new == pytest.approx(old * (1.0 + 1e-13), rel=1e-15, abs=0.0)
        assert delta == abs(new - old) and old_12 == new_12
    # mixed4.json is a dense state, so its h2 has no pure evidence; H_max
    # purifies it, so the output has phase evidence.  pure5.json is stored as
    # amplitudes.  The planted move is more than twice the roundoff of either,
    # so the evidence explains neither.
    assert out["evidence"]["cli/entropy_mixed4"]["pure"] is None
    assert moved["cli/entropy_mixed4", "json.h2"][8] > 2.0
    pure = moved["cli/entropy_pure5", "json.h2"]
    assert isinstance(pure[7], float) and pure[8] > 2.0
    assert out["summary"]["cli"]["unexplained"] == 2 and out["summary"]["csv"]["unexplained"] == 1
    assert code == 1


@pytest.mark.parametrize("scale,explained", [(1e-13, True), (1e-9, False)], ids=["inside", "outside"])
def test_a_planted_cone_move_is_explained_only_inside_its_interval(tmp_path, scale, explained):
    # 1e-13 relative is about 1.4e-13 bits, inside the interval's 7e-11 bits;
    # 1e-9 relative is 20 times beyond it.
    code, out = _ledger(ROOT / "src", _planted_copy(tmp_path, "entropy", CONE_PLANT.replace("SCALE", repr(scale))))
    assert {row[0] for row in out["moved"]} == CONE_OUTPUTS
    assert out["work_counts"] == []
    for output, _, _, _, delta, _, _, evidence, ratio in out["moved"]:
        # Each moved field is an H_max, an H_min or a cost, so its cone
        # evidence is the interval's width in bits, about 5e-11 / ln 2.
        width = out["evidence"][output]["cone_width"]
        assert 0.0 < width < 1e-10 and evidence == pytest.approx(width / math.log(2.0), rel=1e-6)
        assert delta == pytest.approx(ratio * evidence)
        assert (ratio <= 2.0) is explained
    unexplained = sum(out["summary"][source]["unexplained"] for source in ("cli", "csv"))
    assert unexplained == (0 if explained else len(out["moved"]))
    assert code == (0 if explained else 1)


@pytest.mark.parametrize("scale,explained", [(1e-15, True), (1e-12, False)], ids=["inside", "outside"])
def test_a_planted_move_is_explained_only_within_the_phase_spread(tmp_path, scale, explained):
    # ch5.json is example_ch5, the tensor of two pure states, stored as
    # amplitudes: it has pure evidence, and its values move under a global
    # phase; each row carries the larger.  assist4.json is a mixed state that
    # no global phase reaches.
    code, out = _ledger(ROOT / "src", _planted_copy(tmp_path, "assisted", ASSIST_PLANT.replace("SCALE", repr(scale))))
    by_output = {}
    for row in out["moved"]:
        by_output.setdefault(row[0], []).append(row)
    assert "cli/assist_ch5" in by_output and {"cli/assist_mixed4", "cli/assist_mixed4_grouped"} <= set(by_output)
    ch5 = out["evidence"]["cli/assist_ch5"]
    assert ch5["cone_width"] is None and ch5["weight"] is None
    assert ch5["pure"] > 0.0 and 0.0 < ch5["phase"] < 1e-13
    largest = max(ch5["pure"], ch5["phase"])
    assert largest < 1e-13 and all(row[7] == largest for row in by_output["cli/assist_ch5"])
    assert (max(row[8] for row in by_output["cli/assist_ch5"]) <= 2.0) is explained
    for output, rows in by_output.items():
        if output.startswith("cli/assist_mixed4"):
            assert out["evidence"][output]["phase"] is None
            assert all(row[7].startswith("none") for row in rows)
    assert code == 1  # the assist_mixed4 moves have no evidence


@pytest.mark.parametrize("scale,explained", [(2e-16, True), (1e-12, False)], ids=["inside", "outside"])
def test_a_planted_instrument_move_on_a_dense_input_is_explained_only_within_the_phase_spread(tmp_path, scale, explained):
    # mixed4.json is dense, so no global phase reaches it; the phases of the
    # instrument's unitaries still spread its outcome rows, and the weight
    # defect of its working factor gives each row its own evidence; a row
    # carries the larger.  Only the CSV case prints the rows.  1 + 2e-16
    # rounds to one ulp above 1, so "inside" moves each distance by about an
    # ulp, and "outside" by about 4500.
    plant = INSTRUMENT_PLANT.replace("FIELD", "distance").replace("SCALE", repr(scale))
    code, out = _ledger(ROOT / "src", _planted_copy(tmp_path, "decoupling", plant))
    assert {row[0] for row in out["moved"]} == {"csv/decouple_mixed4"}
    evidence = out["evidence"]["csv/decouple_mixed4"]
    assert evidence["pure"] is None and evidence["cone_width"] is None and 0.0 < evidence["phase"] < 1e-14
    assert 0.0 < evidence["weight"] < 1e-14
    assert all(row[1].endswith(".distance") for row in out["moved"])
    assert all(row[7] == max(evidence["phase"], evidence["weight"] * abs(row[2])) for row in out["moved"])
    assert (max(row[8] for row in out["moved"]) <= 2.0) is explained
    assert code == (0 if explained else 1)


@pytest.mark.parametrize("scale,explained", [(1e-15, True), (1e-12, False)], ids=["inside", "outside"])
def test_a_planted_probability_move_is_explained_only_within_the_weight_defect(tmp_path, scale, explained):
    # The instrument's probabilities sum to ||V||_F^2 of its working factor,
    # which misses Tr rho of mixed4.json by about 1e-15 relative: "inside"
    # scales each probability by less than twice that, "outside" by 1e-12.
    plant = INSTRUMENT_PLANT.replace("FIELD", "probability").replace("SCALE", repr(scale))
    code, out = _ledger(ROOT / "src", _planted_copy(tmp_path, "decoupling", plant))
    assert {row[0] for row in out["moved"]} == {"csv/decouple_mixed4"}
    weight = out["evidence"]["csv/decouple_mixed4"]["weight"]
    assert 0.0 < weight < 1e-14
    for _, field, old, _, delta, _, _, evidence, ratio in out["moved"]:
        assert field.endswith(".probability") and evidence >= weight * abs(old)
        assert (delta <= 2.0 * weight * abs(old)) is explained and (ratio <= 2.0) is explained
    assert code == (0 if explained else 1)
