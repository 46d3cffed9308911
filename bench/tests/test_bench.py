"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from entlab import decoupling, qcore  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Tasks that take more than about 0.2 s on two cores stay out of these tests.
SLOW = ("build.", "gershgorin.d32", "min_cut.chain", "merge_region", "cli.region", "hashing.", "twirl.d4",
        "hmin.4x", "hmin.2x16", "cli.hash_sim", "assisted.pure")


def _cheap_tasks(name: str, seed: int, tmp_path: Path) -> list:
    tmp_path.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, tmp_path)
    return [t for t in workload.tasks if not t.name.startswith(SLOW)]


def _tiny_workload(tasks):
    def build(seed, workdir):
        return workloads.Workload(tuple(tasks), f"tiny:{seed}", lambda: None)

    return build


def _emit(monkeypatch, capsys, tmp_path, trace: int, tasks) -> dict:
    monkeypatch.setitem(workloads.WORKLOADS, "monte-carlo", _tiny_workload(tasks))
    out = tmp_path / f"record{trace}.json"
    code = run.main(["--workload", "monte-carlo", "--seed", "7", "--seconds", "0", "--trace", str(trace), "--out", str(out)])
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert result == json.loads(out.read_text(encoding="utf-8"))["result"]
    return result


def _twirl_task(d=2, rank=1):
    return workloads.Task(
        f"twirl.d{d}.L{rank}",
        lambda: decoupling.twirl_average_check(d, rank, samples=50, seed=3),
        lambda r: workloads._check_twirl(r.r, r.s, r.max_deviation, d, rank),
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metric_names_equal_benchmark_json(monkeypatch, capsys, tmp_path, trace, section):
    result = _emit(monkeypatch, capsys, tmp_path, trace, [_twirl_task()])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        details = json.loads((tmp_path / "record1.json").read_text(encoding="utf-8"))["details"]
        assert 0.0 < details["layer_self_s_sum"] <= details["traced_wall_s"]


def test_injected_wrong_result_counts_as_failed(monkeypatch, capsys, tmp_path):
    real = decoupling.twirl_coefficients
    monkeypatch.setattr(decoupling, "twirl_coefficients", lambda d, rank: (real(d, rank)[0] + Fraction(1, 7), real(d, rank)[1]))
    result = _emit(monkeypatch, capsys, tmp_path, 0, [_twirl_task(), _twirl_task(3, 2)])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2 * run.MIN_PASSES
    record = json.loads((tmp_path / "record0.json").read_text(encoding="utf-8"))
    assert record["details"]["fail_frac"] == 1.0
    assert "twirl coefficients" in record["details"]["failures"][0]


def test_tracer_restores_every_wrapped_attribute():
    targets = tracer.wrap_targets()
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
    assert {layer for _, _, layer in targets} == set(tracer.LAYERS) | {"linalg"}
    t = tracer.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with t:
            assert all(getattr(owner, name) is not fn for owner, name, fn in originals)
            np.linalg.eigvalsh(np.eye(3))
            qcore.bell()
            raise RuntimeError("boom")
    assert all(getattr(owner, name) is fn for owner, name, fn in originals)
    assert t.counts["linalg.eig.calls"] >= 2 and t.calls["qcore.make_state"] == 1


def test_self_times_sum_to_at_most_traced_wall(tmp_path):
    tasks = _cheap_tasks("small-states", 2, tmp_path)
    t = tracer.Tracer()
    with t:
        traced = run.run_pass(tasks, t)
    assert not traced["failures"]
    assert t.bookkeeping_s > 0.0
    assert 0.0 < sum(t.layer_self_s().values()) + t.bookkeeping_s <= traced["wall_s"]
    metrics = t.metrics(1, 0.0)
    assert metrics["coneprog.newton_steps"][0] > 0 and metrics["assisted.objective_calls"][0] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_runs_give_the_same_output_digest(tmp_path, name):
    tasks = _cheap_tasks(name, 3, tmp_path)
    plain = run.run_pass(tasks)
    with tracer.Tracer() as t:
        traced = run.run_pass(tasks, t)
    assert plain["failures"] == [] and traced["failures"] == []
    assert plain["digest"] == traced["digest"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_input_digest_follows_the_seed(tmp_path, name):
    build = workloads.WORKLOADS[name]
    digests = []
    for i, seed in enumerate((5, 5, 6)):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        digests.append(build(seed, workdir).input_digest)
    assert digests[0] == digests[1] != digests[2]


def test_checks_and_reference_kernel_are_not_traced():
    state = qcore.bell()
    task = workloads.Task("purity", lambda: decoupling.purity(state, ["A"]),
                          lambda out: [out, qcore.partial_trace(state, ["A"]).trace(), np.linalg.eigvalsh(np.eye(2))])
    alone = tracer.Tracer()
    with alone:
        task.call()
    t = tracer.Tracer()
    with t:
        assert run.run_pass([task], t)["failures"] == []
    assert t.calls == alone.calls and t.calls["decoupling.purity"] == 1


@pytest.mark.parametrize("pairs,failed,want", [(10, (0, 0), "better"), (9, (0, 0), "unresolved"), (10, (0, 1), "unresolved")])
def test_verdict_needs_ten_pairs_and_no_extra_failures(pairs, failed, want):
    parent = {s: 2.0 + 0.01 * s for s in range(pairs)}
    change = {s: 1.0 + 0.01 * s for s in range(pairs)}
    assert compare.verdict(parent, change, "lower", 0.1, failed[1] > failed[0])[0] == want
    assert compare.verdict(change, parent, "lower", 0.1)[0] == "worse"
