import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from entlab import acceptance, cli, entropy, qcore

DATA = Path(__file__).parent / "data"


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_parse_state_file_constructor(tmp_path):
    path = _write(tmp_path, "bell.json", {"state": {"kind": "constructor", "name": "bell_phi_plus"}})
    state = cli.parse_state_file(path)
    assert state.labels == ("A", "B")


def test_parse_state_file_explicit_matrix(tmp_path):
    path = _write(
        tmp_path,
        "projector.json",
        {
            "systems": [{"label": "A", "dim": 2}],
            "state": {"kind": "mixed", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
        },
    )
    state = cli.parse_state_file(path)
    assert state.is_pure


def test_parse_state_file_rejects_non_psd_with_diagnostic(tmp_path):
    path = _write(
        tmp_path,
        "bad.json",
        {
            "systems": [{"label": "A", "dim": 2}],
            "state": {"kind": "mixed", "matrix": [[[0.5, 0.0], [0.9, 0.0]], [[0.9, 0.0], [0.5, 0.0]]]},
        },
    )
    with pytest.raises(qcore.StateError):
        cli.parse_state_file(path)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    with pytest.raises(qcore.StateError, match="line"):
        cli.parse_state_file(str(broken))


def test_parse_worked_example_by_name(tmp_path):
    path = _write(tmp_path, "ex.json", {"state": {"kind": "constructor", "name": "example_ch5"}})
    state = cli.parse_state_file(path)
    assert state.total_dim == 32


def test_entropy_subcommand_reports_singlet_coherent_information(tmp_path, capsys):
    path = _write(tmp_path, "bell.json", {"state": {"kind": "constructor", "name": "bell_psi_minus"}})
    code = cli.main(["entropy", "--state", path, "--split", "A|B", "--quantity", "coh"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coherent"] == pytest.approx(1.0, abs=1e-9)


def test_entropy_subcommand_with_sigma_file(tmp_path, capsys):
    state_path = _write(tmp_path, "pair.json", {"state": {"kind": "constructor", "name": "max_entangled", "params": {"d": 2}}})
    sigma_path = _write(
        tmp_path,
        "sigma.json",
        {
            "systems": [{"label": "B", "dim": 2}],
            "state": {"kind": "mixed", "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
        },
    )
    code = cli.main(["entropy", "--state", state_path, "--split", "A|B", "--quantity", "hmin", "--sigma", sigma_path])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hmin"] == pytest.approx(-1.0, abs=1e-9)


def test_twirl_subcommand_exact_coefficients(tmp_path, capsys):
    code = cli.main(["twirl", "--d", "4", "--L", "2", "--samples", "500", "--seed", "7"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["r"] == {"numerator": 1, "denominator": 15}
    assert payload["s"] == {"numerator": 7, "denominator": 30}


def test_region_subcommand_membership(tmp_path, capsys):
    spec = {
        "systems": [],
        "state": {"kind": "constructor", "name": "example_4_1", "params": {"d": 2, "theta": [0.75, 0.25]}},
    }
    path = _write(tmp_path, "twopair.json", spec)
    code = cli.main(
        [
            "region",
            "--state",
            path,
            "--mode",
            "merge",
            "--senders",
            "C1,C2",
            "--receiver",
            "C3",
            "--point",
            "2,2",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["membership"]["verdict"] == "inside"
    assert len(payload["region"]["constraints"]) == 3


def test_swap_subcommand_exact_fraction(capsys):
    code = cli.main(["swap", "--lambda2", "1/3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scp"] == {"numerator": 2, "denominator": 3}
    assert payload["exact"] is True


def test_schmidt_subcommand(capsys):
    code = cli.main(["schmidt", "--theta", str(math.pi / 4), "--n", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["expected_entanglement"] == pytest.approx(0.5, abs=1e-9)


def test_typ_check_subcommand(capsys):
    code = cli.main(["typ-check", "--p", "0.8,0.2", "--n", "12", "--delta", "0.1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    kinds = {row["quantity"]: row for row in payload["rows"]}
    assert kinds["cardinality"]["actual"] <= kinds["cardinality"]["bound"]


def test_typ_check_beyond_float_range_names_n(capsys):
    # The type-class sizes at n = 700 exceed float range.
    assert cli.main(["typ-check", "--p", "0.7,0.15,0.1,0.05", "--n", "700", "--delta", "0.05"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: typ-check at n = 700: ")


def test_decouple_subcommand_json(tmp_path, capsys):
    spec = {
        "systems": [],
        "state": {"kind": "constructor", "name": "max_entangled", "params": {"d": 2, "labels": ["C1", "R"]}},
    }
    path = _write(tmp_path, "pair.json", spec)
    code = cli.main(
        ["decouple", "--state", path, "--senders", "C1:K=1:L=1", "--reference", "R", "--samples", "20", "--seed", "5"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["empirical_q"] <= payload["analytic_bound"]


def test_hash_sim_subcommand(capsys):
    code = cli.main(["hash-sim", "--p", "1,0,0,0", "--n", "40", "--delta", "0.05", "--trials", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["yield"] == 1.0


def test_assist_subcommand_with_cnot(tmp_path, capsys):
    path = _write(tmp_path, "ex.json", {"state": {"kind": "constructor", "name": "example_ch5"}})
    code = cli.main(["assist", "--state", path, "--a", "A", "--b", "B", "--helpers", "C1,C2", "--cnot", "C1,C2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower_bound"] == pytest.approx(0.399, abs=0.005)


def test_json_output_is_byte_identical_across_runs(tmp_path):
    spec = {"state": {"kind": "constructor", "name": "werner", "params": {"f": 0.8}}}
    path = _write(tmp_path, "w.json", spec)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = cli.main(["entropy", "--state", path, "--split", "A|B", "--quantity", "all", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_unknown_state_file_returns_error_code(tmp_path):
    assert cli.main(["entropy", "--state", str(tmp_path / "missing.json"), "--split", "A|B"]) == 2


def test_an_uncertified_cone_solve_exits_2_with_a_diagnostic(tmp_path, capsys):
    # The sequential cost of A given B reads H_min(A|B) of a pure 12 x 12
    # state: a rank-one cone program, on which the barrier stalls.
    psi = qcore.random_pure([("A", 12), ("B", 12)], np.random.default_rng(1))
    path = _write(tmp_path, "stall.json", {
        "systems": [{"label": "A", "dim": 12}, {"label": "B", "dim": 12}],
        "state": {"kind": "pure", "amplitudes": [[z.real, z.imag] for z in psi.vector().tolist()]},
    })
    argv = ["region", "--state", path, "--mode", "seq", "--senders", "A", "--ordering", "A", "--reference", "B"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cone program gap ")


def test_max_entropy_given_a_dimension_one_system_exits_0(tmp_path, capsys):
    rho = qcore.random_density([12], np.random.default_rng(1))
    path = _write(tmp_path, "trivial_b.json", {
        "systems": [{"label": "A", "dim": 12}, {"label": "B", "dim": 1}],
        "state": {"kind": "mixed", "matrix": [[[z.real, z.imag] for z in row] for row in rho.tolist()]},
    })
    assert cli.main(["entropy", "--state", path, "--split", "A|B", "--quantity", "hmax"]) == 0
    assert json.loads(capsys.readouterr().out)["hmax"] == pytest.approx(3.0611411837600855, abs=1e-11)


@pytest.mark.parametrize("b", [[1.0, 0.0], [0.5**0.5, 0.5**0.5], [0.0, 0.0, 1.0]], ids=["2-basis", "2-plus", "3-basis"])
def test_max_entropy_given_a_pure_system_exits_0(b, tmp_path, capsys):
    # rho_A x |b><b| is the state whose purification route stalled the cone program.
    rho = np.kron(qcore.random_density([12], np.random.default_rng(1)), np.outer(b, b))
    path = _write(tmp_path, "pure_b.json", {
        "systems": [{"label": "A", "dim": 12}, {"label": "B", "dim": len(b)}],
        "state": {"kind": "mixed", "matrix": [[[z.real, z.imag] for z in row] for row in rho.tolist()]},
    })
    assert cli.main(["entropy", "--state", path, "--split", "A|B", "--quantity", "hmax"]) == 0
    assert json.loads(capsys.readouterr().out)["hmax"] == pytest.approx(3.0611411837600855, abs=1e-11)


def test_out_keeps_a_sibling_tmp_file_and_writes_the_stdout_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "result.tmp").write_text("user data\n", encoding="utf-8")
    assert cli.main(["swap", "--lambda2", "1/3"]) == 0
    printed = capsys.readouterr().out
    assert cli.main(["swap", "--lambda2", "1/3", "--out", "result.json"]) == 0
    assert (tmp_path / "result.tmp").read_text(encoding="utf-8") == "user data\n"
    assert (tmp_path / "result.json").read_bytes() == printed.encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["result.json", "result.tmp"]


def test_a_csv_row_that_cannot_be_formatted_leaves_the_existing_csv(tmp_path):
    table = tmp_path / "table.csv"
    table.write_bytes(b"kept\r\n1\r\n")
    # A field that the header, read from the first row, lacks fails before
    # anything is written; a lone surrogate fails while the sibling is written.
    for rows in ([{"a": 1.0}, {"a": 2.0, "b": 3.0}], [{"a": 1.0}, {"a": "\ud800"}]):
        with pytest.raises(ValueError):
            cli.emit_csv(rows, str(table))
        assert table.read_bytes() == b"kept\r\n1\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "0x123")
    assert cli.default_seed() == 0x123
    monkeypatch.delenv(cli.SEED_ENV)
    assert cli.default_seed() == qcore.DEFAULT_SEED


def test_state_file_with_nan_amplitude_is_rejected_with_diagnostic(tmp_path, capsys):
    path = tmp_path / "nan.json"
    spec = {
        "systems": [{"label": "A", "dim": 2}, {"label": "B", "dim": 2}],
        "state": {"kind": "pure", "amplitudes": [[1.0, 0.0], [float("nan"), 0.0], [0.0, 0.0], [1.0, 0.0]]},
    }
    path.write_text(json.dumps(spec), encoding="utf-8")
    with pytest.raises(qcore.StateError, match="non-finite"):
        cli.parse_state_file(str(path))
    assert cli.main(["entropy", "--state", str(path), "--split", "A|B"]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, entry",
    [("pure", [0]), ("pure", [0, 0, 3]), ("pure", [10**400, 0]), ("pure", "ab"), ("pure", "0"), ("mixed", [0])],
    ids=["short", "long", "int-overflow", "string", "one-char-string", "mixed-short"],
)
def test_malformed_entries_are_rejected_with_diagnostic(tmp_path, capsys, kind, entry):
    if kind == "pure":
        body = {"kind": "pure", "amplitudes": [[1.0, 0.0], entry]}
    else:
        body = {"kind": "mixed", "matrix": [[[1.0, 0.0], entry], [[0.0, 0.0], [0.0, 0.0]]]}
    path = _write(tmp_path, "bad.json", {"systems": [{"label": "A", "dim": 2}], "state": body})
    with pytest.raises(qcore.StateError, match="malformed StateSpec"):
        cli.parse_state_file(path)
    assert cli.main(["entropy", "--state", path, "--split", "A|"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: malformed StateSpec (")


def _per_entry(entries, depth):
    """The state file's pairs converted one ``complex(re, im)`` at a time, as files were read before."""
    if depth == 1:
        return np.array([complex(re, im) for re, im in entries])
    return np.array([[complex(re, im) for re, im in row] for row in entries])


_PAIR_CASES = {
    "floats": [[0.6, -0.0], [0.4, 0.0]],
    "ints": [[1, 0], [0, 0]],
    "int64-overflow": [[2**63, 0], [1, 0]],
    "booleans": [[True, False], [False, False]],
    "nan": [[float("nan"), 0.0], [1.0, 0.0]],
    "string-pair": [["1", "0"], [0, 0]],
    "string-imaginary": [[0, "1"], [1, 0]],
    "string": [[1.0, 0.0], "ab"],
    "short": [[1.0, 0.0], [0]],
    "long": [[1.0, 0.0], [0, 0, 3]],
    "int-overflow": [[1.0, 0.0], [10**400, 0]],
    "null": [[None, 0], [1, 0]],
    "compensating": [[1.0, 0.0, 0.0], [1.0]],
    "pair-of-lists": [[[1.0], [0.0]], [1.0, 0.0]],
    "mapping": [{"re": 1.0, "im": 0.0}, [1.0, 0.0]],
    "scalars": [1, 0],
    "too-deep": [[[1.0, 0.0]], [0.0, 0.0]],
    "empty": [],
}


@pytest.mark.parametrize("kind", ["pure", "mixed"])
@pytest.mark.parametrize("case", list(_PAIR_CASES))
def test_state_file_pairs_convert_as_complex_per_entry(tmp_path, monkeypatch, kind, case):
    # One numpy conversion gives the bits of complex(re, im) per entry, and a
    # malformed file the same message, so the same exit code.
    pairs = _PAIR_CASES[case]
    body = {"kind": "pure", "amplitudes": pairs}
    if kind == "mixed":  # the pairs on the diagonal
        rows = [[pairs[0], [0.0, -0.0]], [[0.0, 0.0], pairs[1]]] if len(pairs) == 2 else pairs
        body = {"kind": "mixed", "matrix": rows}
    path = _write(tmp_path, "pairs.json", {"systems": [{"label": "A", "dim": 2}], "state": body})

    def outcome():
        try:
            return cli.parse_state_file(path).matrix.tobytes()
        except qcore.StateError as exc:
            return str(exc)

    got = outcome()
    with monkeypatch.context() as patch:
        patch.setattr(qcore, "_complex_entries", _per_entry)
        assert got == outcome()
    if case in ("floats", "ints", "booleans"):
        assert isinstance(got, bytes)
    ragged = [pairs, [[0.0, 0.0]]]
    if kind == "mixed" and case == "floats":
        path = _write(tmp_path, "pairs.json", {"systems": [{"label": "A", "dim": 2}], "state": {"kind": "mixed", "matrix": ragged}})
        message = outcome()
        assert message.startswith(f"{path}: malformed StateSpec (setting an array element with a sequence.")
        with monkeypatch.context() as patch:
            patch.setattr(qcore, "_complex_entries", _per_entry)
            assert message == outcome()


@pytest.mark.parametrize("dim", [2.7, True, "2"], ids=["fraction", "boolean", "string"])
def test_non_integral_dimensions_are_rejected_with_diagnostic(tmp_path, capsys, dim):
    bell = {"kind": "pure", "amplitudes": [[0.5**0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5**0.5, 0.0]]}
    path = _write(tmp_path, "bad.json", {"systems": [{"label": "A", "dim": dim}, {"label": "B", "dim": 2}], "state": bell})
    assert cli.main(["entropy", "--state", path, "--split", "A|B"]) == 2
    assert capsys.readouterr().err == f"error: {path}: malformed StateSpec (dimension {dim!r} is not an integer)\n"


def test_integral_float_dimension_is_accepted(tmp_path):
    bell = {"kind": "pure", "amplitudes": [[0.5**0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5**0.5, 0.0]]}
    path = _write(tmp_path, "bell.json", {"systems": [{"label": "A", "dim": 2.0}, {"label": "B", "dim": 2}], "state": bell})
    assert cli.parse_state_file(path).dims == (2, 2)


@pytest.mark.parametrize(
    "argv",
    [["twirl", "--d", "2", "--L", "1"], ["swap", "--lambda2", "0.3"], ["schmidt", "--theta", "0.5", "--n", "2"],
     ["assist", "--state", "s.json", "--a", "A", "--b", "B"]],
    ids=lambda argv: argv[0],
)
def test_csv_is_rejected_where_no_csv_is_written(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--csv", "out.csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --csv out.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["entropy", "--state", "s.json", "--split", "A|B"],
     ["region", "--state", "s.json", "--mode", "merge", "--senders", "A"],
     ["assist", "--state", "s.json", "--a", "A", "--b", "B"],
     ["swap", "--lambda2", "0.3"],
     ["schmidt", "--theta", "0.5", "--n", "2"],
     ["typ-check", "--p", "0.7,0.3", "--n", "4", "--delta", "0.1"]],
    ids=lambda argv: argv[0],
)
def test_seed_is_rejected_where_no_seed_is_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", "99"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 99" in capsys.readouterr().err


def test_emit_json_refuses_nan_and_writes_nothing(tmp_path):
    out = tmp_path / "out.json"
    for value in (math.nan, math.inf):
        with pytest.raises(qcore.StateError, match="not valid JSON"):
            cli.emit_json({"value": value}, str(out))
    assert list(tmp_path.iterdir()) == []


def _exit_code(argv: list[str]) -> int:
    """main's return value, or the code of the SystemExit that argparse raises."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, env_seed",
    [
        (["hash-sim", "--p", "0.8,abc,0.1,0.1", "--n", "20", "--delta", "0.1"], None),
        (["typ-check", "--p", "0.5,x", "--n", "5", "--delta", "0.1"], None),
        (["region", "--state", str(DATA / "mixed4.json"), "--mode", "merge", "--senders", "C1,C2", "--point", "1,abc"],
         None),
        (["region", "--state", str(DATA / "mixed4.json"), "--mode", "merge", "--senders", "C1,C2", "--point", "nan,1"],
         None),
        (["swap", "--lambda2", "abc"], None),
        (["swap", "--lambda2", "1/0"], None),
        (["decouple", "--state", str(DATA / "mixed4.json"), "--senders", "C1:K=x", "--reference", "R"], None),
        (["decouple", "--state", str(DATA / "mixed4.json"), "--senders", "C1:Q=2", "--reference", "R"], None),
        (["twirl", "--d", "2", "--L", "1"], "abc"),
        (["verify", "--only", "swap"], "abc"),
        (["region", "--state", str(DATA / "mixed4.json"), "--mode", "cost", "--senders", "C1,C2", "--reference", "R",
          "--eps", "0"], None),
        (["region", "--state", str(DATA / "mixed4.json"), "--mode", "seq", "--senders", "C1,C2", "--ordering", "C2,C1",
          "--reference", "R", "--eps", "0"], None),
        (["region", "--state", str(DATA / "mixed4.json"), "--mode", "cost", "--senders", "C1,C2", "--reference", "R",
          "--eps", "-1"], None),
        (["region", "--state", str(DATA / "mixed4.json"), "--mode", "cost", "--senders", "C1,C2", "--reference", "R",
          "--eps", "nan"], None),
        (["swap", "--lambda2", "nan"], None),
        (["typ-check", "--p", "0.7,0.3", "--n", "-3", "--delta", "0.1"], None),
        (["typ-check", "--p", "0.7,0.3", "--n", "0", "--delta", "0.1"], None),
        (["typ-check", "--p", "0.7,0.3", "--n", "5", "--delta", "nan"], None),
        (["assist", "--state", str(DATA / "assist4.json"), "--a", "A", "--b", "B", "--cnot", "C1"], None),
        (["assist", "--state", str(DATA / "assist4.json"), "--a", "A", "--b", "B", "--cnot", "C1,C2,B"], None),
        (["assist", "--state", str(DATA / "assist4.json"), "--a", "A", "--b", "B", "--helpers", "C1;"], None),
        (["assist", "--state", str(DATA / "assist4.json"), "--a", "A", "--b", "B", "--helpers", ";"], None),
        (["assist", "--state", str(DATA / "assist4.json"), "--a", "", "--b", "B", "--helpers", "C1;C2"], None),
        (["assist", "--state", str(DATA / "assist4.json"), "--a", "A", "--b", ""], None),
        (["region", "--state", str(DATA / "mixed4.json"), "--mode", "merge", "--senders", ""], None),
        (["region", "--state", str(DATA / "mixed4.json"), "--mode", "cost", "--senders", "", "--reference", "R"], None),
        (["region", "--state", str(DATA / "mixed4.json"), "--mode", "seq", "--senders", "C1", "--reference", "R"], None),
        (["region", "--state", str(DATA / "mixed4.json"), "--mode", "seq", "--senders", "NOPE", "--ordering", "C2,C1",
          "--reference", "R"], None),
        (["twirl", "--d", "1", "--L", "1"], None),
    ],
    ids=["hash-sim-p", "typ-check-p", "region-point", "region-point-nan", "swap-word", "swap-zero-denominator", "decouple-K",
         "decouple-unknown-key", "env-seed-twirl", "env-seed-verify", "region-cost-eps-zero", "region-seq-eps-zero",
         "region-eps-negative", "region-eps-nan", "swap-nan", "typ-check-n-negative", "typ-check-n-zero",
         "typ-check-delta-nan", "assist-cnot-one-label", "assist-cnot-three-labels", "assist-helpers-trailing-empty",
         "assist-helpers-empty", "assist-a-empty", "assist-b-empty", "region-merge-senders-empty",
         "region-cost-senders-empty", "region-seq-no-ordering", "region-seq-ordering-not-senders", "twirl-d-one"],
)
def test_malformed_arguments_exit_2_with_a_diagnostic(argv, env_seed, monkeypatch, capsys):
    if env_seed is not None:
        monkeypatch.setenv(cli.SEED_ENV, env_seed)
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err
    assert "Traceback" not in captured.err


# A(2) x B(1) with weight 1e-12, below every support and rank tolerance: each
# quantity below is undefined on it, and its command exits 2 instead of
# taking a logarithm of 0 or solving on an empty support.
@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--split", "A|B", "--quantity", "h0"],
        ["entropy", "--split", "A|B", "--quantity", "hmin"],
        ["entropy", "--split", "A|B", "--quantity", "h2"],
        ["entropy", "--split", "A|B", "--quantity", "hmax"],
        ["region", "--mode", "cost", "--senders", "A", "--reference", "B"],
        ["region", "--mode", "seq", "--senders", "A", "--ordering", "A", "--reference", "B"],
    ],
    ids=["entropy-h0", "entropy-hmin", "entropy-h2", "entropy-hmax", "region-cost", "region-seq"],
)
def test_a_state_below_the_tolerances_exits_2_with_a_diagnostic(argv, tmp_path, capsys):
    matrix = [[[1e-12, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path = _write(tmp_path, "faint.json", {
        "systems": [{"label": "A", "dim": 2}, {"label": "B", "dim": 1}],
        "state": {"kind": "mixed", "norm_mode": "subnormalized", "matrix": matrix},
    })
    assert cli.main([argv[0], "--state", path] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_a_state_below_the_support_cut_gives_one_message_for_hmin_and_seq(tmp_path, capsys):
    matrix = [[[1e-12, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path = _write(tmp_path, "faint.json", {
        "systems": [{"label": "A", "dim": 2}, {"label": "B", "dim": 1}],
        "state": {"kind": "mixed", "norm_mode": "subnormalized", "matrix": matrix},
    })
    messages = []
    for argv in (["entropy", "--split", "A|B", "--quantity", "hmin"],
                 ["entropy", "--split", "A|B", "--quantity", "h0"],
                 ["region", "--mode", "seq", "--senders", "A", "--ordering", "A", "--reference", "B"]):
        assert cli.main([argv[0], "--state", path] + argv[1:]) == 2
        messages.append(capsys.readouterr().err)
    assert messages == [f"error: the operator has no eigenvalue above {entropy.SUPPORT_TOL:g}\n"] * 3


def test_zero_entropy_counts_the_support_that_max_entropy_reads(tmp_path, capsys):
    # rho_A = diag(1 - 5e-11, 5e-11) has rank 2 at the one support cut, as its
    # purification's reference of dimension 2 shows; H_max(A|B) <= H_0(A).
    rho_a = np.diag([1.0 - 5e-11, 5e-11])
    assert qcore.purify(qcore.make_state([("A", 2)], rho_a)).dims == (2, 2)
    rho = np.kron(rho_a, np.diag([1.0, 0.0]))
    path = _write(tmp_path, "faint_a.json", {
        "systems": [{"label": "A", "dim": 2}, {"label": "B", "dim": 2}],
        "state": {"kind": "mixed", "matrix": [[[x, 0.0] for x in row] for row in rho.tolist()]},
    })
    assert cli.main(["entropy", "--state", path, "--split", "A|B", "--quantity", "all"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h0"] == 1.0 and 0.0 < out["hmax"] <= out["h0"]


@pytest.mark.parametrize("mode, extra", [("split", ["--cut", "C1", "--receiver", "B", "--receiver-b", "R"]),
                                         ("seq", ["--ordering", "C2,C1", "--reference", "R"])])
@pytest.mark.parametrize("option", [["--csv", "region.csv"], ["--point", "1,1"]], ids=["csv", "point"])
def test_region_split_and_seq_reject_csv_and_point(mode, extra, option, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["region", "--state", str(DATA / "mixed4.json"), "--mode", mode, "--senders", "C1,C2"] + extra
    assert cli.main(argv + option) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: region --mode {mode} writes no CSV and classifies no point; drop --csv and --point\n"
    assert not (tmp_path / "region.csv").exists()


# Each region option with a mode that does not read it.
@pytest.mark.parametrize(
    "mode, extra, option",
    [
        ("merge", [], ["--eps", "5"]),
        ("split", ["--cut", "C1"], ["--eps", "0.1"]),
        ("merge", [], ["--reference", "R"]),
        ("split", ["--cut", "C1"], ["--reference", "R"]),
        ("merge", [], ["--ordering", "C2,C1"]),
        ("cost", ["--reference", "R"], ["--ordering", "C2,C1"]),
        ("merge", [], ["--cut", "C1"]),
        ("seq", ["--ordering", "C2,C1"], ["--cut", ""]),
        ("cost", ["--reference", "R"], ["--receiver-b", "B"]),
        ("merge", [], ["--receiver-b", "R"]),
        ("seq", ["--ordering", "C2,C1"], ["--receiver", "B"]),
    ],
)
def test_region_rejects_options_of_other_modes(mode, extra, option, capsys):
    argv = ["region", "--state", str(DATA / "mixed4.json"), "--mode", mode, "--senders", "C1,C2"] + extra
    assert cli.main(argv + option) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: region --mode {mode} does not read {option[0]}; drop it\n"


def test_region_names_every_option_it_does_not_read(capsys):
    argv = ["region", "--state", str(DATA / "mixed4.json"), "--mode", "merge", "--senders", "C1,C2",
            "--eps", "5", "--ordering", "X,Y", "--cut", "Z"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: region --mode merge does not read --cut, --eps, --ordering; drop them\n"


@pytest.mark.parametrize("mode, extra", [("merge", []), ("cost", ["--reference", "R"]), ("split", ["--cut", "C1"])])
def test_region_rejects_a_sender_named_twice(mode, extra, capsys):
    argv = ["region", "--state", str(DATA / "mixed4.json"), "--mode", mode, "--senders", "C1,C1"] + extra
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "duplicate label" in captured.err


@pytest.mark.parametrize("cut, stray", [("R", "R"), ("C1,B", "B")])
def test_region_split_rejects_a_cut_label_that_is_not_a_sender(cut, stray, capsys):
    argv = ["region", "--state", str(DATA / "mixed4.json"), "--mode", "split", "--senders", "C1,C2", "--cut", cut,
            "--receiver", "B"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: region --mode split: cut label {stray!r} is not one of the senders ['C1', 'C2']\n"


def test_verify_rejects_an_unknown_criterion(capsys):
    assert cli.main(["verify", "--only", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown criterion 'nope'; expected one of {', '.join(acceptance.CRITERIA)}\n"


def test_twirl_rejects_zero_samples(capsys):
    assert cli.main(["twirl", "--d", "2", "--L", "1", "--samples", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: samples must be at least 1, got 0\n"


def test_region_csv_rows_are_the_json_constraints(tmp_path, capsys):
    csv_path = tmp_path / "region.csv"
    argv = ["region", "--state", str(DATA / "mixed4.json"), "--mode", "cost", "--senders", "C1,C2", "--reference", "R",
            "--csv", str(csv_path)]
    assert cli.main(argv) == 0
    constraints = json.loads(capsys.readouterr().out)["region"]["constraints"]
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "bitmask,subset,rhs"
    assert [line.split(",") for line in lines[1:]] == [
        [str(c["bitmask"]), c["subset"], f"{c['rhs']:.12g}"] for c in constraints
    ]


def test_seed_option_accepts_any_integer_notation(capsys):
    outputs = []
    for seed in ("0x10", "16"):
        assert cli.main(["twirl", "--d", "2", "--L", "1", "--samples", "50", "--seed", seed]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert cli.build_parser().parse_args(["twirl", "--d", "2", "--L", "1", "--seed", "0x10"]).seed == 16


@pytest.mark.parametrize(
    "argv, env_seed",
    [
        (["twirl", "--d", "2", "--L", "1", "--samples", "10", "--seed", "-1"], None),
        (["hash-sim", "--p", "0.9,0.05,0.03,0.02", "--n", "16", "--delta", "0.1", "--trials", "2", "--seed", "-1"], None),
        (["decouple", "--state", str(DATA / "mixed4.json"), "--senders", "C1:K=1:L=1", "--reference", "R",
          "--samples", "2", "--seed", "-1"], None),
        (["twirl", "--d", "2", "--L", "1", "--samples", "10"], "-3"),
    ],
    ids=["twirl", "hash-sim", "decouple", "env"],
)
def test_a_negative_seed_exits_2_with_a_diagnostic(argv, env_seed, monkeypatch, capsys):
    if env_seed is not None:
        monkeypatch.setenv(cli.SEED_ENV, env_seed)
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    quoted = f"{cli.SEED_ENV}='-3'" if env_seed else "argument --seed: '-1'"
    assert f"{quoted} is not a non-negative integer" in captured.err
    assert "Traceback" not in captured.err


def test_each_main_call_reads_the_seed_environment_variable(monkeypatch, capsys):
    # The parser is built once per process; the ENTLAB_SEED default is read per call.
    argv = ["twirl", "--d", "2", "--L", "1", "--samples", "50"]
    outputs = {}
    for seed in ("3", "4"):
        monkeypatch.setenv(cli.SEED_ENV, seed)
        assert cli.main(argv) == 0
        outputs[seed] = capsys.readouterr().out
    assert outputs["3"] != outputs["4"]
    monkeypatch.delenv(cli.SEED_ENV)
    for seed in ("3", "4"):
        assert cli.main(argv + ["--seed", seed]) == 0
        assert capsys.readouterr().out == outputs[seed]
    assert cli.build_parser() is cli.build_parser()


def test_verify_prints_criterion_seconds(capsys):
    assert cli.main(["verify", "--only", "swap"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    name, verdict, seconds = line.split()[:3]
    assert (name, verdict) == ("swap", "PASS")
    assert seconds.endswith("s") and float(seconds[:-1]) >= 0.0


# Region, assist, entropy, hashing and decoupling runs on fixed state files and
# seeds; the expected JSON in data/cli_golden.json pins their output byte for byte.
GOLDEN_CASES = {
    "merge_pure5": ["region", "--state", "pure5.json", "--mode", "merge", "--senders", "C1,C2,C3",
                    "--receiver", "B", "--point", "0.5,0.5,0.5"],
    "merge_pure5_no_receiver": ["region", "--state", "pure5.json", "--mode", "merge", "--senders", "C1,C2,C3,B"],
    "merge_mixed4": ["region", "--state", "mixed4.json", "--mode", "merge", "--senders", "C1,C2",
                     "--receiver", "B", "--point", "1,1"],
    "split_pure5": ["region", "--state", "pure5.json", "--mode", "split", "--senders", "C1,C2,C3", "--cut", "C1",
                    "--receiver", "B", "--receiver-b", "R"],
    "split_pure5_empty_cut": ["region", "--state", "pure5.json", "--mode", "split", "--senders", "C1,C2",
                              "--cut", "", "--receiver", "B", "--receiver-b", "R"],
    "split_mixed4": ["region", "--state", "mixed4.json", "--mode", "split", "--senders", "C1,C2", "--cut", "C2",
                     "--receiver", "B", "--receiver-b", "R"],
    "split_ghz3_zero_cut": ["region", "--state", "ghz3.json", "--mode", "split", "--senders", "A", "--cut", "A",
                            "--receiver", "B", "--receiver-b", "C"],
    "cost_mixed4": ["region", "--state", "mixed4.json", "--mode", "cost", "--senders", "C1,C2", "--reference", "R",
                    "--eps", "0.1", "--point", "20,20"],
    "seq_mixed4": ["region", "--state", "mixed4.json", "--mode", "seq", "--senders", "C1,C2", "--ordering", "C2,C1",
                   "--reference", "R", "--eps", "0.1"],
    "assist_ch5": ["assist", "--state", "ch5.json", "--a", "A", "--b", "B", "--helpers", "C1;C2"],
    "assist_ch5_cnot": ["assist", "--state", "ch5.json", "--a", "A", "--b", "B", "--helpers", "C1;C2",
                        "--cnot", "C1,C2"],
    "assist_mixed4": ["assist", "--state", "assist4.json", "--a", "A", "--b", "B", "--helpers", "C1;C2"],
    "assist_mixed4_cnot": ["assist", "--state", "assist4.json", "--a", "A", "--b", "B", "--helpers", "C1;C2",
                           "--cnot", "C1,C2"],
    "assist_mixed4_grouped": ["assist", "--state", "assist4.json", "--a", "A", "--b", "B", "--helpers", "C1,C2"],
    "assist_mixed4_no_helpers": ["assist", "--state", "assist4.json", "--a", "A", "--b", "B"],
    "entropy_mixed4": ["entropy", "--state", "mixed4.json", "--split", "C1|B,R", "--quantity", "all"],
    "entropy_pure5": ["entropy", "--state", "pure5.json", "--split", "C1,C2|B,R", "--quantity", "all"],
    "hash_sim_n120": ["hash-sim", "--p", "0.7,0.15,0.1,0.05", "--n", "120", "--delta", "0.1", "--trials", "7",
                      "--seed", "3"],
    "hash_sim_feasible": ["hash-sim", "--p", "0.9,0.05,0.03,0.02", "--n", "400", "--delta", "0.05", "--trials", "3",
                          "--seed", "5"],
    "decouple_mixed4": ["decouple", "--state", "mixed4.json", "--senders", "C1:K=2:L=3,C2", "--reference", "R",
                        "--samples", "20", "--bound", "both", "--seed", "9"],
}


def run_golden_case(name: str, out_path: Path) -> str:
    """Run one case from inside DATA, where its bare state file names resolve."""
    assert cli.main(GOLDEN_CASES[name] + ["--out", str(out_path)]) == 0
    return out_path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    # Bare file names, so that an output echoing its state file does not
    # depend on where the checkout lives.
    monkeypatch.chdir(DATA)
    golden = json.loads((DATA / "cli_golden.json").read_text(encoding="utf-8"))
    assert run_golden_case(name, tmp_path / "out.json") == golden[name]


# The CSV writers of entropy, decouple, hash-sim and typ-check; the expected
# text in data/cli_csv_golden.json pins each header and its rows byte for byte.
CSV_GOLDEN_CASES = {
    "entropy_mixed4": ["entropy", "--state", "mixed4.json", "--split", "C1|B,R", "--quantity", "all"],
    "decouple_mixed4": ["decouple", "--state", "mixed4.json", "--senders", "C1:K=2:L=3,C2", "--reference", "R",
                        "--samples", "3", "--bound", "both", "--seed", "9"],
    "hash_sim_n120": GOLDEN_CASES["hash_sim_n120"],
    "typ_check_n12": ["typ-check", "--p", "0.7,0.2,0.1", "--n", "12", "--delta", "0.1"],
}


@pytest.mark.parametrize("name", sorted(CSV_GOLDEN_CASES))
def test_cli_csv_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(DATA)
    golden = json.loads((DATA / "cli_csv_golden.json").read_text(encoding="utf-8"))
    csv_path = tmp_path / "out.csv"
    assert cli.main(CSV_GOLDEN_CASES[name] + ["--csv", str(csv_path), "--out", str(tmp_path / "out.json")]) == 0
    # Bytes, not text: the csv module ends rows with CRLF.
    assert csv_path.read_bytes().decode("utf-8") == golden[name]


def test_entropy_all_reads_each_subset_entropy_once(monkeypatch, capsys):
    entropies = []
    real_entropy = entropy.von_neumann

    def counted_entropy(state, part=None):
        entropies.append(state.labels if part is None else tuple(part))
        return real_entropy(state, part)

    monkeypatch.setattr(entropy, "von_neumann", counted_entropy)
    reductions = []
    real_trace = qcore.partial_trace

    def traced(state, keep):
        if state.labels == ("C1", "C2", "B", "R"):
            reductions.append(qcore._normalize_labels(state, keep))
        return real_trace(state, keep)

    monkeypatch.setattr(qcore, "partial_trace", traced)
    assert cli.main(["entropy", "--state", str(DATA / "mixed4.json"), "--split", "C1|B,R", "--quantity", "all"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(entropies) == [("B", "R"), ("C1",), ("C1", "B", "R")]
    # One reduction per label set: the table, the marginal sigma, the joint
    # state of the one-shot values and H_0 share them.
    assert sorted(reductions) == [("B", "R"), ("C1",), ("C1", "B", "R")]
    assert out["coherent"] == -out["conditional"]


@pytest.mark.parametrize("quantity", entropy.QUANTITIES)
def test_entropy_reads_the_sigma_file_only_for_hmin_and_h2(quantity, tmp_path, capsys):
    argv = ["entropy", "--state", str(DATA / "mixed4.json"), "--split", "C1|B,R", "--quantity", quantity]
    code = cli.main(argv + ["--sigma", str(tmp_path / "missing.json")])
    assert code == (2 if quantity in ("hmin", "h2", "all") else 0)
    if code == 0:
        with_missing_sigma = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == with_missing_sigma


def test_entropy_of_an_empty_side_is_zero(capsys):
    assert cli.main(["entropy", "--state", str(DATA / "mixed4.json"), "--split", "C1|", "--quantity", "svn"]) == 0
    assert json.loads(capsys.readouterr().out)["entropy_right"] == 0.0


def test_label_diagnostics_print_the_plain_message(capsys):
    argv = ["assist", "--state", str(DATA / "assist4.json"), "--a", "A", "--b", "B", "--helpers", "X"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: unknown subsystem labels ['X']\n"


def test_a_rejected_sigma_file_is_named_in_the_diagnostic(tmp_path, capsys):
    state = _write(tmp_path, "state.json", {"state": {"kind": "constructor", "name": "bell_phi_plus"}})
    sigma = _write(
        tmp_path,
        "sigma.json",
        {
            "systems": [{"label": "B", "dim": 2}],
            "state": {"kind": "mixed", "matrix": [[[0.5, 0.0], [0.9, 0.0]], [[0.9, 0.0], [0.5, 0.0]]]},
        },
    )
    assert cli.main(["entropy", "--state", state, "--split", "A|B", "--quantity", "hmin", "--sigma", sigma]) == 2
    assert capsys.readouterr().err.startswith(f"error: {sigma}: matrix is not positive semidefinite")


def test_a_duplicate_label_in_a_state_file_is_named_with_the_file(tmp_path, capsys):
    path = _write(
        tmp_path,
        "dup.json",
        {"systems": [{"label": "A", "dim": 1}, {"label": "A", "dim": 1}], "state": {"kind": "pure", "amplitudes": [[1.0, 0.0]]}},
    )
    assert cli.main(["entropy", "--state", path, "--split", "A|"]) == 2
    assert capsys.readouterr().err == f"error: {path}: duplicate label 'A' in [['A', 'A']]\n"
