import json
import math
from pathlib import Path

import numpy as np
import pytest

from entlab import assisted, entropy, qcore

import ginibre

DATA = Path(__file__).parent / "data"


def test_assisted_lower_bound_on_worked_example():
    state = qcore.example_ch5()
    report = assisted.assisted_lower_bound(state, ["A"], ["B"], [["C1", "C2"]])
    assert report.l_value == pytest.approx(0.399, abs=0.005)
    assert report.hashing < 0
    assert report.lower_bound == pytest.approx(report.l_value, abs=1e-12)
    assert report.beats_hashing


def test_assisted_lower_bound_with_uncorrelated_helper():
    rng = np.random.default_rng(3)
    pair = qcore.random_state([("A", 2), ("B", 2)], rng)
    pure_helper = qcore.make_state([("C", 2)], np.diag([1.0, 0.0]).astype(complex))
    state = qcore.tensor(pure_helper, pair)
    report = assisted.assisted_lower_bound(state, ["A"], ["B"], [["C"]])
    assert report.l_value == pytest.approx(report.hashing, abs=1e-9)
    assert not report.beats_hashing

    # A mixed idle helper only lowers the cut term; the hashing term still rules.
    mixed_helper = qcore.random_state([("C", 2)], rng)
    state = qcore.tensor(mixed_helper, pair)
    report = assisted.assisted_lower_bound(state, ["A"], ["B"], [["C"]])
    assert report.lower_bound == pytest.approx(report.hashing, abs=1e-9)
    assert report.l_value <= report.hashing + 1e-9


def test_cnot_fault_leaves_assisted_terms_unchanged():
    plain = qcore.example_ch5()
    faulted = qcore.example_ch5_cnot()
    for state in (plain, faulted):
        report = assisted.assisted_lower_bound(state, ["A"], ["B"], [["C1", "C2"]])
        assert report.l_value == pytest.approx(0.399, abs=0.005)


def test_beating_hashing_predicate():
    verdict, slacks = assisted.beating_hashing(qcore.example_ch5(), ["A"], ["B"], ["C1", "C2"])
    assert verdict
    assert slacks["coherent_slack"] > 0 and slacks["ssa_slack"] > 0

    product = qcore.tensor(qcore.max_entangled(2, ("A", "B")), qcore.make_state([("C", 2)], np.diag([1.0, 0]).astype(complex)))
    verdict, slacks = assisted.beating_hashing(product, ["A"], ["B"], ["C"])
    assert not verdict
    assert abs(slacks["coherent_slack"]) < 1e-9

    dephased = qcore.make_state(
        [("A", 2), ("B", 2), ("C", 2)],
        np.diag([0.5, 0, 0, 0, 0, 0, 0, 0.5]).astype(complex),
    )
    verdict, slacks = assisted.beating_hashing(dephased, ["A"], ["B"], ["C"])
    assert not verdict
    assert abs(slacks["ssa_slack"]) < 1e-9  # strong subadditivity saturates


def test_overlapping_label_sets_are_rejected():
    state = qcore.example_ch5()
    with pytest.raises(qcore.LabelError, match="duplicate label"):
        assisted.beating_hashing(state, ["A"], ["B", "C1"], ["C1", "C2"])
    with pytest.raises(qcore.LabelError, match="duplicate label"):
        assisted.mincut_coherent(state, ["A", "C1"], ["B"], ["C1", "C2"])
    with pytest.raises(qcore.LabelError, match="duplicate label"):
        assisted.assisted_lower_bound(state, ["A"], ["A", "B"], [])


def test_mincut_coherent_examples():
    lam = (0.8, 0.2)
    chain = qcore.tensor_all(
        [
            qcore.schmidt_pair(lam, ("A", "C1")),
            qcore.schmidt_pair(lam, ("C2", "D1")),
            qcore.schmidt_pair(lam, ("D2", "B")),
        ]
    )
    value, cut = assisted.mincut_coherent(chain, ["A"], ["B"], [["C1", "C2"], ["D1", "D2"]])
    per_link = min(
        entropy.coherent_information(chain, "A", "C1"),
        entropy.coherent_information(chain, "C2", "D1"),
        entropy.coherent_information(chain, "D2", "B"),
    )
    assert value <= per_link + 1e-9

    rng = np.random.default_rng(5)
    pair = qcore.random_state([("A", 2), ("B", 2)], rng)
    idle = qcore.make_state([("C", 2)], np.diag([1.0, 0.0]).astype(complex))
    product = qcore.tensor(pair, idle)
    value, _ = assisted.mincut_coherent(product, ["A"], ["B"], [["C"]])
    assert value == pytest.approx(entropy.coherent_information(product, "A", "B"), abs=1e-9)

    state = qcore.example_ch5()
    single, _ = assisted.mincut_coherent(state, ["A"], ["B"], [["C1", "C2"]])
    report = assisted.assisted_lower_bound(state, ["A"], ["B"], [["C1", "C2"]])
    assert single == pytest.approx(report.l_value, abs=1e-12)


def test_mincut_coherent_dominated_by_every_cut():
    rng = np.random.default_rng(23)
    psi = qcore.random_pure([("A", 2), ("B", 2), ("H1", 2), ("H2", 2)], rng)
    value, _ = assisted.mincut_coherent(psi, ["A"], ["B"], ["H1", "H2"])
    for cut in ([], ["H1"], ["H2"], ["H1", "H2"]):
        rest = [h for h in ("H1", "H2") if h not in cut]
        cut_value = entropy.coherent_information(psi, ["A"] + cut, ["B"] + rest)
        assert value <= cut_value + 1e-9


def test_mincut_coherent_invariant_under_local_helper_unitary():
    rng = np.random.default_rng(7)
    psi = qcore.random_pure([("A", 2), ("B", 2), ("H1", 2), ("H2", 2)], rng)
    base, _ = assisted.mincut_coherent(psi, ["A"], ["B"], ["H1", "H2"])
    u = qcore.haar_unitaries_per_stream(2, [rng])[0]
    rotated = qcore.apply_unitary(psi, ["H1"], u)
    value, _ = assisted.mincut_coherent(rotated, ["A"], ["B"], ["H1", "H2"])
    assert value == pytest.approx(base, abs=1e-9)


def test_eoa_pure_values():
    rng = np.random.default_rng(9)
    psi = qcore.random_pure([("A", 2), ("B", 2), ("C", 2)], rng)
    asymptotic, one_shot = assisted.eoa_pure(psi, ["A"], ["B"], ["C"], grid=6, seed=2)
    expected = min(entropy.von_neumann(psi, "A"), entropy.von_neumann(psi, "B"))
    assert asymptotic == pytest.approx(expected, abs=1e-12)
    assert one_shot <= asymptotic + 1e-7
    # E_F of the concurrence of assistance is a floor for the measurement search.
    c_a = assisted.concurrence_of_assistance(psi, ["A"], ["B"])
    assert one_shot >= qcore.binary_entropy((1 + math.sqrt(max(0.0, 1 - c_a**2))) / 2) - 1e-9

    ghz = qcore.ghz(3, ["A", "B", "C"])
    asymptotic, one_shot = assisted.eoa_pure(ghz, ["A"], ["B"], ["C"], grid=6, seed=2)
    assert asymptotic == pytest.approx(1.0, abs=1e-9)
    assert assisted.concurrence_of_assistance(ghz, ["A"], ["B"]) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(qcore.StateError):
        assisted.concurrence_of_assistance(qcore.ghz(3, ["A", "B", "C"]), ["A", "C"], ["B"])
    # The conjugate (Hadamard) basis on the helper leaves A-B maximally entangled.
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    attained = assisted.average_entropy_for_basis(ghz, ["A"], ["C"], hadamard)
    assert attained == pytest.approx(1.0, abs=1e-9)
    assert one_shot >= 1.0 - 1e-6

    product = qcore.tensor(qcore.max_entangled(2, ("A", "B")), qcore.make_state([("C", 2)], np.eye(2, dtype=complex) / 2))
    purified = qcore.purify(qcore.partial_trace(product, ["A", "B"]), "C")
    asymptotic, one_shot = assisted.eoa_pure(purified, ["A"], ["B"], ["C"], grid=4, seed=3)
    assert asymptotic == pytest.approx(1.0, abs=1e-9)


def _average_entropy_reference(state, a_labels, c_labels, basis):
    """sum_i p_i S(A) from the dense matrix: one einsum and one partial trace per outcome."""
    rest = [x for x in state.labels if x not in c_labels]
    arranged = qcore.permute_systems(state, list(c_labels) + rest)
    d_c = int(np.prod([state.dim_of(x) for x in c_labels]))
    d_rest = arranged.total_dim // d_c
    t = arranged.matrix.reshape(d_c, d_rest, d_c, d_rest)
    a_pos = [rest.index(x) for x in a_labels]
    rest_dims = [state.dim_of(x) for x in rest]
    total = 0.0
    for k in range(d_c):
        v = basis[:, k]
        block = np.einsum("i,iajb,j->ab", v.conj(), t, v)
        p = float(np.real(np.trace(block)))
        if p < 1e-14:
            continue
        rho_a = qcore._partial_trace_dense(block / p, rest_dims, a_pos)
        total += p * qcore.shannon_entropy(qcore.clamped_eigenvalues(rho_a))
    return total


def test_average_entropy_for_basis_matches_the_dense_reference():
    ghz = qcore.ghz(3, ["A", "B", "C"])
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    rng = np.random.default_rng(31)
    # Systems out of (C, A, rest) order, with two systems left after A and C.
    psi = qcore.random_pure([("B", 2), ("C", 3), ("A", 2), ("D", 2)], rng)
    for state, basis in ((ghz, hadamard), (ghz, np.eye(2, dtype=complex)), (psi, qcore.haar_unitaries_per_stream(3, [rng])[0])):
        value = assisted.average_entropy_for_basis(state, ["A"], ["C"], basis)
        assert abs(value - _average_entropy_reference(state, ["A"], ["C"], basis)) <= 1e-12


@pytest.mark.parametrize("d_c", [2, 3, 4])
def test_gradient_matches_central_differences(d_c):
    rng = np.random.default_rng(37 + d_c)
    psi = qcore.random_pure([("A", 2), ("B", 2), ("C", d_c)], rng)
    t = assisted._helper_tensor(psi, ["A"], ["C"])
    h = 1e-6
    # params = 0 gives H = 0, whose eigenvalues are all equal.
    for params in (np.zeros(d_c * d_c), rng.standard_normal(d_c * d_c)):
        _, grad = assisted._entropy_and_gradient(t, params)
        numeric = [
            (assisted._entropy_and_gradient(t, params + h * e)[0] - assisted._entropy_and_gradient(t, params - h * e)[0]) / (2 * h)
            for e in np.eye(d_c * d_c)
        ]
        assert np.max(np.abs(grad - numeric)) <= 1e-7


# tests/data/eoa_golden.json was written by the Nelder-Mead search (commit
# 2800351) before BFGS on the analytic gradient replaced it: the one-shot value
# of each of the min-cut criterion's 20 states, of the three eoa_pure calls of
# test_eoa_pure_values and of the three ea_marginal_bound searches of
# test_lower_bound_below_upper_bounds, with the state's amplitudes, the labels,
# the grid and the seed.
EOA_GOLDEN = json.loads((DATA / "eoa_golden.json").read_text())


@pytest.mark.parametrize("entry", EOA_GOLDEN, ids=lambda e: e["source"].replace(" ", "-"))
def test_one_shot_value_against_golden(entry):
    amplitudes = np.array([complex(re, im) for re, im in entry["amplitudes"]])
    psi = qcore.pure_state([tuple(s) for s in entry["systems"]], amplitudes)
    a, b = entry["a"], entry["b"]
    asymptotic, one_shot = assisted.eoa_pure(psi, a, b, entry["c"], grid=entry["grid"], seed=entry["seed"])
    assert asymptotic == pytest.approx(entry["asymptotic"], abs=1e-12)
    assert one_shot >= entry["one_shot"] - 1e-12
    assert one_shot <= asymptotic + 1e-7
    c_a = assisted.concurrence_of_assistance(psi, a, b)
    assert one_shot >= qcore.binary_entropy((1 + math.sqrt(max(0.0, 1 - c_a**2))) / 2) - 1e-9


def _ensemble_value(ensemble) -> float:
    """sum_k p_k min(S(A), S(B)) of a decomposition [(p_k, psi_k)], as da_upper_bounds scores its ensembles."""
    return sum(p * min(entropy.von_neumann(member, "A"), entropy.von_neumann(member, "B")) for p, member in ensemble)


def test_da_upper_bounds_on_classical_quantum_state():
    rng = np.random.default_rng(11)
    weights = [0.3, 0.7]
    members = [qcore.random_pure([("A", 2), ("B", 2)], rng) for _ in range(2)]
    m = np.zeros((8, 8), dtype=complex)
    for w, member, k in zip(weights, members, range(2)):
        reg = np.zeros((2, 2))
        reg[k, k] = 1.0
        m += w * np.kron(member.matrix, reg)
    state = qcore.make_state([("A", 2), ("B", 2), ("C", 2)], m)
    expected = sum(w * entropy.von_neumann(member, "A") for w, member in zip(weights, members))
    candidate = [
        (w, qcore.tensor(member, qcore.make_state([("C", 2)], np.diag([1 - k, k]).astype(complex) * 1.0)))
        for k, (w, member) in enumerate(zip(weights, members))
    ]
    bounds = assisted.da_upper_bounds(state, ["A"], ["B"], ["C"], ensembles=60, seed=5)
    best = min(bounds["ensemble_bound"], _ensemble_value(candidate))
    assert best <= expected + 1e-9
    assert best >= expected - 0.15  # sampled infimum, not certified


def test_da_upper_bounds_reduce_for_pure_inputs():
    rng = np.random.default_rng(13)
    psi = qcore.random_pure([("A", 2), ("B", 2), ("C", 2)], rng)
    bounds = assisted.da_upper_bounds(psi, ["A"], ["B"], ["C"], ensembles=30, seed=7)
    expected = min(entropy.von_neumann(psi, "A"), entropy.von_neumann(psi, "B"))
    assert bounds["ensemble_bound"] == pytest.approx(expected, abs=1e-7)


def test_da_ensemble_bound_scores_the_spectral_ensemble():
    # With no sampled rotation the ensemble bound is the spectral ensemble's
    # value, scored as the tests score their own candidate decompositions.
    rng = np.random.default_rng(17)
    weights = np.array([0.5, 0.3, 0.2])
    for _ in range(3):
        members = [qcore.random_pure([("A", 2), ("B", 2), ("C", 2)], rng) for _ in range(3)]
        mixture = qcore.make_state(members[0].systems, sum(w * s.matrix for w, s in zip(weights, members)))
        bounds = assisted.da_upper_bounds(mixture, ["A"], ["B"], ["C"], ensembles=0, seed=3)
        eigs, vecs = np.linalg.eigh(mixture.matrix)
        spectral = [(lam, qcore.pure_state(mixture.systems, vecs[:, i])) for i, lam in enumerate(eigs) if lam > 1e-12]
        assert bounds["ensemble_bound"] == pytest.approx(_ensemble_value(spectral), abs=1e-12)
        assert bounds["ensembles_sampled"] == 1


def test_lower_bound_below_upper_bounds():
    rng = np.random.default_rng(19)
    for _ in range(3):
        state = ginibre.state([("A", 2), ("B", 2), ("C", 2)], rng, rank=2)
        report = assisted.assisted_lower_bound(state, ["A"], ["B"], [["C"]])
        bounds = assisted.da_upper_bounds(state, ["A"], ["B"], ["C"], ensembles=40, seed=11)
        assert report.lower_bound <= bounds["ensemble_bound"] + 1e-7
        assert report.lower_bound <= bounds["ea_marginal_bound"] + 0.05  # searched maximum carries slack


def test_hierarchical_vs_random_chains():
    link1 = qcore.pure_state([("A", 2), ("C1", 2)], np.array([0.5, 0, 0, math.sqrt(0.75)], dtype=complex))
    link2 = qcore.permute_systems(qcore.partial_trace(qcore.example_ch5(), ["C2", "B"]), ["C2", "B"])
    plain = assisted.hierarchical_vs_random([link1, link2])
    assert plain.hierarchical_rate == pytest.approx(plain.random_rate, abs=1e-9)

    faulted = assisted.hierarchical_vs_random([link1, link2], inject_cnot=True)
    assert faulted.hierarchical_rate == pytest.approx(0.0, abs=1e-9)
    assert faulted.random_rate == pytest.approx(plain.random_rate, abs=1e-9)

    lam = (0.75, 0.25)
    same = [qcore.schmidt_pair(lam, ("A", "M1")), qcore.schmidt_pair(lam, ("M2", "B"))]
    both = assisted.hierarchical_vs_random(same)
    expected = qcore.shannon_entropy(lam)
    assert both.hierarchical_rate == pytest.approx(expected, abs=1e-9)
    assert both.random_rate == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize(
    "a, b, helpers, party",
    [([], ["B"], [["C1"]], "party A"), (["A"], [], [], "party B"),
     (["A"], ["B"], [["C1"], []], "helper group 2 of 2"), (["A"], ["B"], ["", "C2"], "helper group 1 of 2")],
    ids=["a", "b", "second-helper", "first-helper-string"],
)
def test_assisted_lower_bound_rejects_an_empty_party_by_name(a, b, helpers, party):
    with pytest.raises(qcore.LabelError) as empty:
        assisted.assisted_lower_bound(qcore.example_ch5(), a, b, helpers)
    assert empty.value.args[0] == f"{party} has no labels"


def test_mincut_coherent_rejects_an_empty_helper_group():
    # An empty group would add a cut that moves no label, and a value near 0.
    with pytest.raises(qcore.LabelError) as empty:
        assisted.mincut_coherent(qcore.example_ch5(), ["A"], ["B"], [["C1"], []])
    assert empty.value.args[0] == "helper group 2 of 2 has no labels"
    with pytest.raises(qcore.LabelError, match="party B has no labels"):
        assisted.mincut_coherent(qcore.example_ch5(), ["A"], [], [["C1"]])
