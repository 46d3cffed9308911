import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from entlab import acceptance, decoupling, entropy, qcore

DATA = Path(__file__).parent / "data"


def test_purity_values_and_swap_trick():
    assert decoupling.purity(qcore.max_mixed(5), check_swap_trick=True) == pytest.approx(0.2, abs=1e-12)
    assert decoupling.purity(qcore.bell("phi_plus"), check_swap_trick=True) == pytest.approx(1.0, abs=1e-9)
    rng = np.random.default_rng(3)
    state = qcore.random_state([("A", 2), ("B", 3)], rng)
    assert decoupling.purity(state, "B", check_swap_trick=True) <= 1.0 + 1e-12


def test_projected_state_purity_respects_spectrum_bound():
    # Projecting onto the heavy eigenvalue block keeps purity below the
    # epsilon-corrected spectral estimate.
    p = np.array([0.8, 0.2])
    n = 8
    probs = np.array([math.prod(p[(k >> i) & 1] for i in range(n)) for k in range(2**n)])
    counts = np.array([bin(k).count("1") for k in range(2**n)])
    delta = 0.1
    typical = np.abs(counts / n - p[1]) <= delta
    mass = probs[typical].sum()
    eps = 1 - mass
    purity = (probs[typical] ** 2).sum() / mass**2
    entropy_bits = qcore.binary_entropy(0.2)
    c = max(abs(math.log2(x)) for x in p)
    assert purity <= (1 - eps) ** -2 * 2 ** (-n * (entropy_bits - 3 * c * delta)) + 1e-12


def test_swap_operator_structure():
    for d in (2, 3, 4):
        f = decoupling.swap_operator(d)
        # Tr F = d, so the symmetric projector (I + F)/2 has rank d(d+1)/2.
        assert np.trace(f) == d
        assert np.array_equal(f, f.T)
        assert np.max(np.abs(f @ f - np.eye(d * d))) < 1e-12


def test_twirl_coefficients_exact():
    r, s = decoupling.twirl_coefficients(4, 2)
    assert (r, s) == (Fraction(1, 15), Fraction(7, 30))
    r, s = decoupling.twirl_coefficients(3, 3)
    assert (r, s) == (Fraction(0), Fraction(1))


def test_twirl_monte_carlo_small():
    report = decoupling.twirl_average_check(2, 1, samples=20000, seed=5)
    assert report.max_deviation <= 5e-3


@pytest.mark.parametrize("samples", [0, -3])
def test_twirl_check_rejects_fewer_than_one_sample(samples):
    with pytest.raises(qcore.StateError, match=rf"samples must be at least 1, got {samples}"):
        decoupling.twirl_average_check(2, 1, samples=samples, seed=5)


def _subspace_swap(d, rank):
    f_sub = np.zeros((d * d, d * d))
    for i in range(rank):
        for j in range(rank):
            f_sub[j * d + i, i * d + j] = 1.0
    return f_sub


@pytest.mark.parametrize("d, rank", [(2, 1), (3, 2), (4, 3)])
def test_twirl_sample_identity(d, rank):
    # (U+ x U+) F_sub (U x U) = F (Q x Q) with Q = U+ P U, sample by sample.
    rng = np.random.default_rng(10 * d + rank)
    f = decoupling.swap_operator(d)
    p = np.diag([1.0] * rank + [0.0] * (d - rank))
    for u in qcore.haar_unitaries(d, 25, rng):
        w = np.kron(u.conj().T, u.conj().T)
        q = u.conj().T @ p @ u
        assert np.max(np.abs(f @ np.kron(q, q) - w @ _subspace_swap(d, rank) @ w.conj().T)) <= 1e-12


@pytest.mark.parametrize("d, rank", [(2, 1), (3, 2), (4, 3)])
def test_twirl_check_matches_the_conjugated_swap_average(d, rank):
    # The conjugated subspace swap averaged on the same RNG stream, over a chunk boundary.
    samples, seed = 2100, 9
    rng = np.random.default_rng(seed)
    acc = np.zeros((d * d, d * d), dtype=complex)
    for n in (2000, 100):
        ud = qcore.haar_unitaries(d, n, rng).conj().transpose(0, 2, 1)
        w = np.einsum("nab,ncd->nacbd", ud, ud).reshape(n, d * d, d * d)
        acc += np.einsum("nij,jk,nlk->il", w, _subspace_swap(d, rank), w.conj())
    r, s = decoupling.twirl_coefficients(d, rank)
    predicted = float(r) * np.eye(d * d) + float(s) * decoupling.swap_operator(d)
    expected = float(np.max(np.abs(acc / samples - predicted)))
    report = decoupling.twirl_average_check(d, rank, samples=samples, seed=seed)
    assert report.max_deviation == pytest.approx(expected, abs=1e-12)


def test_single_sender_bound_plugin():
    # Pure maximally entangled pair: the plug-in value is intentionally vacuous.
    state = qcore.max_entangled(2, ("C", "R"))
    spec = decoupling.InstrumentSpec(senders=(decoupling.sender("C", 2),), samples=10)
    bound = decoupling.decoupling_bound_purity(state, spec, "R")
    assert bound == pytest.approx(2 / 2 + 2 * math.sqrt(2 * 1.0), abs=1e-12)


def test_minentropy_bound_product_case():
    d = 4
    rng = np.random.default_rng(9)
    state = qcore.tensor(qcore.max_mixed(d, "C"), qcore.random_state([("R", 3)], rng))
    spec = decoupling.InstrumentSpec(senders=(decoupling.sender("C", d),), samples=10)
    bound = decoupling.decoupling_bound_minentropy(state, spec, "R")
    assert bound == pytest.approx(math.sqrt(1 / d), abs=1e-9)


def test_minentropy_subset_terms_dominate_collision_terms():
    state = qcore.example_4_1(2, [0.75, 0.25])
    sigma = qcore.partial_trace(state, "R")
    for subset in (["C1"], ["C2"], ["C1", "C2"]):
        joint = qcore.partial_trace(state, subset + ["R"])
        hmin = entropy.min_entropy_relative(joint, sigma)
        h2 = entropy.collision_entropy(joint, sigma)
        assert 2.0**-hmin >= 2.0**-h2 - 1e-12


def test_simulation_on_decoupled_product_state():
    rng = np.random.default_rng(11)
    state = qcore.tensor(qcore.max_mixed(4, "C"), qcore.random_state([("R", 2)], rng))
    spec = decoupling.InstrumentSpec(senders=(decoupling.sender("C", 4, rank=1),), samples=40, seed=3)
    result = decoupling.simulate_random_instrument(state, spec, "R")
    assert result.empirical_q < 1e-9


def test_simulation_respects_bound_and_determinism():
    parts = qcore.tensor(qcore.max_entangled(2, ("C1", "C2a")), qcore.max_entangled(2, ("C2b", "R")))
    state = qcore.merge_systems(parts, {"C2": ["C2a", "C2b"]})
    spec = decoupling.InstrumentSpec(
        senders=(decoupling.sender("C1", 2), decoupling.sender("C2", 4, ancilla=2)),
        seed=77,
        samples=60,
    )
    first = decoupling.simulate_random_instrument(state, spec, "R")
    second = decoupling.simulate_random_instrument(state, spec, "R")
    assert np.array_equal(first.per_sample, second.per_sample)
    assert first.empirical_q + 2 * first.stderr <= first.analytic_bound
    assert 0.0 <= first.empirical_q <= 2.0


def test_outcome_records_are_normalized_states():
    state = qcore.example_4_1(2, [0.75, 0.25])
    spec = decoupling.InstrumentSpec(
        senders=(decoupling.sender("C1", 2), decoupling.sender("C2", 4, ancilla=2)), samples=2, seed=31
    )
    result = decoupling.simulate_random_instrument(state, spec, "R", keep_outcomes=True)
    total = 0.0
    for row in result.outcome_rows:
        if row["sample"] != 0:
            continue
        total += row["probability"]
        assert set(row) == {"sample", "outcome", "probability", "distance", "remainder"}
        assert 0.0 <= row["distance"] <= 2.0
    assert total == pytest.approx(1.0, abs=1e-9)


def test_simulation_handles_remainder_blocks():
    state = qcore.tensor(qcore.max_entangled(3, ("C", "R")), qcore.max_mixed(1, "X"))
    spec = decoupling.InstrumentSpec(senders=(decoupling.sender("C", 3, rank=2),), samples=20, seed=9)
    result = decoupling.simulate_random_instrument(state, spec, "R")
    # 3 = 1 block of rank 2 plus a rank-1 remainder; probabilities still total 1.
    assert result.empirical_q <= 2.0
    assert result.analytic_bound >= result.empirical_q


def test_split_transfer_reduces_to_merging_when_one_side_empty():
    state = qcore.example_ch5()
    spec_t = decoupling.InstrumentSpec(
        senders=(decoupling.sender("C1", 2), decoupling.sender("C2", 2)), samples=25, seed=13
    )
    empty = decoupling.InstrumentSpec(senders=(), samples=25, seed=13)
    q1, q2, surrogate = decoupling.split_transfer_errors(state, spec_t, empty, (["A"], ["B"]), extra_reference=["R"])
    assert q2.empirical_q == 0.0 and q2.analytic_bound == 0.0
    assert surrogate == pytest.approx(2 * math.sqrt(q1.analytic_bound), abs=1e-12)


def test_split_transfer_halves_are_independent_simulations():
    state = qcore.example_ch5()
    spec_t = decoupling.InstrumentSpec(senders=(decoupling.sender("C1", 2),), samples=20, seed=21)
    spec_tbar = decoupling.InstrumentSpec(senders=(decoupling.sender("C2", 2),), samples=20, seed=22)
    q1, q2, surrogate = decoupling.split_transfer_errors(state, spec_t, spec_tbar, (["A"], ["B"]), extra_reference=["R"])
    solo1 = decoupling.simulate_random_instrument(state, spec_t, ["C2", "B", "R"])
    solo2 = decoupling.simulate_random_instrument(state, spec_tbar, ["C1", "A", "R"])
    assert np.array_equal(q1.per_sample, solo1.per_sample)
    assert np.array_equal(q2.per_sample, solo2.per_sample)
    assert surrogate == pytest.approx(
        2 * math.sqrt(solo1.analytic_bound) + 2 * math.sqrt(solo2.analytic_bound), abs=1e-12
    )


def test_chain_min_cut_has_negative_conditional_entropies():
    # A two-link chain: the smallest cut keeps both per-helper conditional
    # entropies strictly negative, which is what enables rate-free transfer.
    state = qcore.tensor(qcore.max_entangled(2, ("A", "C1")), qcore.max_entangled(2, ("C2", "B")))
    assert entropy.conditional_entropy(state, "C1", ["A"]) < 0
    assert entropy.conditional_entropy(state, "C2", ["B"]) < 0


def test_haar_average_of_mixed_bipartite_state():
    rng = np.random.default_rng(15)
    state = qcore.random_state([("A", 3), ("R", 2)], rng)
    acc = np.zeros((6, 6), dtype=complex)
    samples = 4000
    for u in qcore.haar_unitaries(3, samples, rng):
        full = np.kron(u, np.eye(2))
        acc += full @ state.matrix @ full.conj().T
    target = np.kron(np.eye(3) / 3, qcore.partial_trace(state, "R").matrix)
    assert np.max(np.abs(acc / samples - target)) < 0.02


def test_instrument_spec_validation():
    with pytest.raises(qcore.StateError):
        decoupling.sender("C", 2, ancilla=1, rank=3)
    spec = decoupling.InstrumentSpec(senders=(decoupling.sender("C", 3),), samples=5)
    with pytest.raises(qcore.StateError):
        spec.validate_against(qcore.max_mixed(2, "C"))


def test_working_state_is_the_tensor_of_marginal_and_ancillas():
    # Senders listed against the state's order, one without an ancilla, and a
    # reference between them: V V^dagger equals the marginal tensored with
    # I/K per ancilla and permuted to (C2, C2's ancilla, C1, R), and V has the
    # marginal's rank 12 times K = 2 columns.
    state = qcore.random_state([("C1", 2), ("R", 2), ("B", 2), ("C2", 3)], np.random.default_rng(23))
    spec = decoupling.InstrumentSpec(senders=(decoupling.sender("C2", 3, ancilla=2), decoupling.sender("C1", 2)))
    factor = decoupling._working_factor(state, spec, ["R"])
    reference = qcore.tensor(qcore.partial_trace(state, ["C2", "C1", "R"]), qcore.max_mixed(2, "K2"))
    reference = qcore.permute_systems(reference, ["C2", "K2", "C1", "R"]).matrix
    assert factor.shape == (6, 2, 2, 24)
    v = factor.reshape(24, 24)
    assert np.max(np.abs(v @ v.conj().T - reference)) <= ROUNDOFF


def test_working_factor_drops_the_marginal_kernel():
    # A pure state's marginal on C + R is the whole state: rank 1, so V has one
    # column per ancilla level and no more.
    state = _random_pure([("C", 3), ("R", 2)], 24)
    spec = decoupling.InstrumentSpec(senders=(decoupling.sender("C", 3, ancilla=4),))
    factor = decoupling._working_factor(state, spec, ["R"])
    assert factor.shape == (12, 2, 4)
    v = factor.reshape(24, 4)
    assert np.max(np.abs(v @ v.conj().T - _working_state(state, spec, ["R"]).reshape(24, 24))) <= ROUNDOFF


# Each output of the instrument sums products of O(1) terms, probabilities at
# most 1 and distances at most 2, in an order that a change of method
# reorders.  Where the marginal has no eigenvalue in (0, SUPPORT_TOL], so
# that the factor drops no mass, it is compared within ROUNDOFF of the dense
# loop, and the sample, label and remainder flag of every outcome row
# exactly.  The tests against the dense loop still say "bit_for_bit" in their
# names, from when the batch made the loop's gemm calls; they compare within
# ROUNDOFF.  The golden file holds this code's bits and is compared bitwise.
ROUNDOFF = 64 * np.finfo(float).eps

# tests/data/instrument_golden.json was written by the one-outcome-at-a-time
# loop (commit cbacd45), whose distances came from one trace_norm call each:
# every per-sample value and outcome row, as float.hex.  Its fields were
# rewritten where the Gram-product reduction of a state stored as amplitudes
# moved them, again where rotating a factor of the working state did, and
# again where that factor became the amplitudes of a pure input whose
# senders and reference are all of its systems, and again where it came from
# the Gram matrix of a reduction of a pure input that keeps a factor.
INSTRUMENT_GOLDEN = json.loads((DATA / "instrument_golden.json").read_text(encoding="utf-8"))


def _golden_state(spec):
    if spec["kind"] == "acceptance_two_sender":
        return acceptance._two_sender_state()
    dims = [tuple(d) for d in spec["dims"]]
    if spec["kind"] == "amplitudes":
        return qcore.pure_state(dims, np.array(spec["amplitudes"], dtype=complex))
    rng = np.random.default_rng(spec["seed"])
    return qcore.random_pure(dims, rng) if spec["kind"] == "pure" else qcore.random_state(dims, rng)


def _support_unitary(d, rng):
    """A Haar unitary on span{|0>, |1>}, the identity elsewhere."""
    u = np.eye(d, dtype=complex)
    u[:2, :2] = qcore.haar_unitaries(2, 1, rng)[0]
    return u


def _support_unitaries(d, rngs):
    """``_support_unitary`` from each stream: the support2 patch of ``qcore.haar_unitaries_per_stream``."""
    return np.stack([_support_unitary(d, rng) for rng in rngs])


@pytest.mark.parametrize("case", INSTRUMENT_GOLDEN, ids=lambda c: c["name"])
def test_instrument_matches_golden_bit_for_bit(case, monkeypatch):
    if case.get("unitary") == "support2":
        monkeypatch.setattr(qcore, "haar_unitaries_per_stream", _support_unitaries)
    spec = decoupling.InstrumentSpec(
        senders=tuple(decoupling.sender(*s) for s in case["senders"]), seed=case["seed"], samples=case["samples"]
    )
    result = decoupling.simulate_random_instrument(
        _golden_state(case["state"]), spec, case["reference"], keep_outcomes=True
    )
    assert [float(x).hex() for x in result.per_sample] == case["per_sample"]
    assert result.empirical_q.hex() == case["empirical_q"]
    assert result.stderr.hex() == case["stderr"]
    rows = [
        [r["sample"], r["outcome"], r["probability"].hex(), r["distance"].hex(), r["remainder"]]
        for r in result.outcome_rows
    ]
    assert rows == case["outcome_rows"]
    assert all(type(r["distance"]) is float and type(r["probability"]) is float for r in result.outcome_rows)


def test_empty_reference_distances_are_zero_in_closed_form():
    # With no reference and L = 1 each outcome's state is the 1 x 1 matrix p,
    # so omega / p - 1 and its trace norm vanish but for roundoff.
    (case,) = [c for c in INSTRUMENT_GOLDEN if c["name"] == "empty_reference"]
    spec = decoupling.InstrumentSpec(
        senders=tuple(decoupling.sender(*s) for s in case["senders"]), seed=case["seed"], samples=case["samples"]
    )
    result = decoupling.simulate_random_instrument(_golden_state(case["state"]), spec, [], keep_outcomes=True)
    assert {r["remainder"] for r in result.outcome_rows} == {False}
    assert max(r["distance"] for r in result.outcome_rows) <= 4 * np.finfo(float).eps
    assert 0.0 <= result.empirical_q <= 4 * np.finfo(float).eps


def test_instrument_golden_covers_remainders_and_zero_probabilities():
    rows = [row for case in INSTRUMENT_GOLDEN for row in case["outcome_rows"]]
    zero = [r for r in rows if float.fromhex(r[2]) < decoupling.ZERO_PROB]
    assert any(r[4] for r in zero) and any(not r[4] for r in zero)
    assert any(r[4] and float.fromhex(r[2]) >= decoupling.ZERO_PROB for r in rows)
    assert {len(case["senders"]) for case in INSTRUMENT_GOLDEN} == {1, 2}
    assert any(s[2] > 1 for case in INSTRUMENT_GOLDEN for s in case["senders"])


def _working_state(state, spec, ref_labels):
    """The working state as an operator tensor: the marginal on senders + reference with each
    sender's ancilla in I/K, both index sides grouped as (d_1 K_1, ..., d_m K_m, d_R)."""
    parts = [qcore.partial_trace(state, [s.label for s in spec.senders] + list(ref_labels))]
    order = []
    for s in spec.senders:
        order.append(s.label)
        if s.ancilla > 1:
            parts.append(qcore.max_mixed(s.ancilla, f"_anc{s.label}"))
            order.append(f"_anc{s.label}")
    work = qcore.permute_systems(qcore.tensor_all(parts), order + list(ref_labels))
    grouped = tuple(s.dim * s.ancilla for s in spec.senders) + (math.prod(state.dim_of(x) for x in ref_labels),)
    return work.matrix.reshape(grouped + grouped)


def _instrument_reference(state, spec, reference):
    """simulate_random_instrument's sample loop before it was batched and rotated a factor: one
    sample at a time, one qcore._sandwich of the dense working state per sender, one np.trace
    per outcome.  Returns (per_sample, outcome rows)."""
    ref_labels = qcore._normalize_labels(state, reference)
    work = _working_state(state, spec, ref_labels)
    ref_state = qcore.partial_trace(state, ref_labels).matrix if ref_labels else np.ones((1, 1))
    l_total = math.prod(s.rank for s in spec.senders)
    target = np.kron(np.eye(l_total) / l_total, ref_state)
    blocks_per_sender = [decoupling._outcome_blocks(s) for s in spec.senders]
    outcomes = []
    for combo in itertools.product(*[range(len(b)) for b in blocks_per_sender]):
        rows = tuple(blocks_per_sender[i][j] for i, j in enumerate(combo)) + (slice(None),)
        side = math.prod(r.stop - r.start for r in rows[:-1]) * work.shape[-1]
        remainder_hit = any(s.remainder and j == s.blocks for s, j in zip(spec.senders, combo))
        outcomes.append((rows + rows, side, "+".join(str(j) for j in combo), remainder_hit))

    per_sample = np.zeros(spec.samples)
    outcome_rows = []
    for idx, rng in enumerate(qcore.spawn_rngs(spec.seed, spec.samples)):
        rotated = work
        for i, s in enumerate(spec.senders):
            rotated = qcore._sandwich(qcore.haar_unitaries_per_stream(s.dim * s.ancilla, [rng])[0], rotated, [i])
        probs = []
        gaps = []
        for index, side, _, remainder_hit in outcomes:
            omega = rotated[index].reshape(side, side)
            p = float(np.real(np.trace(omega)))
            probs.append(p)
            if p >= decoupling.ZERO_PROB and not remainder_hit:
                gaps.append(omega / p - target)
        norms = iter(qcore.trace_norm(np.stack(gaps)).tolist() if gaps else ())
        total_q = 0.0
        total_p = 0.0
        for (_, _, label, remainder_hit), p in zip(outcomes, probs):
            total_p += p
            if p < decoupling.ZERO_PROB:
                distance = 0.0
            elif remainder_hit:
                distance = 2.0
            else:
                distance = next(norms)
            total_q += distance * p
            outcome_rows.append(
                {"sample": idx, "outcome": label, "probability": p, "distance": distance, "remainder": remainder_hit}
            )
        if abs(total_p - 1.0) > 1e-9:
            raise qcore.StateError(f"instrument outcome probabilities sum to {total_p!r}")
        per_sample[idx] = total_q
    return per_sample, outcome_rows


def _assert_close(got, want):
    assert len(got) == len(want)
    assert np.max(np.abs(np.subtract(got, want)), initial=0.0) <= ROUNDOFF


def _assert_rows_close(got, want):
    """Each row's sample, label and remainder flag are equal, its probability and distance within ROUNDOFF."""
    assert [(r["sample"], r["outcome"], r["remainder"]) for r in got] == [(r["sample"], r["outcome"], r["remainder"]) for r in want]
    for key in ("probability", "distance"):
        _assert_close([r[key] for r in got], [r[key] for r in want])


def _random_pure(dims, seed):
    return qcore.random_pure(dims, np.random.default_rng(seed))


def _random_mixed(dims, seed):
    return qcore.random_state(dims, np.random.default_rng(seed))


S = decoupling.sender
# (id, state, senders, reference, samples): sample counts on both sides of a
# chunk boundary, a shape over the chunk budget, outcome blocks of side 8 to
# 32, three senders and no reference.
BATCH_CASES = [
    ("one_sample", _random_pure([("C1", 2), ("C2", 4), ("R", 4)], 1), (S("C1", 2), S("C2", 4, ancilla=2)), ["R"], 1),
    ("two_sender_37", _random_pure([("C1", 2), ("C2", 4), ("R", 4)], 2), (S("C1", 2), S("C2", 4, ancilla=2)), ["R"], 37),
    ("two_sender_rem_33", _random_pure([("C1", 2), ("C2", 4), ("R", 4)], 3),
     (S("C1", 2), S("C2", 4, ancilla=2, rank=3)), ["R"], 33),
    ("single_helper_rem", _random_pure([("A", 2), ("B", 2), ("R", 2), ("C", 4)], 4), (S("C", 4, rank=3),), ["A", "R"], 20),
    ("over_budget", _random_mixed([("C", 8), ("R", 8)], 5), (S("C", 8, ancilla=5),), ["R"], 3),
    ("acceptance_44", acceptance._two_sender_state(), (S("C1", 2, ancilla=4), S("C2", 4, ancilla=4)), ["R"], 37),
    ("side8_mixed", _random_mixed([("C", 4), ("R", 4), ("B", 2)], 6), (S("C", 4, rank=2),), ["R"], 9),
    ("side16_rem", _random_mixed([("C", 5), ("R", 8)], 7), (S("C", 5, rank=2),), ["R"], 7),
    ("side32", _random_pure([("C", 4), ("R", 8), ("B", 2)], 8), (S("C", 4, ancilla=2, rank=4),), ["R"], 5),
    ("three_senders", _random_mixed([("C1", 2), ("C2", 2), ("C3", 3), ("R", 2)], 9),
     (S("C1", 2), S("C2", 2, ancilla=2), S("C3", 3, rank=2)), ["R"], 11),
    ("no_reference", _random_mixed([("C1", 2), ("C2", 3), ("B", 2)], 10), (S("C1", 2), S("C2", 3, ancilla=2)), [], 21),
]


def _low_support_pure(dims, label, seed):
    """A random pure state whose system ``label`` lives on its levels |0> and |1>."""
    rng = np.random.default_rng(seed)
    amplitudes = np.zeros([d for _, d in dims], dtype=complex)
    low = tuple(slice(0, 2) if name == label else slice(None) for name, _ in dims)
    amplitudes[low] = rng.standard_normal(amplitudes[low].shape) + 1j * rng.standard_normal(amplitudes[low].shape)
    return qcore.pure_state(dims, amplitudes.reshape(-1) / np.linalg.norm(amplitudes))


# Under the support2 patch the sender's levels above |1> stay empty, so their
# outcomes have probability 0, remainder outcomes included.
SUPPORT2_CASES = [
    ("support2_single", _low_support_pure([("C", 4), ("R", 2)], "C", 11), (S("C", 4),), ["R"], 5),
    ("support2_two_sender_37", _low_support_pure([("C1", 2), ("C2", 4), ("R", 4)], "C2", 12),
     (S("C1", 2), S("C2", 4, ancilla=2)), ["R"], 37),
    ("support2_remainder", _low_support_pure([("C", 5), ("R", 8)], "C", 13), (S("C", 5, rank=2),), ["R"], 6),
]


def _assert_matches_reference(case):
    name, state, senders, reference, samples = case
    spec = decoupling.InstrumentSpec(senders=senders, seed=len(name), samples=samples)
    want_per_sample, want_rows = _instrument_reference(state, spec, reference)
    got = decoupling.simulate_random_instrument(state, spec, reference, keep_outcomes=True)
    _assert_close(got.per_sample, want_per_sample)
    _assert_rows_close(got.outcome_rows, want_rows)
    return want_rows


@pytest.mark.parametrize("case", BATCH_CASES, ids=lambda c: c[0])
def test_batched_instrument_matches_the_per_sample_loop_bit_for_bit(case):
    _assert_matches_reference(case)


@pytest.mark.parametrize("case", SUPPORT2_CASES, ids=lambda c: c[0])
def test_batched_instrument_matches_the_per_sample_loop_on_zero_probabilities(case, monkeypatch):
    monkeypatch.setattr(qcore, "haar_unitaries_per_stream", _support_unitaries)
    rows = _assert_matches_reference(case)
    zero = [r for r in rows if r["probability"] < decoupling.ZERO_PROB]
    assert zero and any(r["probability"] >= decoupling.ZERO_PROB and r["distance"] > 0 for r in rows)
    if case[0] == "support2_remainder":
        assert {r["remainder"] for r in zero} == {True, False}


BATCH = {case[0]: case for case in BATCH_CASES}


def _chunk_lengths(case, monkeypatch):
    """The number of samples in each chunk that simulate_random_instrument rotates on ``case``."""
    _, state, senders, reference, samples = case
    rotated = decoupling._rotated
    lengths = []

    def spy(factor, senders, rngs):
        lengths.append(len(rngs))
        return rotated(factor, senders, rngs)

    monkeypatch.setattr(decoupling, "_rotated", spy)
    decoupling.simulate_random_instrument(state, decoupling.InstrumentSpec(senders=senders, samples=samples), reference)
    return lengths


def test_batch_cases_cross_chunk_boundaries_and_the_budget(monkeypatch):
    # (4, 4) runs 14 samples a chunk, so 37 cross two boundaries; 37 two-sender
    # samples fit in one chunk; one over_budget sample fills more than one.
    assert _chunk_lengths(BATCH["acceptance_44"], monkeypatch) == [14, 14, 9]
    assert _chunk_lengths(BATCH["two_sender_37"], monkeypatch) == [37]
    assert _chunk_lengths(BATCH["over_budget"], monkeypatch) == [1, 1, 1]


def test_chunks_bound_the_outcome_gaps_of_a_large_reference(monkeypatch):
    # A pure state with a rank-1 sender: the factor is 4 KiB a sample, but its
    # four 64 x 64 outcome gaps take 256 KiB, and a chunk holds at most
    # _CHUNK_BYTES of both, so 10 samples run in chunks of 3.
    state = _random_pure([("C", 4), ("R", 64)], 15)
    spec = decoupling.InstrumentSpec(senders=(S("C", 4),), seed=2, samples=10)
    norm = qcore.trace_norm
    stacks = []

    def spy(gaps):
        stacks.append(gaps.nbytes)
        return norm(gaps)

    monkeypatch.setattr(qcore, "trace_norm", spy)
    decoupling.simulate_random_instrument(state, spec, ["R"])
    assert len(stacks) == 4 and max(stacks) <= decoupling._CHUNK_BYTES


def test_instrument_moves_by_at_most_the_mass_the_factor_drops():
    # The state's eigenvalue delta = 4e-13 is at or below SUPPORT_TOL, so the
    # factor drops it: each probability moves by at most delta, each per-sample
    # value by 2 delta and each distance by 2 delta / (p - delta), beyond
    # ROUNDOFF.  The probabilities, which lose delta in all, move by more than
    # ROUNDOFF.
    delta = 4e-13
    basis = np.linalg.qr(np.random.default_rng(16).standard_normal((16, 2)) + 0j)[0]
    matrix = (1 - delta) * np.outer(basis[:, 0], basis[:, 0].conj()) + delta * np.outer(basis[:, 1], basis[:, 1].conj())
    state = qcore.make_state([("C", 4), ("R", 4)], matrix)
    spec = decoupling.InstrumentSpec(senders=(S("C", 4, ancilla=2),), seed=5, samples=9)
    assert decoupling._working_factor(state, spec, ["R"]).shape[-1] == 2
    want_per_sample, want_rows = _instrument_reference(state, spec, ["R"])
    got = decoupling.simulate_random_instrument(state, spec, ["R"], keep_outcomes=True)
    assert np.max(np.abs(got.per_sample - want_per_sample)) <= ROUNDOFF + 2 * delta
    assert [(r["sample"], r["outcome"], r["remainder"]) for r in got.outcome_rows] == [
        (r["sample"], r["outcome"], r["remainder"]) for r in want_rows
    ]
    moves = [abs(g["probability"] - w["probability"]) for g, w in zip(got.outcome_rows, want_rows)]
    assert ROUNDOFF < max(moves) <= ROUNDOFF + delta
    for g, w in zip(got.outcome_rows, want_rows):
        assert abs(g["distance"] - w["distance"]) <= ROUNDOFF + 2 * delta / (w["probability"] - delta)


def test_probability_sums_are_checked_against_the_mass_the_factor_keeps():
    # A pure state under a noise floor: its 1023 eigenvalues of 0.99e-12, each
    # at or below SUPPORT_TOL, drop delta = 1.01e-9 from the factor, more than
    # the 1e-9 by which a sample's probabilities may miss what they sum to.
    mu, d = 0.99e-12, 1024
    rng = np.random.default_rng(17)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    state = qcore.make_state([("C", 2), ("R", 512)], (1 - d * mu) * np.outer(psi, psi.conj()) + mu * np.eye(d))
    spec = decoupling.InstrumentSpec(senders=(S("C", 2),), seed=3, samples=2)
    got = decoupling.simulate_random_instrument(state, spec, ["R"], keep_outcomes=True)
    delta = (d - 1) * mu
    for sample in range(spec.samples):
        total = sum(r["probability"] for r in got.outcome_rows if r["sample"] == sample)
        assert abs(total - (1 - delta)) <= 1e-12
    want_per_sample, _ = _instrument_reference(state, spec, ["R"])
    assert np.max(np.abs(got.per_sample - want_per_sample)) <= ROUNDOFF + 2 * delta


def test_haar_draws_are_the_per_sample_loops_in_order(monkeypatch):
    # Each sample's own stream draws its senders' unitaries in order.  Draws
    # from different streams may interleave: only the order within a stream
    # decides a bit.
    _, state, senders, reference, _ = BATCH["three_senders"]
    spec = decoupling.InstrumentSpec(senders=senders, seed=4, samples=19)
    draw = qcore.haar_unitaries_per_stream
    calls = []

    def spy(dim, rngs):
        calls.extend((dim, rng.bit_generator.seed_seq.spawn_key) for rng in rngs)
        return draw(dim, rngs)

    def per_stream(drawn):
        dims = {}
        for dim, key in drawn:
            dims.setdefault(key, []).append(dim)
        return dims

    monkeypatch.setattr(qcore, "haar_unitaries_per_stream", spy)
    _instrument_reference(state, spec, reference)
    want, calls[:] = list(calls), []
    decoupling.simulate_random_instrument(state, spec, reference)
    assert per_stream(calls) == per_stream(want)
    assert len(per_stream(want)) == spec.samples
    assert want[:4] == [(2, (0,)), (4, (0,)), (3, (0,)), (2, (1,))]


def test_one_dimensional_sender_is_a_phase_that_is_not_applied():
    # Its 1 x 1 unitary is still drawn, so the other senders' draws are the
    # loop's, which applies the phase.
    state = _random_mixed([("C0", 1), ("C1", 3), ("R", 3), ("C2", 1)], 14)
    senders = (S("C0", 1), S("C1", 3, ancilla=2, rank=2), S("C2", 1))
    spec = decoupling.InstrumentSpec(senders=senders, seed=6, samples=20)
    got = decoupling.simulate_random_instrument(state, spec, ["R"], keep_outcomes=True)
    want_per_sample, want_rows = _instrument_reference(state, spec, ["R"])
    _assert_close(got.per_sample, want_per_sample)
    _assert_rows_close(got.outcome_rows, want_rows)


def test_a_pure_input_read_whole_is_rotated_without_an_eigendecomposition(monkeypatch):
    # The senders and the reference are all of the state's systems, so the
    # marginal is the state itself, stored as amplitudes: its factor is the
    # vector.
    state = _random_pure([("C1", 2), ("R", 2), ("C2", 4)], 25)
    spec = decoupling.InstrumentSpec(senders=(S("C2", 4, ancilla=2, rank=2), S("C1", 2)), seed=8, samples=12)
    eigh, calls = np.linalg.eigh, []

    def counted(matrix, *args, **kwargs):
        calls.append(np.shape(matrix))
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    got = decoupling.simulate_random_instrument(state, spec, ["R"], keep_outcomes=True)
    assert calls == []
    assert decoupling._working_factor(state, spec, ["R"]).shape == (8, 2, 2, 2)
    monkeypatch.undo()
    want_per_sample, want_rows = _instrument_reference(state, spec, ["R"])
    _assert_close(got.per_sample, want_per_sample)
    _assert_rows_close(got.outcome_rows, want_rows)


def test_a_pure_input_with_a_traced_system_decomposes_only_its_gram_matrix(monkeypatch):
    # The single_helper shape: B is traced, so the marginal on C, A and R is a
    # reduction of the vector that keeps a factor of d_B = 2 columns, and its
    # factor comes from the 2 x 2 Gram matrix, not the 16-sided marginal.
    state = _random_pure([("A", 2), ("B", 2), ("R", 2), ("C", 4)], 26)
    spec = decoupling.InstrumentSpec(senders=(S("C", 4),), seed=9, samples=12)
    eigh, calls = np.linalg.eigh, []

    def counted(matrix, *args, **kwargs):
        calls.append(np.shape(matrix))
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    got = decoupling.simulate_random_instrument(state, spec, ["A", "R"], keep_outcomes=True)
    assert calls == [(2, 2)]
    monkeypatch.undo()
    want_per_sample, want_rows = _instrument_reference(state, spec, ["A", "R"])
    _assert_close(got.per_sample, want_per_sample)
    _assert_rows_close(got.outcome_rows, want_rows)
