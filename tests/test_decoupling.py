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
    # reference between them: the tensor equals the marginal tensored with
    # I/K per ancilla and permuted to (C2, C2's ancilla, C1, R), entry for entry.
    state = qcore.random_state([("C1", 2), ("R", 2), ("B", 2), ("C2", 3)], np.random.default_rng(23))
    spec = decoupling.InstrumentSpec(senders=(decoupling.sender("C2", 3, ancilla=2), decoupling.sender("C1", 2)))
    work = decoupling._working_state(state, spec, ["R"])
    reference = qcore.tensor(qcore.partial_trace(state, ["C2", "C1", "R"]), qcore.max_mixed(2, "K2"))
    reference = qcore.permute_systems(reference, ["C2", "K2", "C1", "R"]).matrix
    assert work.shape == (6, 2, 2, 6, 2, 2)
    assert np.array_equal(work.reshape(24, 24), reference)


# tests/data/instrument_golden.json was written by the one-outcome-at-a-time
# loop (commit cbacd45), whose distances came from one trace_norm call each:
# every per-sample value and outcome row, as float.hex.  The fields of the
# five random pure-state cases that moved when a reduction of a state stored
# as amplitudes became one Gram product were rewritten then, and only those.
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


def test_instrument_golden_covers_remainders_and_zero_probabilities():
    rows = [row for case in INSTRUMENT_GOLDEN for row in case["outcome_rows"]]
    zero = [r for r in rows if float.fromhex(r[2]) < decoupling.ZERO_PROB]
    assert any(r[4] for r in zero) and any(not r[4] for r in zero)
    assert any(r[4] and float.fromhex(r[2]) >= decoupling.ZERO_PROB for r in rows)
    assert {len(case["senders"]) for case in INSTRUMENT_GOLDEN} == {1, 2}
    assert any(s[2] > 1 for case in INSTRUMENT_GOLDEN for s in case["senders"])


def _instrument_reference(state, spec, reference):
    """simulate_random_instrument's sample loop before it was batched: one sample at a time, one
    qcore._sandwich per sender, one np.trace per outcome.  Returns (per_sample, outcome rows)."""
    ref_labels = qcore._normalize_labels(state, reference)
    work = decoupling._working_state(state, spec, ref_labels)
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


def _hex_rows(rows):
    return [(r["sample"], r["outcome"], r["probability"].hex(), r["distance"].hex(), r["remainder"]) for r in rows]


def _working_nbytes(state, senders, reference):
    spec = decoupling.InstrumentSpec(senders=senders)
    return decoupling._working_state(state, spec, qcore._normalize_labels(state, reference)).nbytes


def _random_pure(dims, seed):
    return qcore.random_pure(dims, np.random.default_rng(seed))


def _random_mixed(dims, seed):
    return qcore.random_state(dims, np.random.default_rng(seed))


S = decoupling.sender
# (id, state, senders, reference, samples): sample counts on both sides of a
# chunk boundary, a shape over the chunk budget, outcome blocks of side 8 to
# 32 (pairwise summation inside np.trace), three senders and no reference.
BATCH_CASES = [
    ("one_sample", _random_pure([("C1", 2), ("C2", 4), ("R", 4)], 1), (S("C1", 2), S("C2", 4, ancilla=2)), ["R"], 1),
    ("two_sender_37", _random_pure([("C1", 2), ("C2", 4), ("R", 4)], 2), (S("C1", 2), S("C2", 4, ancilla=2)), ["R"], 37),
    ("two_sender_rem_33", _random_pure([("C1", 2), ("C2", 4), ("R", 4)], 3),
     (S("C1", 2), S("C2", 4, ancilla=2, rank=3)), ["R"], 33),
    ("single_helper_rem", _random_pure([("A", 2), ("B", 2), ("R", 2), ("C", 4)], 4), (S("C", 4, rank=3),), ["A", "R"], 20),
    ("over_budget", _random_pure([("C", 8), ("R", 16)], 5), (S("C", 8, ancilla=4),), ["R"], 3),
    ("acceptance_44", acceptance._two_sender_state(), (S("C1", 2, ancilla=4), S("C2", 4, ancilla=4)), ["R"], 3),
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
    assert got.per_sample.tobytes() == want_per_sample.tobytes()
    assert _hex_rows(got.outcome_rows) == _hex_rows(want_rows)
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


def test_batch_cases_cross_chunk_boundaries_and_the_budget():
    _, state, senders, reference, samples = BATCH["two_sender_37"]
    assert _working_nbytes(state, senders, reference) * 16 == decoupling._CHUNK_BYTES and samples % 16
    _, state, senders, reference, _ = BATCH["acceptance_44"]
    assert _working_nbytes(state, senders, reference) == decoupling._CHUNK_BYTES
    _, state, senders, reference, _ = BATCH["over_budget"]
    assert _working_nbytes(state, senders, reference) > decoupling._CHUNK_BYTES


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


def test_one_dimensional_sender_is_a_phase_that_is_not_applied(monkeypatch):
    # Its 1 x 1 unitary is still drawn, so the other senders' draws are the loop's.
    state = _random_mixed([("C0", 1), ("C1", 3), ("R", 3), ("C2", 1)], 14)
    senders = (S("C0", 1), S("C1", 3, ancilla=2, rank=2), S("C2", 1))
    spec = decoupling.InstrumentSpec(senders=senders, seed=6, samples=20)
    got = decoupling.simulate_random_instrument(state, spec, ["R"], keep_outcomes=True)
    want_per_sample, want_rows = _instrument_reference(state, spec, ["R"])
    assert np.max(np.abs(got.per_sample - want_per_sample)) <= 1e-14
    assert [(r["outcome"], r["remainder"]) for r in got.outcome_rows] == [(r["outcome"], r["remainder"]) for r in want_rows]

    # With each phase set to exactly 1 the loop applies the identity too, and the bits agree.
    draw = qcore.haar_unitaries_per_stream

    def unit_phase(dim, rngs):
        u = draw(dim, rngs)
        return np.ones_like(u) if dim == 1 else u

    monkeypatch.setattr(qcore, "haar_unitaries_per_stream", unit_phase)
    want_per_sample, want_rows = _instrument_reference(state, spec, ["R"])
    monkeypatch.undo()
    assert got.per_sample.tobytes() == want_per_sample.tobytes()
    assert _hex_rows(got.outcome_rows) == _hex_rows(want_rows)
