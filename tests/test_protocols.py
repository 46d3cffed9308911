import math
from fractions import Fraction

import numpy as np
import pytest

from entlab import entropy, protocols, qcore


def test_swap_balanced_links_always_convert():
    trace = protocols.entanglement_swap(Fraction(1, 2), Fraction(1, 2))
    assert trace.aggregate["scp"] == 1
    probs = {o.label: o.probability for o in trace.outcomes}
    assert probs["01"] == Fraction(1, 4) and probs["11"] == Fraction(1, 4)


def test_swap_branch_probabilities():
    trace = protocols.entanglement_swap(Fraction(3, 4), Fraction(1, 4))
    probs = {o.label: o.probability for o in trace.outcomes}
    assert probs["01"] == Fraction(3, 16) and probs["11"] == Fraction(3, 16)
    assert probs["00"] == Fraction(5, 16) and probs["10"] == Fraction(5, 16)
    assert trace.aggregate["scp"] == Fraction(1, 2)
    partial = next(o for o in trace.outcomes if o.label == "00")
    assert partial.register["procrustean_success"] == Fraction(2, 10)


def test_swap_exactness_for_rationals_and_float_path():
    for lam2 in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
        trace = protocols.entanglement_swap(1 - lam2, lam2)
        assert trace.aggregate["exact"]
        assert trace.aggregate["scp"] == 2 * lam2
    trace = protocols.entanglement_swap(0.7, 0.3)
    assert not trace.aggregate["exact"]
    assert trace.aggregate["scp"] == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(qcore.StateError):
        protocols.entanglement_swap(0.4, 0.6)


def test_bell_diagonal_entropy_matches_weights():
    p = (0.8, 0.1, 0.05, 0.05)
    state = protocols.bell_diagonal_state(p)
    assert entropy.von_neumann(state) == pytest.approx(qcore.shannon_entropy(p), abs=1e-9)


def test_hashing_known_string_needs_no_rounds():
    trace = protocols.hashing_simulation((1.0, 0.0, 0.0, 0.0), n=50, delta=0.05, trials=3, seed=1)
    agg = trace.aggregate
    assert agg["rounds_run"] == 0
    assert agg["yield"] == 1.0
    assert agg["feasible"]
    assert agg["success_frequency"] == 1.0


def test_hashing_uniform_weights_is_infeasible():
    trace = protocols.hashing_simulation((0.25, 0.25, 0.25, 0.25), n=100, delta=0.05, trials=2, seed=2)
    agg = trace.aggregate
    assert not agg["feasible"]
    assert agg["nominal_yield"] <= 0.0
    assert agg["rounds_run"] == 100


def test_hashing_identifies_string_and_replays():
    trace = protocols.hashing_simulation((0.7, 0.15, 0.1, 0.05), n=120, delta=0.1, trials=5, seed=3, decoys=500)
    agg = trace.aggregate
    assert agg["success_frequency"] >= 0.8
    first = agg["trial_records"][0]
    assert protocols.replay_hashing_trial(first)
    assert len(first.rounds) == agg["rounds_run"]
    # Each round consumed a distinct pair.
    consumed = [r.consumed_pair for r in first.rounds]
    assert len(set(consumed)) == len(consumed)


def test_hashing_round_count_follows_entropy_rate():
    p = (0.7, 0.15, 0.1, 0.05)
    s = qcore.shannon_entropy(p)
    trace = protocols.hashing_simulation(p, n=200, delta=0.05, trials=1, seed=4, decoys=100)
    assert trace.aggregate["nominal_rounds"] == math.ceil(200 * (s + 0.1))


def test_schmidt_projection_balanced_two_copies():
    trace = protocols.schmidt_projection(math.pi / 4, 2)
    probs = [float(o.probability) for o in trace.outcomes]
    assert probs == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
    ranks = [o.register["rank"] for o in trace.outcomes]
    assert ranks == [1, 2, 1]
    assert trace.aggregate["expected_entanglement"] == pytest.approx(0.5, abs=1e-12)
    assert trace.aggregate["sandwich_ok"]


def test_schmidt_projection_weak_link_yields_little():
    trace = protocols.schmidt_projection(0.05, 8)
    assert trace.aggregate["expected_entanglement"] < 0.1
    assert trace.aggregate["sandwich_ok"]


def test_schmidt_projection_entropy_gap_grows_slowly():
    for n in (10, 50):
        trace = protocols.schmidt_projection(math.pi / 6, n)
        gap = trace.aggregate["n_times_entropy"] - trace.aggregate["expected_entanglement"]
        assert 0.0 <= gap <= trace.aggregate["outcome_entropy"] + 1e-9
        assert trace.aggregate["outcome_entropy"] <= math.log2(n + 1.0)
    small = protocols.schmidt_projection(math.pi / 6, 10).aggregate["outcome_entropy"]
    large = protocols.schmidt_projection(math.pi / 6, 50).aggregate["outcome_entropy"]
    assert large - small <= math.log2(50 / 10) + 1.0


def test_schmidt_projection_exact_probability_total():
    trace = protocols.schmidt_projection(0.8, 40)
    assert sum(o.probability for o in trace.outcomes) == 1


def test_bell_string_round_trip():
    # Hashing reads Bell symbol s as the bit pair (s >> 1, s & 1), one string or a batch at a time.
    symbols = np.array([0, 3, 2, 1], dtype=np.uint8)
    bits = protocols._symbols_to_bits(symbols)
    assert bits.tolist() == [0, 0, 1, 1, 1, 0, 0, 1]
    assert (2 * bits[0::2] + bits[1::2]).tolist() == symbols.tolist()
    assert np.array_equal(protocols._symbols_to_bits(np.stack([symbols, symbols[::-1]]))[0], bits)
    assert [protocols.BELL_ORDER[s] for s in symbols] == ["phi_plus", "psi_minus", "phi_minus", "psi_plus"]
