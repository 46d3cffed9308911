import dataclasses
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from entlab import cli, entropy, protocols, qcore, typicality

DATA = Path(__file__).parent / "data"


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


@pytest.mark.parametrize("lambda1, lambda2", [(math.nan, 0.3), (0.7, math.nan), (math.nan, math.nan), (math.inf, -math.inf)])
def test_swap_rejects_weights_that_are_not_finite(lambda1, lambda2):
    with pytest.raises(qcore.StateError, match="finite"):
        protocols.entanglement_swap(lambda1, lambda2)


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
    # The panel empties well before the last round and stays empty.
    sizes = [r.panel_size for r in first.rounds]
    assert 0 < sizes[0] < 500
    assert sizes.index(0) < len(sizes) - 1
    assert sizes[sizes.index(0) :] == [0] * (len(sizes) - sizes.index(0))


def test_round_log_keeps_subsets_as_uint16():
    # 2n <= 10000 indices fit in uint16: trial 0's log holds two bytes per
    # logged index.
    trace = protocols.hashing_simulation((0.9, 0.05, 0.03, 0.02), n=400, delta=0.05, trials=2, seed=5, decoys=100)
    rounds = trace.aggregate["trial_records"][0].rounds
    assert len(rounds) == trace.aggregate["rounds_run"] > 0
    assert {r.subset_bits.dtype for r in rounds} == {np.dtype(np.uint16)}
    indices = sum(r.subset_bits.size for r in rounds)
    assert sum(r.subset_bits.nbytes for r in rounds) == 2 * indices
    assert trace.aggregate["trial_records"][1].rounds == []


def _replayable_trial() -> protocols.HashingTrial:
    trace = protocols.hashing_simulation((0.7, 0.15, 0.1, 0.05), n=120, delta=0.1, trials=1, seed=3, decoys=50)
    trial = trace.aggregate["trial_records"][0]
    assert protocols.replay_hashing_trial(trial)
    return trial


def test_replay_rejects_a_flipped_parity():
    trial = _replayable_trial()
    announced = trial.rounds[5]
    trial.rounds[5] = dataclasses.replace(announced, parity=1 - announced.parity)
    assert not protocols.replay_hashing_trial(trial)


def test_replay_rejects_a_subset_that_touches_a_consumed_pair():
    trial = _replayable_trial()
    consumed = trial.rounds[0].consumed_pair
    later = trial.rounds[1]
    subset = np.append(later.subset_bits, np.uint16(2 * consumed))
    # The parity stays true to the hidden string, so only the consumed pair can fail the replay.
    parity = int(protocols._symbols_to_bits(trial.hidden)[subset].sum() & 1)
    trial.rounds[1] = dataclasses.replace(later, subset_bits=subset, parity=parity)
    assert not protocols.replay_hashing_trial(trial)


def test_replay_rejects_a_round_that_consumes_another_pair():
    # Round r consumes the pair of its largest subset bit.  The last round's pair
    # is touched by no later subset, so only that rule can catch this log.
    trial = _replayable_trial()
    last = trial.rounds[-1]
    trial.rounds[-1] = dataclasses.replace(last, consumed_pair=(last.consumed_pair + 1) % trial.hidden.size)
    assert not protocols.replay_hashing_trial(trial)


def _rounds_reference(p, n, delta, trials, seed, decoys):
    """hashing_simulation's round loop before it drew its masks ahead: one
    rng.integers mask per round over the flatnonzero of a bool array of alive
    bits.  Returns each trial's surviving decoys, trial 0's rounds as (subset,
    parity, consumed pair, panel size) and the number of all-zero masks redrawn."""
    p = np.asarray(p, dtype=float)
    s_bits = entropy.von_neumann(protocols.bell_diagonal_state(p))
    nominal_rounds = 0 if s_bits < 1e-9 else math.ceil(n * (s_bits + 2.0 * delta))
    survivors, log, redraws = [], [], 0
    for trial_index, rng in enumerate(qcore.spawn_rngs(seed, trials)):
        hidden = protocols._sample_symbols(rng, p, n)
        panel = protocols._sample_typical_panel(rng, p, n, delta, decoys)
        panel ^= protocols._pack_symbols(hidden)
        panel = panel[panel.any(axis=1)]
        hidden_bits = protocols._symbols_to_bits(hidden)
        bit_alive = np.ones(2 * n, dtype=bool)
        for _ in range(min(n, nominal_rounds)):
            if not (trial_index == 0 or panel.shape[0]):
                break
            alive = np.flatnonzero(bit_alive)
            while True:
                mask = rng.integers(0, 2, size=alive.size, dtype=np.uint8).view(bool)
                if mask.any():
                    break
                redraws += 1
            subset = alive[mask]
            if panel.shape[0]:
                panel = panel[protocols._parities(panel, protocols._pack_subset(subset, n)) == 0]
            consumed = int(subset[-1] // 2)
            bit_alive[2 * consumed : 2 * consumed + 2] = False
            if trial_index == 0:
                parity = int(np.bitwise_xor.reduce(hidden_bits[subset]))
                log.append((subset, parity, consumed, int(panel.shape[0])))
        survivors.append(int(panel.shape[0]))
    return survivors, log, redraws


# (p, n, delta, trials, seed, decoys).  Uniform p and p = (0.8, 0.1, 0.05, 0.05)
# are infeasible: every pair is consumed and the last rounds draw masks of 4
# and 2 bits, which are all zero one time in 16 and in 4.
_ROUND_CASES = [
    ((0.25, 0.25, 0.25, 0.25), 6, 0.3, 3, seed, 50) for seed in (1, 2, 3)
] + [
    ((0.8, 0.1, 0.05, 0.05), 64, 0.05, 3, 4, 300),
    ((0.8, 0.1, 0.05, 0.05), 301, 0.05, 2, 5, 300),
    ((0.7, 0.15, 0.1, 0.05), 9, 0.2, 4, 6, 100),
    ((0.9, 0.05, 0.03, 0.02), 301, 0.05, 3, 7, 2000),
    ((0.9, 0.05, 0.03, 0.02), 5000, 0.05, 2, 8, 200),
]


@pytest.fixture(scope="module")
def round_runs():
    return [(case, _rounds_reference(*case), protocols.hashing_simulation(*case)) for case in _ROUND_CASES]


def test_rounds_match_the_per_round_loop(round_runs):
    for case, (survivors, log, _), trace in round_runs:
        records = trace.aggregate["trial_records"]
        assert [t.decoys_surviving for t in records] == survivors, case
        got = records[0].rounds
        assert [(r.parity, r.consumed_pair, r.panel_size) for r in got] == [row[1:] for row in log], case
        assert all(np.array_equal(r.subset_bits, row[0]) for r, row in zip(got, log)), case
        assert {r.subset_bits.dtype for r in records[0].rounds} <= {np.dtype(np.uint16)}


def test_round_cases_redraw_and_reach_the_last_pair_and_the_largest_n(round_runs):
    assert sum(redraws for _, (_, _, redraws), _ in round_runs) > 0
    for case, (_, log, _), trace in round_runs:
        if not trace.aggregate["feasible"]:
            assert trace.aggregate["rounds_run"] == case[1] == len(log)
            assert len(log[-1][0]) <= 2
    # At n = 5000 the uint16 subsets reach _pack_subset's largest flag index,
    # 64 w + 4999 with w = 79 words per plane, and filter a non-empty panel.
    case, (_, log, _), _ = round_runs[-1]
    assert case[1] == 5000 and max(int(r[0][-1]) for r in log) >= 9998 and log[0][3] > 0


@pytest.mark.parametrize(
    "ms",
    [[1, 2, 3, 4, 5, 7, 3998, 4000], [4000] * 20 + [3998] * 20 + [7, 5, 3, 1], [1, 2] * 40],
    ids=["lengths", "refills", "short"],
)
@pytest.mark.parametrize("lead", [0, 1, 3])
def test_round_masks_are_the_integers_draws(ms, lead):
    # Call after call, across refills of the buffer (40 calls of 1000 words
    # overrun its 2^14 and leave part of a call at the end of a fill), the
    # masks are rng.integers' bool masks.  A helper told the words its calls
    # take leaves the generator as integers does.  An odd lead of float32
    # draws leaves half a word buffered at the start.
    drawn, masked = np.random.default_rng(12), np.random.default_rng(12)
    for rng in (drawn, masked):
        rng.random(lead, dtype=np.float32)
    masks = protocols._RoundMasks(masked, sum(-(-m // 4) for m in ms))
    for m in ms:
        got = masks(m)
        assert got.dtype == np.dtype(bool)
        assert np.array_equal(got, drawn.integers(0, 2, m, dtype=np.uint8).view(bool))
    assert masked.bit_generator.state == drawn.bit_generator.state


@pytest.mark.parametrize("lead", [0, 1])
def test_round_masks_redraw_as_the_round_loop_does(lead):
    # Rounds over 8, 6, 4 and 2 alive bits, each mask redrawn while all zero.
    # The plan counts one draw per round, so the redraws overrun it; the masks
    # and the generator's end state are still those of rng.integers.
    redraws = 0
    for seed in range(20):
        drawn, masked = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (drawn, masked):
            rng.random(lead, dtype=np.float32)
        masks = protocols._RoundMasks(masked, sum(-(-m // 4) for m in (8, 6, 4, 2)))
        for m in (8, 6, 4, 2):
            while True:
                got, want = masks(m), drawn.integers(0, 2, m, dtype=np.uint8).view(bool)
                assert np.array_equal(got, want)
                if want.any():
                    break
                redraws += 1
        assert masked.bit_generator.state == drawn.bit_generator.state
    assert redraws > 0


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


# ---------------------------------------------------------------------------
# The packed parity kernel
# ---------------------------------------------------------------------------


def _bytewise_parities(bits, subset):
    # Byte-wise reference: one uint8 per bit, gathered and summed.
    return bits[:, subset].sum(axis=1) & 1


def _check_packed_against_bytewise(symbols, subset):
    n = symbols.shape[-1]
    expected = _bytewise_parities(protocols._symbols_to_bits(symbols), subset)
    words = protocols._pack_symbols(symbols)
    got = protocols._parities(words, protocols._pack_subset(subset, n))
    assert got.tolist() == expected.tolist()
    # The packed survivors are the packed byte-wise survivors, in order.
    survivors = words[got == 0]
    assert np.array_equal(survivors, protocols._pack_symbols(symbols[expected == 0]))
    return expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_packed_parities_match_bytewise_on_every_string(n):
    symbols = np.array(list(itertools.product(range(4), repeat=n)), dtype=np.uint8)
    if n <= 3:
        subsets = [np.flatnonzero(flags) for flags in itertools.product((0, 1), repeat=2 * n)]
    else:
        rng = np.random.default_rng(n)
        subsets = [np.flatnonzero(rng.integers(0, 2, size=2 * n)) for _ in range(64)]
    for subset in subsets:
        _check_packed_against_bytewise(symbols, subset)


@pytest.mark.parametrize("n", [1, 31, 32, 33, 63, 64, 65, 2000])
def test_packed_parities_match_bytewise_across_word_boundaries(n):
    # 2n bits on both sides of the 64-bit boundaries; the last pair and bit are always in some subsets.
    rng = np.random.default_rng(1000 + n)
    symbols = rng.integers(0, 4, size=(300, n), dtype=np.uint8)
    subsets = [np.flatnonzero(rng.integers(0, 2, size=2 * n)) for _ in range(20)]
    subsets = [s for s in subsets if s.size]  # a round never announces an empty subset
    subsets += [np.array([2 * n - 1]), np.array([2 * n - 2]), np.arange(2 * n)]
    for subset in subsets:
        expected = _check_packed_against_bytewise(symbols, subset)
        assert 0 < expected.sum() < len(symbols)  # rows survive and rows drop
    hidden = symbols[0]
    for subset in subsets:
        one = protocols._parities(protocols._pack_symbols(hidden), protocols._pack_subset(subset, n))
        assert int(one) == int(protocols._symbols_to_bits(hidden)[subset].sum() & 1)


# tests/data/hashing_golden.json was written by the byte-wise round filter
# (commit 4b57762): small panels where decoys survive, with the per-trial
# survivor counts and trial 0's round log.
HASHING_GOLDEN = json.loads((DATA / "hashing_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", HASHING_GOLDEN, ids=lambda c: f"n{c['n']}-seed{c['seed']}")
def test_hashing_matches_bytewise_golden(case):
    trace = protocols.hashing_simulation(
        case["p"], case["n"], case["delta"], trials=case["trials"], seed=case["seed"], decoys=case["decoys"]
    )
    records = trace.aggregate["trial_records"]
    assert trace.aggregate["rounds_run"] == case["rounds_run"]
    assert [t.decoys_surviving for t in records] == case["decoys_surviving"]
    assert [t.hidden_typical for t in records] == case["hidden_typical"]
    rounds = [
        {"subset_bits": r.subset_bits.tolist(), "parity": r.parity, "consumed_pair": r.consumed_pair}
        for r in records[0].rounds
    ]
    assert rounds == case["trial0_rounds"]
    assert protocols.replay_hashing_trial(records[0])
    sizes = [r.panel_size for r in records[0].rounds]
    assert sizes[0] <= case["decoys"]
    assert all(later <= earlier for earlier, later in zip(sizes, sizes[1:]))
    assert sizes[-1] == records[0].decoys_surviving


# tests/data/hashing_rounds_golden.json was written by the loop that packed
# and filtered every round (commit cbacd45): trial 0's panel empties well
# before its last round, and each round is [subset, parity, consumed pair,
# panel size].
HASHING_ROUNDS_GOLDEN = json.loads((DATA / "hashing_rounds_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", HASHING_ROUNDS_GOLDEN, ids=lambda c: f"n{c['n']}-seed{c['seed']}")
def test_hashing_round_log_matches_golden(case):
    trace = protocols.hashing_simulation(
        case["p"], case["n"], case["delta"], trials=case["trials"], seed=case["seed"], decoys=case["decoys"]
    )
    agg = trace.aggregate
    records = agg["trial_records"]
    assert (agg["feasible"], agg["rounds_run"]) == (case["feasible"], case["rounds_run"])
    assert [t.decoys_surviving for t in records] == case["decoys_surviving"]
    assert [t.hidden_typical for t in records] == case["hidden_typical"]
    rounds = [[r.subset_bits.tolist(), r.parity, r.consumed_pair, r.panel_size] for r in records[0].rounds]
    assert rounds == case["trial0_rounds"]
    assert all(type(r.parity) is int and type(r.consumed_pair) is int for r in records[0].rounds)
    assert protocols.replay_hashing_trial(records[0])


def test_hashing_rounds_golden_empties_early_in_both_regimes():
    assert {c["feasible"] for c in HASHING_ROUNDS_GOLDEN} == {True, False}
    for case in HASHING_ROUNDS_GOLDEN:
        sizes = [r[3] for r in case["trial0_rounds"]]
        assert len(sizes) == case["rounds_run"]
        assert sizes.index(0) < len(sizes) // 4


@pytest.mark.parametrize(
    "case", [c for c in HASHING_GOLDEN if c["n"] <= 9], ids=lambda c: f"n{c['n']}-seed{c['seed']}"
)
def test_hashing_decoys_match_the_exact_oracle(case):
    # All 4^n strings: the typical ones, and those a decoy could be while
    # surviving trial 0 (typical, not the hidden string, every announced
    # parity matched).  Decoys are i.i.d. from p restricted to the typical
    # set, so the survivor count is Binomial(decoys, q).
    p, n, delta, decoys = np.asarray(case["p"]), case["n"], case["delta"], case["decoys"]
    strings = np.array(list(itertools.product(range(4), repeat=n)), dtype=np.uint8)
    typical = typicality.typical_mask(strings, p, delta)
    assert int(typical.sum()) == typicality.typical_set(p, n, delta).cardinality
    trace = protocols.hashing_simulation(p, n, delta, trials=case["trials"], seed=case["seed"], decoys=decoys)
    trial = trace.aggregate["trial_records"][0]
    bits = protocols._symbols_to_bits(strings)
    survivors = typical & (strings != trial.hidden).any(axis=1)
    for rnd in trial.rounds:
        survivors &= (bits[:, rnd.subset_bits].sum(axis=1) & 1) == rnd.parity
    if not survivors.any():
        assert trial.decoys_surviving == 0
    elif (survivors == typical).all():
        assert trial.decoys_surviving == decoys
    else:
        probs = p[strings].prod(axis=1)
        q = probs[survivors].sum() / probs[typical].sum()
        z = (trial.decoys_surviving - decoys * q) / math.sqrt(decoys * q * (1 - q))
        assert abs(z) <= 5, (q, trial.decoys_surviving)


# ---------------------------------------------------------------------------
# The fused decoy sampler
# ---------------------------------------------------------------------------


def _reference_panel(rng, p, n, delta, count):
    # The sampler before fusing: whole batches of thresholded symbols,
    # typical_mask, concatenate and truncate, then pack.  Returns the panel and
    # the number of batches drawn.
    cut = np.cumsum(p)[:3].astype(np.float32)
    out = np.empty((0, n), dtype=np.uint8)
    batches = 0
    while out.shape[0] < count:
        u = rng.random((count, n), dtype=np.float32)
        batch = (u > cut[0]).astype(np.uint8)
        batch += u > cut[1]
        batch += u > cut[2]
        out = np.concatenate([out, batch[typicality.typical_mask(batch, p, delta)]])[:count]
        batches += 1
    return protocols._pack_symbols(out), batches


def _both_panels(p, n, delta, count, seed, monkeypatch, lead=0):
    """Draw a panel with the reference and with the fused sampler from equal
    generators, and check that the panels and the generators' states agree.
    ``lead`` uniforms are drawn first, as the hidden string is.  Returns the
    reference's batch count and each skip of the fused sampler as (draws
    skipped, whether a half-word was buffered)."""
    p = np.asarray(p)
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    for rng in rngs:
        rng.random(lead, dtype=np.float32)
    skips = []
    real_skip = protocols._skip_floats

    def spy(rng, k):
        skips.append((k, rng.bit_generator.state["has_uint32"]))
        real_skip(rng, k)

    monkeypatch.setattr(protocols, "_skip_floats", spy)
    expected, batches = _reference_panel(rngs[0], p, n, delta, count)
    got = protocols._sample_typical_panel(rngs[1], p, n, delta, count)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert rngs[1].bit_generator.state == rngs[0].bit_generator.state
    assert rngs[1].random(5).tolist() == rngs[0].random(5).tolist()
    return batches, skips


# (n, delta) pairs that keep about 70-80% of the draws of p = (0.7, 0.15, 0.1, 0.05).
@pytest.mark.parametrize(
    "n, delta",
    [(1, 0.3), (7, 0.2), (63, 0.08), (64, 0.08), (65, 0.08), (301, 0.04), (1001, 0.02), (2000, 0.015)],
)
def test_fused_sampler_matches_the_batch_sampler(n, delta, monkeypatch):
    batches, skips = _both_panels((0.7, 0.15, 0.1, 0.05), n, delta, 300, seed=n, monkeypatch=monkeypatch)
    assert batches >= 2
    assert len(skips) == 1


def test_fused_sampler_matches_across_many_batches(monkeypatch):
    batches, _ = _both_panels((0.8, 0.1, 0.05, 0.05), 1000, 0.01, 200, seed=5, monkeypatch=monkeypatch)
    assert batches >= 3


def test_fused_sampler_stops_inside_a_first_chunk(monkeypatch):
    # 65 rows of 2000 uniforms fill a chunk.  The first 100-row batch keeps
    # fewer than 100 rows, and the first chunk of the second batch tops the
    # panel up, so the sampler skips that batch's last 35 rows.
    n, count = 2000, 100
    rows = protocols._CHUNK_DRAWS // n
    batches, skips = _both_panels((0.7, 0.15, 0.1, 0.05), n, 0.015, count, seed=2, monkeypatch=monkeypatch)
    assert batches == 2
    assert [k for k, _ in skips] == [(count - rows) * n]


@pytest.mark.parametrize(
    "n, count, lead, odd, buffered",
    [(301, 500, 0, 1, 1), (301, 500, 1, 1, 0), (65, 3000, 0, 0, 0), (65, 3000, 1, 0, 1)],
)
def test_fused_sampler_keeps_the_half_word_buffer(n, count, lead, odd, buffered, monkeypatch):
    # A lead of one uniform (an odd-n hidden string) leaves half of a 64-bit
    # word in the generator's buffer when the panel starts.  Each case stops in
    # the first chunk of the second batch, with an odd or even number of draws
    # to skip, and with or without a buffered half at that point.
    _, skips = _both_panels((0.7, 0.15, 0.1, 0.05), n, 0.04, count, seed=11, monkeypatch=monkeypatch, lead=lead)
    assert [(k > 0, k % 2, has_half) for k, has_half in skips] == [(True, odd, buffered)]


def test_sampler_thresholds_never_decrease():
    # bell_diagonal_state lets a weight reach -1e-12.  Just above a float32
    # midpoint, p(0) rounds up while p(0) + p(1) rounds down, and the nested
    # planes the fused sampler counts would not be nested.
    low = np.float32(0.3)
    p0 = (float(low) + float(np.nextafter(low, np.float32(1)))) / 2 + 4e-13
    p = np.array([p0, -1e-12, 0.3, 0.7 - p0 + 1e-12])
    protocols.bell_diagonal_state(p)
    assert np.cumsum(p)[1].astype(np.float32) < np.float32(p0)
    cut = protocols._cuts(p)
    assert np.all(np.diff(cut) >= 0)
    # At delta = 0.3 every drawn string is typical, so the panel is the symbol draw packed.
    rngs = [np.random.default_rng(4) for _ in range(2)]
    symbols = protocols._sample_symbols(rngs[0], p, (400, 50))
    assert typicality.typical_mask(symbols, p, 0.3).all()
    panel = protocols._sample_typical_panel(rngs[1], p, 50, 0.3, 400)
    assert np.array_equal(panel, protocols._pack_symbols(symbols))


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 1000, 1001])
@pytest.mark.parametrize("lead", [0, 1])
def test_skip_floats_leaves_the_state_of_drawing(k, lead):
    drawn, skipped = np.random.default_rng(9), np.random.default_rng(9)
    for rng in (drawn, skipped):
        rng.random(lead, dtype=np.float32)
    drawn.random(k, dtype=np.float32)
    protocols._skip_floats(skipped, k)
    assert skipped.bit_generator.state == drawn.bit_generator.state


# Edge cuts of the float32 sampler and their float32 neighbours: below 0,
# 0, the smallest uniform above 0, cuts on exact multiples of 2^-24, and 1.0.
_EDGE_CUTS = sorted(
    {
        float(np.nextafter(np.float32(c), np.float32(towards)))
        for c in (-1e-12, 0.0, 2.0**-24, 0.5, 0.75, 1.0)
        for towards in (-1.0, c, 2.0)
    }
)


def test_word_cuts_match_float_thresholds_on_every_mantissa():
    # u = (x >> 8) 2^-24 for the uint32 x behind a float32 draw: for every
    # 24-bit mantissa, and both extremes of the 8 dropped bits, x >= t must be
    # u > cut.  p = (c, 0, 0, 1 - c) makes all three cuts c.
    cuts = [np.float32(c) for c in _EDGE_CUTS]
    thresholds = [protocols._word_cuts(np.array([c, 0.0, 0.0, 1.0 - float(c)]))[0] for c in cuts]
    assert len(cuts) >= 13
    block = 1 << 20
    for start in range(0, 1 << 24, block):
        mantissa = np.arange(start, start + block, dtype=np.uint32)
        u = mantissa.astype(np.float32) * np.float32(2.0**-24)
        low, high = mantissa << 8, (mantissa << 8) | 0xFF
        for c, t in zip(cuts, thresholds):
            expected = u > c
            assert np.array_equal(low >= t, expected), (float(c), t, start)
            assert np.array_equal(high >= t, expected), (float(c), t, start)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 1000, 1001, 2**17 + 1])
@pytest.mark.parametrize("lead", [0, 1])
def test_next_words_are_the_float32_stream(k, lead):
    # The words are the uint32s behind rng.random(k, dtype=np.float32), all 32
    # bits of them (rng.integers serves the same uint32 stream), and the
    # generator ends in the same state, half-word buffer included.
    rngs = [np.random.default_rng(9) for _ in range(3)]
    for rng in rngs:
        rng.random(lead, dtype=np.float32)
    words = protocols._next_words(rngs[0], k)
    floats = rngs[1].random(k, dtype=np.float32)
    assert words.dtype == np.uint32 and words.shape == (k,)
    assert np.array_equal(words, rngs[2].integers(0, 1 << 32, size=k, dtype=np.uint32))
    assert np.array_equal((words >> 8).astype(np.float32) * np.float32(2.0**-24), floats)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state == rngs[2].bit_generator.state
    assert rngs[0].random(3, dtype=np.float32).tolist() == rngs[1].random(3, dtype=np.float32).tolist()


@pytest.mark.parametrize(
    "p, delta",
    [((0.5, 0.25, 0.125, 0.125), 0.04), ((0.5, 0.5, 0.0, 0.0), 0.04)],
    ids=["cuts-on-multiples-of-2^-24", "cut-at-one"],
)
def test_fused_sampler_matches_on_exact_cuts(p, delta, monkeypatch):
    # Cuts of 0.5, 0.75 and 0.875 are uniforms the generator can return, so
    # u > cut and u >= cut differ there; a cut of exactly 1.0 gives a word
    # threshold past every uint32.  Odd n with a lead of one leaves half a word
    # buffered at the start and at every other chunk.
    assert protocols._cuts(np.asarray(p)).tolist() in ([0.5, 0.75, 0.875], [0.5, 1.0, 1.0])
    _both_panels(p, 301, delta, 500, seed=23, monkeypatch=monkeypatch, lead=1)


@pytest.mark.parametrize(
    "p", [(0.7, 0.15, 0.1, 0.05), (0.5, 0.25, 0.125, 0.125), (0.5, 0.5, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)]
)
@pytest.mark.parametrize("shape, lead", [(1, 0), (301, 1), (2000, 0), ((7, 33), 1)])
def test_sample_symbols_matches_the_float32_sampler(p, shape, lead):
    # The reference thresholds float32 uniforms at _cuts; the symbols and the
    # generator states must agree.
    p = np.asarray(p)
    rngs = [np.random.default_rng(31) for _ in range(2)]
    for rng in rngs:
        rng.random(lead, dtype=np.float32)
    cut = protocols._cuts(p)
    u = rngs[0].random(shape, dtype=np.float32)
    expected = (u > cut[0]).astype(np.uint8) + (u > cut[1]) + (u > cut[2])
    got = protocols._sample_symbols(rngs[1], p, shape)
    assert got.dtype == np.uint8 and np.array_equal(got, expected)
    assert rngs[1].bit_generator.state == rngs[0].bit_generator.state


def _decoy_types(words, n):
    # Type (N(0), ..., N(3)) of each packed decoy, read back bit by bit.
    w = -(-n // 64)
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    symbols = 2 * bits[:, :n] + bits[:, 64 * w : 64 * w + n]
    return (symbols[:, :, None] == np.arange(4)).sum(axis=1)


@pytest.mark.parametrize(
    "p, n, delta",
    [((0.4, 0.3, 0.2, 0.1), 3, 0.4), ((0.7, 0.15, 0.1, 0.05), 5, 0.2), ((0.4, 0.3, 0.2, 0.1), 8, 0.2),
     ((0.7, 0.15, 0.1, 0.05), 9, 0.2), ((0.25, 0.25, 0.25, 0.25), 9, 0.25)],
    ids=["n3", "n5", "n8", "n9", "n9-uniform"],
)
def test_decoy_types_fit_p_restricted_to_the_typical_set(p, n, delta):
    # Pearson chi-square of the decoys' types against |type class| prod p^N /
    # P(typical), over the typical types, with types of expectation under 5
    # pooled into one cell.  Decoys drawn from p without the restriction miss
    # the typical cells by a factor P(typical) and fail it.
    from scipy import stats

    p, count = np.asarray(p), 20_000
    ts = typicality.typical_set(p, n, delta)
    assert ts.total_probability < 0.95
    types = np.array([c for c in itertools.product(range(n + 1), repeat=4) if sum(c) == n])
    representatives = np.array([np.repeat(np.arange(4), t) for t in types])
    types = types[typicality.typical_mask(representatives, p, delta)]
    size = np.array([math.factorial(n) // math.prod(math.factorial(c) for c in t) for t in types])
    expected = count * size * np.prod(p ** types, axis=1) / ts.total_probability
    observed_types = _decoy_types(protocols._sample_typical_panel(np.random.default_rng(17), p, n, delta, count), n)
    observed = (observed_types[:, None, :] == types[None, :, :]).all(axis=2).sum(axis=0)
    small = expected < 5
    cells_e, cells_o = expected[~small], observed[~small]
    if small.any():
        cells_e, cells_o = np.append(cells_e, expected[small].sum()), np.append(cells_o, observed[small].sum())
    statistic = float(((cells_o - cells_e) ** 2 / cells_e).sum())
    assert statistic <= stats.chi2.isf(1e-3, cells_e.size - 1), statistic
    assert observed.sum() == count


# ---------------------------------------------------------------------------
# Inputs that cannot be simulated
# ---------------------------------------------------------------------------


def test_hashing_rejects_negative_delta():
    with pytest.raises(qcore.StateError, match="typical"):
        protocols.hashing_simulation((0.7, 0.15, 0.1, 0.05), n=50, delta=-0.01, trials=1, seed=1)


def test_hashing_rejects_zero_trials():
    with pytest.raises(qcore.StateError, match="trials"):
        protocols.hashing_simulation((0.7, 0.15, 0.1, 0.05), n=50, delta=0.05, trials=0, seed=1)


@pytest.mark.parametrize("decoys", [0, -5])
def test_hashing_rejects_fewer_than_one_decoy(decoys):
    with pytest.raises(qcore.StateError, match=rf"decoys must be at least 1, got {decoys}"):
        protocols.hashing_simulation((0.7, 0.15, 0.1, 0.05), n=50, delta=0.05, trials=1, seed=1, decoys=decoys)


@pytest.mark.parametrize("delta", ["inf", "nan"])
def test_hash_sim_cli_rejects_a_delta_that_is_not_finite(delta, capsys):
    code = cli.main(["hash-sim", "--p", "0.7,0.15,0.1,0.05", "--n", "64", "--delta", delta])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: delta must be finite, got {float(delta)!r}\n"


def test_hashing_stops_redrawing_a_typical_set_too_unlikely_to_sample():
    # At delta = 0 only the exact type (500 of each symbol) is typical, about
    # 1e-5 of the draws: the panel cannot fill, and the sampler gives up after
    # DECOY_BATCHES batches with the accepted fraction.
    p, n, delta, decoys = (0.25,) * 4, 2000, 0.0, 1000
    assert typicality.has_typical_type(p, n, delta)
    drawn = protocols.DECOY_BATCHES * decoys
    with pytest.raises(qcore.StateError, match=rf"only \d+ of {drawn} length-{n} draws \(\S+\) were 0.0-typical"):
        protocols.hashing_simulation(p, n, delta, trials=1, seed=1, decoys=decoys)


def test_hash_sim_cli_rejects_an_empty_typical_set(capsys):
    assert typicality.typical_set((0.97, 0.01, 0.01, 0.01), 40, 0.001).cardinality == 0
    code = cli.main(["hash-sim", "--p", "0.97,0.01,0.01,0.01", "--n", "40", "--delta", "0.001"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: no length-40 string is 0.001-typical")


def test_has_typical_type_agrees_with_typical_set_cardinality():
    distributions = [(0.97, 0.01, 0.01, 0.01), (0.7, 0.15, 0.1, 0.05), (0.25,) * 4, (1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.0)]
    for p in distributions:
        for n in range(1, 13):
            for delta in (-0.01, 0.0, 0.001, 0.02, 0.05, 0.1, 0.3):
                expected = typicality.typical_set(p, n, delta).cardinality > 0
                assert typicality.has_typical_type(p, n, delta) == expected, (p, n, delta)
