import dataclasses
import itertools
import math

import numpy as np
import pytest

from entlab import acceptance, qcore, typicality


def test_deterministic_source_has_single_member():
    ts = typicality.typical_set([1.0, 0.0], n=8, delta=0.01)
    assert ts.cardinality == 1
    assert ts.total_probability == pytest.approx(1.0, abs=1e-12)
    sequences = np.array(list(itertools.product(range(2), repeat=8)))
    assert sequences[typicality.typical_mask(sequences, [1.0, 0.0], 0.01)].tolist() == [[0] * 8]


@pytest.mark.parametrize("n, delta", [(0, 0.1), (-3, 0.1), (2.0, 0.1), (4, math.nan), (4, math.inf)])
def test_typical_set_rejects_a_bad_length_or_delta(n, delta):
    with pytest.raises(qcore.StateError, match="must be"):
        typicality.typical_set([0.7, 0.3], n, delta)


def test_uniform_source_every_string_is_typical():
    ts = typicality.typical_set([0.5, 0.5], n=6, delta=0.5)
    assert ts.cardinality == 64
    assert ts.total_probability == pytest.approx(1.0, abs=1e-12)


def test_biased_source_against_exhaustive_enumeration():
    p = np.array([0.9, 0.1])
    n, delta = 20, 0.05
    ts = typicality.typical_set(p, n, delta)
    # Brute force over all 2^20 strings via popcounts.
    ones = np.array([bin(k).count("1") for k in range(2**n)])
    typical = (np.abs(ones / n - p[1]) <= delta + 1e-12) & (np.abs((n - ones) / n - p[0]) <= delta + 1e-12)
    probs = p[1] ** ones * p[0] ** (n - ones)
    assert ts.cardinality == int(typical.sum())
    assert ts.total_probability == pytest.approx(float(probs[typical].sum()), abs=1e-12)
    assert ts.min_prob == pytest.approx(float(probs[typical].min()), abs=1e-15)
    h = qcore.shannon_entropy(p)
    c = typicality.typicality_constant(p)
    assert ts.max_prob <= 2 ** (-n * (h - c * delta)) * (1 + 1e-9)
    assert ts.min_prob >= 2 ** (-n * (h + c * delta)) * (1 - 1e-9)
    assert ts.cardinality <= 2 ** (n * (h + c * delta))
    assert ts.cardinality >= (1 - (1 - ts.total_probability)) * 2 ** (n * (h - c * delta)) * (1 - 1e-9)


def test_typical_set_sums_equal_the_factorial_formula_exactly():
    """The factorial table gives the integers, and so the sums, of n! / prod(c!) with math.factorial."""
    p, n, delta = np.array([0.7, 0.15, 0.1, 0.05]), 400, 0.05
    low, high = typicality._count_bounds(p, n, delta)
    cardinality, total = 0, 0.0
    for head in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(low[:-1].tolist(), high[:-1].tolist()))):
        last = n - sum(head)
        if not low[-1] <= last <= high[-1]:
            continue
        counts = head + (last,)
        size = math.factorial(n)
        for c in counts:
            size //= math.factorial(c)
        cardinality += size
        total += size * math.prod(p[i] ** c for i, c in enumerate(counts) if c > 0)
    ts = typicality.typical_set(p, n, delta)
    assert ts.cardinality == cardinality
    assert ts.total_probability == total


def test_membership_probe():
    p, delta = [0.75, 0.25], 0.15
    assert typicality.typical_mask(np.array([0] * 6 + [1] * 2), p, delta)
    assert not typicality.typical_mask(np.array([1] * 8), p, delta)


def test_typical_mask_counts_the_typical_set():
    p, n, delta = (0.5, 0.3, 0.2), 6, 0.15
    sequences = np.array(list(itertools.product(range(3), repeat=n)))
    mask = typicality.typical_mask(sequences, p, delta)
    ts = typicality.typical_set(p, n, delta)
    assert int(mask.sum()) == ts.cardinality
    assert mask.tolist() == [bool(typicality.typical_mask(seq, p, delta)) for seq in sequences]


def test_typical_set_bounds_equal_the_sandwich_written_out():
    # The reference is the sandwich written out term by term.  typ-check prints
    # these bounds and its goldens are byte-pinned, so they must agree bit for bit.
    epsilons = []
    for p, n, delta in (((0.8, 0.2), 12, 0.1), ((0.7, 0.2, 0.1), 12, 0.1), ((0.5, 0.5), 9, 0.05), ((0.6, 0.3, 0.1), 20, 0.02)):
        ts = typicality.typical_set(p, n, delta)
        eps = max(0.0, 1.0 - ts.total_probability)
        h, c = qcore.shannon_entropy(p), typicality.typicality_constant(p)
        bounds = typicality.typical_set_bounds(h, c, n, delta, eps)
        assert bounds.cardinality_max == 2.0 ** (n * (h + c * delta))
        assert bounds.cardinality_min == (1 - eps) * 2.0 ** (n * (h - c * delta))
        assert bounds.member_prob_max == 2.0 ** (-n * (h - c * delta))
        assert bounds.member_prob_min == 2.0 ** (-n * (h + c * delta))
        epsilons.append(eps)
    assert max(epsilons) > 0.5


def test_projector_checks_on_biased_qubit():
    state = qcore.make_state([("A", 2)], np.diag([0.8, 0.2]).astype(complex))
    report = typicality.typical_projector_checks(state, n=10, delta=0.1)
    assert report.mass_ok
    assert report.eigenvalue_sandwich_ok
    assert report.cardinality_sandwich_ok
    assert report.purity_bound_ok
    assert report.gentle_ok
    assert report.gentle_lhs <= 2 * math.sqrt(report.epsilon) + 1e-12


def test_projector_checks_pure_state_trivial():
    state = qcore.make_state([("A", 2)], np.diag([1.0, 0.0]).astype(complex))
    report = typicality.typical_projector_checks(state, n=6, delta=0.05)
    assert report.epsilon == pytest.approx(0.0, abs=1e-12)
    assert report.gentle_lhs == pytest.approx(0.0, abs=1e-12)


def _projector_reference(state: qcore.LabeledState, n: int, delta: float) -> typicality.ProjectorReport:
    """The typical-projector checks by listing all d^n eigenvalue sequences of rho^{(x)n}."""
    d = state.total_dim
    p = np.sort(state.spectrum())[::-1]
    c = typicality.typicality_constant(p)
    entropy_bits = qcore.shannon_entropy(p)

    sequences = np.array(list(itertools.product(range(d), repeat=n)))
    with np.errstate(divide="ignore"):
        log_p = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), -np.inf)
    seq_log_prob = log_p[sequences].sum(axis=1)
    typical = typicality.typical_mask(sequences, p, delta) & (seq_log_prob > -np.inf)

    probs = np.where(seq_log_prob > -np.inf, 2.0**seq_log_prob, 0.0)
    mass = float(probs[typical].sum())
    epsilon = max(0.0, 1.0 - mass)

    bounds = typicality.typical_set_bounds(entropy_bits, c, n, delta, epsilon)
    typ_probs = probs[typical]
    eig_ok = bool(
        np.all(typ_probs >= bounds.member_prob_min * (1 - 1e-9))
        and np.all(typ_probs <= bounds.member_prob_max * (1 + 1e-9))
    )
    card = int(typical.sum())
    card_ok = bounds.cardinality_min * (1 - 1e-9) <= card <= bounds.cardinality_max * (1 + 1e-9)

    if mass > 0:
        purity = float((typ_probs**2).sum() / mass**2)
        purity_bound = (1 - epsilon) ** -2 * 2.0 ** (-n * (entropy_bits - 3 * c * delta))
    else:
        purity = math.inf
        purity_bound = math.inf
    gentle_lhs = float(probs[~typical].sum())  # || P rho P - rho ||_1 for a diagonal projector
    gentle_rhs = 2.0 * math.sqrt(epsilon)
    hoeffding = 1.0 - 2.0 * d * math.exp(-2.0 * n * delta * delta)
    return typicality.ProjectorReport(
        n=n,
        delta=delta,
        epsilon=epsilon,
        mass_ok=mass >= hoeffding - 1e-12,
        eigenvalue_sandwich_ok=eig_ok,
        cardinality_sandwich_ok=bool(card_ok),
        purity_bound_ok=(purity <= purity_bound * (1 + 1e-9)) or math.isinf(purity_bound),
        gentle_ok=gentle_lhs <= gentle_rhs + 1e-12,
        purity=purity,
        purity_bound=purity_bound,
        gentle_lhs=gentle_lhs,
        gentle_rhs=gentle_rhs,
        hoeffding_floor=hoeffding,
    )


PROJECTOR_FLAGS = ("mass_ok", "eigenvalue_sandwich_ok", "cardinality_sandwich_ok", "purity_bound_ok", "gentle_ok")


def _assert_matches_reference(state: qcore.LabeledState, n: int, delta: float) -> None:
    """Equal flags, plain bools, and every float within 2e-15 absolute or 1e-12 relative of the reference.

    gentle_rhs = 2 sqrt(epsilon) is compared as the epsilon it is computed
    from: near epsilon = 0 the square root turns a 1e-16 move into 2e-8.
    """
    report = typicality.typical_projector_checks(state, n, delta)
    expected = _projector_reference(state, n, delta)
    assert report.gentle_rhs == 2.0 * math.sqrt(report.epsilon)
    for field in dataclasses.fields(report):
        got, want = getattr(report, field.name), getattr(expected, field.name)
        if field.name == "gentle_rhs":
            got, want = (got / 2.0) ** 2, (want / 2.0) ** 2
        if field.name in PROJECTOR_FLAGS:
            assert type(got) is bool and got == want, (field.name, n, delta)
        elif got != want:
            assert abs(got - want) <= max(2e-15, 1e-12 * abs(want)), (field.name, got, want, n, delta)


def test_projector_checks_on_the_properties_draws_match_the_enumeration(monkeypatch):
    inputs = []
    checks = typicality.typical_projector_checks

    def spy(state, n, delta):
        inputs.append((state, n, delta))
        return checks(state, n, delta)

    monkeypatch.setattr(typicality, "typical_projector_checks", spy)
    assert acceptance.run_one("properties").passed
    monkeypatch.undo()
    assert len(inputs) == 100
    for state, n, delta in inputs:
        _assert_matches_reference(state, n, delta)


@pytest.mark.parametrize("n", range(1, 13))
def test_projector_checks_on_the_qubit_grid_match_the_enumeration(n):
    for p in np.linspace(0.05, 0.95, 61):
        state = qcore.make_state([("A", 2)], np.diag([p, 1 - p]).astype(complex))
        for delta in (1.0 / n + 0.05, 0.15):
            _assert_matches_reference(state, n, delta)


@pytest.mark.parametrize("spectrum, n, delta", [([1.0, 0.0], 6, 0.05), ([0.8, 0.2], 10, 0.1)])
def test_projector_checks_on_the_test_states_match_the_enumeration(spectrum, n, delta):
    _assert_matches_reference(qcore.make_state([("A", 2)], np.diag(spectrum).astype(complex)), n, delta)


def test_projector_checks_past_the_old_cap_match_the_enumeration():
    # 3^9 = 19683 sequences, more than the 4096 that the enumeration was once capped at.
    _assert_matches_reference(qcore.max_mixed(3), n=9, delta=0.1)


def test_gentle_measurement_matrix_level():
    rng = np.random.default_rng(5)
    rho = qcore.random_density([4], rng)
    proj = np.zeros((4, 4))
    proj[:3, :3] = np.eye(3)
    lhs, rhs = typicality.gentle_measurement_defect(rho, proj)
    assert lhs <= rhs + 1e-12


def test_hoeffding_floor_matches_direct_mass():
    p = np.array([0.7, 0.3])
    n, delta = 12, 0.2
    ts = typicality.typical_set(p, n, delta)
    assert ts.total_probability >= 1 - 2 * 2 * math.exp(-2 * n * delta**2) - 1e-12
