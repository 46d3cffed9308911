import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from entlab import acceptance, coneprog, entropy, qcore, regions

import ginibre


def test_von_neumann_reference_values():
    assert entropy.von_neumann(qcore.max_mixed(8)) == pytest.approx(3.0, abs=1e-12)
    assert entropy.von_neumann(qcore.bell("phi_plus")) == pytest.approx(0.0, abs=1e-9)
    state = qcore.example_ch5()
    assert entropy.von_neumann(state, ["B", "C2"]) == pytest.approx(0.601, abs=1e-3)


def test_conditional_entropy_can_be_negative():
    singlet = qcore.bell("psi_minus")
    assert entropy.conditional_entropy(singlet, "A", "B") == pytest.approx(-1.0, abs=1e-9)
    assert entropy.coherent_information(singlet, "A", "B") == pytest.approx(1.0, abs=1e-9)


def _two_sender_state():
    parts = qcore.tensor(qcore.max_entangled(2, ("C1", "C2a")), qcore.max_entangled(2, ("C2b", "R")))
    return qcore.merge_systems(parts, {"C2": ["C2a", "C2b"]})


def test_two_sender_compression_entropies():
    state = _two_sender_state()
    assert entropy.conditional_entropy(state, "C1", "C2") == pytest.approx(-1.0, abs=1e-9)
    assert entropy.conditional_entropy(state, "C2", "C1") == pytest.approx(0.0, abs=1e-9)
    assert entropy.von_neumann(state, ["C1", "C2"]) == pytest.approx(1.0, abs=1e-9)


def test_three_sender_compression_entropies():
    lam = 0.3
    theta_entropy = qcore.binary_entropy(lam)
    parts = qcore.tensor_all(
        [
            qcore.max_entangled(2, ("C1", "C2a")),
            qcore.max_entangled(2, ("C3a", "R")),
            qcore.schmidt_pair([lam, 1 - lam], ("C2b", "C3b")),
        ]
    )
    state = qcore.merge_systems(
        qcore.permute_systems(parts, ["C1", "C2a", "C2b", "C3a", "C3b", "R"]),
        {"C2": ["C2a", "C2b"], "C3": ["C3a", "C3b"]},
    )
    assert entropy.conditional_entropy(state, "C1", ["C2", "C3"]) == pytest.approx(-1.0, abs=1e-9)
    assert entropy.conditional_entropy(state, "C2", ["C1", "C3"]) == pytest.approx(-theta_entropy - 1, abs=1e-9)
    assert entropy.conditional_entropy(state, ["C1", "C2"], ["C3"]) == pytest.approx(-theta_entropy, abs=1e-9)


def test_entropy_report_mutual_term_of_maximally_entangled():
    report = entropy.entropy_report(qcore.max_entangled(4), ["A"], ["B"])
    # I(A;B) = S(A) - S(A|B) = 2 log2 d.
    assert report["entropy_left"] - report["conditional"] == pytest.approx(4.0, abs=1e-9)
    for key in ("conditional", "hmin", "h2", "hmax"):
        assert report[key] == pytest.approx(-2.0, abs=1e-7), key
    assert report["h0"] == 2.0


def test_entropy_report_identities():
    rng = np.random.default_rng(8)
    state = qcore.random_state([("A", 2), ("B", 3)], rng)
    report = entropy.entropy_report(state, ["A"], ["B"])
    s_ab = entropy.von_neumann(state)
    s_b = entropy.von_neumann(state, "B")
    assert report["conditional"] == pytest.approx(s_ab - s_b, abs=1e-9)
    assert report["coherent"] == pytest.approx(-(s_ab - s_b), abs=1e-9)
    assert report["hmin"] <= report["h2"] + 1e-9
    # sigma = None means the right marginal.
    marginal = qcore.partial_trace(state, "B")
    assert entropy.entropy_report(state, ["A"], ["B"], "hmin", marginal) == {"hmin": report["hmin"]}
    assert entropy.entropy_report(state, ["A"], ["B"], "hmin", qcore.max_mixed(3, "B"))["hmin"] != report["hmin"]


@pytest.mark.parametrize(
    "quantity, keys",
    [("svn", ["entropy_left", "entropy_right"]), ("cond", ["conditional"]), ("coh", ["coherent"]), ("hmin", ["hmin"]),
     ("h2", ["h2"]), ("hmax", ["hmax"]), ("h0", ["h0"]),
     ("all", ["entropy_left", "entropy_right", "conditional", "coherent", "hmin", "h2", "hmax", "h0"])],
)
def test_entropy_report_keys_follow_the_quantity(quantity, keys):
    state = qcore.random_state([("A", 2), ("B", 2)], np.random.default_rng(9))
    report = entropy.entropy_report(state, ["A"], ["B"], quantity)
    assert list(report) == keys
    full = entropy.entropy_report(state, ["A"], ["B"])
    assert report == {key: full[key] for key in keys}


def test_entropy_report_rejects_an_unknown_quantity():
    with pytest.raises(qcore.StateError, match="unknown entropy quantity 'mutual'"):
        entropy.entropy_report(qcore.bell("phi_plus"), ["A"], ["B"], "mutual")


def _count_eigendecompositions(monkeypatch) -> list[int]:
    calls = [0]
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_entropy_report_decomposes_each_subset_once(monkeypatch):
    # One eigendecomposition per label set read: S(A) and S(B,C) for svn,
    # S(A,B,C) and S(B,C) for cond, counted from the state's construction on
    # (make_state keeps no spectrum).
    reports = {}
    for quantity in ("svn", "cond"):
        calls = _count_eigendecompositions(monkeypatch)
        state = qcore.random_state([(x, 2) for x in "ABCD"], np.random.default_rng(12))
        reports[quantity] = entropy.entropy_report(state, ["A"], ["B", "C"], quantity)
        assert calls[0] == 2, quantity
        monkeypatch.undo()
    s_abc, s_bc, s_a = (entropy.von_neumann(state, part) for part in (["A", "B", "C"], ["B", "C"], ["A"]))
    assert reports["svn"] == {"entropy_left": s_a, "entropy_right": s_bc}
    assert reports["cond"] == {"conditional": s_abc - s_bc}


def test_make_state_decomposes_nothing_until_the_spectrum_is_read(monkeypatch):
    rng = np.random.default_rng(13)
    zero_rows = np.zeros((16, 16), dtype=complex)
    zero_rows[np.ix_([0, 5, 10, 15], [0, 5, 10, 15])] = qcore.random_density([4], rng)
    matrices = [qcore.random_density([4, 4], rng), ginibre.density([8, 4], rng, rank=3), np.eye(16) / 16, zero_rows]
    calls = _count_eigendecompositions(monkeypatch)
    states = [qcore.make_state([("A", m.shape[0])], m) for m in matrices]
    assert calls[0] == 0
    states[0].spectrum()
    states[0].spectrum()
    assert calls[0] == 1


# ---------------------------------------------------------------------------
# Min-entropy
# ---------------------------------------------------------------------------


def test_min_entropy_relative_product_case():
    rng = np.random.default_rng(2)
    sigma = qcore.random_state([("B", 3)], rng)
    rho = qcore.tensor(qcore.max_mixed(4, "A"), sigma)
    assert entropy.min_entropy_relative(rho, sigma) == pytest.approx(2.0, abs=1e-9)


def test_min_entropy_relative_two_pairs_plus_theta_identities():
    lam1 = 0.75
    for d in (2, 4):
        state = qcore.example_4_1(d, [lam1, 1 - lam1])
        sigma = qcore.partial_trace(state, "R")
        got = entropy.min_entropy_relative(qcore.partial_trace(state, ["C1", "R"]), sigma)
        assert got == pytest.approx(math.log2(d), abs=1e-9)
        got = entropy.min_entropy_relative(qcore.partial_trace(state, ["C2", "R"]), sigma)
        assert got == pytest.approx(math.log2(d) - math.log2(lam1), abs=1e-9)
        got = entropy.min_entropy_relative(qcore.partial_trace(state, ["C1", "C2", "R"]), sigma)
        assert got == pytest.approx(-math.log2(lam1), abs=1e-9)


def test_min_entropy_of_pure_state_is_minus_log_rank_of_marginal():
    # For a pure joint state, -H_min(joint | marginal) equals the rank entropy
    # of the complementary reduction.
    rng = np.random.default_rng(4)
    psi = qcore.random_pure([("C1", 2), ("C2", 3), ("R", 2)], rng)
    joint = qcore.partial_trace(psi, ["C1", "C2", "R"])
    sigma = qcore.partial_trace(psi, "R")
    lhs = -entropy.min_entropy_relative(joint, sigma)
    rhs = entropy.zero_entropy(qcore.partial_trace(psi, ["C1", "C2"]))
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_min_entropy_support_violation_raises():
    rho = qcore.tensor(qcore.max_mixed(2, "A"), qcore.max_mixed(2, "B"))
    sigma = qcore.make_state([("B", 2)], np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(entropy.SupportError):
        entropy.min_entropy_relative(rho, sigma)


# -- the support path: rho with exactly-zero rows --

DATA = Path(__file__).parent / "data"
STATE_FILES = ["assist4.json", "ch5.json", "ghz3.json", "mixed4.json", "pure5.json"]


def _conditioned(rho, sigma, power):
    """(I x sigma^power) rho (I x sigma^power), the D x D operator of states without zero rows."""
    ((arranged, d_a, sigma_power),) = entropy._conditioned_on([rho], sigma, power)
    return entropy._on_conditioning(sigma_power, arranged.matrix, d_a)


def _dense_min_entropy(rho, sigma):
    """H_min from the D x D conditioned operator, the path of states without zero rows."""
    return -math.log2(float(np.max(qcore.clamped_eigenvalues(_conditioned(rho, sigma, -0.5)))))


def _dense_collision_entropy(rho, sigma):
    tilde = _conditioned(rho, sigma, -0.25)
    return -math.log2(float(np.real(np.trace(tilde @ tilde))))


def _assert_matches_dense(rho, sigma):
    assert entropy.min_entropy_relative(rho, sigma) == pytest.approx(_dense_min_entropy(rho, sigma), abs=1e-12)
    assert entropy.collision_entropy(rho, sigma) == pytest.approx(_dense_collision_entropy(rho, sigma), abs=1e-12)


@pytest.mark.parametrize("name", STATE_FILES)
def test_support_path_matches_the_dense_operator_on_every_one_versus_rest_split(name):
    state = qcore.build_state(json.loads((DATA / name).read_text()))
    for label in state.labels:
        rest = [x for x in state.labels if x != label]
        for given in (rest, [label]):
            _assert_matches_dense(state, qcore.partial_trace(state, given))


def test_state_files_with_zero_rows_take_the_support_path():
    with_zero_rows = [
        name for name in STATE_FILES
        if qcore.support_rows(qcore.build_state(json.loads((DATA / name).read_text())).matrix) is not None
    ]
    assert with_zero_rows == ["ch5.json", "ghz3.json"]


def _sparse_pure(dims, nonzero, rng):
    amplitudes = np.zeros(int(np.prod(dims)), dtype=complex)
    amplitudes[nonzero] = rng.standard_normal(len(nonzero)) + 1j * rng.standard_normal(len(nonzero))
    return qcore.pure_state([(f"S{i}", d) for i, d in enumerate(dims)], amplitudes)


def test_support_path_matches_the_dense_operator_against_a_non_diagonal_sigma():
    # A complex sigma with no zero entry: a dropped conj on the support path shows.
    rng = np.random.default_rng(41)
    for dims, nonzero in (((3, 4), [0, 5, 6, 11]), ((2, 2, 3), [1, 4, 9]), ((4, 4), [3])):
        rho = _sparse_pure(dims, nonzero, rng)
        assert qcore.support_rows(rho.matrix).tolist() == nonzero
        sigma = qcore.random_state([("S1", dims[1])], rng)
        _assert_matches_dense(rho, sigma)
        two = qcore.random_state([(f"S{i}", d) for i, d in enumerate(dims)][1:], rng)
        _assert_matches_dense(rho, two)


def test_support_path_with_a_rank_deficient_sigma_that_contains_the_marginal():
    rng = np.random.default_rng(43)
    # rho lives on B in span{|0>, |1>}, sigma on span{|0>, |1>, |2>} (d_B = 4).
    block = ginibre.density([4], rng, rank=3)
    rows = [0, 1, 4, 5]
    m = np.zeros((8, 8), dtype=complex)
    m[np.ix_(rows, rows)] = block
    rho = qcore.make_state([("A", 2), ("B", 4)], m)
    assert qcore.support_rows(rho.matrix).tolist() == rows
    s = np.zeros((4, 4), dtype=complex)
    s[:3, :3] = qcore.random_density([3], rng)
    sigma = qcore.make_state([("B", 4)], s)
    assert np.sum(np.linalg.eigvalsh(s) > entropy.SUPPORT_TOL) == 3
    _assert_matches_dense(rho, sigma)


def test_support_path_raises_when_the_marginal_leaks_outside_sigma():
    rho = _sparse_pure((2, 4), [0, 5], np.random.default_rng(47))
    assert qcore.support_rows(rho.matrix) is not None
    sigma = qcore.make_state([("S1", 4)], np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    for fn in (entropy.min_entropy_relative, entropy.collision_entropy):
        with pytest.raises(entropy.SupportError, match="outside the conditioning support"):
            fn(rho, sigma)


@pytest.mark.parametrize("d", [8, 16, 32, 64])
def test_min_entropy_relative_on_the_carried_support_equals_a_rescan_bitwise(d):
    _, coeff, big = acceptance.overlap_family(d, np.random.default_rng(d))
    sigma = qcore.make_state([("R", d)], np.diag(coeff**2).astype(complex))
    joint = qcore.make_state([("C1", d), ("R", d)], big)
    assert joint._support is not qcore._UNREAD
    # R first: the arranged state computes its support from its own matrix.
    for rho in (joint, qcore.permute_systems(joint, ["R", "C1"])):
        rescanned = qcore._trusted(rho.systems, rho.norm_mode, matrix=rho.matrix)
        assert rescanned._support is qcore._UNREAD
        assert entropy.min_entropy_relative(rho, sigma) == entropy.min_entropy_relative(rescanned, sigma)
        assert rescanned.support.tolist() == rho.support.tolist()


def test_a_zero_diagonal_row_with_an_off_diagonal_entry_stays_on_the_dense_path():
    # PSD within the eigenvalue floor, no row exactly zero: the D x D path runs.
    m = np.zeros((4, 4), dtype=complex)
    m[1:, 1:] = np.diag([0.8, 0.15, 0.05])
    m[0, 1] = m[1, 0] = 0.7e-5
    rho = qcore.make_state([("A", 2), ("B", 2)], m)
    assert np.linalg.eigvalsh(m)[0] < -1e-11
    assert qcore.support_rows(rho.matrix) is None
    sigma = qcore.random_state([("B", 2)], np.random.default_rng(53))
    assert entropy.min_entropy_relative(rho, sigma) == _dense_min_entropy(rho, sigma)
    assert entropy.collision_entropy(rho, sigma) == _dense_collision_entropy(rho, sigma)


def _lambda_at_bloch(rho_matrix: np.ndarray, points: np.ndarray) -> np.ndarray:
    """lambda_max((I x sigma^{-1/2}) rho (I x sigma^{-1/2})) at each Bloch point (x, y, z) of ``points``.

    A point outside the ball of radius 1 - 1e-9, or whose sigma has an
    eigenvalue below 1e-9, gives inf.
    """
    x, y, z = points.T
    sigma = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]).transpose(2, 0, 1)
    eigs, vecs = np.linalg.eigh(sigma)
    valid = (np.sqrt(x * x + y * y + z * z) <= 1 - 1e-9) & (eigs.min(axis=1) >= 1e-9)
    powers = np.where(valid[:, None], eigs, 1.0) ** -0.5
    inv_root = (vecs * powers[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    conj = np.zeros((len(points), 4, 4), dtype=complex)
    conj[:, :2, :2] = conj[:, 2:, 2:] = inv_root  # I_2 x sigma^{-1/2}
    return np.where(valid, np.linalg.eigvalsh(conj @ rho_matrix @ conj).max(axis=1), np.inf)


def _grid_min_entropy_2x2(rho: qcore.LabeledState, coarse: int = 31, fine: int = 13, rounds: int = 3) -> float:
    """Exhaustive grid over qubit conditioning states with shrinking refinements.

    Each grid is scanned in itertools.product order over (x, y, z), and a point
    replaces the best so far only when it is strictly lower, so the first
    minimum wins.
    """

    def cube(axis: np.ndarray) -> np.ndarray:
        return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)

    points = cube(np.linspace(-1, 1, coarse))
    lam = _lambda_at_bloch(rho.matrix, points)
    first = int(np.argmin(lam))
    best = (lam[first], points[first])
    step = 2.0 / (coarse - 1)
    for _ in range(rounds):
        points = best[1] + cube(np.linspace(-step, step, fine))
        lam = _lambda_at_bloch(rho.matrix, points)
        first = int(np.argmin(lam))
        if lam[first] < best[0]:
            best = (lam[first], points[first])
        step = 2.0 * step / (fine - 1)
    return -math.log2(best[0])


def test_conditional_min_entropy_against_grid_oracle():
    rng = np.random.default_rng(13)
    for _ in range(3):
        rho = qcore.random_state([("A", 2), ("B", 2)], rng)
        solver = entropy.conditional_min_entropy(rho, ["B"])
        oracle = _grid_min_entropy_2x2(rho)
        # The grid undershoots the optimum by its resolution; the solver must not.
        assert solver.hmin_bits >= oracle - 1e-9
        assert solver.hmin_bits <= oracle + 5e-3
        assert solver.residual < 1e-7
        # Certificate is a local maximizer: nearby conditioning states do worse.
        for _ in range(20):
            delta = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            delta = (delta + delta.conj().T) / 2
            nearby = solver.certificate + 1e-3 * delta
            eigs = np.linalg.eigvalsh(nearby)
            if eigs.min() < 1e-9:
                continue
            nearby = nearby / np.real(np.trace(nearby))
            sig_state = qcore.make_state([("B", 2)], nearby)
            assert entropy.min_entropy_relative(rho, sig_state) <= solver.hmin_bits + 1e-6


def test_conditional_min_entropy_product_case():
    rng = np.random.default_rng(17)
    rho_a = qcore.random_state([("A", 2)], rng)
    sigma_b = qcore.random_state([("B", 2)], rng)
    res = entropy.conditional_min_entropy(qcore.tensor(rho_a, sigma_b), ["B"])
    expected = -math.log2(float(np.max(np.linalg.eigvalsh(rho_a.matrix))))
    assert res.hmin_bits == pytest.approx(expected, abs=1e-8)
    # The product certificate can be taken to be the B factor itself.
    at_marginal = entropy.min_entropy_relative(qcore.tensor(rho_a, sigma_b), sigma_b)
    assert at_marginal == pytest.approx(expected, abs=1e-9)


def test_conditional_min_entropy_maximally_entangled():
    rng = np.random.default_rng(19)
    for d in (2, 3):
        res = entropy.conditional_min_entropy(qcore.max_entangled(d), ["B"])
        assert res.hmin_bits == pytest.approx(-math.log2(d), abs=1e-8)
        # Dense-eigensolve oracle: for every normalized candidate, the smallest
        # feasible scaling t with t (I x sigma) >= Phi_d has trace t >= d.
        phi = qcore.max_entangled(d).matrix
        candidates = [np.eye(d) / d] + [qcore.random_density([d], rng) for _ in range(20)]
        for sigma in candidates:
            eigs, vecs = np.linalg.eigh(sigma)
            if eigs.min() < 1e-9:
                continue
            inv_root = (vecs * eigs**-0.5) @ vecs.conj().T
            conj = np.kron(np.eye(d), inv_root)
            t = float(np.max(np.linalg.eigvalsh(conj @ phi @ conj)))
            assert t >= d - 1e-9
        tau = np.eye(d) / d
        conj = np.kron(np.eye(d), qcore.psd_sqrt(np.linalg.inv(tau)))
        assert float(np.max(np.linalg.eigvalsh(conj @ phi @ conj))) == pytest.approx(d, abs=1e-9)


def test_conditional_min_entropy_classical_register_is_zero():
    rng = np.random.default_rng(23)
    d = 4
    kets = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    weights = rng.dirichlet(np.ones(d))
    m = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        reg = np.zeros((d, d))
        reg[j, j] = 1.0
        m += weights[j] * np.kron(np.outer(kets[:, j], kets[:, j].conj()), reg)
    cq = qcore.make_state([("A", d), ("B", d)], m)
    res = entropy.conditional_min_entropy(cq, ["B"])
    assert abs(res.hmin_bits) < 1e-7
    assert np.min(np.linalg.eigvalsh(np.kron(np.eye(d), res.certificate * res.optimum) - m)) > -1e-8


def _rank_one(d, seed):
    """A rank-one state on A x B, d x d, with 2^-H_min(A|B) = (sum_i sqrt(lambda_i))^2 over spec(rho_A)."""
    state = ginibre.state([("A", d), ("B", d)], np.random.default_rng(seed), rank=1)
    lam = np.clip(np.linalg.eigvalsh(qcore.partial_trace(state, ["A"]).matrix), 0.0, None)
    return state, float(np.sum(np.sqrt(lam))) ** 2


def test_rank_one_min_entropy_is_the_squared_root_sum_within_its_gap():
    state, exact = _rank_one(8, 0)
    res = entropy.conditional_min_entropy(state, ["B"])
    assert res.dual_bound <= exact <= res.optimum


def test_a_stalled_cone_solve_is_rejected():
    # At (12, 12) the barrier's Hessian reaches condition number 1e19 and its
    # stages stall; unchecked, the optimum came out 6e-4 above the exact
    # value after 321 steps, with a gap of 0.37.
    state, _ = _rank_one(12, 1)
    with pytest.raises(qcore.StateError, match=r"^cone program gap \d\.\d{3}e-01 exceeds twice its barrier bound \d\.\d{3}e-10$"):
        entropy.conditional_min_entropy(state, ["B"])


def test_a_gap_above_twice_the_barrier_bound_is_rejected(monkeypatch):
    solve = coneprog.solve_min_trace

    def weak_dual(rho, d_a, d_b):
        solution = solve(rho, d_a, d_b)
        return dataclasses.replace(solution, dual=solution.dual * (1.0 - 3.0 * solution.gap_bound / solution.optimum))

    monkeypatch.setattr(coneprog, "solve_min_trace", weak_dual)
    state, _ = _rank_one(4, 0)
    with pytest.raises(qcore.StateError, match=r"^cone program gap .* exceeds twice its barrier bound"):
        entropy.conditional_min_entropy(state, ["B"])


# ---------------------------------------------------------------------------
# Collision and max entropies
# ---------------------------------------------------------------------------


def test_collision_entropy_product_case():
    rng = np.random.default_rng(31)
    sigma = qcore.random_state([("B", 2)], rng)
    rho = qcore.tensor(qcore.max_mixed(4, "A"), sigma)
    assert entropy.collision_entropy(rho, sigma) == pytest.approx(2.0, abs=1e-9)


def test_collision_entropy_swap_trick_oracle():
    # Direct trace of the conjugated square vs the two-copy swap expectation.
    from entlab.decoupling import swap_operator

    rng = np.random.default_rng(37)
    psi = qcore.random_pure([("A", 2), ("B", 2)], rng)
    sigma = qcore.partial_trace(psi, "B")
    h2 = entropy.collision_entropy(psi, sigma)
    eigs, vecs = np.linalg.eigh(sigma.matrix)
    inv_quarter = (vecs * eigs**-0.25) @ vecs.conj().T
    conj = np.kron(np.eye(2), inv_quarter)
    tilde = conj @ psi.matrix @ conj
    via_swap = float(np.real(np.trace(np.kron(tilde, tilde) @ swap_operator(4))))
    assert h2 == pytest.approx(-math.log2(via_swap), abs=1e-9)


def test_max_entropy_values():
    assert entropy.max_entropy_unconditioned(qcore.max_mixed(4)) == pytest.approx(2.0, abs=1e-12)
    d = 4
    h_d = qcore.harmonic_number(d)
    marginal = qcore.partial_trace(qcore.embezzle(d), "A")
    expected = 2 * math.log2(sum(1 / math.sqrt(j * h_d) for j in range(1, d + 1)))
    assert entropy.max_entropy_unconditioned(marginal) == pytest.approx(expected, abs=1e-9)
    assert entropy.conditional_max_entropy(qcore.max_entangled(3), ["B"]) == pytest.approx(
        -math.log2(3), abs=1e-7
    )


@pytest.mark.parametrize("seed", range(3))
def test_max_entropy_conditioned_on_a_dimension_one_system_is_the_closed_form(seed):
    # Seeds 1 and 2 stall the cone program of the purification route.
    rho = qcore.make_state([("A", 12), ("B", 1)], qcore.random_density([12], np.random.default_rng(seed)))
    closed_form = entropy.max_entropy_unconditioned(qcore.partial_trace(rho, ["A"]))
    assert entropy.conditional_max_entropy(rho, ["B"]) == closed_form
    assert entropy.conditional_max_entropy(rho, []) == entropy.max_entropy_unconditioned(rho)


@pytest.mark.parametrize("b", [[1.0, 0.0], [0.5**0.5, 0.5**0.5], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
                         ids=["2-basis", "2-plus", "3-basis", "3-first"])
@pytest.mark.parametrize("seed", range(1, 4))
def test_max_entropy_conditioned_on_a_pure_system_is_the_closed_form(seed, b):
    # rho_B pure forces rho_AB = rho_A x |b><b|, so H_max(A|B) = H_max(rho_A); the
    # purification route sent a rank-one program to the cone, which stalled.
    rho_a = qcore.random_density([12], np.random.default_rng(seed))
    rho = qcore.make_state([("A", 12), ("B", len(b))], np.kron(rho_a, np.outer(b, b)))
    closed_form = entropy.max_entropy_unconditioned(qcore.partial_trace(rho, ["A"]))
    assert entropy.conditional_max_entropy(rho, ["B"]) == closed_form
    assert closed_form == pytest.approx([3.0611411837600855, 3.117547413479668, 3.069848404911038][seed - 1], abs=1e-14)


@pytest.mark.parametrize("stored", ["dense", "vector"])
def test_the_rank_test_of_max_entropy_decomposes_no_matrix_of_the_conditioning_side(monkeypatch, stored):
    # rho_B's rank is counted on its spectrum, an eigvalsh of the 5-sided rho_B
    # for a dense input and of the 2-sided Gram matrix of its factor for a
    # vector: no eigh of rho_B, whose eigenvectors the count would drop.
    systems = [("A", 2), ("B", 5)]
    rng = np.random.default_rng(31)
    rho = qcore.random_pure(systems, rng) if stored == "vector" else qcore.random_state(systems, rng)
    eigh, sides = np.linalg.eigh, []

    def counted(matrix, *args, **kwargs):
        sides.append(np.shape(matrix)[-1])
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    value = entropy.conditional_max_entropy(rho, ["B"])
    assert 5 not in sides
    if stored == "vector":
        # H_max(A|B) of a pure state is -H_min(A|C) with C trivial: log2 lambda_max(rho_A).
        top = float(np.max(np.linalg.eigvalsh(qcore.partial_trace(rho, ["A"]).matrix)))
        assert value == pytest.approx(math.log2(top), abs=1e-8)


def _max_entropy_fidelity_search(rho: qcore.LabeledState, cond, restarts: int, seed: int) -> float:
    """H_max(A|B) = max over states sigma^B of log2 F^2(rho^{AB}, I x sigma^B), by
    Nelder-Mead from ``restarts`` random starts; small dims only.

    The oracle for the duality route of entropy.conditional_max_entropy: it
    shares no step with the cone program.
    """
    from scipy.optimize import minimize

    arranged, d_a, _ = entropy._split_conditioning(rho, cond)
    d_b = arranged.total_dim // d_a
    side = arranged.total_dim
    rho_root = qcore.psd_sqrt(arranged.matrix).reshape(d_a, d_b, side)
    n_params = d_b * d_b

    def sigma_of(params: np.ndarray) -> np.ndarray:
        tril = np.zeros((d_b, d_b), dtype=complex)
        idx = np.tril_indices(d_b)
        half = len(idx[0])
        tril[idx] = params[:half]
        strict = np.tril_indices(d_b, -1)
        tril[strict] += 1j * params[half : half + len(strict[0])]
        m = tril @ tril.conj().T
        tr = np.real(np.trace(m))
        return m / tr if tr > 0 else np.eye(d_b) / d_b

    def objective(params: np.ndarray) -> float:
        # F(rho, I x sigma) = ||(I x sigma^{1/2}) rho^{1/2}||_1.
        product = qcore._act_on_axes(qcore.psd_sqrt(sigma_of(params)), rho_root, [1])
        return -float(np.sum(np.linalg.svd(product.reshape(side, side), compute_uv=False)))

    rng = np.random.default_rng(seed)
    best = -np.inf
    for _ in range(restarts):
        x0 = rng.standard_normal(n_params)
        res = minimize(objective, x0, method="Nelder-Mead", options={"maxiter": 4000, "fatol": 1e-12, "xatol": 1e-9})
        best = max(best, -res.fun)
    return 2.0 * math.log2(best)


def test_max_entropy_duality_vs_fidelity_search():
    rng = np.random.default_rng(41)
    rho = qcore.random_state([("A", 2), ("B", 2)], rng)
    dual = entropy.conditional_max_entropy(rho, ["B"])
    searched = _max_entropy_fidelity_search(rho, ["B"], restarts=4, seed=3)
    assert dual == pytest.approx(searched, abs=1e-4)


# ---------------------------------------------------------------------------
# Smoothing bounds
# ---------------------------------------------------------------------------


def test_smooth_max_lower_bound_uniform_spectrum():
    d = 16
    value = entropy.smooth_max_lower_bound([1.0 / d] * d, eps=0.0)
    assert value == pytest.approx(2 * math.log2((d - 1) / math.sqrt(d)), abs=1e-12)


def test_smooth_max_lower_bound_embezzle_tail_condition():
    d = 4096
    h_d = qcore.harmonic_number(d)
    spectrum = np.array([1.0 / (j * h_d) for j in range(1, d + 1)])
    delta = 0.05
    # No k below (d+1)^(1-2 delta)/e satisfies the tail condition.
    k_cap = int((d + 1) ** (1 - 2 * delta) / math.e)
    tails = np.concatenate([np.cumsum(spectrum[::-1])[::-1], [0.0]])
    for k in range(1, k_cap + 1):
        assert tails[k] > 2 * delta


def test_smooth_max_lower_bound_degenerate_truncation():
    assert entropy.smooth_max_lower_bound([0.6, 0.4], eps=0.49) == float("-inf")
    with pytest.raises(qcore.StateError):
        entropy.smooth_max_lower_bound([0.4, 0.6], eps=0.1)


def test_fannes_bound_values_and_randomized_oracle():
    assert entropy.fannes_bound(2, 0.0) == 0.0
    breakpoint_eps = 1 / math.e
    expected = (1 / math.e) * (1 + math.log2(math.e))
    assert entropy.fannes_bound(2, breakpoint_eps) == pytest.approx(expected, abs=1e-12)
    # Both branch formulas agree at the breakpoint.
    below = breakpoint_eps - 1e-12
    above = breakpoint_eps + 1e-12
    assert entropy.fannes_bound(2, below) == pytest.approx(entropy.fannes_bound(2, above), abs=1e-9)

    rng = np.random.default_rng(43)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        rho = qcore.random_density([d], rng)
        direction = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        direction = (direction + direction.conj().T) / 2
        direction -= np.trace(direction) / d * np.eye(d)
        step = rng.uniform(0.0, 0.2)
        sig = rho + step * direction / max(qcore.trace_norm(direction), 1e-12)
        eigs = np.linalg.eigvalsh(sig)
        if eigs.min() < 1e-9:
            continue
        sig = sig / np.real(np.trace(sig))
        eps = qcore.trace_norm(rho - sig)
        s_rho = -sum(qcore.xlog2x(float(x)) for x in np.linalg.eigvalsh(rho))
        s_sig = -sum(qcore.xlog2x(float(x)) for x in np.linalg.eigvalsh(sig))
        assert abs(s_rho - s_sig) <= entropy.fannes_bound(d, eps) + 1e-9


def test_renes_smoothing_bound_and_composition():
    assert entropy.renes_smoothing_bound(-3.0, math.log2(16), 0.0, 0.5) == pytest.approx(-3.0, abs=1e-12)
    # With delta > 0 the dimension enters through log2 d: 4 bits here, not 16.
    s_cond, log2_d, delta, eps = -1.5, 4.0, 0.01, 0.3
    want = s_cond + 8.0 * delta * (eps + 1.0) * log2_d + 2.0 * qcore.binary_entropy(2.0 * delta)
    assert entropy.renes_smoothing_bound(s_cond, log2_d, delta, eps) == pytest.approx(want, abs=1e-12)
    # Composition with the sequential cost constant reproduces the printed
    # closed form up to its deliberately loosened constants.
    from entlab import regions

    eps = 0.5
    log2_d = 10.0
    seq = regions.compression_example_sequential_bounds(log2_d, eps)
    assert seq["first_mover_c2"] >= seq["first_mover_c2_printed"] - 1e-9
    assert seq["first_mover_c2"] > 0


def test_min_entropy_relative_handles_scrambled_sigma_order():
    rng = np.random.default_rng(53)
    rho = qcore.random_state([("A", 2), ("X", 2), ("Y", 3)], rng)
    sigma = qcore.partial_trace(rho, ["X", "Y"])
    scrambled = qcore.permute_systems(sigma, ["Y", "X"])
    assert entropy.min_entropy_relative(rho, scrambled) == pytest.approx(
        entropy.min_entropy_relative(rho, sigma), abs=1e-10
    )
    assert entropy.collision_entropy(rho, scrambled) == pytest.approx(
        entropy.collision_entropy(rho, sigma), abs=1e-10
    )


def test_min_entropy_additivity():
    rng = np.random.default_rng(47)
    rho1 = qcore.random_state([("A", 2), ("B", 2)], rng)
    sig1 = qcore.random_state([("B", 2)], rng)
    rho2 = qcore.random_state([("C", 2), ("D", 2)], rng)
    sig2 = qcore.random_state([("D", 2)], rng)
    joint = qcore.permute_systems(qcore.tensor(rho1, rho2), ["A", "C", "B", "D"])
    lhs = entropy.min_entropy_relative(joint, qcore.tensor(sig1, sig2))
    rhs = entropy.min_entropy_relative(rho1, sig1) + entropy.min_entropy_relative(rho2, sig2)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def _table_family(kind: str, seed: int) -> qcore.LabeledState:
    rng = np.random.default_rng(seed)
    systems = [("W", 2), ("X", 3), ("Y", 2), ("Z", 2)]
    if kind == "pure":
        return qcore.random_pure(systems, rng)
    return ginibre.state(systems, rng, rank=2 if kind == "mixed-rank2" else None)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["pure", "mixed-rank2", "mixed-full"])
def test_subset_entropy_table_satisfies_entropy_inequalities(kind, seed):
    state = _table_family(kind, seed)
    s = entropy.subset_entropies(state)
    labels = state.labels
    all_subsets = [()] + [t for _, t in regions.subsets(labels)]
    tol = 1e-9
    for x, y in itertools.product(map(set, all_subsets), repeat=2):
        # Strong subadditivity in its submodular form, and weak monotonicity.
        assert s(x) + s(y) >= s(x | y) + s(x & y) - tol
        assert s(x) + s(y) >= s(x - y) + s(y - x) - tol
        if not x & y:
            assert s(x | y) >= abs(s(x) - s(y)) - tol  # Araki-Lieb
    if kind == "pure":
        for t in map(set, all_subsets):
            assert s(t) == pytest.approx(s(set(labels) - t), abs=tol)
    assert s([]) == 0.0
    assert s(["Z", "W"]) == s(("W", "Z")) == entropy.von_neumann(state, ["W", "Z"])


def _every_subset(labels):
    return [t for _, t in regions.subsets(labels)]


def _bits(values):
    return [v.hex() for v in values]


def _batch_read_states():
    rng = np.random.default_rng(37)
    qubits8 = qcore.random_pure([(f"Q{i}", 2) for i in range(8)], rng)
    qubits10 = qcore.random_pure([(f"Q{i}", 2) for i in range(10)], rng)
    kept = qcore.partial_trace(qubits10, [f"Q{i}" for i in range(7)])
    mixed_dims = qcore.random_pure([("A", 2), ("B", 3), ("C", 1), ("D", 4), ("E", 2)], rng)
    # Every Psi is 1 x 1 here, a matrix to decompose rather than a kept factor of one column.
    ones = qcore.pure_state([("A", 1), ("B", 1), ("C", 1)], [0.3 + 0.7j])
    return {"qubits8": qubits8, "kept-factor": kept, "mixed-dims": mixed_dims, "ones": ones}


@pytest.mark.parametrize("name", ["qubits8", "kept-factor", "mixed-dims", "ones"])
@pytest.mark.parametrize("batch_bytes", [None, 1])
def test_batch_read_of_a_factor_equals_von_neumann_bit_for_bit(monkeypatch, name, batch_bytes):
    state = _batch_read_states()[name]
    assert state._factor is not None and state._matrix is None
    if name == "kept-factor":
        assert state._factor.shape == (128, 8)
    if batch_bytes is not None:
        # One reduction per batch: every set goes through the chunked path on its own.
        monkeypatch.setattr(qcore, "_BATCH_BYTES", batch_bytes)
    parts = _every_subset(state.labels)
    expected = [entropy.von_neumann(state, t) for t in parts]
    monkeypatch.setattr(qcore, "partial_trace", None)  # the batch read reduces without it
    table = entropy.subset_entropies(state)
    assert _bits(table.entropies(parts)) == _bits(expected)
    if name != "kept-factor":
        assert _bits([table(state.labels)] + table.entropies([state.labels[::-1]])) == _bits([0.0, 0.0])
    # Repeated sets and any order of their labels read the same entries.
    again = [t[::-1] for t in parts] + [set(t) for t in reversed(parts)] + [[], state.labels[0]]
    assert _bits(table.entropies(again)) == _bits(expected + expected[::-1] + [0.0, expected[0]])
    assert _bits([table(t) for t in parts]) == _bits(expected)


def test_batch_read_takes_one_stacked_eigvalsh_per_shape(monkeypatch):
    state = _batch_read_states()["qubits8"]
    shapes = []
    original = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    parts = _every_subset(state.labels)
    entropy.subset_entropies(state).entropies(parts + parts)
    # |T| = k reduces to a Psi of shape (2^(8-k), 2^k); k = 8 is the whole pure state, which reads 0.
    assert sorted(shapes) == sorted((math.comb(8, k), min(2**k, 2 ** (8 - k)), min(2**k, 2 ** (8 - k))) for k in range(1, 8))


def test_dense_states_read_the_table_per_set(monkeypatch):
    state = ginibre.state([("W", 2), ("X", 3), ("Y", 1), ("Z", 2)], np.random.default_rng(5), rank=3)
    assert state._factor is None
    parts = _every_subset(state.labels)
    expected = [entropy.von_neumann(state, t) for t in parts]
    reductions = []
    original = qcore.partial_trace

    def recorded(st, keep):
        if st is state:
            reductions.append(keep)
        return original(st, keep)

    monkeypatch.setattr(qcore, "partial_trace", recorded)
    table = entropy.subset_entropies(state)
    assert _bits(table.entropies(parts + parts[::-1])) == _bits(expected + expected[::-1])
    # One reduction per set; von_neumann of the whole state passes it through partial_trace once more.
    assert set(reductions) == set(parts) and len(reductions) == len(parts) + 1
