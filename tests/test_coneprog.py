"""The cone program's Newton system, its agreement with earlier optima, and its dual certificate."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from entlab import coneprog, entropy, qcore

import ginibre

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# Dense reference: the Hermitian basis and the einsum pair the solver used to
# contract against it (O(d_B^6)), kept here as the oracle for the grid maps.
# ---------------------------------------------------------------------------


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis: diagonal units, then real/imag pair modes."""
    basis = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = e[j, i] = 1 / math.sqrt(2)
            basis.append(e)
            f = np.zeros((d, d), dtype=complex)
            f[i, j] = -1j / math.sqrt(2)
            f[j, i] = 1j / math.sqrt(2)
            basis.append(f)
    return np.array(basis)


def _reference_system(rho, sigma, t, d_a, basis):
    d_b = sigma.shape[0]
    m_inv = np.linalg.inv(np.kron(np.eye(d_a), sigma) - rho)
    s_inv = np.linalg.inv(sigma)
    t4 = m_inv.reshape(d_a, d_b, d_a, d_b)
    partial = np.einsum("abad->bd", t4) + s_inv
    trace_vec = np.array([float(np.real(np.trace(h))) for h in basis])
    grad = t * trace_vec - np.real(np.einsum("kij,ji->k", basis, partial))
    kernel = np.einsum("aibj,bkal->ijkl", t4, t4) + np.einsum("ij,kl->ijkl", s_inv, s_inv)
    hess = np.real(np.einsum("ijkl,mjk,nli->mn", kernel, basis, basis, optimize=True))
    return (hess + hess.T) / 2.0, grad


def _grid_cells(d: int) -> np.ndarray:
    """Flat grid index of each reference basis element, in basis order."""
    cells = [(i, i) for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            cells += [(i, j), (j, i)]  # real mode above the diagonal, imaginary mode below
    return np.array([p * d + q for p, q in cells])


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("d_a,d_b", [(2, 2), (3, 4), (4, 5), (2, 16)])
def test_newton_system_matches_dense_basis_reference(d_a, d_b):
    rng = np.random.default_rng(10 * d_a + d_b)
    rho = qcore.random_density([d_a, d_b], rng)
    g = rng.standard_normal((d_b, d_b)) + 1j * rng.standard_normal((d_b, d_b))
    sigma = g @ g.conj().T / d_b + 1.5 * np.eye(d_b)  # non-diagonal, I x sigma > rho
    t = 3.7
    basis = hermitian_basis(d_b)
    cells = _grid_cells(d_b)
    hess_ref, grad_ref = _reference_system(rho, sigma, t, d_a, basis)

    alpha, beta = coneprog._grid_coefficients(d_b)
    hess, traced, s_inv, _ = coneprog._newton_system(coneprog._slack(-rho, sigma, d_a), sigma, d_a, alpha, beta)
    grad = coneprog._gradient(t, traced, s_inv, alpha, beta)
    assert _rel(hess[np.ix_(cells, cells)], hess_ref) < 1e-13
    assert _rel(grad[cells], grad_ref) < 1e-13

    x = rng.standard_normal(d_b * d_b)
    on_grid = np.zeros(d_b * d_b)
    on_grid[cells] = x
    assert _rel(coneprog._from_grid(on_grid, alpha, beta), np.tensordot(x, basis, axes=(0, 0))) < 1e-13


# ---------------------------------------------------------------------------
# Optima anchored at the dense-basis solver
# ---------------------------------------------------------------------------

# tests/data/cone_golden.json was written by the dense-basis solver (commit
# 05dd539) before the grid coordinates replaced it: for each seeded instance,
# the optimum of conditional_min_entropy (or 2^H_max for the two "max" cases)
# and that solve's gap bound nu / t.
GOLDEN = json.loads((DATA / "cone_golden.json").read_text())


def _golden_state(spec: dict) -> qcore.LabeledState:
    if spec["state"] == "max_entangled":
        return qcore.max_entangled(spec["d_a"])
    systems = [("A", spec["d_a"]), ("B", spec["d_b"])]
    return ginibre.state(systems, np.random.default_rng(spec["seed"]), rank=spec["rank"])


def _solve(spec: dict, monkeypatch) -> tuple[entropy.ConeProgramResult, float]:
    """The cone result behind the instance and the number the golden file holds."""
    rho = _golden_state(spec)
    if spec["kind"] == "min":
        res = entropy.conditional_min_entropy(rho, ["B"])
        return res, res.optimum
    seen = []
    inner = entropy.conditional_min_entropy

    def spy(*args, **kwargs):
        seen.append(inner(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(entropy, "conditional_min_entropy", spy)
    value = 2.0 ** entropy.conditional_max_entropy(rho, ["B"])
    (res,) = seen
    return res, value


@pytest.mark.parametrize("spec", GOLDEN, ids=lambda s: f"{s['kind']}-{s['state']}-{s['d_a']}x{s['d_b']}-r{s['rank']}")
def test_optimum_and_dual_against_golden(spec, monkeypatch):
    res, value = _solve(spec, monkeypatch)
    # Both solves are upper bounds within their gap of the true optimum.
    assert abs(value - spec["optimum"]) <= max(spec["gap_bound"], res.gap) + 1e-13 * spec["optimum"]
    assert res.dual_bound <= res.optimum
    assert res.gap <= 2.0 * res.gap_bound


@pytest.mark.parametrize("spec", [s for s in GOLDEN if s["kind"] == "min"][::3], ids=lambda s: f"{s['d_a']}x{s['d_b']}-r{s['rank']}")
def test_dual_certificate_is_feasible_and_gives_the_bound(spec):
    rho = _golden_state(spec)
    res = entropy.conditional_min_entropy(rho, ["B"])
    x = res.dual_certificate
    d_a = spec["d_a"]
    d_b = rho.total_dim // d_a
    assert np.allclose(x, x.conj().T, rtol=0, atol=1e-14)
    assert np.min(np.linalg.eigvalsh(x)) >= -1e-14
    marginal = np.einsum("abac->bc", x.reshape(d_a, d_b, d_a, d_b))
    assert np.max(np.linalg.eigvalsh(marginal)) <= 1.0 + 1e-14
    assert res.dual_bound == pytest.approx(float(np.real(np.trace(rho.matrix @ x))), rel=1e-13)


def test_dual_point_is_repaired_into_the_feasible_set():
    # An estimate with a negative eigenvalue and Tr_A X far above I is clipped
    # and scaled; a feasible estimate passes through unchanged.
    rng = np.random.default_rng(8)
    d_a, d_b = 2, 3
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    estimate = g @ g.conj().T - 0.5 * np.eye(6)
    x = coneprog._dual_certificate(estimate, np.zeros((d_b, d_b)), 1.0, d_a, d_b)
    assert np.min(np.linalg.eigvalsh(x)) >= -1e-14
    marginal = np.einsum("abac->bc", x.reshape(d_a, d_b, d_a, d_b))
    assert np.max(np.linalg.eigvalsh(marginal)) == pytest.approx(1.0, abs=1e-14)
    small = np.eye(6) / 4
    assert np.allclose(coneprog._dual_certificate(small, np.zeros((d_b, d_b)), 1.0, d_a, d_b), small, rtol=0, atol=1e-15)


@pytest.mark.parametrize("d", [2, 3])
def test_dual_bound_of_maximally_entangled_state(d):
    res = entropy.conditional_min_entropy(qcore.max_entangled(d), ["B"])
    assert abs(res.dual_bound - d) <= 1e-9
    assert res.dual_bound <= d + 1e-12


def test_rank_one_conditioning_marginal_has_exact_dual():
    # The support of B is one-dimensional, so the solver's closed form runs.
    rng = np.random.default_rng(5)
    rho = qcore.tensor(qcore.random_state([("A", 3)], rng), qcore.pure_state([("B", 2)], np.array([0.6, 0.8j])))
    res = entropy.conditional_min_entropy(rho, ["B"])
    assert res.gap_bound == 0.0
    assert abs(res.gap) <= 1e-15
    assert res.optimum == pytest.approx(float(np.max(np.linalg.eigvalsh(qcore.partial_trace(rho, ["A"]).matrix))), abs=1e-15)


def test_barrier_values_are_reused_within_a_stage(monkeypatch):
    # A barrier value factors the slack I x sigma - rho, so a slack met before
    # is a point evaluated twice.  Evaluating each accepted point again as the
    # next step's starting value would repeat one slack per Newton step; with
    # the accepted trial's value reused, a repeat can come only from a stage
    # start (t grows at the same sigma), so there are at most as many repeats
    # as stage starts, and fewer stage starts than Newton steps.
    seen, repeats, stages = set(), [], set()
    inner, inner_gradient = coneprog._logdet_pd, coneprog._gradient

    def spy(matrix):
        if matrix.shape[0] == 8:
            key = matrix.tobytes()
            if key in seen:
                repeats.append(key)
            seen.add(key)
        return inner(matrix)

    def gradient_spy(t, *args):
        stages.add(t)
        return inner_gradient(t, *args)

    monkeypatch.setattr(coneprog, "_logdet_pd", spy)
    monkeypatch.setattr(coneprog, "_gradient", gradient_spy)
    rho = qcore.random_density([2, 4], np.random.default_rng(3))
    sol = coneprog.solve_min_trace(rho, 2, 4)
    assert len(repeats) <= len(stages) - 1 < sol.newton_steps // 2


# ---------------------------------------------------------------------------
# Bitwise reference: the solver as it was before each Newton step and each
# line-search trial was made cheaper (one slack and one sigma factorization per
# barrier value, the stage-start value evaluated again, np.eye in the
# gradient).  The solver must give the same bits.
# ---------------------------------------------------------------------------


def _ref_grid_coefficients(d):
    upper = np.triu(np.ones((d, d), dtype=bool), 1)
    lower = upper.T
    half = math.sqrt(0.5)
    alpha = np.where(upper, half, np.where(lower, -1j * half, 1.0))
    beta = np.where(upper, half, np.where(lower, 1j * half, 0.0))
    return alpha, beta


def _ref_slack(rho, sigma, d_a):
    d_b = sigma.shape[0]
    m = -rho
    blocks = m.reshape(d_a, d_b, d_a, d_b)
    for a in range(d_a):
        blocks[a, :, a, :] += sigma
    return m


def _ref_logdet_pd(matrix):
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return -np.inf
    return 2.0 * float(np.sum(np.log(np.real(np.diagonal(chol)))))


def _ref_barrier_value(rho, sig, tt, d_a):
    return tt * float(np.real(np.trace(sig))) - _ref_logdet_pd(_ref_slack(rho, sig, d_a)) - _ref_logdet_pd(sig)


def _ref_from_grid(x, alpha, beta):
    x = x.reshape(alpha.shape)
    return beta * x + alpha.T * x.T


def _ref_gradient(t, traced, s_inv, alpha, beta):
    g = t * np.eye(s_inv.shape[0]) - traced - s_inv
    return np.real(alpha * g + beta * g.T).ravel()


def _ref_newton_system(rho, sigma, d_a, alpha, beta):
    d_b = sigma.shape[0]
    n = d_b * d_b
    m_inv = np.linalg.inv(_ref_slack(rho, sigma, d_a))
    m_inv = (m_inv + m_inv.conj().T) / 2.0
    s_inv = np.linalg.inv(sigma)
    t4 = m_inv.reshape(d_a, d_b, d_a, d_b)
    traced = np.einsum("abad->bd", t4)
    s_vec = s_inv.reshape(n, 1)
    left = np.hstack([t4.transpose(1, 3, 0, 2).reshape(n, d_a * d_a), s_vec])
    right = np.vstack([t4.transpose(2, 0, 1, 3).reshape(d_a * d_a, n), s_vec.T])
    k = (left @ right).reshape(d_b, d_b, d_b, d_b)
    y = alpha[:, :, None, None] * k.transpose(2, 1, 0, 3) + beta[:, :, None, None] * k.transpose(1, 2, 0, 3)
    y *= alpha + beta.conj()
    return y.real.reshape(n, n), traced, s_inv, m_inv


def _ref_dual_certificate(m_inv, step, t, d_a, d_b):
    side = d_a * d_b
    x = (m_inv - (m_inv.reshape(side * d_a, d_b) @ step).reshape(side, side) @ m_inv) / t
    eigs, vecs = np.linalg.eigh((x + x.conj().T) / 2.0)
    x = (vecs * np.clip(eigs, 0.0, None)) @ vecs.conj().T
    marginal = np.einsum("abac->bc", x.reshape(d_a, d_b, d_a, d_b))
    return x / max(1.0, float(np.max(np.linalg.eigvalsh(marginal))))


def _ref_newton_direction(hess, grad):
    reg = 0.0
    for _ in range(10):
        try:
            direction = np.linalg.solve(hess if reg == 0.0 else hess + reg * np.eye(hess.shape[0]), -grad)
        except np.linalg.LinAlgError:
            reg = 1e-10 if reg == 0.0 else reg * 10.0
            continue
        decrement = float(-grad @ direction)
        if decrement >= 0.0:
            return direction, decrement
        reg = 1e-10 if reg == 0.0 else reg * 10.0
    return -grad, float(grad @ grad)


def _solve_min_trace_reference(rho, d_a, d_b):
    if d_b == 1:
        opt = float(np.max(np.linalg.eigvalsh(rho)))
        top = np.linalg.eigh(rho)[1][:, -1:]
        return coneprog.ConeSolution(optimum=opt, sigma=np.array([[opt + 0j]]), newton_steps=0, gap_bound=0.0,
                                     dual=top @ top.conj().T)

    alpha, beta = _ref_grid_coefficients(d_b)
    lam_max = float(np.max(np.linalg.eigvalsh(rho)))
    scale = max(lam_max, 1e-18)
    sigma = scale * 1.1 * np.eye(d_b, dtype=complex)
    nu = d_a * d_b + d_b
    t = nu / float(np.real(np.trace(sigma)))

    system = None

    def newton_step(sig, tt):
        nonlocal system
        if system is None or system[0] is not sig:
            system = (sig, _ref_newton_system(rho, sig, d_a, alpha, beta))
        hess, traced, s_inv, m_inv = system[1]
        direction, decrement = _ref_newton_direction(hess, _ref_gradient(tt, traced, s_inv, alpha, beta))
        return _ref_from_grid(direction, alpha, beta), decrement, m_inv

    steps = 0
    for _ in range(60):
        last = nu / t <= 1e-10 * max(float(np.real(np.trace(sigma))), 1e-18)
        f0 = None
        for _ in range(60):
            step, decrement, _ = newton_step(sigma, t)
            tol = np.finfo(float).eps * t * float(np.real(np.trace(sigma))) if last else 0.125
            if decrement / 2.0 <= tol:
                break
            if f0 is None:
                f0 = _ref_barrier_value(rho, sigma, t, d_a)
            step_size = 1.0
            while step_size > 1e-14:
                candidate = sigma + step_size * step
                if np.array_equal(candidate, sigma):
                    step_size = 0.0
                    break
                trial = _ref_barrier_value(rho, candidate, t, d_a)
                if trial < f0 - 0.25 * step_size * decrement:
                    break
                step_size *= 0.5
            if step_size <= 1e-14:
                break
            sigma = candidate
            f0 = trial
            steps += 1
        if last:
            step, _, m_inv = newton_step(sigma, t)
            return coneprog.ConeSolution(optimum=float(np.real(np.trace(sigma))), sigma=sigma, newton_steps=steps, gap_bound=nu / t,
                                         dual=_ref_dual_certificate(m_inv, step, t, d_a, d_b))
        t *= 20.0
    raise coneprog.ConeProgramError("stalled")


def _assert_same_bits(rho, d_a, d_b):
    new = coneprog.solve_min_trace(rho, d_a, d_b)
    ref = _solve_min_trace_reference(rho, d_a, d_b)
    assert new.optimum.hex() == ref.optimum.hex()
    assert new.gap_bound.hex() == ref.gap_bound.hex()
    assert new.newton_steps == ref.newton_steps
    assert new.sigma.tobytes() == ref.sigma.tobytes()
    assert new.dual.tobytes() == ref.dual.tobytes()
    return new


BITWISE_SHAPES = [(2, 2), (2, 4), (3, 4), (4, 4), (2, 8), (4, 8), (2, 16), (4, 16)]


@pytest.mark.parametrize("rank", [None, 2], ids=["full", "r2"])
@pytest.mark.parametrize("d_a,d_b", BITWISE_SHAPES, ids=lambda v: str(v))
def test_solver_matches_the_reference_bit_for_bit(d_a, d_b, rank):
    rho = ginibre.density([d_a, d_b], np.random.default_rng(1000 + 10 * d_a + d_b), rank)
    sol = _assert_same_bits(rho, d_a, d_b)
    assert sol.newton_steps >= 20  # a path through every barrier stage, not a closed form


@pytest.mark.parametrize("d_a,d_b", [(2, 4), (4, 8)], ids=lambda v: str(v))
def test_dual_certificate_reuses_the_last_newton_direction(d_a, d_b, monkeypatch):
    # The last stage ends at a decrement test or a failed line search, both
    # after a Newton solve at the final sigma; the reference solves that
    # system once more for the dual certificate, and the solver does not.
    solves = {"reference": 0, "solver": 0}
    ref_inner, inner = _ref_newton_direction, coneprog._newton_direction

    def ref_spy(*args):
        solves["reference"] += 1
        return ref_inner(*args)

    def spy(*args):
        solves["solver"] += 1
        return inner(*args)

    monkeypatch.setattr(sys.modules[__name__], "_ref_newton_direction", ref_spy)
    monkeypatch.setattr(coneprog, "_newton_direction", spy)
    rho = ginibre.density([d_a, d_b], np.random.default_rng(1000 + 10 * d_a + d_b), None)
    sol = _assert_same_bits(rho, d_a, d_b)
    assert solves["solver"] == solves["reference"] - 1 > sol.newton_steps


def _real_product() -> np.ndarray:
    # Real matrices leave the imaginary parts exactly zero all through the
    # solve, so signed zeros must come out the same too.
    rho_a = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    rho_b = np.array([[0.5, 0.1, 0.0], [0.1, 0.3, -0.05], [0.0, -0.05, 0.2]], dtype=complex)
    return np.kron(rho_a, rho_b)


@pytest.mark.parametrize("name", ["max_entangled", "product", "real_product", "classical"])
def test_solver_matches_the_reference_on_structured_states(name):
    rng = np.random.default_rng(31)
    if name == "max_entangled":
        rho, d_a, d_b = qcore.max_entangled(2).matrix, 2, 2
    elif name == "product":
        rho, d_a, d_b = np.kron(ginibre.density([2], rng, None), ginibre.density([3], rng, None)), 2, 3
    elif name == "real_product":
        rho, d_a, d_b = _real_product(), 2, 3
    else:
        rho, d_a, d_b = np.diag(rng.dirichlet(np.ones(8))).astype(complex), 2, 4
    _assert_same_bits(np.asarray(rho, dtype=complex), d_a, d_b)


def test_solver_matches_the_reference_for_a_one_dimensional_conditioning_system():
    rho = ginibre.density([3, 1], np.random.default_rng(32), None)
    sol = _assert_same_bits(rho, 3, 1)
    assert sol.newton_steps == 0


@pytest.mark.parametrize("spec", GOLDEN, ids=lambda s: f"{s['kind']}-{s['state']}-{s['d_a']}x{s['d_b']}-r{s['rank']}")
def test_solver_matches_the_reference_on_the_golden_inputs(spec, monkeypatch):
    seen = []
    inner = coneprog.solve_min_trace

    def spy(rho, d_a, d_b):
        seen.append((rho.copy(), d_a, d_b))
        return inner(rho, d_a, d_b)

    monkeypatch.setattr(coneprog, "solve_min_trace", spy)
    _solve(spec, monkeypatch)
    ((rho, d_a, d_b),) = seen
    _assert_same_bits(rho, d_a, d_b)


# ---------------------------------------------------------------------------
# Step counts that roundoff cannot move
# ---------------------------------------------------------------------------

ULP_SHAPES = [(2, 4), (3, 4), (4, 4), (2, 8), (3, 8), (4, 8), (2, 16), (4, 16)]


@pytest.mark.parametrize("rank", [None, 2, 1], ids=["full", "r2", "r1"])
@pytest.mark.parametrize("d_a,d_b", ULP_SHAPES, ids=lambda v: str(v))
def test_one_ulp_in_rho_leaves_the_step_count(d_a, d_b, rank):
    # Each stage ends on a decrement test, not on a line search that fails by
    # roundoff: 1/8 before the last stage, and the resolution of the barrier
    # value, eps t Tr(sigma), in it.  So moving one diagonal entry of rho by
    # one ulp takes the same number of Newton steps.
    rng = np.random.default_rng([77, d_a, d_b])
    rho = ginibre.density([d_a, d_b], rng, rank)
    i = int(rng.integers(d_a * d_b))
    bumped = rho.copy()
    bumped[i, i] = np.nextafter(rho[i, i].real, np.inf)
    assert not np.array_equal(bumped, rho)
    sol, moved = coneprog.solve_min_trace(rho, d_a, d_b), coneprog.solve_min_trace(bumped, d_a, d_b)
    assert moved.newton_steps == sol.newton_steps


# ---------------------------------------------------------------------------
# Trial counts and failure paths
# ---------------------------------------------------------------------------


def _evaluations(monkeypatch, owner, logdet, system, solve, d_b):
    """The solution and the log-dets ``solve`` takes, as a list of barrier values.

    Each entry is (slack, slack positive definite, sigma factored or None,
    current), with the matrices as bytes and ``current`` true when the point is
    the current iterate, the sigma of the last Newton system built.
    """
    events = []
    inner_logdet, inner_system = getattr(owner, logdet), getattr(owner, system)

    def logdet_spy(matrix):
        value = inner_logdet(matrix)
        events.append(("sigma" if matrix.shape[0] == d_b else "slack", matrix.tobytes(), value != -np.inf))
        return value

    def system_spy(first, sigma, *args):
        events.append(("system", sigma.tobytes(), None))
        return inner_system(first, sigma, *args)

    monkeypatch.setattr(owner, logdet, logdet_spy)
    monkeypatch.setattr(owner, system, system_spy)
    sol = solve()

    values, current = [], None
    for kind, data, pd in events:
        if kind == "system":
            current = data
        elif kind == "sigma":
            values[-1] = (*values[-1][:2], data, data == current)
        else:
            values.append((data, pd, None, False))
    return sol, values


@pytest.mark.parametrize("d_a,d_b,seed", [(2, 4, 3), (3, 4, 5), (4, 8, 7)])
def test_line_search_factors_the_reference_trials_once_each(d_a, d_b, seed, monkeypatch):
    # The reference factors a slack and then sigma for every barrier value,
    # including the value that starts each stage at the point where the last
    # stage stopped, which it evaluated before.  The solver takes the same
    # barrier values in the same order, minus those repeated stage starts, and
    # skips sigma after a slack that is not positive definite.  (Two trials of
    # one line search can still round to the same matrix; both codes evaluate
    # both.)
    rho = qcore.random_density([d_a, d_b], np.random.default_rng(seed))
    this_module = sys.modules[__name__]
    ref, ref_values = _evaluations(monkeypatch, this_module, "_ref_logdet_pd", "_ref_newton_system",
                                   lambda: _solve_min_trace_reference(rho, d_a, d_b), d_b)
    sol, values = _evaluations(monkeypatch, coneprog, "_logdet_pd", "_newton_system",
                               lambda: coneprog.solve_min_trace(rho, d_a, d_b), d_b)
    assert sol.newton_steps == ref.newton_steps

    expected, seen, repeats, skipped = [], set(), 0, 0
    for slack, slack_pd, sigma, current in ref_values:
        assert sigma is not None  # the reference always factors both
        if current and (slack, sigma) in seen:
            repeats += 1
            continue
        seen.add((slack, sigma))
        if slack_pd:
            expected.append((slack, True, sigma, current))
        else:
            expected.append((slack, False, None, False))
            skipped += 1
    assert values == expected
    assert sum(current for *_, current in values) == 1  # only the starting point's value is taken at the iterate
    assert repeats >= 5  # one per stage after the first
    assert skipped >= 1  # the instance has a trial outside the cone


@pytest.mark.parametrize("d_a,d_b,seed", [(2, 4, 3), (4, 8, 7)])
def test_line_search_compares_the_reference_barrier_values(d_a, d_b, seed, monkeypatch):
    # Every barrier value, the reused stage starts and the +inf of a trial
    # outside the cone included, has the reference's bits.
    rho = qcore.random_density([d_a, d_b], np.random.default_rng(seed))
    ref_values, values = [], []
    ref_inner, inner = _ref_barrier_value, coneprog._barrier

    def ref_spy(*args):
        ref_values.append(ref_inner(*args))
        return ref_values[-1]

    def spy(*args):
        values.append(inner(*args))
        return values[-1]

    monkeypatch.setattr(sys.modules[__name__], "_ref_barrier_value", ref_spy)
    monkeypatch.setattr(coneprog, "_barrier", spy)
    _solve_min_trace_reference(rho, d_a, d_b)
    coneprog.solve_min_trace(rho, d_a, d_b)
    assert [v.hex() for v in values] == [v.hex() for v in ref_values]
    assert np.inf in values


def test_stalled_solver_raises_with_its_step_count_and_gap(monkeypatch):
    monkeypatch.setattr(coneprog, "MAX_STAGES", 1)
    rho = qcore.random_density([2, 4], np.random.default_rng(3))
    with pytest.raises(coneprog.ConeProgramError, match=r"^barrier method stalled after \d+ Newton steps \(gap bound \d\.\d{3}e[+-]\d\d\)$"):
        coneprog.solve_min_trace(rho, 2, 4)


def test_singular_hessian_is_regularized_into_a_descent_direction():
    # The first solve fails on the exactly singular matrix; the next, with
    # 1e-10 on the diagonal, succeeds.
    hess = np.diag([2.0, 0.0, 1.0])
    grad = np.array([1.0, -3.0, 0.5])
    direction, decrement = coneprog._newton_direction(hess, grad)
    assert decrement > 0.0
    assert float(grad @ direction) == -decrement
    assert np.array_equal(direction, np.linalg.solve(hess + 1e-10 * np.eye(3), -grad))


def test_newton_direction_falls_back_to_the_gradient_after_ten_tries():
    # Singular and indefinite: every regularization up to 1e-2 leaves an ascent
    # direction, so the tenth try gives up on the Hessian.
    hess = np.diag([-1.0, 0.0])
    grad = np.array([1.0, 0.0])
    direction, decrement = coneprog._newton_direction(hess, grad)
    assert np.array_equal(direction, -grad)
    assert decrement == 1.0
