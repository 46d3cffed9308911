"""The cone program's Newton system, its agreement with earlier optima, and its dual certificate."""

from __future__ import annotations

import json
import math
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
    hess, traced, s_inv, _ = coneprog._newton_system(rho, sigma, d_a, alpha, beta)
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
    # the accepted trial's value reused, repeats come from the stage starts
    # (t grows at the same sigma), 9 stages here.
    seen, repeats = set(), []
    inner = coneprog._logdet_pd

    def spy(matrix):
        if matrix.shape[0] == 8:
            key = matrix.tobytes()
            if key in seen:
                repeats.append(key)
            seen.add(key)
        return inner(matrix)

    monkeypatch.setattr(coneprog, "_logdet_pd", spy)
    rho = qcore.random_density([2, 4], np.random.default_rng(3))
    sol = coneprog.solve_min_trace(rho, 2, 4)
    assert sol.newton_steps >= 40
    assert len(repeats) < sol.newton_steps // 4
