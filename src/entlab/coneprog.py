"""Interior-point solver for the min-entropy cone program

    minimize  Tr(sigma)  subject to  I_A x sigma >= rho,  sigma >= 0,

a log-barrier Newton method specialized to this constraint structure.  No
general-purpose SDP machinery is involved and the path is fully deterministic.

Coordinates.  The Newton system lives on the d_B^2 real parameters of sigma,
laid out on the d_B x d_B grid: the diagonal holds sigma_ii, the upper triangle
sqrt(2) Re sigma_ij and the lower triangle sqrt(2) Im sigma_ij.  These are the
coordinates in the orthonormal Hermitian basis E_ii, (E_ij + E_ji)/sqrt(2) and
i(E_ji - E_ij)/sqrt(2) (i < j), whose elements have at most two nonzero
entries, so matrices move to and from coordinates by elementwise arithmetic
with one transpose (see ``_grid_coefficients``).

Cost of one Newton step, D = d_A d_B: one D x D inversion (O(D^3)), the Hessian
kernel as one (d_B^2 x (d_A^2 + 1)) @ ((d_A^2 + 1) x d_B^2) product and its map
into real coordinates (O(d_A^2 d_B^4) together), and one dense solve of the
d_B^2 x d_B^2 Newton system (O(d_B^6), a single LAPACK call).  Each barrier value in the line search
is one Cholesky factorization of the slack and one of sigma.

At return the solver also gives a dual certificate: X >= 0 with Tr_A X <= I,
so Tr(rho X) is a lower bound on the optimum (the dual of König, Renner and
Schaffner, arXiv:0807.1338, d_A times the maximal singlet fraction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BARRIER_GROWTH = 20.0
NEWTON_DECREMENT_TOL = 1e-12
MAX_STAGES = 60
MAX_NEWTON_PER_STAGE = 60
REL_TOL = 1e-10  # stop once the gap bound nu / t is within REL_TOL of Tr(sigma)


class ConeProgramError(RuntimeError):
    """Solver failed to reach the requested duality gap."""


@dataclass(frozen=True)
class ConeSolution:
    optimum: float
    sigma: np.ndarray
    newton_steps: int
    gap_bound: float
    dual: np.ndarray  # X >= 0 on A x B with Tr_A X <= I; Tr(rho X) <= optimum


def _grid_coefficients(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) with Tr(B_m W) = (alpha * W + beta * W^T)[m] for every grid cell m.

    B_m is the basis element whose coordinate sits at grid cell m; the matrix of
    coordinates x maps back to sum_m x_m B_m = beta * x + alpha^T * x^T.
    """
    upper = np.triu(np.ones((d, d), dtype=bool), 1)
    lower = upper.T
    half = math.sqrt(0.5)
    alpha = np.where(upper, half, np.where(lower, -1j * half, 1.0))
    beta = np.where(upper, half, np.where(lower, 1j * half, 0.0))
    return alpha, beta


def _slack(rho: np.ndarray, sigma: np.ndarray, d_a: int) -> np.ndarray:
    """I_A x sigma - rho, adding sigma to the diagonal blocks (equal to the kron form bit for bit)."""
    d_b = sigma.shape[0]
    m = -rho
    blocks = m.reshape(d_a, d_b, d_a, d_b)
    for a in range(d_a):
        blocks[a, :, a, :] += sigma
    return m


def _logdet_pd(matrix: np.ndarray) -> float:
    """log det of a positive definite matrix from its Cholesky factor; -inf if not PD."""
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return -np.inf
    return 2.0 * float(np.sum(np.log(np.real(np.diagonal(chol)))))


def solve_min_trace(rho: np.ndarray, d_a: int, d_b: int) -> ConeSolution:
    """Minimize Tr(sigma) over Hermitian sigma with I_{d_a} x sigma >= rho >= 0."""
    if d_b == 1:
        opt = float(np.max(np.linalg.eigvalsh(rho)))
        top = np.linalg.eigh(rho)[1][:, -1:]
        return ConeSolution(optimum=opt, sigma=np.array([[opt + 0j]]), newton_steps=0, gap_bound=0.0,
                            dual=top @ top.conj().T)

    alpha, beta = _grid_coefficients(d_b)
    lam_max = float(np.max(np.linalg.eigvalsh(rho)))
    scale = max(lam_max, 1e-18)
    sigma = scale * 1.1 * np.eye(d_b, dtype=complex)
    nu = d_a * d_b + d_b  # combined barrier degree; the gap bound is nu / t
    t = nu / float(np.real(np.trace(sigma)))

    def barrier_value(sig: np.ndarray, tt: float) -> float:
        return tt * float(np.real(np.trace(sig))) - _logdet_pd(_slack(rho, sig, d_a)) - _logdet_pd(sig)

    # The last Newton system, with the sigma it was computed at.  It does not
    # depend on t, so the first step of a stage, at the sigma where the last
    # stage stopped, and the return certificate reuse it.  sigma is never
    # changed in place, so its identity names the point.
    system = None

    def newton_step(sig: np.ndarray, tt: float) -> tuple[np.ndarray, float, np.ndarray]:
        """Newton direction (as a Hermitian matrix), decrement and M^-1 at sig."""
        nonlocal system
        if system is None or system[0] is not sig:
            system = (sig, _newton_system(rho, sig, d_a, alpha, beta))
        hess, traced, s_inv, m_inv = system[1]
        direction, decrement = _newton_direction(hess, _gradient(tt, traced, s_inv, alpha, beta))
        return _from_grid(direction, alpha, beta), decrement, m_inv

    steps = 0
    for _ in range(MAX_STAGES):
        f0 = None
        for _ in range(MAX_NEWTON_PER_STAGE):
            step, decrement, _ = newton_step(sigma, t)
            if decrement / 2.0 < NEWTON_DECREMENT_TOL:
                break
            if f0 is None:
                f0 = barrier_value(sigma, t)
            step_size = 1.0
            while step_size > 1e-14:
                candidate = sigma + step_size * step
                if np.array_equal(candidate, sigma):
                    # Below the resolution of sigma; every shorter step rounds to it too.
                    step_size = 0.0
                    break
                trial = barrier_value(candidate, t)
                if trial < f0 - 0.25 * step_size * decrement:
                    break
                step_size *= 0.5
            if step_size <= 1e-14:
                break
            sigma = candidate
            f0 = trial
            steps += 1
        trace = float(np.real(np.trace(sigma)))
        if nu / t <= REL_TOL * max(trace, 1e-18):
            step, _, m_inv = newton_step(sigma, t)
            return ConeSolution(optimum=trace, sigma=sigma, newton_steps=steps, gap_bound=nu / t,
                                dual=_dual_certificate(m_inv, step, t, d_a, d_b))
        t *= BARRIER_GROWTH
    raise ConeProgramError(f"barrier method stalled after {steps} Newton steps (gap bound {nu / t:.3e})")


def _from_grid(x: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The Hermitian matrix sum_m x_m B_m of flat grid coordinates x."""
    x = x.reshape(alpha.shape)
    return beta * x + alpha.T * x.T


def _gradient(t: float, traced: np.ndarray, s_inv: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Gradient of the barrier in flat grid coordinates: t I - Tr_A M^-1 - sigma^-1 mapped onto the grid."""
    g = t * np.eye(s_inv.shape[0]) - traced - s_inv
    return np.real(alpha * g + beta * g.T).ravel()


def _newton_system(
    rho: np.ndarray, sigma: np.ndarray, d_a: int, alpha: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The parts of the Newton system at sigma that do not depend on t.

    Returns the Hessian of the barrier in flat grid coordinates, Tr_A M^-1,
    sigma^-1 and M^-1, where M = I x sigma - rho.
    """
    d_b = sigma.shape[0]
    n = d_b * d_b
    m_inv = np.linalg.inv(_slack(rho, sigma, d_a))
    # Near the optimum M has condition number about t, and inv returns a matrix
    # Hermitian only to about 1e-5 relative; folding the (i,l) pair below needs
    # it exact.
    m_inv = (m_inv + m_inv.conj().T) / 2.0
    s_inv = np.linalg.inv(sigma)
    t4 = m_inv.reshape(d_a, d_b, d_a, d_b)
    traced = np.einsum("abad->bd", t4)
    # K[i,j,k,l] = sum_ab T[a,i,b,j] T[b,k,a,l] + S^-1_ij S^-1_kl is one product
    # (S^-1 x S^-1 is a rank-one term on the (ij) x (kl) pairing), and
    # hess[m,n] = Re sum K[i,j,k,l] (B_m)_jk (B_n)_li.  The (k,j) pair goes into
    # coordinates with alpha and beta; the (i,l) pair needs only alpha + conj(beta),
    # because conj K[i,j,k,l] = K[l,k,j,i] folds its transposed term into the
    # real part.  The result is symmetric to roundoff (about 1e-18 relative).
    s_vec = s_inv.reshape(n, 1)
    left = np.hstack([t4.transpose(1, 3, 0, 2).reshape(n, d_a * d_a), s_vec])
    right = np.vstack([t4.transpose(2, 0, 1, 3).reshape(d_a * d_a, n), s_vec.T])
    k = (left @ right).reshape(d_b, d_b, d_b, d_b)
    y = alpha[:, :, None, None] * k.transpose(2, 1, 0, 3) + beta[:, :, None, None] * k.transpose(1, 2, 0, 3)
    y *= alpha + beta.conj()
    return y.real.reshape(n, n), traced, s_inv, m_inv


def _dual_certificate(m_inv: np.ndarray, step: np.ndarray, t: float, d_a: int, d_b: int) -> np.ndarray:
    """Dual point (M^-1 - M^-1 (I x step) M^-1) / t, made feasible: X >= 0 and Tr_A X <= I.

    ``step`` is the Newton direction at the final iterate.  M^-1 / t alone is
    feasible too, but the line search stops where barrier values lose their
    resolution, so the last iterate can be poorly centred, and that point then
    reaches a gap of only 1e-6 to 1e-5 relative; with the Newton correction the
    gap is about nu / t.
    """
    side = d_a * d_b
    x = (m_inv - (m_inv.reshape(side * d_a, d_b) @ step).reshape(side, side) @ m_inv) / t
    eigs, vecs = np.linalg.eigh((x + x.conj().T) / 2.0)
    x = (vecs * np.clip(eigs, 0.0, None)) @ vecs.conj().T
    marginal = np.einsum("abac->bc", x.reshape(d_a, d_b, d_a, d_b))
    return x / max(1.0, float(np.max(np.linalg.eigvalsh(marginal))))


def _newton_direction(hess: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, float]:
    """Regularize until the solve yields a descent direction.

    The system is symmetric positive definite, but numpy has no Cholesky solve
    (no triangular solver), and its LU solve is faster than its Cholesky
    factorization alone; importing scipy.linalg would add about 28 MB of
    resident memory to processes that do not load it otherwise.
    """
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
