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
d_B^2 x d_B^2 Newton system (O(d_B^6), a single LAPACK call).  Each trial of
the line search is one Cholesky factorization of the slack M and, when M is
positive definite, one of sigma; otherwise the barrier is +inf and sigma is not
factored.  Neither M nor the two log-dets depend on t, so an accepted trial
hands them on: the next Newton system inverts that M, and the barrier value
that starts the next stage is formed from those log-dets without a
factorization.

Stopping.  Each barrier stage at parameter t centres sigma by damped Newton
steps; the next stage multiplies t by BARRIER_GROWTH.  A stage other than the
last only has to start the next one near the central path, so it ends once
lambda^2 / 2 <= CENTERING_TOL (1/8), lambda^2 being the Newton decrement
(Boyd and Vandenberghe, Convex Optimization, 11.3-11.5).  The last stage is
the first whose gap bound nu / t is within REL_TOL of Tr(sigma) when it
starts, and the solver returns after it.  It ends once lambda^2 / 2 falls to
eps t Tr(sigma), the resolution of the barrier value: below it the line
search's sufficient-decrease test is decided by roundoff.  No stage waits for
a line search to fail, which roundoff decides, so a change of rho in its last
bit leaves the step count alone.  Over 144 random instances from (2, 2) to
(2, 16), centring every stage to 1e-12 took 7278 steps and this rule 4021.
A bound of 1/2 took 3334 and still certified every gap, but 1 left gaps of
0.93 and 0.13 on two golden instances; a growth of 50 or 100 took 4031 and
4196 steps.

At return the solver also gives a dual certificate: X >= 0 with Tr_A X <= I,
so Tr(rho X) is a lower bound on the optimum (the dual of König, Renner and
Schaffner, arXiv:0807.1338, d_A times the maximal singlet fraction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BARRIER_GROWTH = 20.0
CENTERING_TOL = 0.125  # lambda^2 / 2 that ends a stage other than the last
MAX_STAGES = 60
MAX_NEWTON_PER_STAGE = 60
REL_TOL = 1e-10  # the last stage is the first whose gap bound nu / t is within REL_TOL of Tr(sigma)


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


def _slack(neg_rho: np.ndarray, sigma: np.ndarray, d_a: int) -> np.ndarray:
    """I_A x sigma - rho from -rho: sigma added to the diagonal blocks of a copy (the kron form's bits)."""
    d_b = sigma.shape[0]
    m = neg_rho.copy()
    blocks = np.einsum("aiaj->aij", m.reshape(d_a, d_b, d_a, d_b))  # a writable view of the d_a blocks
    blocks += sigma
    return m


def _logdet_pd(matrix: np.ndarray) -> float:
    """log det of a positive definite matrix from its Cholesky factor; -inf if not PD."""
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return -np.inf
    return 2.0 * float(np.log(chol.diagonal().real).sum())


def _logdets(slack: np.ndarray, sigma: np.ndarray) -> tuple[float, float] | None:
    """(log det slack, log det sigma), or None once the slack is not positive definite.

    The barrier is +inf at such a point whatever sigma is, so sigma is not factored.
    """
    ld_slack = _logdet_pd(slack)
    if ld_slack == -np.inf:
        return None
    return ld_slack, _logdet_pd(sigma)


def _barrier(t: float, trace: float, logdets: tuple[float, float] | None) -> float:
    """t Tr(sigma) - log det(I x sigma - rho) - log det(sigma) from the two log-dets."""
    if logdets is None:
        return np.inf
    return t * trace - logdets[0] - logdets[1]


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
    t = nu / float(sigma.trace().real)
    neg_rho = -rho

    # What is known at sigma, none of which depends on t: the slack
    # I x sigma - rho, its and sigma's log-dets (None until a line search
    # needs them), and the last Newton system with the sigma it was built at.
    # An accepted trial brings its slack and log-dets along; the first step of
    # a stage reuses the system, and the dual certificate the last stage's
    # final direction, unless a step was taken after it.  sigma is never
    # changed in place, so its identity names the point.  The old system is
    # dropped only once the next one is built: freeing it at the step let the
    # allocator hand its pages back, and faulting them in again cost 37,000
    # minor faults and 40% more time per (4, 16) solve (2-core Xeon).
    slack = _slack(neg_rho, sigma, d_a)
    logdets = None
    system = None

    def newton_step(tt: float) -> tuple[np.ndarray, float]:
        """Newton direction at sigma (as a Hermitian matrix) and its decrement."""
        nonlocal system
        if system is None or system[0] is not sigma:
            system = (sigma, _newton_system(slack, sigma, d_a, alpha, beta))
        hess, traced, s_inv, _ = system[1]
        direction, decrement = _newton_direction(hess, _gradient(tt, traced, s_inv, alpha, beta))
        return _from_grid(direction, alpha, beta), decrement

    steps = 0
    for _ in range(MAX_STAGES):
        last = nu / t <= REL_TOL * max(float(sigma.trace().real), 1e-18)
        f0 = None
        step = None  # the Newton direction at sigma and t, while sigma has not moved since
        for _ in range(MAX_NEWTON_PER_STAGE):
            step, decrement = newton_step(t)
            # The last stage stops at the resolution of the barrier value, about
            # eps t Tr(sigma): a smaller decrease cannot be seen by the line
            # search.  Earlier stages only need to start the next one near the
            # central path.
            tol = np.finfo(float).eps * t * float(sigma.trace().real) if last else CENTERING_TOL
            if decrement / 2.0 <= tol:
                break
            if f0 is None:
                if logdets is None:
                    logdets = _logdets(slack, sigma)
                f0 = _barrier(t, float(sigma.trace().real), logdets)
            step_size = 1.0
            while step_size > 1e-14:
                candidate = sigma + step_size * step
                if (candidate == sigma).all():
                    # Below the resolution of sigma; every shorter step rounds to it too.
                    step_size = 0.0
                    break
                trial_slack = _slack(neg_rho, candidate, d_a)
                trial_logdets = _logdets(trial_slack, candidate)
                trial = _barrier(t, float(candidate.trace().real), trial_logdets)
                if trial < f0 - 0.25 * step_size * decrement:
                    break
                step_size *= 0.5
            if step_size <= 1e-14:
                break
            sigma, slack, logdets = candidate, trial_slack, trial_logdets
            f0 = trial
            steps += 1
            step = None
        if last:
            if step is None:  # the stage ran out of Newton steps right after taking one
                step, _ = newton_step(t)
            return ConeSolution(optimum=float(sigma.trace().real), sigma=sigma, newton_steps=steps, gap_bound=nu / t,
                                dual=_dual_certificate(system[1][3], step, t, d_a, d_b))
        t *= BARRIER_GROWTH
    raise ConeProgramError(f"barrier method stalled after {steps} Newton steps (gap bound {nu / t:.3e})")


def _from_grid(x: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The Hermitian matrix sum_m x_m B_m of flat grid coordinates x."""
    x = x.reshape(alpha.shape)
    return beta * x + alpha.T * x.T


def _gradient(t: float, traced: np.ndarray, s_inv: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Gradient of the barrier in flat grid coordinates: t I - Tr_A M^-1 - sigma^-1 mapped onto the grid."""
    # t I - traced - sigma^-1 without building I: 0.0 - traced gives the bits
    # of t I - traced off the diagonal, signed zeros included, and (0.0 - x) + t
    # those of t - x on it.
    g = 0.0 - traced
    g.ravel()[:: g.shape[0] + 1] += t
    g -= s_inv
    return np.real(alpha * g + beta * g.T).ravel()


def _newton_system(
    slack: np.ndarray, sigma: np.ndarray, d_a: int, alpha: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The parts of the Newton system at sigma that do not depend on t.

    Returns the Hessian of the barrier in flat grid coordinates, Tr_A M^-1,
    sigma^-1 and M^-1, where M = I x sigma - rho is ``slack``.
    """
    d_b = sigma.shape[0]
    n = d_b * d_b
    m_inv = np.linalg.inv(slack)
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
    # left = [T | vec S^-1] and right = [T ; (vec S^-1)^T], filled in place: at
    # small d_B, hstack and vstack cost more than the product.
    left = np.empty((n, d_a * d_a + 1), dtype=complex)
    left[:, :-1].reshape(d_b, d_b, d_a, d_a)[...] = t4.transpose(1, 3, 0, 2)
    left[:, -1] = s_inv.reshape(n)
    right = np.empty((d_a * d_a + 1, n), dtype=complex)
    right[:-1].reshape(d_a, d_a, d_b, d_b)[...] = t4.transpose(2, 0, 1, 3)
    right[-1] = s_inv.reshape(n)
    k = (left @ right).reshape(d_b, d_b, d_b, d_b)
    y = alpha[:, :, None, None] * k.transpose(2, 1, 0, 3) + beta[:, :, None, None] * k.transpose(1, 2, 0, 3)
    y *= alpha + beta.conj()
    return y.real.reshape(n, n), traced, s_inv, m_inv


def _dual_certificate(m_inv: np.ndarray, step: np.ndarray, t: float, d_a: int, d_b: int) -> np.ndarray:
    """Dual point (M^-1 - M^-1 (I x step) M^-1) / t, made feasible: X >= 0 and Tr_A X <= I.

    ``step`` is the Newton direction at the final iterate.  M^-1 / t alone is
    feasible too, but the last stage stops where barrier values lose their
    resolution, so the last iterate is centred only that far, and that point
    then reaches a gap of only 1e-6 to 1e-5 relative; with the Newton
    correction the gap is about nu / t.
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
    factorization alone; importing scipy.linalg would add 26-28 MB of peak
    resident memory (from 27-30 MB to 55-57 MB, one BLAS thread) to processes
    that do not load it otherwise.
    """
    rhs = -grad
    reg = 0.0
    for _ in range(10):
        try:
            direction = np.linalg.solve(hess if reg == 0.0 else hess + reg * np.eye(hess.shape[0]), rhs)
        except np.linalg.LinAlgError:
            reg = 1e-10 if reg == 0.0 else reg * 10.0
            continue
        decrement = float(rhs @ direction)
        if decrement >= 0.0:
            return direction, decrement
        reg = 1e-10 if reg == 0.0 else reg * 10.0
    return -grad, float(grad @ grad)
