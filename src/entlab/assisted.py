"""Assisted-distillation quantities: achievable-rate lower bounds, min-cut
coherent information, beating-hashing predicate, assisted-entanglement values,
and the hierarchical-vs-random repeater comparison."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import entropy, qcore, regions
from .qcore import LabeledState, StateError


@dataclass(frozen=True)
class AssistReport:
    hashing: float
    l_value: float | None
    lower_bound: float
    mincut_coherent: float | None
    mincut_arg: tuple[str, ...] | None
    beats_hashing: bool


def mincut_coherent(
    state: LabeledState,
    a_labels: Sequence[str],
    b_labels: Sequence[str],
    helpers: Sequence[Sequence[str] | str],
) -> tuple[float, tuple[str, ...]]:
    """min over helper cuts T of I(A,T > B,T-bar); helpers may be label groups."""
    a_labels, b_labels, groups = _parties(a_labels, b_labels, helpers)
    return _mincut_coherent(entropy.subset_entropies(state), a_labels, b_labels, groups)


def _parties(
    a_labels: Sequence[str],
    b_labels: Sequence[str],
    helpers: Sequence[Sequence[str] | str],
) -> tuple[tuple[str, ...], tuple[str, ...], list[tuple[str, ...]]]:
    """(A, B, helper groups) as tuples; LabelError unless each holds at least
    one label and no label appears twice."""
    parties = [("party A", a_labels), ("party B", b_labels)]
    parties += [(f"helper group {i} of {len(helpers)}", group) for i, group in enumerate(helpers, 1)]
    for party, labels in parties:
        if not labels:
            raise qcore.LabelError(f"{party} has no labels")
    a_labels, b_labels, *groups = qcore.distinct_labels(a_labels, b_labels, *helpers)
    return a_labels, b_labels, groups


def _mincut_coherent(
    s: "entropy._SubsetTable",
    a_labels: tuple[str, ...],
    b_labels: tuple[str, ...],
    groups: Sequence[tuple[str, ...]],
) -> tuple[float, tuple[str, ...]]:
    """mincut_coherent read from the subset-entropy table ``s``, for groups checked by :func:`_parties`."""
    names = [_group_name(g) for g in groups]
    by_name = dict(zip(names, groups))
    everything = a_labels + b_labels + tuple(x for g in groups for x in g)
    cuts = regions._cuts(names)
    tbars = [b_labels + tuple(x for name, g in by_name.items() if name not in cut for x in g) for cut in cuts]
    whole, *rest = s.entropies([everything] + tbars)
    return regions._least_cut(cuts, [-(whole - value) for value in rest])


def _group_name(group: Sequence[str]) -> str:
    return "+".join(group)


def assisted_lower_bound(
    state: LabeledState,
    a_labels: Sequence[str],
    b_labels: Sequence[str],
    helpers: Sequence[Sequence[str] | str],
) -> AssistReport:
    """Achievable-rate report: hashing term, helper-cut term, and their maximum.
    A, B and each helper group must hold at least one label."""
    a_labels, b_labels, groups = _parties(a_labels, b_labels, helpers)
    s = entropy.subset_entropies(state)
    hashing = -(s(list(a_labels) + list(b_labels)) - s(b_labels))
    if not groups:
        return AssistReport(
            hashing=hashing, l_value=None, lower_bound=hashing,
            mincut_coherent=None, mincut_arg=None,
            beats_hashing=False,
        )
    value, arg = _mincut_coherent(s, a_labels, b_labels, groups)
    l_value = value if len(groups) == 1 else None
    lower = max(hashing, value)
    return AssistReport(
        hashing=hashing,
        l_value=l_value,
        lower_bound=lower,
        mincut_coherent=value,
        mincut_arg=arg,
        beats_hashing=value > hashing + 1e-12 and value > 1e-12,
    )


def beating_hashing(
    state: LabeledState,
    a_labels: Sequence[str],
    b_labels: Sequence[str],
    c_labels: Sequence[str],
) -> tuple[bool, dict[str, float]]:
    """Predicate I(C > A,B) > 0 and S(A|B,C) < S(A|B), with both slacks reported."""
    qcore.distinct_labels(a_labels, b_labels, c_labels)
    s = entropy.subset_entropies(state)
    a, b, c = list(a_labels), list(b_labels), list(c_labels)
    coh_slack = -(s(a + b + c) - s(a + b))
    ssa_slack = (s(a + b) - s(b)) - (s(a + b + c) - s(b + c))
    verdict = coh_slack > 1e-12 and ssa_slack > 1e-12
    return verdict, {"coherent_slack": coh_slack, "ssa_slack": ssa_slack}


# ---------------------------------------------------------------------------
# Entanglement of assistance
# ---------------------------------------------------------------------------


def eoa_pure(
    state: LabeledState,
    a_labels: Sequence[str],
    b_labels: Sequence[str],
    c_labels: Sequence[str],
    grid: int = 24,
    seed: int = qcore.DEFAULT_SEED,
) -> tuple[float, float]:
    """(asymptotic, one-shot search) assisted entanglement of a pure tripartite state.

    The asymptotic value is min{S(A), S(B)} exactly.  The one-shot value is a
    best-found maximum of sum_i p_i S(A) over orthonormal helper bases
    U = exp(iH): the computational basis and ``grid`` random Hermitian H are
    scored, and the three best are refined by BFGS on the analytic gradient.
    Concavity keeps the value below the asymptotic one.
    """
    if not state.is_pure:
        raise StateError("assisted entanglement of pure states needs a pure input")
    qcore.distinct_labels(a_labels, b_labels, c_labels)
    asymptotic = min(entropy.von_neumann(state, a_labels), entropy.von_neumann(state, b_labels))
    one_shot = _basis_measurement_search(state, a_labels, c_labels, grid=grid, seed=seed)
    return asymptotic, one_shot


def concurrence_of_assistance(state: LabeledState, a_labels: Sequence[str], b_labels: Sequence[str]) -> float:
    """C_a = F(rho_AB, rho~_AB) with rho~ = (Y x Y) rho* (Y x Y), for qubit A and B.

    C_a is the largest average concurrence over pure-state ensembles of rho_AB
    (Laustsen, Verstraete and van Enk, quant-ph/0206192).  A projective
    measurement on the purifying helper realizes such an ensemble, and
    E_F(C) = h((1 + sqrt(1 - C^2)) / 2) is convex and increasing, so E_F(C_a) is
    a lower bound on the one-shot value of ``eoa_pure``.
    """
    qcore.distinct_labels(a_labels, b_labels)
    for labels in (a_labels, b_labels):
        if math.prod(state.dim_of(x) for x in labels) != 2:
            raise StateError("the concurrence of assistance needs qubit A and B")
    rho = qcore.partial_trace(state, list(a_labels) + list(b_labels)).matrix
    y = np.array([[0, -1j], [1j, 0]])
    flip = np.kron(y, y)
    return qcore.fidelity_ops(rho, flip @ rho.conj() @ flip)


def average_entropy_for_basis(
    state: LabeledState,
    a_labels: Sequence[str],
    c_labels: Sequence[str],
    basis: np.ndarray,
) -> float:
    """sum_i p_i S(A)_{psi_i} for a rank-one projective measurement basis on C of a pure state."""
    value, _ = _average_entropy(_helper_tensor(state, a_labels, c_labels), basis, gradient=False)
    return value


def _helper_tensor(state: LabeledState, a_labels: Sequence[str], c_labels: Sequence[str]) -> np.ndarray:
    """The amplitudes of a pure state as T[c, a, b]: the helper C, then A, then every other system."""
    if not state.is_pure:
        raise StateError("a helper-basis measurement needs a pure input")
    qcore.distinct_labels(a_labels, c_labels)
    rest = [x for x in state.labels if x not in c_labels and x not in a_labels]
    perm = [state.index_of(x) for x in list(c_labels) + list(a_labels) + rest]
    d_c = math.prod(state.dim_of(x) for x in c_labels)
    d_a = math.prod(state.dim_of(x) for x in a_labels)
    return state.vector().reshape(state.dims).transpose(perm).reshape(d_c, d_a, -1)


def _average_entropy(t: np.ndarray, basis: np.ndarray, gradient: bool) -> tuple[float, np.ndarray | None]:
    """f = sum_k [p_k log2 p_k - tr M_k log2 M_k] and, with ``gradient``, G with df = 2 Re sum conj(dU) G.

    Outcome k of the basis U leaves phi_k = sum_c conj(U_ck) T_c on A x B, and
    M_k = phi_k phi_k^dagger; one stacked ``eigh`` diagonalizes every M_k.
    Outcomes with p_k < 1e-14 count 0.  The derivative of outcome k is
    tr(W_k dM_k) with W_k = log2(p_k) I - log2 M_k on the support of M_k, so
    G_ck = tr(W_k T_c phi_k^dagger).
    """
    d_c = t.shape[0]
    phi = (basis.conj().T @ t.reshape(d_c, -1)).reshape(t.shape)
    m = phi @ phi.conj().transpose(0, 2, 1)
    p = m.trace(axis1=1, axis2=2).real
    kept = p >= 1e-14
    mu, vecs = np.linalg.eigh(m[kept])
    support = mu > 0
    log_mu = np.log2(np.where(support, mu, 1.0))
    log_p = np.log2(p[kept])
    value = float(p[kept] @ log_p - np.sum(mu * log_mu, where=support))
    if not gradient:
        return value, None
    w = np.where(support, log_p[:, np.newaxis] - log_mu, 0.0)
    w_phi = np.zeros_like(phi)
    w_phi[kept] = vecs @ (w[..., np.newaxis] * (vecs.conj().transpose(0, 2, 1) @ phi[kept]))
    return value, t.reshape(d_c, -1) @ w_phi.reshape(d_c, -1).conj().T


@functools.cache
def _parameter_cells(d: int) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The upper triangle of a d x d matrix (diagonal included) and its strict part, row by row."""
    return np.triu_indices(d), np.triu_indices(d, 1)


def _exp_i_hermitian(params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U = exp(iH) and the eigenvalues and eigenvectors of H, for H built from d^2 real parameters.

    The parameters fill the real upper triangle of h (diagonal included, row by
    row), then the imaginary strict upper triangle; H = (h + h^dagger) / 2.
    """
    d = math.isqrt(params.size)
    upper, strict = _parameter_cells(d)
    half = len(upper[0])
    h = np.zeros((d, d), dtype=complex)
    h[upper] = params[:half]
    h[strict] += 1j * params[half:]
    lam, v = np.linalg.eigh(qcore._hermitian_part(h))
    return (v * np.exp(1j * lam)) @ v.conj().T, lam, v


def _entropy_and_gradient(t: np.ndarray, params: np.ndarray) -> tuple[float, np.ndarray]:
    """The average entropy of the helper basis exp(iH(params)) on T[c, a, b], and its gradient in params."""
    u, lam, v = _exp_i_hermitian(params)
    value, g = _average_entropy(t, u, gradient=True)
    # Frechet derivative of exp(iH) in H's eigenbasis: dU = V (D o V^dagger dH V) V^dagger
    # with D_jk = (e^{i l_j} - e^{i l_k}) / (l_j - l_k), written as a sinc so that
    # equal eigenvalues (H = 0 at the first start) give i e^{i l_j} without cancellation.
    mid = 0.5 * (lam[:, np.newaxis] + lam[np.newaxis, :])
    gap = lam[:, np.newaxis] - lam[np.newaxis, :]
    divided = 1j * np.exp(1j * mid) * np.sinc(gap / (2.0 * np.pi))
    vh = v.conj().T
    k = v @ (divided.conj() * (vh @ g @ v)) @ vh
    # df = 2 Re sum conj(dH) K; dH is E_ii, (E_ij + E_ji) / 2 or i (E_ij - E_ji) / 2.
    upper, strict = _parameter_cells(lam.size)
    return value, np.concatenate([(k + k.T).real[upper], (k - k.T).imag[strict]])


def _basis_measurement_search(
    state: LabeledState,
    a_labels: Sequence[str],
    c_labels: Sequence[str],
    grid: int,
    seed: int,
) -> float:
    from scipy.optimize import minimize

    t = _helper_tensor(state, a_labels, c_labels)
    d_c = t.shape[0]
    if d_c > 4:
        raise StateError("one-shot search supports helper dimension <= 4")
    rng = np.random.default_rng(seed)

    def negated(params: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = _entropy_and_gradient(t, params)
        return -value, -grad

    n_params = d_c * d_c
    starts = [np.zeros(n_params)] + [rng.standard_normal(n_params) for _ in range(grid)]
    # Scored through the public function, which the bench tracer counts as
    # `assisted.objective_calls`: grid + 1 calls per search.
    values = [-average_entropy_for_basis(state, a_labels, c_labels, _exp_i_hermitian(x0)[0]) for x0 in starts]
    best = max([0.0] + [-v for v in values])
    # Local refinement from the three best grid points; ties keep the start order.
    # The iteration cap only binds at nearly flat maxima (Hessian eigenvalues
    # near 1e-7 next to ones near 1), where BFGS needs thousands of steps to
    # meet gtol but gains under 1e-7 after the first 20 per parameter.
    for i in sorted(range(len(starts)), key=values.__getitem__)[:3]:
        res = minimize(negated, starts[i], jac=True, method="BFGS", options={"gtol": 1e-9, "maxiter": 20 * n_params})
        best = max(best, -res.fun)
    return best


def da_upper_bounds(
    state: LabeledState,
    a_labels: Sequence[str],
    b_labels: Sequence[str],
    c_labels: Sequence[str],
    ensembles: int = 200,
    seed: int = qcore.DEFAULT_SEED,
) -> dict:
    """Two upper estimates for the one-shot assisted rate of a mixed tripartite state.

    ``ensemble_bound``: best (smallest) average asymptotic assisted entanglement
    sum_k p_k min(S(A), S(B)) of psi_k over sampled pure-state decompositions
    of the state (spectral ensemble plus Haar-rotated square-root ensembles).
    ``ea_marginal_bound``: assisted entanglement of the AB marginal, searched
    on its purification.
    """
    arranged = qcore.permute_systems(state, sum(qcore.distinct_labels(a_labels, b_labels, c_labels), ()))
    factor = arranged.factor()
    rank = factor.shape[1]
    systems = arranged.systems
    rng = np.random.default_rng(seed)

    def ensemble_value(isometry: np.ndarray) -> float:
        total = 0.0
        for i in range(isometry.shape[1]):
            amp = factor @ isometry[:, i].conj()
            p = float(np.vdot(amp, amp).real)
            if p < 1e-14:
                continue
            member = qcore.pure_state(systems, amp / math.sqrt(p))
            total += p * min(entropy.von_neumann(member, a_labels), entropy.von_neumann(member, b_labels))
        return total

    best = ensemble_value(np.eye(rank))  # spectral ensemble
    for u in qcore.haar_unitaries(rank, ensembles, rng):
        best = min(best, ensemble_value(u))

    marginal = qcore.partial_trace(state, list(a_labels) + list(b_labels))
    purified = qcore.purify(marginal, ref_label="_eaC")
    if purified.dim_of("_eaC") <= 4:
        _, ea_bound = eoa_pure(purified, a_labels, b_labels, ["_eaC"], seed=seed)
    else:
        ea_bound = min(entropy.von_neumann(purified, a_labels), entropy.von_neumann(purified, b_labels))
    return {
        "ensemble_bound": best,
        "ea_marginal_bound": ea_bound,
        "ensembles_sampled": ensembles + 1,
    }


# ---------------------------------------------------------------------------
# Hierarchical vs random repeater strategies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainComparison:
    hierarchical_rate: float
    random_rate: float
    per_link: tuple[float, ...]


def hierarchical_vs_random(links: Sequence[LabeledState], inject_cnot: bool = False) -> ChainComparison:
    """Compare the swap-after-distill chain rate with the random-measurement bound.

    ``links`` are bipartite states along the chain; interior node i holds the
    right register of link i and the left register of link i+1.  With
    ``inject_cnot`` the first interior node applies a CNOT (control = incoming
    register, target = outgoing register) before either strategy runs.
    """
    for link in links:
        if len(link.systems) != 2:
            raise StateError("each chain link must be bipartite")
    composed = qcore.tensor_all(list(links))
    groups: list[tuple[str, str]] = []
    for i in range(len(links) - 1):
        groups.append((links[i].labels[1], links[i + 1].labels[0]))
    if inject_cnot:
        if not groups:
            raise StateError("a CNOT injection needs at least one interior node")
        ctrl, tgt = groups[0]
        if composed.dim_of(ctrl) != 2 or composed.dim_of(tgt) != 2:
            raise StateError("the CNOT fault model acts on qubit registers")
        composed = qcore.apply_unitary(composed, [ctrl, tgt], qcore.CNOT)
    s = entropy.subset_entropies(composed)
    per_link = tuple(max(0.0, -s.conditional([link.labels[0]], [link.labels[1]])) for link in links)
    hierarchical = min(per_link)
    a_label = links[0].labels[0]
    b_label = links[-1].labels[1]
    report = assisted_lower_bound(composed, [a_label], [b_label], groups)
    return ChainComparison(
        hierarchical_rate=hierarchical,
        random_rate=report.lower_bound,
        per_link=per_link,
    )
