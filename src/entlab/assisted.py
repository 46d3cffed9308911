"""Assisted-distillation quantities: achievable-rate lower bounds, min-cut
coherent information, beating-hashing predicate, assisted-entanglement values,
and the hierarchical-vs-random repeater comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
    upper_ea: float | None
    beats_hashing: bool


def mincut_coherent(
    state: LabeledState,
    a_labels: Sequence[str],
    b_labels: Sequence[str],
    helpers: Sequence[Sequence[str] | str],
) -> tuple[float, tuple[str, ...]]:
    """min over helper cuts T of I(A,T > B,T-bar); helpers may be label groups."""
    return _mincut_coherent(entropy.subset_entropies(state), a_labels, b_labels, helpers)


def _mincut_coherent(
    s: Callable[[Sequence[str]], float],
    a_labels: Sequence[str],
    b_labels: Sequence[str],
    helpers: Sequence[Sequence[str] | str],
) -> tuple[float, tuple[str, ...]]:
    """mincut_coherent read from the subset-entropy table ``s``."""
    groups = [[h] if isinstance(h, str) else list(h) for h in helpers]
    names = [_group_name(g) for g in groups]
    by_name = dict(zip(names, groups))
    _check_disjoint(a_labels, b_labels, *by_name.values())
    everything = list(a_labels) + list(b_labels) + [x for g in groups for x in g]

    def value(cut: tuple[str, ...]) -> float:
        tbar = [x for name, g in by_name.items() if name not in cut for x in g]
        return -(s(everything) - s(list(b_labels) + tbar))

    return regions.min_over_cuts(names, value)


def _group_name(group: Sequence[str]) -> str:
    return "+".join(group)


def _check_disjoint(*parts: Sequence[str]) -> None:
    seen: set[str] = set()
    for part in parts:
        if seen & set(part):
            raise qcore.LabelError(f"label sets overlap in {sorted(seen & set(part))!r}")
        seen |= set(part)


def assisted_lower_bound(
    state: LabeledState,
    a_labels: Sequence[str],
    b_labels: Sequence[str],
    helpers: Sequence[Sequence[str] | str],
) -> AssistReport:
    """Achievable-rate report: hashing term, helper-cut term, and their maximum."""
    _check_disjoint(a_labels, b_labels)
    s = entropy.subset_entropies(state)
    hashing = -(s(list(a_labels) + list(b_labels)) - s(b_labels))
    if not helpers:
        return AssistReport(
            hashing=hashing, l_value=None, lower_bound=hashing,
            mincut_coherent=None, mincut_arg=None, upper_ea=None,
            beats_hashing=False,
        )
    value, arg = _mincut_coherent(s, a_labels, b_labels, helpers)
    l_value = value if len(helpers) == 1 else None
    lower = max(hashing, value)
    return AssistReport(
        hashing=hashing,
        l_value=l_value,
        lower_bound=lower,
        mincut_coherent=value,
        mincut_arg=arg,
        upper_ea=None,
        beats_hashing=value > hashing + 1e-12 and value > 1e-12,
    )


def beating_hashing(
    state: LabeledState,
    a_labels: Sequence[str],
    b_labels: Sequence[str],
    c_labels: Sequence[str],
) -> tuple[bool, dict[str, float]]:
    """Predicate I(C > A,B) > 0 and S(A|B,C) < S(A|B), with both slacks reported."""
    _check_disjoint(a_labels, b_labels, c_labels)
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
    best-found maximum of sum_i p_i S(A) over random orthonormal helper bases
    with local refinement; concavity keeps it below the asymptotic value.
    """
    if not state.is_pure:
        raise StateError("assisted entanglement of pure states needs a pure input")
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
    _check_disjoint(a_labels, b_labels)
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
    """sum_i p_i S(A)_{psi_i} for a rank-one projective measurement basis on C."""
    rest = [x for x in state.labels if x not in c_labels]
    arranged = qcore.permute_systems(state, list(c_labels) + rest)
    d_c = int(np.prod([state.dim_of(x) for x in c_labels]))
    d_rest = arranged.total_dim // d_c
    t = arranged.matrix.reshape(d_c, d_rest, d_c, d_rest)
    a_pos = [rest.index(x) for x in a_labels]
    rest_dims = [state.dim_of(x) for x in rest]
    total = 0.0
    for k in range(d_c):
        v = basis[:, k]
        block = np.einsum("i,iajb,j->ab", v.conj(), t, v)
        p = float(np.real(np.trace(block)))
        if p < 1e-14:
            continue
        rho = block / p
        rho_a = qcore._partial_trace_dense(rho, rest_dims, a_pos)
        eigs = qcore.clamped_eigenvalues(rho_a)
        total += p * qcore.shannon_entropy(eigs)
    return total


def _basis_measurement_search(
    state: LabeledState,
    a_labels: Sequence[str],
    c_labels: Sequence[str],
    grid: int,
    seed: int,
) -> float:
    from scipy.optimize import minimize

    d_c = int(np.prod([state.dim_of(x) for x in c_labels]))
    if d_c > 4:
        raise StateError("one-shot search supports helper dimension <= 4")
    rng = np.random.default_rng(seed)

    def basis_of(params: np.ndarray) -> np.ndarray:
        h = np.zeros((d_c, d_c), dtype=complex)
        idx = np.triu_indices(d_c)
        half = len(idx[0])
        h[idx] = params[:half]
        strict = np.triu_indices(d_c, 1)
        h[strict] += 1j * params[half : half + len(strict[0])]
        h = (h + h.conj().T) / 2.0
        return _expm_unitary(h)

    def objective(params: np.ndarray) -> float:
        return -average_entropy_for_basis(state, a_labels, c_labels, basis_of(params))

    n_params = d_c * d_c
    starts = [np.zeros(n_params)] + [rng.standard_normal(n_params) for _ in range(grid)]
    values = [objective(x0) for x0 in starts]
    best = max([0.0] + [-v for v in values])
    # Local refinement from the three best grid points; ties keep the start order.
    for i in sorted(range(len(starts)), key=values.__getitem__)[:3]:
        res = minimize(objective, starts[i], method="Nelder-Mead", options={"maxiter": 2500, "fatol": 1e-10})
        best = max(best, -res.fun)
    return best


def _expm_unitary(h: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * eigs)) @ vecs.conj().T


def da_upper_bounds(
    state: LabeledState,
    a_labels: Sequence[str],
    b_labels: Sequence[str],
    c_labels: Sequence[str],
    ensembles: int = 200,
    seed: int = qcore.DEFAULT_SEED,
    extra_ensembles: Sequence[Sequence[tuple[float, LabeledState]]] = (),
    include_marginal_bound: bool = True,
) -> dict:
    """Two upper estimates for the one-shot assisted rate of a mixed tripartite state.

    ``ensemble_bound``: best (smallest) average asymptotic assisted entanglement
    over sampled pure-state decompositions of the state (spectral ensemble plus
    Haar-rotated square-root ensembles, plus any explicitly supplied candidate
    ensembles).  ``ea_marginal_bound``: assisted entanglement of the AB
    marginal, searched on its purification.
    """
    arranged = qcore.permute_systems(state, list(a_labels) + list(b_labels) + list(c_labels))
    eigs, vecs = np.linalg.eigh(arranged.matrix)
    keep = eigs > 1e-12
    lam = eigs[keep]
    v = vecs[:, keep]
    rank = int(lam.size)
    systems = arranged.systems
    rng = np.random.default_rng(seed)

    def member_value(member: LabeledState) -> float:
        return min(entropy.von_neumann(member, a_labels), entropy.von_neumann(member, b_labels))

    def ensemble_value(isometry: np.ndarray) -> float:
        total = 0.0
        for i in range(isometry.shape[1]):
            amp = v @ (np.sqrt(lam) * isometry[:, i].conj())
            p = float(np.vdot(amp, amp).real)
            if p < 1e-14:
                continue
            member = qcore.pure_state(systems, amp / math.sqrt(p))
            total += p * member_value(member)
        return total

    best = ensemble_value(np.eye(rank))  # spectral ensemble
    for u in qcore.haar_unitaries(rank, ensembles, rng):
        best = min(best, ensemble_value(u))
    for candidate in extra_ensembles:
        best = min(best, sum(p * member_value(member) for p, member in candidate))

    ea_bound = None
    if include_marginal_bound:
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
    helper_groups: tuple[tuple[str, ...], ...]
    cnot_applied: bool


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
        helper_groups=tuple(tuple(g) for g in groups),
        cnot_applied=inject_cnot,
    )
