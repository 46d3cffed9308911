"""Entropic quantities: the von Neumann family, one-shot min/max/collision
entropies, and the closed-form smoothing bounds used by the cost analyses.

All values are in bits (base-2 logarithms, 0 log 0 = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import qcore
from .qcore import SUPPORT_TOL, LabeledState, StateError, SupportError  # SUPPORT_TOL is re-exported

FEASIBILITY_TOL = 1e-8
RESIDUAL_TOL = 1e-7


def von_neumann(state: LabeledState, part: Iterable[str] | str | None = None) -> float:
    """Von Neumann entropy of the reduced operator on ``part`` (whole state if None); S(empty) = 0.

    It is :meth:`~qcore.LabeledState.entropy` of the reduction.  A reduction
    of a pure state stored as a factor keeps one on the larger side
    (:func:`qcore.partial_trace`), so S(T) and S(T^c) each decompose a Gram
    matrix of the smaller side.
    """
    kept = qcore._normalize_labels(state, state.labels if part is None else part)
    return qcore.partial_trace(state, kept).entropy() if kept else 0.0


def subset_entropies(state: LabeledState) -> "_SubsetTable":
    """S(T) for label sets T of ``state``, each reduced and decomposed at most once.

    Entries are keyed by the labels in the state's system order, so any order
    of T finds the same entry, and S(empty) = 0.  ``table(T)`` reads one
    entry and ``table.entropies(Ts)`` a list of them; either computes the
    entries it lacks, equal to :func:`von_neumann` bit for bit.  A dense
    state reduces and decomposes each set on its own, while qcore fills the
    sets of a state stored as a factor in batches
    (:func:`qcore._factor_entropies`).  S(T) is the entropy of T's reduced
    state, which ``table.reduced(T)`` returns with its cached spectrum for
    callers that need the operator too.  Make the
    table inside the call that reads it and let it go with that call: it is
    a memo of one computation, not a property of the state.
    """
    return _SubsetTable(state)


class _SubsetTable:
    def __init__(self, state: LabeledState):
        self._state = state
        self._reduced: dict[tuple[str, ...], LabeledState] = {}
        self._entropy: dict[tuple[str, ...], float] = {(): 0.0}

    def reduced(self, part: Iterable[str] | str) -> LabeledState:
        key = qcore._normalize_labels(self._state, part)
        if key not in self._reduced:
            self._reduced[key] = qcore.partial_trace(self._state, key)
        return self._reduced[key]

    def __call__(self, part: Iterable[str] | str) -> float:
        key = qcore._normalize_labels(self._state, part)
        if key not in self._entropy:
            self._fill([key])
        return self._entropy[key]

    def entropies(self, parts: Iterable[Iterable[str] | str]) -> list[float]:
        """S(T) for each label set T of ``parts``, in their order."""
        keys = [qcore._normalize_labels(self._state, part) for part in parts]
        self._fill([key for key in dict.fromkeys(keys) if key not in self._entropy])
        return [self._entropy[key] for key in keys]

    def _fill(self, keys: list[tuple[str, ...]]) -> None:
        batched = qcore._factor_entropies(self._state, keys)
        if batched is None:
            batched = {key: von_neumann(self.reduced(key)) for key in keys}
        self._entropy.update(batched)

    def conditional(self, part: Iterable[str] | str, given: Iterable[str] | str) -> float:
        """S(part | given) = S(part, given) - S(given) from the table's entries."""
        part, given = qcore.distinct_labels(part, given)
        part_labels = qcore._normalize_labels(self._state, part)
        given_labels = qcore._normalize_labels(self._state, given)
        return self(part_labels + given_labels) - self(given_labels)


def conditional_entropy(state: LabeledState, part: Iterable[str] | str, given: Iterable[str] | str) -> float:
    """S(part | given) = S(part, given) - S(given); may be negative."""
    return subset_entropies(state).conditional(part, given)


def coherent_information(state: LabeledState, frm: Iterable[str] | str, to: Iterable[str] | str) -> float:
    """I(frm > to) = S(to) - S(frm, to)."""
    return -conditional_entropy(state, frm, to)


def zero_entropy(state: LabeledState) -> float:
    """H_0: log2 of the number of eigenvalues above SUPPORT_TOL, SupportError if none; reduce first for a marginal's."""
    return math.log2(int(qcore._support_mask(state.spectrum()).sum()))


QUANTITIES = ("svn", "cond", "coh", "hmin", "h2", "hmax", "h0", "all")


def entropy_report(
    state: LabeledState,
    left: Sequence[str],
    right: Sequence[str],
    quantity: str = "all",
    sigma: LabeledState | None = None,
) -> dict[str, float]:
    """Entropies of ``state`` for the (left | right) split, named as ``entlab entropy`` prints them.

    ``quantity`` is one of QUANTITIES: ``svn`` gives ``entropy_left`` and
    ``entropy_right``; ``cond`` and ``coh`` give ``conditional`` = S(left|right)
    and ``coherent`` = I(left>right); ``hmin`` and ``h2`` are relative to
    ``sigma``, or to the right marginal when it is None; ``hmax`` is
    H_max(left|right); ``h0`` is H_0 of the left marginal; ``all`` gives every
    one.  All values read one subset-entropy table, so each label set is
    reduced once and the von Neumann values decompose it once.
    """
    if quantity not in QUANTITIES:
        raise StateError(f"unknown entropy quantity {quantity!r}; expected one of {', '.join(QUANTITIES)}")
    left, right = qcore.distinct_labels(left, right)
    s = subset_entropies(state)
    out: dict[str, float] = {}
    if quantity in ("svn", "all"):
        out["entropy_left"] = s(left)
        out["entropy_right"] = s(right)
    if quantity in ("cond", "coh", "all"):
        conditional = s.conditional(left, right)
        if quantity != "coh":
            out["conditional"] = conditional
        if quantity != "cond":
            out["coherent"] = -conditional
    if quantity in ("hmin", "h2", "hmax", "all"):
        if sigma is None and quantity != "hmax":
            sigma = s.reduced(right)
        joint = s.reduced(left + right)
        if quantity in ("hmin", "all"):
            out["hmin"] = min_entropy_relative(joint, sigma)
        if quantity in ("h2", "all"):
            out["h2"] = collision_entropy(joint, sigma)
        if quantity in ("hmax", "all"):
            out["hmax"] = conditional_max_entropy(joint, right)
    if quantity in ("h0", "all"):
        out["h0"] = zero_entropy(s.reduced(left))
    return out


# ---------------------------------------------------------------------------
# One-shot entropies
# ---------------------------------------------------------------------------


def _split_conditioning(rho: LabeledState, cond: Iterable[str] | str) -> tuple[LabeledState, int, tuple[str, ...]]:
    """Permute ``rho`` so the conditioning systems b sit last; return (state, d_a, b)."""
    b_labels = qcore._normalize_labels(rho, cond)
    a_labels = tuple(name for name in rho.labels if name not in b_labels)
    if not a_labels:
        raise qcore.LabelError("conditioning set covers the whole state")
    d_a = int(np.prod([rho.dim_of(x) for x in a_labels]))
    return qcore.permute_systems(rho, list(a_labels) + list(b_labels)), d_a, b_labels


def _on_conditioning(op: np.ndarray, rho_m: np.ndarray, d_a: int) -> np.ndarray:
    """(I_A x op) rho (I_A x op)^dagger for rho on A x B; op may map B into a smaller space."""
    d_b = rho_m.shape[0] // d_a
    t = qcore._sandwich(op, rho_m.reshape(d_a, d_b, d_a, d_b), [1])
    side = d_a * op.shape[0]
    return t.reshape(side, side)


def _sigma_on_support(sigma: LabeledState, b_labels: tuple[str, ...], power: float) -> tuple[np.ndarray | None, np.ndarray]:
    """The projector onto the kernel of sigma, None when sigma has none, and sigma^power on its support.

    Both come from one :func:`qcore._support_eigh` of sigma's matrix with its
    systems in the order ``b_labels``; an empty support raises SupportError.
    """
    eigs, vecs, support = qcore._support_eigh(qcore.permute_systems(sigma, b_labels).matrix)
    kernel = None if support.all() else (vecs * (~support)) @ vecs.conj().T
    powers = np.zeros_like(eigs)
    powers[support] = eigs[support] ** power
    return kernel, (vecs * powers) @ vecs.conj().T


def _conditioned_on(rhos: Iterable[LabeledState], sigma: LabeledState,
                    power: float) -> Iterator[tuple[LabeledState, int, np.ndarray]]:
    """For each rho in turn: rho with sigma's systems last, d_A, and sigma^power on the support of sigma.

    sigma is decomposed once for each order in which the rhos list its
    systems (:func:`_sigma_on_support`).  A rho whose marginal on sigma's
    systems has weight outside that support raises SupportError when it is
    reached, so the checks and errors come in the order of one call per rho;
    a sigma of full rank has no kernel, so the test, exactly 0, is skipped.
    """
    parts: dict[tuple[str, ...], tuple[np.ndarray | None, np.ndarray]] = {}
    for rho in rhos:
        arranged, d_a, b_labels = _split_conditioning(rho, sigma.labels)
        if b_labels not in parts:
            parts[b_labels] = _sigma_on_support(sigma, b_labels, power)
        kernel, sigma_power = parts[b_labels]
        if kernel is not None:
            rho_b = qcore.partial_trace(arranged, b_labels).matrix
            leak = float(np.real(np.trace(kernel @ rho_b @ kernel)))
            if leak > 1e-10:
                raise SupportError(f"marginal leaks weight {leak:.3e} outside the conditioning support")
        yield arranged, d_a, sigma_power


def _conditioning_columns(op: np.ndarray, d_a: int, rows: np.ndarray) -> np.ndarray:
    """The columns ``rows`` of I_A x op, as a D x k matrix, without building I_A x op."""
    d_b = op.shape[0]
    a_idx, b_idx = np.divmod(rows, d_b)
    cols = np.zeros((d_a, d_b, rows.size), dtype=complex)
    cols[a_idx, :, np.arange(rows.size)] = op[:, b_idx].T
    return cols.reshape(d_a * d_b, rows.size)


def min_entropy_relative(rho: LabeledState, sigma: LabeledState) -> float:
    """H_min(rho^{AB} | sigma^B): -log2 of the least lambda with lambda(I x sigma) >= rho.

    Computed as the top eigenvalue of rho conjugated by X = I x sigma^{-1/2},
    the power taken on the support of sigma; weight outside the support raises
    SupportError.  When rho has exactly-zero rows (the rows outside
    :attr:`qcore.LabeledState.support` of rho with sigma's systems last),
    let S be the other k rows and Y = QR the thin QR of the D x k column block
    X[:, S].  Then X rho X = Y rho_S Y^dagger = Q (R rho_S R^dagger) Q^dagger,
    so its nonzero spectrum is that of the k x k matrix R rho_S R^dagger, which
    is decomposed instead of the D x D one.  Without zero rows the D x D
    operator is decomposed as before.  A state from ``qcore.make_state``
    carries its support, so the D x D matrix is not scanned for it again.
    """
    (value,) = min_entropies_relative([rho], sigma)
    return value


def min_entropies_relative(rhos: Iterable[LabeledState], sigma: LabeledState) -> list[float]:
    """:func:`min_entropy_relative` of each rho against one sigma, bit for bit, in the order of ``rhos``.

    sigma is decomposed and its inverse root built once for each order in
    which the rhos list its systems; each rho keeps its own support test.
    """
    out = []
    for arranged, d_a, root in _conditioned_on(rhos, sigma, -0.5):
        rho_m = arranged.matrix
        rows = arranged.support
        if rows is None:
            conditioned = _on_conditioning(root, rho_m, d_a)
        else:
            r = np.linalg.qr(_conditioning_columns(root, d_a, rows), mode="r")
            conditioned = r @ rho_m[np.ix_(rows, rows)] @ r.conj().T
        out.append(-math.log2(float(np.max(qcore.clamped_eigenvalues(conditioned)))))
    return out


def min_entropy_unconditioned(rho: LabeledState) -> float:
    """H_min(rho) = -log2 of the largest eigenvalue."""
    return -math.log2(float(np.max(rho.spectrum())))


def collision_entropy(rho: LabeledState, sigma: LabeledState) -> float:
    """H_2(rho^{AB} | sigma^B) = -log2 Tr[((I x sigma^{-1/4}) rho (I x sigma^{-1/4}))^2].

    The D x D conditioned operator is built for every rho, with or without
    exactly-zero rows.
    """
    ((arranged, d_a, quarter),) = _conditioned_on([rho], sigma, -0.25)
    tilde = _on_conditioning(quarter, arranged.matrix, d_a)
    return -math.log2(float(np.real(np.trace(tilde @ tilde))))


@dataclass(frozen=True)
class ConeProgramResult:
    """Solution of min Tr(sigma) subject to I_A x sigma >= rho, sigma >= 0.

    ``dual_certificate`` is X >= 0 on A x B with Tr_A X <= I, so
    ``dual_bound`` = Tr(rho X) is a lower bound on the optimum; ``gap`` is the
    resulting primal-dual gap and ``gap_bound`` the barrier's nu / t.
    """

    optimum: float
    certificate: np.ndarray
    iterations: int
    residual: float
    dual_certificate: np.ndarray
    dual_bound: float
    gap_bound: float

    @property
    def hmin_bits(self) -> float:
        return -math.log2(self.optimum)

    @property
    def gap(self) -> float:
        return self.optimum - self.dual_bound


def conditional_min_entropy(rho: LabeledState, cond: Iterable[str] | str) -> ConeProgramResult:
    """H_min(A|B) for B = ``cond``, via the trace-minimization cone program.

    The conditioning system is first reduced to the support of its marginal
    (the optimizer never places weight outside it), then the barrier solver of
    :mod:`entlab.coneprog` runs there.  The certificate is the normalized
    optimizer; its feasibility and its agreement with the relative min-entropy
    are re-verified before returning.  The solver's dual point is mapped back
    through the support isometry, and Tr(rho X) is reported as a lower bound.
    A gap optimum - Tr(rho X) above twice the barrier's bound nu / t raises
    StateError, since the optimum is then not certified: the solves of the
    benchmark reach 0.9988 to 1.0001 of the bound, but on rank-one states
    with d_A = d_B >= 12 the barrier can stall with the Hessian's condition
    number near 1e20 and return an optimum up to 4% above the exact one.
    """
    from . import coneprog

    arranged, d_a, b_labels = _split_conditioning(rho, cond)
    d_b = arranged.total_dim // d_a
    rho_m = np.asarray(arranged.matrix)

    _, vecs, kept = qcore._support_eigh(qcore.partial_trace(arranged, b_labels).matrix)
    support = vecs[:, kept]
    reduced = _on_conditioning(support.conj().T, rho_m, d_a)

    solution = coneprog.solve_min_trace(reduced, d_a, support.shape[1])
    sig = qcore._hermitian_part(support @ solution.sigma @ support.conj().T)
    infeasibility = max(0.0, -float(np.min(np.linalg.eigvalsh(coneprog._slack(-rho_m, sig, d_a)))))
    if infeasibility > 0.0:
        # The interior path stays feasible up to roundoff; absorb it exactly.
        sig = sig + infeasibility * np.eye(d_b)
    if infeasibility > FEASIBILITY_TOL:
        raise StateError(f"cone program certificate infeasible by {infeasibility:.3e}")
    optimum = float(np.real(np.trace(sig)))
    certificate = sig / optimum

    cert_state = qcore.make_state([(name, arranged.dim_of(name)) for name in b_labels], certificate)
    cross = 2.0 ** (-min_entropy_relative(arranged, cert_state))
    residual = abs(optimum - cross)
    if residual > RESIDUAL_TOL * max(1.0, optimum):
        raise StateError(f"cone program residual {residual:.3e} exceeds {RESIDUAL_TOL}")
    dual = _on_conditioning(support, solution.dual, d_a)
    result = ConeProgramResult(
        optimum=optimum,
        certificate=certificate,
        iterations=solution.newton_steps,
        residual=residual,
        dual_certificate=dual,
        dual_bound=float(np.real(np.vdot(dual, rho_m))),
        gap_bound=solution.gap_bound,
    )
    if solution.gap_bound > 0.0 and result.gap > 2.0 * solution.gap_bound:
        raise StateError(f"cone program gap {result.gap:.3e} exceeds twice its barrier bound {solution.gap_bound:.3e}")
    return result


def max_entropy_unconditioned(rho: LabeledState) -> float:
    """H_max(rho) = 2 log2 sum_i sqrt(lambda_i)."""
    eigs = np.clip(rho.spectrum(), 0.0, None)
    return 2.0 * math.log2(float(np.sum(np.sqrt(eigs))))


def conditional_max_entropy(rho: LabeledState, cond: Iterable[str] | str) -> float:
    """H_max(A|B) via duality: -H_min(A|R) on the A,R marginal of a purification.

    A rho_B with one eigenvalue above SUPPORT_TOL, H_0(B) = 0 (a B of
    dimension 1, or no label, included), is pure, so rho_AB = rho_A (x) |b><b|
    and H_max(A|B) is H_max(rho_A), in closed form.
    """
    b_labels = qcore._normalize_labels(rho, cond)
    a_labels = [x for x in rho.labels if x not in b_labels]
    if zero_entropy(qcore.partial_trace(rho, b_labels)) == 0:
        return max_entropy_unconditioned(qcore.partial_trace(rho, a_labels))
    purified = qcore.purify(rho, ref_label="_hmaxR")
    marginal_ar = qcore.partial_trace(purified, a_labels + ["_hmaxR"])
    return -conditional_min_entropy(marginal_ar, ["_hmaxR"]).hmin_bits


# ---------------------------------------------------------------------------
# Closed-form smoothing bounds
# ---------------------------------------------------------------------------


def smooth_max_lower_bound(spectrum: Sequence[float], eps: float) -> float:
    """Truncation lower bound 2 log2 min{sum_{j<k} sqrt(r_j) : tail(k) <= 2 eps}.

    The spectrum must be non-increasing with total weight at most 1.  When the
    tail condition already holds at k = 1 the sum is empty and -inf is returned.
    """
    r = np.asarray(spectrum, dtype=float)
    if np.any(np.diff(r) > 1e-12):
        raise StateError("spectrum must be non-increasing")
    if r.sum() > 1.0 + 1e-10:
        raise StateError("spectrum weight exceeds 1")
    if not 0.0 <= eps < 0.5:
        raise StateError("eps must lie in [0, 1/2)")
    d = r.size
    tails = np.concatenate([np.cumsum(r[::-1])[::-1], [0.0]])  # tails[k] = sum_{j >= k}, 0-based
    # Smallest k (1-based) whose tail sum_{j=k+1..d} is within 2 eps.
    k = next((k for k in range(1, d + 1) if tails[k] <= 2.0 * eps + 1e-15), d)
    head = float(np.sum(np.sqrt(r[: k - 1])))
    if head <= 0.0:
        return float("-inf")
    return 2.0 * math.log2(head)


def fannes_bound(d: int, eps: float) -> float:
    """eta(eps) * log2(d) with eta(x) = x - x log2 x below 1/e, else x + log2(e)/e."""
    if eps < 0:
        raise StateError("eps must be non-negative")
    if eps == 0.0:
        return 0.0
    if eps <= 1.0 / math.e:
        eta = eps - eps * math.log2(eps)
    else:
        eta = eps + math.log2(math.e) / math.e
    return eta * math.log2(d)


def renes_smoothing_bound(s_cond: float, log2_d: float, delta: float, eps: float) -> float:
    """Plug-in upper bound on the smoothed min-entropy:
    S_cond + 8 delta (eps + 1) log2 d + 2 h2(2 delta).

    Takes log2 d rather than d, so that a dimension known only by its log
    (such as d^eps) needs no second copy of the bound."""
    if not 0.0 <= delta < 0.25:
        raise StateError("delta must lie in [0, 1/4)")
    return s_cond + 8.0 * delta * (eps + 1.0) * log2_d + 2.0 * qcore.binary_entropy(2.0 * delta)
