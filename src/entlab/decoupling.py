"""Decoupling via random instruments: analytic error bounds, Monte Carlo
verification, split-transfer errors, and the Haar-twirl identity check."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import qcore, regions
from .qcore import LabeledState, StateError

ZERO_PROB = 1e-14


@dataclass(frozen=True)
class SenderSpec:
    """One sender's instrument shape: system dim, ancilla dim K, output rank L."""

    label: str
    dim: int
    ancilla: int = 1
    rank: int = 1

    def __post_init__(self):
        if self.rank < 1 or self.ancilla < 1 or self.dim < 1:
            raise StateError("sender dimensions must be positive")
        if self.rank > self.dim * self.ancilla:
            raise StateError(f"rank {self.rank} exceeds d*K = {self.dim * self.ancilla} for {self.label!r}")

    @property
    def blocks(self) -> int:
        return (self.dim * self.ancilla) // self.rank

    @property
    def remainder(self) -> int:
        return self.dim * self.ancilla - self.blocks * self.rank


@dataclass(frozen=True)
class InstrumentSpec:
    senders: tuple[SenderSpec, ...]
    seed: int = qcore.DEFAULT_SEED
    samples: int = 200

    def __post_init__(self):
        if self.samples < 1:
            raise StateError("samples must be >= 1")

    def validate_against(self, state: LabeledState) -> None:
        for s in self.senders:
            if state.dim_of(s.label) != s.dim:
                raise StateError(f"sender {s.label!r} dim {s.dim} mismatches the state ({state.dim_of(s.label)})")


def sender(label: str, dim: int, ancilla: int = 1, rank: int = 1) -> SenderSpec:
    return SenderSpec(label=label, dim=dim, ancilla=ancilla, rank=rank)


@dataclass(frozen=True)
class DecouplingResult:
    empirical_q: float
    stderr: float
    analytic_bound: float
    minentropy_bound: float | None
    samples: int
    per_sample: np.ndarray
    outcome_rows: tuple[dict, ...] = ()


def swap_operator(d: int) -> np.ndarray:
    """Swap on C^d x C^d: F |i>|j> = |j>|i>."""
    f = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            f[j * d + i, i * d + j] = 1.0
    return f


def purity(state: LabeledState, part: Iterable[str] | str | None = None, check_swap_trick: bool = False) -> float:
    """Tr[rho_part^2] as ||rho_part||_F^2; optionally cross-checked against Tr[(rho x rho) F]."""
    reduced = state if part is None else qcore.partial_trace(state, part)
    m = reduced.matrix
    direct = float(np.vdot(m, m).real)
    if check_swap_trick:
        d = m.shape[0]
        via_swap = float(np.real(np.trace(np.kron(m, m) @ swap_operator(d))))
        if abs(direct - via_swap) > 1e-10:
            raise StateError(f"swap-trick purity {via_swap!r} disagrees with direct value {direct!r}")
    return direct


def _reference_labels(state: LabeledState, spec: InstrumentSpec, reference: Iterable[str] | str) -> tuple[str, ...]:
    """The reference labels in the state's order, once the senders match the state and the reference is disjoint from them."""
    spec.validate_against(state)
    qcore.distinct_labels([s.label for s in spec.senders], reference)
    return qcore._normalize_labels(state, reference)


def decoupling_bound_purity(state: LabeledState, spec: InstrumentSpec, reference: Iterable[str] | str) -> float:
    """Average-case decoupling error bound from subset purities:

    2 sum_T prod_{i in T} L_i/(d_i K_i)
      + 2 sqrt(d_R sum_T prod_{i in T} (L_i/K_i) Tr[psi^2_{R T}]).
    """
    ref_labels = _reference_labels(state, spec, reference)
    d_ref = int(np.prod([state.dim_of(x) for x in ref_labels]))
    linear = 0.0
    quad = 0.0
    for _, subset in regions.subsets(spec.senders):
        linear += math.prod(s.rank / (s.dim * s.ancilla) for s in subset)
        pur = purity(state, list(ref_labels) + [s.label for s in subset])
        quad += math.prod(s.rank / s.ancilla for s in subset) * pur
    return 2.0 * linear + 2.0 * math.sqrt(d_ref * quad)


def decoupling_bound_minentropy(state: LabeledState, spec: InstrumentSpec, reference: Iterable[str] | str) -> float:
    """Min-entropy form of the decoupling bound, ancillas included:

    prefactor * sqrt(sum_T 2^{-(H_min(psi^{T R}|psi^R) + log K_T - log L_T)})
    with prefactor prod_i N_i L_i / (d_i K_i) <= 1.
    """
    ref_labels = _reference_labels(state, spec, reference)
    prefactor = math.prod(s.blocks * s.rank / (s.dim * s.ancilla) for s in spec.senders)
    hmins = regions.subset_min_entropies(state, [s.label for s in spec.senders], ref_labels)
    total = 0.0
    for mask, subset in regions.subsets(spec.senders):
        hmin = hmins[mask]
        log_k = sum(math.log2(s.ancilla) for s in subset)
        log_l = sum(math.log2(s.rank) for s in subset)
        total += 2.0 ** (-(hmin + log_k - log_l))
    return prefactor * math.sqrt(total)


def _working_factor(state: LabeledState, spec: InstrumentSpec, ref_labels: Sequence[str]) -> np.ndarray:
    """A factor V of the working state: V V^dagger is the marginal on senders +
    reference with each sender's ancilla in I/K, and V a tensor (g_1, ..., g_m, d_R, r).

    g_i = d_i K_i is sender i's system followed by its ancilla, and d_R the
    reference.  The marginal's :meth:`~qcore.LabeledState.factor` gives its
    kept eigenvectors scaled by sqrt(lambda), from no eigendecomposition when
    it is stored as one column and from one of its Gram matrix when it keeps a
    factor; each ancilla adds the columns delta(k, k') / sqrt(K), so
    r is the marginal's rank times prod K_i.  The eigenvalues at or below
    SUPPORT_TOL go, with their mass delta: a sample's probabilities sum to
    ||V||_F^2 = 1 - delta, and Q moves by at most 2 delta.
    """
    labels = [s.label for s in spec.senders] + list(ref_labels)
    factor = qcore.permute_systems(qcore.partial_trace(state, labels), labels).factor()
    for s in spec.senders:
        factor = np.kron(factor, np.eye(s.ancilla) / math.sqrt(s.ancilla))
    # Rows (d_1, ..., d_m, d_R, K_1, ..., K_m), regrouped as (d_1 K_1, ..., d_m K_m, d_R).
    m = len(spec.senders)
    d_ref = math.prod(state.dim_of(x) for x in ref_labels)
    rows = [s.dim for s in spec.senders] + [d_ref] + [s.ancilla for s in spec.senders]
    order = [a for i in range(m) for a in (i, m + 1 + i)] + [m, 2 * m + 1]
    grouped = tuple(s.dim * s.ancilla for s in spec.senders) + (d_ref, factor.shape[1])
    return factor.reshape(rows + [factor.shape[1]]).transpose(order).reshape(grouped)


def _outcome_blocks(s: SenderSpec) -> list[slice]:
    """Computational-basis blocks: N rank-L blocks plus a possible remainder."""
    blocks = [slice(j * s.rank, (j + 1) * s.rank) for j in range(s.blocks)]
    if s.remainder:
        blocks.append(slice(s.blocks * s.rank, s.dim * s.ancilla))
    return blocks


_CHUNK_BYTES = 1 << 20  # a sample's rotated factor and outcome gaps, per chunk of samples


def _rotated(factor: np.ndarray, senders: Sequence[SenderSpec], rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """``factor`` rotated by one Haar unitary per sender, for each sample in ``rngs``, stacked on a leading axis.

    Each sender draws the chunk's unitaries through one
    :func:`qcore.haar_unitaries_per_stream` call, one QR for the chunk, so
    each sample's stream still draws its senders in order and every unitary
    is the one a draw per sample gives, bit for bit.  All are drawn before
    the first rotation, so no small array is allocated between the large
    products.  The stacked U acts on the sender's row axis through one
    batched ``np.matmul``, with ``factor`` itself, without a sample axis, the
    broadcast operand of the first product: U V (U V)^dagger rotates the
    working state, and a 1 x 1 unitary, the phase of a sender of dimension 1
    without an ancilla, cancels in it and is drawn but not applied.
    """
    drawn = [qcore.haar_unitaries_per_stream(s.dim * s.ancilla, rngs) for s in senders]
    rotated = factor[np.newaxis]
    for i, u in enumerate(drawn):
        if u.shape[-1] == 1:
            continue
        # One (g, rest) product per sample, the rest in axis order.
        moved = np.moveaxis(rotated, 1 + i, 1)
        shape = (len(u),) + moved.shape[1:]
        rotated = np.moveaxis(np.matmul(u, moved.reshape(len(moved), shape[1], -1)).reshape(shape), 1, 1 + i)
    return np.broadcast_to(rotated, (len(rngs),) + factor.shape)


def simulate_random_instrument(
    state: LabeledState,
    spec: InstrumentSpec,
    reference: Iterable[str] | str,
    with_minentropy_bound: bool = False,
    keep_outcomes: bool = False,
) -> DecouplingResult:
    """Monte Carlo estimate of Q = sum_J p_J || psi_J^{C1 R} - tau x psi^R ||_1.

    Each sample draws one Haar unitary per sender on its system + ancilla,
    partitions the rotated space into rank-L blocks, and accumulates the
    probability-weighted distance of every outcome's reduced state from the
    decoupled target.  Remainder-rank outcomes are charged the worst-case
    distance 2, matching the quantity the analytic bound controls.

    The working state is never formed: each sample rotates its factor V
    (:func:`_working_factor`, :func:`_rotated`), and an outcome J reads V_J,
    the rows of its block, with probability ||V_J||_F^2 and state
    omega_J = V_J V_J^dagger.  Samples run in chunks of about _CHUNK_BYTES of
    rotated factors and outcome gaps.  Per chunk, one pass gives each sender
    row's squared norm, which each outcome's probability sums; one index
    gives the live non-remainder outcomes' V_J, and their gaps
    omega / p - target form one stack with one :func:`qcore.trace_norm` call.
    The probabilities and weighted distances are then added as Python floats,
    sample by sample and outcome by outcome, as a loop over single samples
    adds them.
    """
    if state.norm_mode != "normalized":
        raise StateError("decoupling simulation requires a normalized input state")
    ref_labels = _reference_labels(state, spec, reference)

    factor = _working_factor(state, spec, ref_labels)
    weight = float(np.vdot(factor, factor).real)  # what each sample's probabilities sum to
    ref_state = qcore.partial_trace(state, ref_labels).matrix if ref_labels else np.ones((1, 1))
    ranks = [s.rank for s in spec.senders]
    l_total = math.prod(ranks)
    target = np.kron(np.eye(l_total) / l_total, ref_state)
    blocks_per_sender = [_outcome_blocks(s) for s in spec.senders]
    ids = np.arange(math.prod(factor.shape[:-2])).reshape(factor.shape[:-2])
    # Each outcome's rows of the sender axes, label and remainder flag.
    outcomes = []
    for combo in itertools.product(*[range(len(b)) for b in blocks_per_sender]):
        rows = ids[tuple(blocks_per_sender[i][j] for i, j in enumerate(combo))].ravel()
        remainder_hit = any(s.remainder and j == s.blocks for s, j in zip(spec.senders, combo))
        outcomes.append((rows, "+".join(str(j) for j in combo), remainder_hit))
    measured = [k for k, (_, _, remainder_hit) in enumerate(outcomes) if not remainder_hit]
    measured_rows = np.stack([outcomes[k][0] for k in measured])
    remainders = [(k, rows) for k, (rows, _, remainder_hit) in enumerate(outcomes) if remainder_hit]

    rngs = qcore.spawn_rngs(spec.seed, spec.samples)
    chunk = max(1, _CHUNK_BYTES // (factor.nbytes + len(measured) * target.nbytes))
    per_sample = np.zeros(spec.samples)
    outcome_rows: list[dict] = []
    for start in range(0, spec.samples, chunk):
        rotated = _rotated(factor, spec.senders, rngs[start:start + chunk])
        # Sender rows, each with its d_R x r entries.
        flat = rotated.reshape(len(rotated), ids.size, -1)
        row_p = np.real(np.einsum("ngk,ngk->ng", flat, flat.conj()))
        probs = np.empty((len(flat), len(outcomes)))
        measured_p = row_p[:, measured_rows].sum(axis=-1)
        probs[:, measured] = measured_p
        for k, rows in remainders:
            probs[:, k] = row_p[:, rows].sum(axis=-1)
        live = measured_p >= ZERO_PROB
        v = flat[:, measured_rows][live].reshape(-1, target.shape[0], factor.shape[-1])
        gaps = np.matmul(v, v.conj().transpose(0, 2, 1)) / measured_p[live][:, np.newaxis, np.newaxis]
        gaps -= target
        norms = iter(qcore.trace_norm(gaps).tolist() if len(gaps) else ())
        for idx, sample_probs in enumerate(probs.tolist(), start):
            total_q = 0.0
            total_p = 0.0
            for (_, label, remainder_hit), p in zip(outcomes, sample_probs):
                total_p += p
                if p < ZERO_PROB:
                    distance = 0.0
                elif remainder_hit:
                    distance = 2.0
                else:
                    distance = next(norms)
                total_q += distance * p
                if keep_outcomes:
                    outcome_rows.append(
                        {"sample": idx, "outcome": label, "probability": p, "distance": distance, "remainder": remainder_hit}
                    )
            if abs(total_p - weight) > 1e-9:
                raise StateError(f"instrument outcome probabilities sum to {total_p!r}, not {weight!r}")
            per_sample[idx] = total_q

    mean = float(per_sample.mean())
    stderr = float(per_sample.std(ddof=1) / math.sqrt(spec.samples)) if spec.samples > 1 else 0.0
    bound = decoupling_bound_purity(state, spec, ref_labels)
    me_bound = None
    if with_minentropy_bound:
        me_bound = decoupling_bound_minentropy(state, spec, ref_labels)
    return DecouplingResult(
        empirical_q=mean,
        stderr=stderr,
        analytic_bound=bound,
        minentropy_bound=me_bound,
        samples=spec.samples,
        per_sample=per_sample,
        outcome_rows=tuple(outcome_rows),
    )


def split_transfer_errors(
    state: LabeledState,
    spec_t: InstrumentSpec,
    spec_tbar: InstrumentSpec,
    receivers: tuple[Sequence[str], Sequence[str]],
    extra_reference: Sequence[str] = (),
) -> tuple[DecouplingResult, DecouplingResult, float]:
    """Decoupling errors of the two halves of a split-transfer.

    Senders in ``spec_t`` decouple against T-bar + B + R, senders in
    ``spec_tbar`` against T + A + R; the merging-error surrogate
    2 sqrt(Q1 bound) + 2 sqrt(Q2 bound) is returned alongside.
    """
    a_labels, b_labels = (list(receivers[0]), list(receivers[1]))
    t_labels = [s.label for s in spec_t.senders]
    tbar_labels = [s.label for s in spec_tbar.senders]
    qcore.distinct_labels(t_labels, tbar_labels)
    ref1 = tbar_labels + b_labels + list(extra_reference)
    ref2 = t_labels + a_labels + list(extra_reference)
    q1 = simulate_random_instrument(state, spec_t, ref1) if t_labels else _empty_result()
    q2 = simulate_random_instrument(state, spec_tbar, ref2) if tbar_labels else _empty_result()
    surrogate = 2.0 * math.sqrt(q1.analytic_bound) + 2.0 * math.sqrt(q2.analytic_bound)
    return q1, q2, surrogate


def _empty_result() -> DecouplingResult:
    return DecouplingResult(
        empirical_q=0.0, stderr=0.0, analytic_bound=0.0, minentropy_bound=None,
        samples=0, per_sample=np.zeros(0),
    )


# ---------------------------------------------------------------------------
# Twirl identity
# ---------------------------------------------------------------------------


def twirl_coefficients(d: int, rank: int) -> tuple[Fraction, Fraction]:
    """Exact (r, s) in avg[(U+ x U+) F_sub (U x U)] = r I + s F."""
    denom = d * (d * d - 1)
    return Fraction(rank * (d - rank), denom), Fraction(rank * (rank * d - 1), denom)


@dataclass(frozen=True)
class TwirlReport:
    dim: int
    rank: int
    samples: int
    r: Fraction
    s: Fraction
    max_deviation: float


def twirl_average_check(d: int, rank: int, samples: int = 20000, seed: int = qcore.DEFAULT_SEED) -> TwirlReport:
    """Monte Carlo mean of the conjugated subspace swap against r I + s F.

    The subspace swap is F_sub = F (P x P), with P the projector onto the
    first ``rank`` basis states, and F commutes with U x U, so each sample is

        (U+ x U+) F_sub (U x U) = F (Q x Q),  Q = U+ P U,

    and the mean is F times the mean of Q x Q.  The coefficients divide by
    d(d^2 - 1), so d must be at least 2.
    """
    if d < 2:
        raise StateError(f"d must be at least 2, got {d}")
    if not 1 <= rank <= d:
        raise StateError("rank must lie in [1, d]")
    if samples < 1:
        raise StateError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    acc = np.zeros((d * d, d * d), dtype=complex)
    chunk = 2000
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        top = qcore.haar_unitaries(d, n, rng)[:, :rank, :]
        q = top.conj().transpose(0, 2, 1) @ top
        acc += np.einsum("nab,ncd->acbd", q, q).reshape(d * d, d * d)
        done += n
    f = swap_operator(d)
    mean = f @ acc / samples
    r, s = twirl_coefficients(d, rank)
    predicted = float(r) * np.eye(d * d) + float(s) * f
    deviation = float(np.max(np.abs(mean - predicted)))
    return TwirlReport(dim=d, rank=rank, samples=samples, r=r, s=s, max_deviation=deviation)
