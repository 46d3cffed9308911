"""Classical and quantum typical sets/subspaces and verification of their
standard mass, cardinality, and purity properties."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import qcore
from .qcore import LabeledState, StateError


def typicality_constant(p: Sequence[float]) -> float:
    """The constant c = max_x |log2 p(x)| over the support, making bounds checkable."""
    support = [x for x in p if x > 0]
    return max(abs(math.log2(x)) for x in support)


def _typical_counts(counts: np.ndarray, n: int, p: Sequence[float], delta: float) -> np.ndarray:
    """|N(x)/n - p(x)| <= delta for each count N(x) along the last axis (symbol x)."""
    return np.abs(counts / n - np.asarray(p)) <= delta + 1e-12


def _count_bounds(p: Sequence[float], n: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol count intervals [low(x), high(x)] of the delta-typical set.

    Every count k in 0..n is tested with :func:`_typical_counts`.  fl(k/n) - p(x)
    is monotone in k, so the passing counts of each symbol are one contiguous
    run, and a count vector is typical exactly when each count lies in its
    symbol's interval.  A symbol with no passing count gets low > high.
    """
    k = np.arange(n + 1)[:, None]
    allowed = _typical_counts(k, n, p, delta)
    return np.where(allowed, k, n + 1).min(axis=0), np.where(allowed, k, -1).max(axis=0)


def typical_mask(sequences: np.ndarray, p: Sequence[float], delta: float) -> np.ndarray:
    """Whether each sequence (along the last axis) has |N(x)/n - p(x)| <= delta for every symbol x."""
    n = sequences.shape[-1]
    low, high = _count_bounds(p, n, delta)
    counts = np.stack([(sequences == k).sum(axis=-1) for k in range(len(p))], axis=-1)
    return np.all((counts >= low) & (counts <= high), axis=-1)


def has_typical_type(p: Sequence[float], n: int, delta: float) -> bool:
    """Whether some count vector N of length-n sequences passes :func:`typical_mask`,
    i.e. whether the delta-typical set is non-empty.

    Counts summing to n exist exactly when every interval of
    :func:`_count_bounds` is non-empty and together they bracket n.  A symbol
    with p(x) = 0 is allowed a positive count only when n delta >= 1, and then
    the other symbols' intervals already reach n, so holding it at 0 (as
    :func:`typical_set` does, and as sampling does) gives the same answer.
    """
    low, high = _count_bounds(p, n, delta)
    return bool(np.all(low <= high)) and int(low.sum()) <= n <= int(high.sum())


@dataclass(frozen=True)
class TypicalSet:
    """Statistics of the delta-typical set of length-n sequences for p."""

    p: tuple[float, ...]
    n: int
    delta: float
    cardinality: int
    total_probability: float
    min_prob: float
    max_prob: float


def _typical_types(p: np.ndarray, n: int, delta: float) -> Iterator[tuple[int, float]]:
    """(size, prob) of each delta-typical type: its n!/prod N(x)! sequences, each
    of probability prod p(x)^N(x).

    The types are the box of :func:`_count_bounds` intervals with the last
    count fixed by the others, walked in lexicographic order; a symbol with
    p(x) = 0 keeps count 0.
    """
    low, high = _count_bounds(p, n, delta)
    low, high = low.tolist(), np.where(p == 0, np.minimum(high, 0), high).tolist()
    factorial = list(itertools.accumulate(range(1, n + 1), operator.mul, initial=1))
    for head in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(low[:-1], high[:-1]))):
        last = n - sum(head)
        if not low[-1] <= last <= high[-1]:
            continue
        counts = head + (last,)
        size = factorial[n]
        for c in counts:
            size //= factorial[c]
        yield size, math.prod(p[i] ** c for i, c in enumerate(counts) if c > 0)


def typical_set(p: Sequence[float], n: int, delta: float) -> TypicalSet:
    """Exact typical-set statistics, summed over the types of :func:`_typical_types`
    (no sequence enumeration)."""
    p_arr = qcore.probability_vector(p, "p")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise StateError(f"n must be an integer >= 1, got {n!r}")
    if not math.isfinite(delta):
        raise StateError(f"delta must be finite, got {delta!r}")
    types = list(_typical_types(p_arr, n, delta))
    probs = [prob for _, prob in types]
    return TypicalSet(
        p=tuple(float(x) for x in p_arr),
        n=n,
        delta=delta,
        cardinality=sum(size for size, _ in types),
        total_probability=sum((size * prob for size, prob in types), 0.0),
        min_prob=min(probs, default=0.0),
        max_prob=max(probs, default=0.0),
    )


@dataclass(frozen=True)
class TypicalSetBounds:
    """The typical-set sandwich for n symbols of entropy H, typicality constant c
    and slack delta, with epsilon the mass outside the set."""

    cardinality_max: float  # 2^{n(H + c delta)}
    cardinality_min: float  # (1 - epsilon) 2^{n(H - c delta)}
    member_prob_max: float  # 2^{-n(H - c delta)}
    member_prob_min: float  # 2^{-n(H + c delta)}


def typical_set_bounds(entropy_bits: float, c: float, n: int, delta: float, epsilon: float) -> TypicalSetBounds:
    """The one statement of the typical-set sandwich; OverflowError past float range."""
    return TypicalSetBounds(
        cardinality_max=2.0 ** (n * (entropy_bits + c * delta)),
        cardinality_min=(1 - epsilon) * 2.0 ** (n * (entropy_bits - c * delta)),
        member_prob_max=2.0 ** (-n * (entropy_bits - c * delta)),
        member_prob_min=2.0 ** (-n * (entropy_bits + c * delta)),
    )


def typical_set_report(p: Sequence[float], n: int, delta: float) -> list[dict]:
    """The rows ``entlab typ-check`` prints: each exact statistic of :func:`typical_set`
    beside its bound from :func:`typical_set_bounds`.

    Raises OverflowError when a type-class size or a bound exceeds float range.
    """
    ts = typical_set(p, n, delta)
    eps = max(0.0, 1.0 - ts.total_probability)
    cardinality = float(ts.cardinality)
    bounds = typical_set_bounds(qcore.shannon_entropy(p), typicality_constant(p), n, delta, eps)
    return [
        {"quantity": "total_probability", "actual": ts.total_probability, "bound": 1.0 - eps, "kind": ">="},
        {"quantity": "cardinality", "actual": cardinality, "bound": bounds.cardinality_max, "kind": "<="},
        {"quantity": "cardinality_floor", "actual": cardinality, "bound": bounds.cardinality_min, "kind": ">="},
        {"quantity": "member_prob_max", "actual": ts.max_prob, "bound": bounds.member_prob_max, "kind": "<="},
        {"quantity": "member_prob_min", "actual": ts.min_prob, "bound": bounds.member_prob_min, "kind": ">="},
    ]


@dataclass(frozen=True)
class ProjectorReport:
    n: int
    delta: float
    epsilon: float  # 1 - typical mass
    mass_ok: bool
    eigenvalue_sandwich_ok: bool
    cardinality_sandwich_ok: bool
    purity_bound_ok: bool
    gentle_ok: bool
    purity: float
    purity_bound: float
    gentle_lhs: float
    gentle_rhs: float
    hoeffding_floor: float


def typical_projector_checks(state: LabeledState, n: int, delta: float) -> ProjectorReport:
    """Verify the typical-projector bounds for n copies of a single-system state.

    rho^{(x)n} and its typical projector P are diagonal in the product of rho's
    eigenbases, so mass, cardinality, member eigenvalues and purity are sums
    over the typical types of the spectrum (:func:`_typical_types`), at no
    d^n cost.  P commutes with rho^{(x)n}, so || P rho P - rho ||_1 is exactly
    Tr((1 - P) rho^{(x)n}) = epsilon.
    """
    if len(state.systems) != 1:
        raise StateError("typical projector checks take a single-system state")
    p = np.sort(state.spectrum())[::-1]
    c = typicality_constant(p)
    entropy_bits = qcore.shannon_entropy(p)

    types = list(_typical_types(p, n, delta))
    probs = [prob for _, prob in types]
    card = sum(size for size, _ in types)
    mass = float(sum((size * prob for size, prob in types), 0.0))
    epsilon = max(0.0, 1.0 - mass)

    bounds = typical_set_bounds(entropy_bits, c, n, delta, epsilon)
    # The member check is vacuously true for an empty typical set.
    eig_ok = bool(min(probs, default=math.inf) >= bounds.member_prob_min * (1 - 1e-9)
                  and max(probs, default=0.0) <= bounds.member_prob_max * (1 + 1e-9))
    card_ok = bounds.cardinality_min * (1 - 1e-9) <= card <= bounds.cardinality_max * (1 + 1e-9)

    if mass > 0:
        purity = float(sum((size * prob**2 for size, prob in types), 0.0) / mass**2)
        purity_bound = (1 - epsilon) ** -2 * 2.0 ** (-n * (entropy_bits - 3 * c * delta))
    else:
        purity = math.inf
        purity_bound = math.inf
    gentle_rhs = 2.0 * math.sqrt(epsilon)
    hoeffding = 1.0 - 2.0 * state.total_dim * math.exp(-2.0 * n * delta * delta)
    return ProjectorReport(
        n=n,
        delta=delta,
        epsilon=epsilon,
        mass_ok=mass >= hoeffding - 1e-12,
        eigenvalue_sandwich_ok=eig_ok,
        cardinality_sandwich_ok=bool(card_ok),
        purity_bound_ok=(purity <= purity_bound * (1 + 1e-9)) or math.isinf(purity_bound),
        gentle_ok=epsilon <= gentle_rhs + 1e-12,
        purity=purity,
        purity_bound=purity_bound,
        gentle_lhs=epsilon,
        gentle_rhs=gentle_rhs,
        hoeffding_floor=hoeffding,
    )


def gentle_measurement_defect(rho: np.ndarray, x_op: np.ndarray) -> tuple[float, float]:
    """(|| sqrt(X) rho sqrt(X) - rho ||_1, 2 sqrt(eps)) for eps = 1 - Tr[X rho]."""
    overlap = float(np.real(np.trace(x_op @ rho)))
    eps = max(0.0, 1.0 - overlap)
    root = qcore.psd_sqrt(x_op)
    defect = qcore.trace_norm(root @ rho @ root - rho)
    return defect, 2.0 * math.sqrt(eps)
