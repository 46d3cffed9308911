"""Rate and entanglement-cost regions: subset-sum constraint generation,
membership tests, min-cut search, and the one-shot cost formulas."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from . import entropy, qcore
from .qcore import LabeledState, StateError

MAX_REGION_PARTIES = 16
MAX_COST_PARTIES = 12
BOUNDARY_TOL = 1e-9

Item = TypeVar("Item")


def subsets(items: Sequence[Item]) -> Iterator[tuple[int, tuple[Item, ...]]]:
    """Every non-empty subset of ``items`` as (bitmask, members), in ascending mask order.

    Bit i of the mask stands for ``items[i]``; members keep the order of ``items``.
    """
    for mask in range(1, 1 << len(items)):
        yield mask, tuple(x for i, x in enumerate(items) if mask >> i & 1)


def subset_min_entropies(state: LabeledState, senders: Sequence[str], reference: Sequence[str]) -> dict[int, float]:
    """H_min(T R | R) relative to sigma = psi^R for every non-empty subset T of ``senders``.

    Keyed by the :func:`subsets` bitmask, in its order; sigma and each joint
    state are read from one :func:`entropy.subset_entropies` table, and sigma
    is decomposed once for all of them (:func:`entropy.min_entropies_relative`).
    """
    s = entropy.subset_entropies(state)
    sigma = s.reduced(reference)
    sender_sets = list(subsets(senders))
    joints = (s.reduced(list(t) + list(reference)) for _, t in sender_sets)
    values = entropy.min_entropies_relative(joints, sigma)
    return {mask: value for (mask, _), value in zip(sender_sets, values)}


@dataclass(frozen=True)
class RegionSpec:
    """Linear subset-sum constraints sum_{i in mask} x_i >= rhs over the parties."""

    parties: tuple[str, ...]
    constraints: tuple[tuple[int, float], ...]
    kind: str

    def rhs_of(self, labels: Iterable[str]) -> float:
        labels = tuple(labels)
        mask = self.mask_of(labels)
        for m, rhs in self.constraints:
            if m == mask:
                return rhs
        raise qcore.LabelError(f"the region has no constraint for the subset {sorted(labels)!r}")

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for name in labels:
            if name not in self.parties:
                raise qcore.LabelError(f"{name!r} is not a party of the region; its parties are {list(self.parties)!r}")
            mask |= 1 << self.parties.index(name)
        return mask

    def subset_labels(self, mask: int) -> tuple[str, ...]:
        return self._labels_by_mask[mask]

    @cached_property
    def _labels_by_mask(self) -> list[tuple[str, ...]]:
        return [()] + [labels for _, labels in subsets(self.parties)]


@dataclass(frozen=True)
class MembershipVerdict:
    verdict: str  # inside | boundary | outside
    violated: tuple[int, ...]
    tight: tuple[int, ...]
    slacks: dict[int, float] = field(default_factory=dict)


def merging_rate_region(
    state: LabeledState,
    senders: Sequence[str],
    receiver_side: Sequence[str] = (),
) -> RegionSpec:
    """Asymptotic merging region: sum_{i in T} R_i >= S(T | T-bar, B) for all non-empty T."""
    senders, receiver_side = qcore.distinct_labels(senders, receiver_side)
    if not senders:
        raise qcore.LabelError("the sender list has no labels")
    if len(senders) > MAX_REGION_PARTIES:
        raise StateError(f"at most {MAX_REGION_PARTIES} senders supported")
    joint = senders + receiver_side
    sender_sets = list(subsets(senders))
    rests = [[p for p in joint if p not in t] for _, t in sender_sets]
    whole, *rest = entropy.subset_entropies(state).entropies([joint] + rests)
    constraints = tuple((mask, whole - value) for (mask, _), value in zip(sender_sets, rest))
    return RegionSpec(parties=senders, constraints=constraints, kind="asymptotic_merge")


def split_transfer_region(
    state: LabeledState,
    t_side: Sequence[str],
    tbar_side: Sequence[str],
    a_labels: Sequence[str],
    b_labels: Sequence[str],
) -> tuple[RegionSpec, RegionSpec]:
    """Split-transfer regions: X <= T against A, Y <= T-bar against B.

    Cuts with conditional entropy exactly zero are flagged in the returned
    region kinds ("...:zero-cut") since negative rates then fail to exist.
    """
    t_side, tbar_side = qcore.distinct_labels(t_side, tbar_side)

    def side(cut: Sequence[str], receiver: Sequence[str], tag: str) -> RegionSpec:
        if not cut:
            return RegionSpec(parties=(), constraints=(), kind="split_transfer:empty")
        region = merging_rate_region(state, cut, receiver)
        zero_cut = any(abs(rhs) <= BOUNDARY_TOL for _, rhs in region.constraints)
        return replace(region, kind=f"split_transfer:{tag}" + (":zero-cut" if zero_cut else ""))

    return side(t_side, a_labels, "T"), side(tbar_side, b_labels, "Tbar")


def one_shot_cost_rhs(hmin_bits: float, eps: float, m: int) -> float:
    """Cost threshold -H_min + 4 log2(1/eps) + 2m + 8 for one simultaneous-merge subset."""
    return -hmin_bits + 4.0 * math.log2(1.0 / eps) + 2.0 * m + 8.0


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise StateError(f"eps must lie in (0, 1), got {eps!r}")


def one_shot_cost_region(
    state: LabeledState,
    senders: Sequence[str],
    reference: Sequence[str],
    eps: float,
) -> RegionSpec:
    """One-shot simultaneous-merging cost region over all non-empty sender subsets."""
    _check_eps(eps)
    senders, reference = qcore.distinct_labels(senders, reference)
    if not senders:
        raise qcore.LabelError("the sender list has no labels")
    if len(senders) > MAX_COST_PARTIES:
        raise StateError(f"at most {MAX_COST_PARTIES} senders supported for cost regions")
    m = len(senders)
    constraints = tuple(
        (mask, one_shot_cost_rhs(hmin, eps, m)) for mask, hmin in subset_min_entropies(state, senders, reference).items()
    )
    return RegionSpec(parties=senders, constraints=constraints, kind="one_shot_cost")


@dataclass(frozen=True)
class SequentialCostEntry:
    """Cost bracket for one sender in a fixed-ordering sequential protocol.

    ``rhs_unsmoothed`` uses the exact unsmoothed conditional min-entropy (an
    upper bound on the true requirement); ``rhs_renes`` replaces the smoothed
    min-entropy by its plug-in upper bound, giving a certified lower bound on
    any achievable cost.
    """

    label: str
    relative_reference: tuple[str, ...]
    hmin_exact: float
    renes_upper: float
    rhs_unsmoothed: float
    rhs_renes: float


def sequential_cost_rhs(hmin_bits: float, eps: float, m: int) -> float:
    """Per-sender threshold -H_min + 4 log2(2m/eps) + 2 log2(13)."""
    return -hmin_bits + 4.0 * math.log2(2.0 * m / eps) + 2.0 * math.log2(13.0)


def sequential_smoothing(eps: float, m: int) -> float:
    """The smoothing parameter delta = eps^2 / (52 m^2) of the sequential protocol."""
    return eps * eps / (52.0 * m * m)


def sequential_cost(state: LabeledState, ordering: Sequence[str], reference: Sequence[str], eps: float) -> list[SequentialCostEntry]:
    """Sequential one-at-a-time merging costs for a sender ordering.

    The smoothing parameter is :func:`sequential_smoothing`; the Renes plug-in
    uses the sender's own dimension, as in the worked cost comparisons.
    """
    _check_eps(eps)
    ordering, reference = qcore.distinct_labels(ordering, reference)
    if not ordering:
        raise qcore.LabelError("the sender ordering has no labels")
    m = len(ordering)
    delta = sequential_smoothing(eps, m)
    s = entropy.subset_entropies(state)
    entries = []
    for pos, label in enumerate(ordering):
        rel_ref = ordering[pos + 1 :] + reference
        hmin_exact = entropy.conditional_min_entropy(s.reduced([label] + list(rel_ref)), rel_ref).hmin_bits
        s_cond = s.conditional([label], rel_ref)
        renes = entropy.renes_smoothing_bound(s_cond, math.log2(state.dim_of(label)), delta, eps)
        entries.append(
            SequentialCostEntry(
                label=label,
                relative_reference=rel_ref,
                hmin_exact=hmin_exact,
                renes_upper=renes,
                rhs_unsmoothed=sequential_cost_rhs(hmin_exact, eps, m),
                rhs_renes=sequential_cost_rhs(renes, eps, m),
            )
        )
    return entries


def region_membership(region: RegionSpec, point: Sequence[float]) -> MembershipVerdict:
    """Classify a point against all constraints (equality within 1e-9).

    The region is closed, so a point satisfying every constraint is ``inside``
    even when some hold with equality.  An infeasible point pinned on at least
    two active constraint hyperplanes reports ``boundary`` (the corner-point
    case); any other infeasible point is ``outside``.  The violated and tight
    constraint masks are always returned alongside the verdict.
    """
    values = tuple(point)
    if len(values) != len(region.parties):
        raise StateError(f"point length {len(values)} mismatches {len(region.parties)} parties")
    violated = []
    tight = []
    slacks = {}
    for mask, rhs in region.constraints:
        total = sum(v for i, v in enumerate(values) if mask >> i & 1)
        slack = total - rhs
        slacks[mask] = slack
        if slack < -BOUNDARY_TOL:
            violated.append(mask)
        elif slack <= BOUNDARY_TOL:
            tight.append(mask)
    if not violated:
        verdict = "inside"
    elif len(tight) >= 2:
        verdict = "boundary"
    else:
        verdict = "outside"
    return MembershipVerdict(verdict=verdict, violated=tuple(violated), tight=tuple(tight), slacks=slacks)


# ---------------------------------------------------------------------------
# Min-cut search
# ---------------------------------------------------------------------------


def min_over_cuts(
    helpers: Sequence[str],
    value_of_cut: Callable[[tuple[str, ...]], float],
) -> tuple[float, tuple[str, ...]]:
    """Minimize over all 2^m helper subsets; ties broken by cardinality then lexicographically."""
    cuts = _cuts(helpers)
    return _least_cut(cuts, map(value_of_cut, cuts))


def _cuts(helpers: Sequence[str]) -> list[tuple[str, ...]]:
    """The 2^m subsets of ``helpers`` in the order :func:`min_over_cuts` tries them."""
    helpers = tuple(helpers)
    if len(helpers) > 20:
        raise StateError("at most 20 helpers supported")
    return [()] + sorted((cut for _, cut in subsets(helpers)), key=lambda cut: (len(cut), cut))


def _least_cut(cuts: Sequence[tuple[str, ...]], values: Iterable[float]) -> tuple[float, tuple[str, ...]]:
    """The least of ``values`` and its cut, ``values`` in the order of ``cuts``; a later cut wins only if lower by BOUNDARY_TOL."""
    best_value = math.inf
    best_cut: tuple[str, ...] = ()
    for cut, value in zip(cuts, values):
        if value < best_value - BOUNDARY_TOL:
            best_value = value
            best_cut = cut
    return best_value, best_cut


def min_cut_entanglement(
    state: LabeledState,
    a_labels: Sequence[str],
    b_labels: Sequence[str],
    helpers: Sequence[str],
) -> tuple[float, tuple[str, ...]]:
    """min over cuts T of S(A, T): the optimal assisted EPR rate for pure states."""
    a_labels, b_labels, helpers = qcore.distinct_labels(a_labels, b_labels, helpers)
    qcore._normalize_labels(state, a_labels + b_labels + helpers)
    cuts = _cuts(helpers)
    return _least_cut(cuts, entropy.subset_entropies(state).entropies([a_labels + cut for cut in cuts]))


def min_cut_entanglement_oracle(
    entropy_of: Callable[[frozenset], float],
    a_labels: Sequence[str],
    helpers: Sequence[str],
) -> tuple[float, tuple[str, ...]]:
    """Min-cut search against an external entropy oracle (for states past the dim cap)."""
    a_labels, helpers = qcore.distinct_labels(a_labels, helpers)
    return min_over_cuts(helpers, lambda cut: entropy_of(frozenset(a_labels + cut)))


# ---------------------------------------------------------------------------
# Worked one-shot comparison (distributed compression, three senders)
# ---------------------------------------------------------------------------


def compression_example_hmin(log2_d: float, log2_lambda1: float) -> dict[frozenset, float]:
    """Exact subset min-entropies for the two-pairs-plus-theta family.

    H_min for the C1/C2 cost-relevant subsets reduces by additivity to
    log d, log d - log lambda1, and -log lambda1.
    """
    return {
        frozenset({"C1"}): log2_d,
        frozenset({"C2"}): log2_d - log2_lambda1,
        frozenset({"C1", "C2"}): -log2_lambda1,
    }


def compression_example_negative_pair(log2_d: float, eps: float) -> dict:
    """Whether the simultaneous-merge region admits E1 < 0 and E2 < 0.

    The theta pair's log-size is eps log d, the scaling that makes the sum
    constraint shrink with d.  Returns the three analytic thresholds and the
    feasibility verdict; m = 3 senders enter the constants even though only
    the (E1, E2) face is tested.
    """
    log2_lambda1 = -eps * log2_d
    hmin = compression_example_hmin(log2_d, log2_lambda1)
    m = 3
    rhs1 = one_shot_cost_rhs(hmin[frozenset({"C1"})], eps, m)
    rhs2 = one_shot_cost_rhs(hmin[frozenset({"C2"})], eps, m)
    rhs12 = one_shot_cost_rhs(hmin[frozenset({"C1", "C2"})], eps, m)
    return {
        "rhs": {"C1": rhs1, "C2": rhs2, "C1C2": rhs12},
        "admits_negative_pair": rhs1 < 0 and rhs2 < 0 and rhs12 < 0,
        "log2_d_threshold": one_shot_cost_rhs(0.0, eps, m) / eps,
    }


def compression_example_sequential_bounds(log2_d: float, eps: float) -> dict:
    """Certified lower bounds on the first-mover costs of the two sequential orderings.

    Ordering (C3, C2, C1): the C2 cost is bounded via the smoothing plug-in;
    ordering (C3, C1, C2): the C1 cost via the max-entropy truncation bound.
    Both use smoothing parameter delta = eps^2 / 468 (m = 3).
    """
    m = 3
    delta = sequential_smoothing(eps, m)
    # Renes route: S(C2|C1 R) = (-1 + eps) log d for the theta of size d^eps.
    renes_upper = entropy.renes_smoothing_bound((-1.0 + eps) * log2_d, log2_d, delta, eps)
    e2_bound = sequential_cost_rhs(renes_upper, eps, m)
    e2_printed = (1.0 - 4.0 * eps * eps / 117.0 - eps) * log2_d + 4.0 * math.log2(6.0 / eps) + 5.0
    # Max-entropy truncation route on the maximally mixed d-level marginal.
    e1_bound = log2_d + 4.0 * math.log2(6.0 / eps) + 5.0
    return {
        "first_mover_c2": e2_bound,
        "first_mover_c2_printed": e2_printed,
        "first_mover_c1": e1_bound,
        "delta": delta,
    }


def corner_points(region: RegionSpec) -> dict[str, tuple[float, ...]]:
    """Sequential-ordering corner points of a region over all party orderings."""
    out = {}
    m = len(region.parties)
    for order in itertools.permutations(range(m)):
        values = [0.0] * m
        merged_mask = 0
        for i in order:
            # Tightest remaining constraint involving party i given the merged set.
            needed = -math.inf
            for mask, rhs in region.constraints:
                if mask >> i & 1 and (mask & ~(merged_mask | 1 << i)) == 0:
                    base = sum(values[j] for j in range(m) if mask >> j & 1 and j != i)
                    needed = max(needed, rhs - base)
            values[i] = needed
            merged_mask |= 1 << i
        out[",".join(region.parties[i] for i in order)] = tuple(values)
    return out
