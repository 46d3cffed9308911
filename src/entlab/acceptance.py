"""Acceptance suite: one callable per criterion, shared by ``entlab verify``
and the pytest wrapper.  Every tolerance is pinned here."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import assisted, decoupling, entropy, protocols, qcore, regions, typicality

ACCEPTANCE_SEED = qcore.DEFAULT_SEED


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


class _Checks:
    def __init__(self):
        self.failures: list[str] = []
        self.notes: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def detail(self) -> str:
        if self.failures:
            return "; ".join(self.failures)
        return "; ".join(self.notes) if self.notes else "ok"


def criterion_twirl_identity(c: _Checks) -> None:
    """Sampled two-copy twirl matches r I + s F entrywise within 5e-3."""
    for d, rank in ((2, 1), (4, 2), (4, 3)):
        report = decoupling.twirl_average_check(d, rank, samples=20000, seed=ACCEPTANCE_SEED)
        expected_r = Fraction(rank * (d - rank), d * (d * d - 1))
        expected_s = Fraction(rank * (rank * d - 1), d * (d * d - 1))
        c.expect(report.r == expected_r and report.s == expected_s, f"(d={d},L={rank}) coefficient mismatch")
        c.expect(report.max_deviation <= 5e-3, f"(d={d},L={rank}) deviation {report.max_deviation:.2e} > 5e-3")
        c.note(f"d={d},L={rank}: dev={report.max_deviation:.2e}")


def _two_sender_state() -> qcore.LabeledState:
    parts = qcore.tensor(qcore.max_entangled(2, ("C1", "C2a")), qcore.max_entangled(2, ("C2b", "R")))
    return qcore.merge_systems(parts, {"C2": ["C2a", "C2b"]})


def criterion_decoupling_bound(c: _Checks) -> None:
    """Empirical mean + 2 stderr stays below the analytic bound on all four
    benchmarks, two of them with a bound below 2, and Q falls as the ancillas grow."""
    state = _two_sender_state()
    spec = decoupling.InstrumentSpec(
        senders=(decoupling.sender("C1", 2, ancilla=1, rank=1), decoupling.sender("C2", 4, ancilla=2, rank=1)),
        seed=ACCEPTANCE_SEED,
        samples=200,
    )
    result = decoupling.simulate_random_instrument(state, spec, ["R"])
    c.expect(
        result.empirical_q + 2 * result.stderr <= result.analytic_bound,
        f"two-sender: {result.empirical_q:.4f}+2*{result.stderr:.4f} > {result.analytic_bound:.4f}",
    )
    c.note(f"two-sender Q={result.empirical_q:.4f} bound={result.analytic_bound:.4f}")

    ch5 = qcore.permute_systems(qcore.example_ch5(), ["A", "B", "R", "C1", "C2"])
    merged = qcore.merge_systems(ch5, {"C": ["C1", "C2"]})
    spec1 = decoupling.InstrumentSpec(
        senders=(decoupling.sender("C", 4, ancilla=1, rank=1),), seed=ACCEPTANCE_SEED + 1, samples=200
    )
    single = decoupling.simulate_random_instrument(merged, spec1, ["A", "R"])
    c.expect(
        single.empirical_q + 2 * single.stderr <= single.analytic_bound,
        f"single-helper: {single.empirical_q:.4f}+2*{single.stderr:.4f} > {single.analytic_bound:.4f}",
    )
    c.note(f"single-helper Q={single.empirical_q:.4f} bound={single.analytic_bound:.4f}")

    # The two cases above have bounds over 2, which no Q can exceed; with
    # ancillas (4, 4) and (8, 8) the bound falls below 2, so these checks can
    # fail.  A distance replaced by 2 - distance still passes at (4, 4); at
    # (8, 8) the bound is near 1 and the true Q near 0.3.
    smaller = None
    for k in (4, 8):
        spec_k = decoupling.InstrumentSpec(
            senders=(decoupling.sender("C1", 2, ancilla=k, rank=1), decoupling.sender("C2", 4, ancilla=k, rank=1)),
            seed=ACCEPTANCE_SEED,
            samples=200,
        )
        ancillas = decoupling.simulate_random_instrument(state, spec_k, ["R"])
        tag = f"two-sender ({k},{k})"
        c.expect(ancillas.analytic_bound < 2.0, f"{tag}: bound {ancillas.analytic_bound:.4f} not below 2")
        c.expect(
            ancillas.empirical_q + 2 * ancillas.stderr <= ancillas.analytic_bound,
            f"{tag}: {ancillas.empirical_q:.4f}+2*{ancillas.stderr:.4f} > {ancillas.analytic_bound:.4f}",
        )
        if smaller is not None:
            c.expect(
                ancillas.empirical_q < smaller.empirical_q,
                f"two-sender: Q={ancillas.empirical_q:.4f} at ({k},{k}) does not fall below Q={smaller.empirical_q:.4f} at (4,4)",
            )
        c.note(f"{tag} Q={ancillas.empirical_q:.4f} bound={ancillas.analytic_bound:.4f}")
        smaller = ancillas


def criterion_entropy_engine(c: _Checks) -> None:
    """Closed-form min-entropy identities and the classical-register zero case, at 1e-6."""
    lam1 = 0.75
    for d in (2, 4, 8):
        if d <= 4:
            state = qcore.example_4_1(d, [lam1, 1 - lam1])
            rho_c1r = qcore.partial_trace(state, ["C1", "R"])
            rho_c2r = qcore.partial_trace(state, ["C2", "R"])
            rho_c12r = qcore.partial_trace(state, ["C1", "C2", "R"])
            sigma = qcore.partial_trace(state, ["R"])
        else:
            # Same reduced operators, assembled directly: the full five-system
            # state at d = 8 would exceed the dimension cap.
            sigma = qcore.max_mixed(d, "R")
            rho_c1r = qcore.tensor(qcore.max_mixed(d, "C1"), sigma)
            theta_b = qcore.make_state([("C2b", 2)], np.diag([lam1, 1 - lam1]).astype(complex))
            rho_c2r = qcore.merge_systems(
                qcore.tensor(qcore.tensor(qcore.max_mixed(d, "C2a"), theta_b), sigma),
                {"C2": ["C2a", "C2b"]},
            )
            rho_c12r = qcore.merge_systems(
                qcore.tensor(qcore.tensor(qcore.max_entangled(d, ("C1", "C2a")), theta_b), sigma),
                {"C2": ["C2a", "C2b"]},
            )
        log_d = math.log2(d)
        vals = {
            "C1R": (entropy.min_entropy_relative(rho_c1r, sigma), log_d),
            "C2R": (entropy.min_entropy_relative(rho_c2r, sigma), log_d - math.log2(lam1)),
            "C1C2R": (entropy.min_entropy_relative(rho_c12r, sigma), -math.log2(lam1)),
        }
        for key, (got, want) in vals.items():
            c.expect(abs(got - want) <= 1e-6, f"d={d} H_min({key}|R): {got!r} != {want!r}")

    rng = np.random.default_rng(ACCEPTANCE_SEED)
    d = 8
    h_d = qcore.harmonic_number(d)
    kets = [np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0][:, 0] for _ in range(d)]
    m = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        weight = 1.0 / ((j + 1) * h_d)
        reg = np.zeros((d, d))
        reg[j, j] = 1.0
        m += weight * np.kron(np.outer(kets[j], kets[j].conj()), reg)
    cq = qcore.make_state([("A", d), ("B", d)], m)
    res = entropy.conditional_min_entropy(cq, ["B"])
    c.expect(abs(res.hmin_bits) <= 1e-6, f"cq H_min(A|B) = {res.hmin_bits!r} != 0")
    c.note(f"cq residual={res.residual:.1e}")


def criterion_worked_example_numbers(c: _Checks) -> None:
    """The five-party example's coherent informations, and their CNOT invariance."""
    state = qcore.example_ch5()
    i_acb = entropy.coherent_information(state, ["A", "C1", "C2"], ["B"])
    i_abc = entropy.coherent_information(state, ["A"], ["B", "C1", "C2"])
    i_ab = entropy.coherent_information(state, ["A"], ["B"])
    s_r = entropy.von_neumann(state, ["R"])
    c.expect(abs(i_acb - 0.399) <= 0.005, f"I(AC>B) = {i_acb!r}")
    c.expect(abs(i_abc - 0.811) <= 0.005, f"I(A>BC) = {i_abc!r}")
    c.expect(i_ab < 0, f"I(A>B) = {i_ab!r} not negative")
    c.expect(abs(s_r - 0.601) <= 0.002, f"S(R) = {s_r!r}")

    faulted = qcore.example_ch5_cnot()
    i_ac1 = entropy.coherent_information(faulted, ["A"], ["C1"])
    c.expect(abs(i_ac1) <= 1e-9, f"I(A>C1) after CNOT = {i_ac1!r}")
    c.expect(
        abs(entropy.coherent_information(faulted, ["A", "C1", "C2"], ["B"]) - i_acb) <= 1e-9,
        "I(AC>B) moved under the CNOT",
    )
    c.expect(
        abs(entropy.coherent_information(faulted, ["A"], ["B", "C1", "C2"]) - i_abc) <= 1e-9,
        "I(A>BC) moved under the CNOT",
    )

    link1 = qcore.pure_state([("A", 2), ("C1", 2)], np.array([0.5, 0, 0, math.sqrt(0.75)], dtype=complex))
    link2 = qcore.partial_trace(qcore.build_state({"state": {"name": "example_ch5"}}), ["C2", "B"])
    link2 = qcore.permute_systems(link2, ["C2", "B"])
    plain = assisted.hierarchical_vs_random([link1, link2], inject_cnot=False)
    faulty = assisted.hierarchical_vs_random([link1, link2], inject_cnot=True)
    c.expect(abs(plain.hierarchical_rate - plain.random_rate) <= 1e-9, "product-form chain rates differ")
    c.expect(abs(faulty.hierarchical_rate) <= 1e-9, f"hierarchical rate {faulty.hierarchical_rate!r} after CNOT")
    c.expect(abs(faulty.random_rate - plain.random_rate) <= 1e-9, "random-strategy rate moved under the CNOT")
    c.note(f"rates: plain={plain.random_rate:.4f} cnot_hier={faulty.hierarchical_rate:.1e}")


def criterion_regions(c: _Checks) -> None:
    """Exact two-sender region with membership verdicts, and the one-shot separation."""
    state = _two_sender_state()
    region = regions.merging_rate_region(state, ["C1", "C2"])
    expected = {("C1",): -1.0, ("C2",): 0.0, ("C1", "C2"): 1.0}
    for labels, want in expected.items():
        got = region.rhs_of(labels)
        c.expect(abs(got - want) <= 1e-9, f"rhs{labels} = {got!r} != {want}")
    for point, want in (((0.0, 1.0), "inside"), ((-1.0, 0.0), "boundary"), ((-2.0, 0.0), "outside")):
        verdict = regions.region_membership(region, point)
        c.expect(verdict.verdict == want, f"point {point}: {verdict.verdict} != {want}")
    verdict = regions.region_membership(region, (-2.0, 0.0))
    c.expect(region.mask_of(["C1"]) in verdict.violated, "outside point misses the R1 violation")
    # Merging the senders one after the other reaches the corner points.
    full = region.mask_of(region.parties)
    for ordering, point in regions.corner_points(region).items():
        verdict = regions.region_membership(region, point)
        c.expect(verdict.verdict == "inside" and not verdict.violated, f"corner {ordering} {point}: {verdict.verdict}")
        c.expect(full in verdict.tight, f"corner {ordering} {point} leaves the full-set constraint slack")

    eps = 0.1
    threshold = regions.compression_example_negative_pair(1.0, eps)["log2_d_threshold"]
    above = regions.compression_example_negative_pair(threshold + 1.0, eps)
    below = regions.compression_example_negative_pair(threshold - 5.0, eps)
    c.expect(above["admits_negative_pair"], "negative pair infeasible above the threshold")
    c.expect(not below["admits_negative_pair"], "negative pair feasible below the threshold")
    rhs = above["rhs"]
    rhs12 = rhs["C1C2"]
    # The (E1, E2) face of the three-sender cost region, from the exact
    # closed-form subset min-entropies.
    face = regions.RegionSpec(
        parties=("C1", "C2"),
        constraints=((0b01, rhs["C1"]), (0b10, rhs["C2"]), (0b11, rhs12)),
        kind="one_shot_cost",
    )
    verdict = regions.region_membership(face, (0.495 * rhs12, 0.495 * rhs12))
    c.expect(verdict.verdict == "inside" and rhs12 < 0, "negative-pair point not strictly inside")

    for log2_d in (threshold + 1.0, threshold + 50.0, 4.0):
        seq = regions.compression_example_sequential_bounds(log2_d, eps)
        c.expect(seq["first_mover_c2"] > 0, f"C2-first bound not positive at log d = {log2_d}")
        c.expect(seq["first_mover_c1"] > 0, f"C1-first bound not positive at log d = {log2_d}")
        c.expect(
            seq["first_mover_c2"] >= seq["first_mover_c2_printed"] - 1e-9,
            "composed C2 bound fell below its closed form",
        )
    for eps_probe in (0.05, 0.3, 0.6, 0.9):
        seq = regions.compression_example_sequential_bounds(threshold + 1.0, eps_probe)
        c.expect(seq["first_mover_c2"] > 0, f"C2-first bound not positive at eps = {eps_probe}")
    c.note(f"log2 d threshold at eps=0.1: {threshold:.2f}")


def overlap_family(d: int, rng: np.random.Generator):
    """The ``gershgorin`` criterion's overlap family of d unit kets, drawn from rng.

    The kets are the columns of a random unitary, each given a random phase
    and mixed toward the first column by one bias drawn from [0, 0.4), then
    normalized.  Returns (gram, coeff, joint): their Gram matrix G, the
    embezzling amplitudes c_j = 1/sqrt(j H_d), and the joint operator on
    C1 (x) R with entries c_i c_j G_ji at |ii><jj|, whose d nonzero rows are
    the |ii> of D = d^2.  The benchmark's ``_overlap_family`` makes the same
    draws with the bias from [0.05, 0.4).
    """
    kets = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    kets = kets @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d)))
    family = kets + rng.uniform(0.0, 0.4) * kets[:, :1]
    family /= np.linalg.norm(family, axis=0)
    gram = family.conj().T @ family
    h_d = qcore.harmonic_number(d)
    coeff = np.array([1.0 / math.sqrt((j + 1) * h_d) for j in range(d)])
    joint = np.zeros((d * d, d * d), dtype=complex)
    idx = np.arange(d) * d + np.arange(d)
    joint[np.ix_(idx, idx)] = np.einsum("i,j,ji->ij", coeff, coeff, gram)
    return gram, coeff, joint


def criterion_gershgorin(c: _Checks) -> None:
    """Exact -H_min of the overlap family against the circle-theorem envelope,
    and against log2 of the family's largest Gram eigenvalue."""
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    for d in (8, 16, 32):
        for trial in range(20):
            gram, coeff, big = overlap_family(d, rng)
            alpha = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
            if alpha < 1.0 / (2 * d):
                continue
            joint = qcore.make_state([("C1", d), ("R", d)], big)
            sigma = qcore.make_state([("R", d)], np.diag(coeff**2).astype(complex))
            exact = -entropy.min_entropy_relative(joint, sigma)
            upper = math.log2(2 * alpha * d + 1)
            c.expect(exact <= upper + 1e-9, f"d={d} trial {trial}: exact {exact:.4f} > {upper:.4f}")
            # On span{|ii>} the conditioned operator is the transposed Gram matrix.
            gram_value = math.log2(np.linalg.eigvalsh(gram)[-1])
            c.expect(
                abs(exact - gram_value) <= 1e-9,
                f"d={d} trial {trial}: exact {exact!r} != log2 lambda_max(G) = {gram_value!r}",
            )
            c.expect(
                upper <= math.log2(alpha * d) + 2.0 + 1e-12,
                f"d={d} trial {trial}: envelope chain broke (alpha={alpha:.3f})",
            )


def criterion_swap(c: _Checks) -> None:
    """Exact rational singlet conversion probabilities and branch enumeration."""
    for lam2 in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
        lam1 = 1 - lam2
        trace = protocols.entanglement_swap(lam1, lam2)
        c.expect(trace.aggregate["scp"] == 2 * lam2, f"scp({lam2}) = {trace.aggregate['scp']}")
        probs = {o.label: o.probability for o in trace.outcomes}
        c.expect(probs["01"] == lam1 * lam2 and probs["11"] == lam1 * lam2, f"Bell branches wrong at {lam2}")
        c.expect(
            probs["00"] == (lam1**2 + lam2**2) / 2 and probs["10"] == (lam1**2 + lam2**2) / 2,
            f"partial branches wrong at {lam2}",
        )
        c.expect(sum(probs.values()) == 1, "branch probabilities do not sum to one")


def criterion_hashing(c: _Checks) -> None:
    """Decoy-elimination success rate and executed yield of the hashing run."""
    trace = protocols.hashing_simulation(
        (0.8, 0.1, 0.05, 0.05), n=2000, delta=0.05, trials=50, seed=ACCEPTANCE_SEED
    )
    agg = trace.aggregate
    c.expect(abs(agg["entropy_bits"] - 1.022) <= 0.001, f"S(AB) = {agg['entropy_bits']!r}")
    c.expect(agg["success_frequency"] >= 0.9, f"success frequency {agg['success_frequency']!r} < 0.9")
    target = 1.0 - agg["entropy_bits"]
    c.expect(abs(agg["yield"] - target) <= 0.1, f"yield {agg['yield']!r} not within 0.1 of {target!r}")
    # A case inside the feasible regime, where the rounds fit in the pairs.
    n, delta = 2000, 0.05
    feasible = protocols.hashing_simulation((0.9, 0.05, 0.03, 0.02), n=n, delta=delta, trials=5, seed=ACCEPTANCE_SEED)
    agg_f = feasible.aggregate
    c.expect(agg_f["feasible"], f"feasible case: {agg_f['nominal_rounds']} rounds need more than {n} pairs")
    c.expect(agg_f["rounds_run"] == agg_f["nominal_rounds"], f"feasible case ran {agg_f['rounds_run']} rounds")
    target_f = 1.0 - agg_f["entropy_bits"] - 2.0 * delta
    c.expect(abs(agg_f["yield"] - target_f) <= 1.0 / n, f"feasible yield {agg_f['yield']!r} not within 1/n of {target_f!r}")
    c.expect(agg_f["success_frequency"] >= 0.9, f"feasible success frequency {agg_f['success_frequency']!r} < 0.9")
    c.note(
        f"success={agg['success_frequency']:.2f} yield={agg['yield']:.3f} "
        f"rounds={agg['rounds_run']}/{agg['nominal_rounds']} feasible={agg['feasible']}"
    )


def criterion_min_cut(c: _Checks) -> None:
    """Chain min-cuts equal the endpoint entropy; assisted values on random pure states."""
    lam = (0.7, 0.3)
    link_entropy = qcore.shannon_entropy(lam)
    for m in range(1, 11):
        nodes = ["A"] + [f"C{i}" for i in range(1, m + 1)] + ["B"]

        def chain_entropy(subset: frozenset) -> float:
            inside = [name in subset or name == "A" for name in nodes[:-1]] + [False]
            crossings = sum(1 for i in range(len(nodes) - 1) if inside[i] != inside[i + 1])
            return crossings * link_entropy

        value, cut = regions.min_cut_entanglement_oracle(chain_entropy, ["A"], nodes[1:-1])
        c.expect(abs(value - link_entropy) <= 1e-9, f"m={m}: min-cut {value!r} != {link_entropy!r}")
        c.expect(cut == (), f"m={m}: tie-break returned {cut!r}")

    # State-backed cross-check at m = 4 (helpers hold two registers each).
    m = 4
    links = [qcore.schmidt_pair(lam, (f"n{i}r", f"n{i + 1}l")) for i in range(m + 1)]
    state = qcore.tensor_all(links)
    helper_groups = [(f"n{i}r", f"n{i}l") for i in range(1, m + 1)]

    def grouped_entropy(cut: tuple[str, ...]) -> float:
        labels = ["n0r"] + [x for g in cut for x in g.split("+")]
        return entropy.von_neumann(state, labels)

    names = ["+".join(g) for g in helper_groups]
    value, cut = regions.min_over_cuts(names, lambda cc: grouped_entropy(cc))
    c.expect(abs(value - link_entropy) <= 1e-9, f"state path min-cut {value!r}")

    rng = np.random.default_rng(ACCEPTANCE_SEED)
    for i in range(20):
        dims = [("A", 2), ("B", 2), ("C", int(rng.integers(2, 4)))]
        psi = qcore.random_pure(dims, rng)
        asymptotic, one_shot = assisted.eoa_pure(psi, ["A"], ["B"], ["C"], grid=4, seed=int(rng.integers(1 << 31)))
        want = min(entropy.von_neumann(psi, "A"), entropy.von_neumann(psi, "B"))
        c.expect(abs(asymptotic - want) <= 1e-9, f"state {i}: assisted value {asymptotic!r} != {want!r}")
        c.expect(one_shot <= asymptotic + 1e-7, f"state {i}: search {one_shot!r} above the concavity cap")
        c_a = assisted.concurrence_of_assistance(psi, ["A"], ["B"])
        floor = qcore.binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c_a * c_a))) / 2.0)
        c.expect(one_shot >= floor - 1e-9, f"state {i}: search {one_shot!r} below E_F(C_a) = {floor!r}")


def criterion_property_suites(c: _Checks) -> None:
    """Always-on randomized invariants, 100+ instances per family, zero violations."""
    rng = np.random.default_rng(ACCEPTANCE_SEED)

    for _ in range(100):  # state invariants + subadditivity + swap-trick purity
        dims = [("A", int(rng.integers(2, 4))), ("B", int(rng.integers(2, 4)))]
        state = qcore.random_state(dims, rng)
        mat = state.matrix
        c.expect(float(np.max(np.abs(mat - mat.conj().T))) <= 1e-10, "hermiticity defect")
        c.expect(float(np.min(np.linalg.eigvalsh(mat))) >= -1e-10, "negative eigenvalue")
        c.expect(abs(state.trace() - 1.0) <= 1e-10, "trace defect")
        gap = entropy.von_neumann(state, "A") + entropy.von_neumann(state, "B") - entropy.von_neumann(state)
        c.expect(gap >= -1e-9, f"subadditivity violated by {gap!r}")
        decoupling.purity(state, "A", check_swap_trick=True)

    for _ in range(100):  # strong subadditivity, both forms
        state = qcore.random_state([("A", 2), ("B", 2), ("C", 2)], rng)
        gap = entropy.coherent_information(state, "A", ["B", "C"]) - entropy.coherent_information(state, "A", "B")
        c.expect(gap >= -1e-9, f"coherent-information monotonicity violated by {gap!r}")
        joint = qcore.partial_trace(state, ["A", "B"])
        sigma = qcore.partial_trace(state, ["B"])
        hmin_pair = entropy.min_entropy_relative(joint, sigma)
        hmin_top = entropy.min_entropy_unconditioned(qcore.partial_trace(state, ["A"]))
        c.expect(hmin_pair <= hmin_top + 1e-8, f"min-entropy monotonicity violated: {hmin_pair!r} > {hmin_top!r}")

    for _ in range(100):  # H_min <= H_2 and additivity
        rho = qcore.random_state([("A", 2), ("B", 2)], rng)
        sigma = qcore.random_state([("B", 2)], rng)
        hmin = entropy.min_entropy_relative(rho, sigma)
        h2 = entropy.collision_entropy(rho, sigma)
        c.expect(hmin <= h2 + 1e-9, f"H_min {hmin!r} > H_2 {h2!r}")
        rho2 = qcore.random_state([("A2", 2), ("B2", 2)], rng)
        sigma2 = qcore.random_state([("B2", 2)], rng)
        joint = qcore.permute_systems(qcore.tensor(rho, rho2), ["A", "A2", "B", "B2"])
        both = qcore.tensor(sigma, sigma2)
        lhs = entropy.min_entropy_relative(joint, both)
        rhs = hmin + entropy.min_entropy_relative(rho2, sigma2)
        c.expect(abs(lhs - rhs) <= 1e-8, f"additivity defect {lhs - rhs!r}")

    for _ in range(100):  # distance sandwiches, normalized and subnormalized
        a = qcore.random_state([("A", 3)], rng)
        b = qcore.random_state([("A", 3)], rng)
        rep = qcore.distances(a, b)
        c.expect(1 - rep.fidelity <= rep.trace_distance + 1e-9, "lower sandwich")
        c.expect(rep.trace_distance <= math.sqrt(max(0.0, 1 - rep.fidelity**2)) + 1e-9, "upper sandwich")
        c.expect(rep.trace_distance <= rep.purified_distance + 1e-9, "purified lower")
        c.expect(rep.purified_distance <= 2 * math.sqrt(rep.trace_distance) + 1e-9, "purified upper")
        scale_a, scale_b = rng.uniform(0.4, 1.0, 2)
        sub_a = qcore.make_state(a.systems, a.matrix * scale_a, "subnormalized")
        sub_b = qcore.make_state(b.systems, b.matrix * scale_b, "subnormalized")
        rep_s = qcore.distances(sub_a, sub_b)
        c.expect(rep_s.trace_distance <= rep_s.purified_distance + 1e-9, "subnormalized purified lower")
        c.expect(
            rep_s.purified_distance <= 2 * math.sqrt(rep_s.trace_distance) + 1e-9,
            "subnormalized purified upper",
        )

    for _ in range(100):  # norm inequalities
        d = int(rng.integers(2, 6))
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = (x + x.conj().T) / 2
        c.expect(
            qcore.trace_norm(x) ** 2 <= d * float(np.real(np.trace(x @ x))) + 1e-9,
            "trace-norm vs Hilbert-Schmidt bound",
        )
        sigma = qcore.random_density([d], rng)
        root = qcore.psd_sqrt(qcore.psd_sqrt(np.linalg.inv(sigma)))
        conj = root @ x @ root
        rhs = math.sqrt(float(np.real(np.trace(sigma)))) * math.sqrt(float(np.real(np.trace(conj @ conj.conj().T))))
        c.expect(qcore.trace_norm(x) <= rhs + 1e-8, "weighted norm bound")

    for _ in range(100):  # gentle measurement
        rho = qcore.random_density([4], rng) * rng.uniform(0.6, 1.0)
        perturb = qcore.random_density([4], rng)
        x_op = np.eye(4) - rng.uniform(0.0, 0.3) * perturb
        lhs, rhs = typicality.gentle_measurement_defect(rho, x_op)
        c.expect(lhs <= rhs + 1e-9, f"gentle measurement violated: {lhs!r} > {rhs!r}")

    for i in range(100):  # typical projector sandwiches
        d = 2 if i % 2 == 0 else 3
        n = int(rng.integers(4, 8)) if d == 3 else int(rng.integers(6, 11))
        spectrum = rng.dirichlet(np.ones(d) * 2.0)
        state = qcore.make_state([("A", d)], np.diag(spectrum).astype(complex))
        # delta above the count-grid spacing keeps the typical set non-empty.
        delta = float(rng.uniform(1.0 / n + 0.02, 1.0 / n + 0.15))
        report = typicality.typical_projector_checks(state, n, delta=delta)
        for flag in ("mass_ok", "eigenvalue_sandwich_ok", "cardinality_sandwich_ok", "purity_bound_ok", "gentle_ok"):
            c.expect(getattr(report, flag), f"projector check {flag} failed (d={d}, n={n})")


CRITERIA: dict[str, Callable[[_Checks], None]] = {
    "twirl-identity": criterion_twirl_identity,
    "decoupling-bound": criterion_decoupling_bound,
    "entropy-engine": criterion_entropy_engine,
    "worked-example": criterion_worked_example_numbers,
    "regions": criterion_regions,
    "gershgorin": criterion_gershgorin,
    "swap": criterion_swap,
    "hashing": criterion_hashing,
    "min-cut": criterion_min_cut,
    "properties": criterion_property_suites,
}


# Seconds a criterion may take, timed by run_one; the others have no budget.
RUNTIME_BUDGETS: dict[str, float] = {
    "twirl-identity": 30.0,
    "decoupling-bound": 120.0,
    "hashing": 60.0,
}


def run_one(name: str) -> CriterionResult:
    fn = CRITERIA[name]
    checks = _Checks()
    start = time.perf_counter()
    try:
        fn(checks)
    except Exception as exc:  # a crash is a failure, not an abort
        checks.failures.append(f"exception: {exc!r}")
    elapsed = time.perf_counter() - start
    budget = RUNTIME_BUDGETS.get(name, math.inf)
    checks.expect(elapsed < budget, f"runtime {elapsed:.1f}s over the {budget:g} s budget")
    return CriterionResult(name=name, passed=not checks.failures, detail=checks.detail(), seconds=elapsed)


def run_all(only: str | None = None) -> list[CriterionResult]:
    if only and only not in CRITERIA:
        raise qcore.StateError(f"unknown criterion {only!r}; expected one of {', '.join(CRITERIA)}")
    names = [only] if only else list(CRITERIA)
    return [run_one(name) for name in names]
