"""The three benchmark workloads: seeded inputs, one pass's task list, and the
check each task's output must pass for every seed.

A workload is built from ``(seed, workdir)``.  Only the benchmark's own random
generator draws inputs; entlab receives the generated amplitudes, density
matrices, state files and parameters.  The shapes of the inputs (dimensions,
sender counts, sample counts) are fixed per workload, so a different seed
changes the numbers but not the amount of work.

Checks are exact identities or theorems with a rounding tolerance, never a
statistical threshold, so they hold for every seed:
pure-state duality S(T) = S(T^c), |S(T|U)| <= log2 d_T, the Gershgorin
envelope, the chain min-cut, H_min <= S <= H_max, one-shot assistance below
the asymptotic value, exact twirl coefficients, instrument probabilities that
sum to one, the hashing yield formula and a replay of its first trial.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from entlab import assisted, cli, decoupling, entropy, protocols, qcore, regions, typicality

TOL = 1e-9
CONE_TOL = 1e-7  # the cone program's own residual gate
FEASIBLE_P = (0.9, 0.05, 0.03, 0.02)
INFEASIBLE_P = (0.8, 0.1, 0.05, 0.05)


class CheckFailed(Exception):
    """A task's output broke an identity or bound that holds for every input."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Task:
    """One unit of client work: ``call`` is timed, ``check`` validates its output.

    ``check`` returns the values that enter the output digest.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], object]


@dataclass(frozen=True)
class Workload:
    tasks: tuple[Task, ...]
    input_digest: str
    warm_up: Callable[[], None]


def spread_out(tasks: list[Task]) -> tuple[Task, ...]:
    """Order the tasks so that those sharing a name sit evenly across the pass.

    The machine's speed drifts within a pass, so a block of like tasks run back
    to back samples one short window of it; the median and tail latencies are
    read off such blocks, and spreading each block over the whole pass makes
    them sample all of it.  The j-th of n like tasks goes to position
    (j + 1/2) / n of the pass, shifted a little per name so that names keep
    apart.
    """
    names = list(dict.fromkeys(task.name for task in tasks))
    shift = {name: (i + 0.5) / len(names) - 0.5 for i, name in enumerate(names)}
    total = {name: sum(task.name == name for task in tasks) for name in names}
    seen: dict[str, int] = {}
    keyed = []
    for task in tasks:
        j = seen[task.name] = seen.get(task.name, -1) + 1
        keyed.append(((j + 0.5 + shift[task.name]) / total[task.name], task))
    return tuple(task for _, task in sorted(keyed, key=lambda kt: kt[0]))


class _Inputs:
    """The workload's random source; every drawn array feeds the input digest."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, *workload.encode()])
        self.workdir = workdir
        self._hash = hashlib.sha256(f"{workload}:{seed}".encode())

    def record(self, name: str, value) -> None:
        self._hash.update(name.encode())
        self._hash.update(np.ascontiguousarray(value).tobytes())

    def vector(self, name: str, side: int) -> np.ndarray:
        v = self.rng.standard_normal(side) + 1j * self.rng.standard_normal(side)
        v /= np.linalg.norm(v)
        self.record(name, v)
        return v

    def density(self, name: str, side: int, rank: int) -> np.ndarray:
        g = self.rng.standard_normal((side, rank)) + 1j * self.rng.standard_normal((side, rank))
        m = g @ g.conj().T
        m /= np.real(np.trace(m))
        m = (m + m.conj().T) / 2.0
        self.record(name, m)
        return m

    def uniform(self, name: str, low: float, high: float, size=None):
        x = self.rng.uniform(low, high, size)
        self.record(name, x)
        return x

    def integer(self, name: str) -> int:
        x = int(self.rng.integers(1 << 31))
        self.record(name, np.int64(x))
        return x

    def state_file(self, name: str, systems, amplitudes=None, matrix=None) -> str:
        body = {"kind": "pure", "amplitudes": _pairs(amplitudes)} if matrix is None else {
            "kind": "mixed", "matrix": [_pairs(row) for row in matrix]}
        spec = {"systems": [{"label": label, "dim": dim} for label, dim in systems], "state": body}
        text = json.dumps(spec)
        self._hash.update(text.encode())
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def digest(self) -> str:
        return self._hash.hexdigest()


def _pairs(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


def _qubits(*labels: str) -> list[tuple[str, int]]:
    return [(label, 2) for label in labels]


def _close(got: float, want: float, tol: float, what: str) -> None:
    expect(abs(got - want) <= tol, f"{what}: {got!r} != {want!r}")


def run_cli(argv: list[str]) -> dict:
    """Run one entlab subcommand in-process and parse its JSON output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    expect(code == 0, f"entlab {argv[0]} exited with {code}")
    return json.loads(buf.getvalue())


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------


def _check_conditional_bounds(region: regions.RegionSpec, dims: dict[str, int]) -> list[float]:
    """|S(T | rest)| <= log2 d_T for every constraint; returns the rhs values."""
    expect(len(region.constraints) == (1 << len(region.parties)) - 1, f"{region.kind}: constraint count")
    for mask, rhs in region.constraints:
        log_d = sum(math.log2(dims[x]) for x in region.subset_labels(mask))
        expect(abs(rhs) <= log_d + TOL, f"{region.kind}: |rhs| {rhs!r} above log2 d = {log_d}")
    return [rhs for _, rhs in region.constraints]


def _check_hashing(trace, p, n: int, delta: float, trials: int) -> list:
    agg = trace.aggregate
    h = qcore.shannon_entropy(p)  # S of a Bell-diagonal state is the Shannon entropy of its weights
    _close(agg["entropy_bits"], h, TOL, "hashing entropy")
    nominal = math.ceil(n * (agg["entropy_bits"] + 2.0 * delta))
    expect(agg["nominal_rounds"] == nominal, f"nominal rounds {agg['nominal_rounds']} != {nominal}")
    expect(agg["rounds_run"] == min(n, nominal), "rounds_run is not min(n, nominal)")
    expect(agg["feasible"] == (nominal < n), "feasibility flag")
    _close(agg["yield"], (n - agg["rounds_run"]) / n, 0.0, "hashing yield")
    records = agg["trial_records"]
    expect(len(records) == trials, "trial count")
    expect(len(records[0].rounds) == agg["rounds_run"], "trial 0 round log length")
    expect(protocols.replay_hashing_trial(records[0]), "trial 0 replay disagrees with its parities")
    _close(agg["success_frequency"], sum(t.succeeded for t in records) / trials, 0.0, "success frequency")
    return [agg["yield"], agg["success_frequency"], agg["rounds_run"], [t.decoys_surviving for t in records]]


def _check_cone(result, rho: qcore.LabeledState, cond: list[str]) -> list[float]:
    """-log2 d_A <= H_min(A|B) <= S(A|B), and H_min(A|B) >= H_min(rho | rho_B)."""
    h = result.hmin_bits
    a_labels = [x for x in rho.labels if x not in cond]
    log_da = sum(math.log2(rho.dim_of(x)) for x in a_labels)
    expect(-log_da - CONE_TOL <= h <= log_da + CONE_TOL, f"H_min {h!r} outside +-{log_da}")
    s_cond = entropy.conditional_entropy(rho, a_labels, cond)
    expect(h <= s_cond + CONE_TOL, f"H_min {h!r} above S(A|B) {s_cond!r}")
    marginal = entropy.min_entropy_relative(rho, qcore.partial_trace(rho, cond))
    expect(h >= marginal - CONE_TOL, f"H_min {h!r} below H_min(rho|rho_B) {marginal!r}")
    return [h, result.iterations]


def _touch_hashing(inputs: _Inputs, tag: str) -> Task:
    """A small feasible hashing run; keeps the protocols layer measured on every workload."""
    seed = inputs.integer(f"{tag}.hash_seed")
    n, delta, trials = 64, 0.1, 2

    def call():
        return protocols.hashing_simulation(FEASIBLE_P, n, delta, trials=trials, seed=seed, decoys=500)

    return Task(f"{tag}.hashing.n64", call, lambda t: _check_hashing(t, FEASIBLE_P, n, delta, trials))


# ---------------------------------------------------------------------------
# multiparty: large states, subset partial traces and eigendecompositions
# ---------------------------------------------------------------------------


def multiparty(seed: int, workdir: Path) -> Workload:
    inputs = _Inputs("multiparty", seed, workdir)
    c7 = [f"C{i}" for i in range(1, 8)]
    pure8 = qcore.pure_state(_qubits(*c7, "R"), inputs.vector("pure8", 256))
    pure8b = qcore.pure_state(_qubits(*c7, "R"), inputs.vector("pure8b", 256))
    mixed8 = qcore.make_state(_qubits(*c7[:6], "B", "R"), inputs.density("mixed8", 256, 4))
    pure9 = qcore.pure_state(_qubits("A", "B", "C1", "C2", "C3", "C4", "C5", "R1", "R2"), inputs.vector("pure9", 512))
    mixed9 = qcore.make_state(_qubits("A", "B", "C1", "C2", "C3", "C4") + [("R", 8)], inputs.density("mixed9", 512, 8))
    mixed6 = qcore.make_state(_qubits("A", "B", "C1", "C2", "C3", "R"), inputs.density("mixed6", 64, 4))
    pure8_file = inputs.state_file("pure8.json", pure8.systems, amplitudes=pure8.vector())
    mixed6_file = inputs.state_file("mixed6.json", mixed6.systems, matrix=mixed6.matrix)
    big_pure = inputs.vector("pure2048", 2048)
    big_mixed = inputs.density("mixed1024", 1024, 8)
    link_lambdas = inputs.uniform("chain", 0.55, 0.95, 4)
    overlap = [_overlap_family(inputs, d, i) for i, d in enumerate([16] * 8 + [32])]
    dims8, dims_m8 = dict(pure8.systems), dict(mixed8.systems)
    tasks: list[Task] = []

    def check_merge_pure(region, state):
        values = _check_conditional_bounds(region, dims8)
        s_r = entropy.von_neumann(state, ["R"])
        for mask in [1 << i for i in range(7)] + [(1 << 7) - 1]:
            t = list(region.subset_labels(mask))
            # Pure state: S(T | rest of senders) = S(R) - S(T, R).
            _close(region.rhs_of(t), s_r - entropy.von_neumann(state, t + ["R"]), TOL, f"duality at {t}")
        return values

    # Two of these and the D=1024 build hold the tail task.
    for state in (pure8, pure8b):
        tasks.append(Task(
            "merge_region.pure.m7",
            lambda state=state: regions.merging_rate_region(state, c7),
            lambda region, state=state: check_merge_pure(region, state),
        ))

    c5, c6 = c7[:5], c7[:6]

    def check_merge_mixed(region):
        values = _check_conditional_bounds(region, dims_m8)
        full = entropy.von_neumann(mixed8, c6 + ["B"]) - entropy.von_neumann(mixed8, ["B"])
        _close(region.rhs_of(c6), full, TOL, "full-set constraint")
        return values

    tasks.append(Task("merge_region.mixed.m6", lambda: regions.merging_rate_region(mixed8, c6, ["B"]), check_merge_mixed))

    def check_split(pair):
        expect(pair[0].kind.startswith("split_transfer:T") and pair[1].kind.startswith("split_transfer:Tbar"), "kinds")
        return _check_conditional_bounds(pair[0], dims8) + _check_conditional_bounds(pair[1], dims8)

    tasks.append(Task(
        "split_region.pure.m6",
        lambda: regions.split_transfer_region(pure8, ["C1", "C2", "C3"], ["C4", "C5", "C6"], ["C7"], ["R"]),
        check_split,
    ))

    eps = 0.1

    def check_cost(region):
        expect(len(region.constraints) == 63, "cost constraint count")
        offset = 4.0 * math.log2(1.0 / eps) + 2.0 * 6 + 8.0
        for mask, rhs in region.constraints:
            t = list(region.subset_labels(mask))
            hmin = offset - rhs
            log_d = float(len(t))
            # rho_TR <= d_T (I x rho_R) gives the floor; H_min <= S(T|R) <= log2 d_T the ceiling.
            expect(-log_d - TOL <= hmin <= log_d + TOL, f"H_min({t}|R) = {hmin!r} outside +-{log_d}")
            if len(t) == 1:
                s_cond = entropy.conditional_entropy(mixed8, t, ["R"])
                expect(hmin <= s_cond + TOL, f"H_min({t}|R) {hmin!r} above S {s_cond!r}")
        return [rhs for _, rhs in region.constraints]

    tasks.append(Task("cost_region.mixed.m6", lambda: regions.one_shot_cost_region(mixed8, c6, ["R"], eps), check_cost))

    helpers3, helpers4 = ["C1", "C2", "C3"], ["C1", "C2", "C3", "C4"]

    def min_cut_chain():
        links = [qcore.schmidt_pair((lam, 1.0 - lam), (f"n{i}r", f"n{i + 1}l")) for i, lam in enumerate(link_lambdas)]
        chain = qcore.tensor_all(links)
        chain = qcore.merge_systems(chain, {f"C{i}": [f"n{i}l", f"n{i}r"] for i in range(1, 4)})
        return regions.min_cut_entanglement(chain, ["n0r"], ["n4l"], helpers3)

    def check_min_cut(out):
        value, cut = out
        want = min(qcore.binary_entropy(float(lam)) for lam in link_lambdas)
        _close(value, want, TOL, "chain min-cut vs weakest link entropy")
        return [value, list(cut)]

    tasks.append(Task("min_cut.chain.h3", min_cut_chain, check_min_cut))

    helpers5 = ["C1", "C2", "C3", "C4", "C5"]

    def check_assisted(report):
        _close(report.hashing, entropy.coherent_information(pure9, ["A"], ["B"]), TOL, "hashing term")
        _close(report.lower_bound, max(report.hashing, report.mincut_coherent), TOL, "lower bound is the max")
        for cut in ([], helpers5):
            rest = [h for h in helpers5 if h not in cut]
            corner = entropy.coherent_information(pure9, ["A"] + cut, ["B"] + rest)
            expect(report.mincut_coherent <= corner + TOL, f"min-cut above the cut {cut}")
        return [report.hashing, report.mincut_coherent, report.lower_bound, list(report.mincut_arg)]

    tasks.append(Task("assisted.pure.h5", lambda: assisted.assisted_lower_bound(pure9, ["A"], ["B"], helpers5), check_assisted))

    groups = [["C1", "C2"], "C3", "C4"]

    def check_mincut_mixed(out):
        value, cut = out
        for corner in ([], ["C1", "C2", "C3", "C4"]):
            rest = [h for h in ["C1", "C2", "C3", "C4"] if h not in corner]
            bound = entropy.coherent_information(mixed9, ["A"] + corner, ["B"] + rest)
            expect(value <= bound + TOL, f"mincut coherent above the cut {corner}")
        return [value, list(cut)]

    tasks.append(Task("mincut_coherent.mixed.h3", lambda: assisted.mincut_coherent(mixed9, ["A"], ["B"], groups), check_mincut_mixed))

    for d, big, sigma_diag, alpha in overlap:  # the eight d=16 cases hold the median task
        def gershgorin(d=d, big=big, sigma_diag=sigma_diag):
            joint = qcore.make_state([("C1", d), ("R", d)], big)
            sigma = qcore.make_state([("R", d)], np.diag(sigma_diag).astype(complex))
            return -entropy.min_entropy_relative(joint, sigma)

        def check_gershgorin(exact, d=d, alpha=alpha):
            # -H_min is log2 of the top Gram eigenvalue: at least 1, at most 1 + (d-1) alpha.
            upper = math.log2(1.0 + (d - 1) * alpha)
            expect(-TOL <= exact <= upper + TOL, f"d={d}: -H_min {exact!r} outside [0, {upper!r}]")
            return exact

        tasks.append(Task(f"gershgorin.d{d}", gershgorin, check_gershgorin))

    big_pure_systems = _qubits(*[f"Q{i}" for i in range(11)])

    def check_build(state, side, pure):
        expect(state.total_dim == side and state.is_pure == pure, "built state shape or purity")
        _close(state.trace(), 1.0, 1e-10, "built state trace")
        return [state.trace(), state.is_pure]

    tasks.append(Task("build.pure.D2048", lambda: qcore.pure_state(big_pure_systems, big_pure),
                      lambda s: check_build(s, 2048, True)))
    tasks.append(Task("build.mixed.D1024", lambda: qcore.make_state(big_pure_systems[:10], big_mixed),
                      lambda s: check_build(s, 1024, False)))

    def check_cli_entropy(out):
        _close(out["entropy_left"], out["entropy_right"], TOL, "pure-state S(T) = S(T^c)")
        return [out["entropy_left"], out["entropy_right"]]

    tasks.append(Task(
        "cli.entropy.pure8",
        lambda: run_cli(["entropy", "--state", pure8_file, "--split", "C1,C2,C3|C4,C5,C6,C7,R", "--quantity", "svn"]),
        check_cli_entropy,
    ))

    def check_cli_region(out):
        constraints = out["region"]["constraints"]
        expect(len(constraints) == 31, "CLI region constraint count")
        for row in constraints:
            t = row["subset"].split("+")
            if len(t) in (1, 5):
                # The receiver side completes a pure state, so S(T | rest) = -S(T).
                _close(row["rhs"], -entropy.von_neumann(pure8, t), TOL, f"CLI rhs at {t}")
        return [row["rhs"] for row in constraints]

    tasks.append(Task(
        "cli.region.merge.m5",
        lambda: run_cli(["region", "--state", pure8_file, "--mode", "merge", "--senders", ",".join(c5), "--receiver", "C6,C7,R"]),
        check_cli_region,
    ))

    def check_cli_assist(out):
        _close(out["lower_bound"], max(out["hashing"], out["mincut_coherent"]), TOL, "CLI lower bound")
        corner = entropy.coherent_information(mixed6, ["A"], ["B", "C1", "C2", "C3"])
        expect(out["mincut_coherent"] <= corner + TOL, "CLI min-cut above the empty cut")
        return [out["hashing"], out["mincut_coherent"], out["lower_bound"]]

    tasks.append(Task(
        "cli.assist.h3",
        lambda: run_cli(["assist", "--state", mixed6_file, "--a", "A", "--b", "B", "--helpers", "C1;C2;C3"]),
        check_cli_assist,
    ))

    spec = decoupling.InstrumentSpec(senders=tuple(decoupling.sender(x, 2) for x in helpers4), samples=1)

    def check_purity_bound(bound):
        linear = 1.5**4 - 1.0  # sum over subsets of prod 1/2
        ceiling = 2.0 * linear + 2.0 * math.sqrt(2 * 15)  # purities are at most 1
        expect(2.0 * linear - TOL <= bound <= ceiling + TOL, f"purity bound {bound!r} outside its range")
        return bound

    tasks.append(Task("decoupling.purity_bound.m4", lambda: decoupling.decoupling_bound_purity(pure8, spec, ["R"]), check_purity_bound))
    pair = qcore.partial_trace(pure8, ["C1", "C2"])
    tasks.append(Task("coneprog.pair", lambda: entropy.conditional_min_entropy(pair, ["C2"]), lambda r: _check_cone(r, pair, ["C2"])))
    p3 = inputs.uniform("typ_p", 0.2, 1.0, 3)
    p3 = tuple(float(x) for x in p3 / p3.sum())
    tasks.append(Task("typicality.set.n16", lambda: typicality.typical_set(p3, 16, 0.1), lambda ts: _check_typical_set(ts, p3, 16, 0.1)))
    tasks.append(_touch_hashing(inputs, "multiparty"))

    def warm_up():
        entropy.von_neumann(qcore.partial_trace(mixed6, ["A", "B"]), None)
        regions.merging_rate_region(mixed6, ["C1", "C2"], ["B"])
        run_cli(["entropy", "--state", mixed6_file, "--split", "A|B", "--quantity", "svn"])

    return Workload(spread_out(tasks), inputs.digest(), warm_up)


def _overlap_family(inputs: _Inputs, d: int, index: int):
    """The acceptance suite's overlap family: rho with entries c_i c_j <psi_j|psi_i> at |ii><jj|."""
    rng = inputs.rng
    kets = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    kets = kets @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d)))
    family = kets + rng.uniform(0.05, 0.4) * kets[:, [0]]
    family /= np.linalg.norm(family, axis=0)
    gram = family.conj().T @ family
    alpha = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
    coeff = 1.0 / np.sqrt(np.arange(1, d + 1) * float(sum(Fraction(1, j) for j in range(1, d + 1))))
    big = np.zeros((d * d, d * d), dtype=complex)
    idx = np.arange(d) * d + np.arange(d)
    big[np.ix_(idx, idx)] = np.einsum("i,j,ji->ij", coeff, coeff, gram)
    inputs.record(f"overlap{index}", big)
    return d, big, coeff**2, alpha


def _check_typical_set(ts, p, n: int, delta: float) -> list:
    h = qcore.shannon_entropy(p)
    c = typicality.typicality_constant(p)
    eps = max(0.0, 1.0 - ts.total_probability)
    expect(ts.cardinality <= 2.0 ** (n * (h + c * delta)) * (1 + TOL), "typical set too large")
    expect(ts.cardinality >= (1 - eps) * 2.0 ** (n * (h - c * delta)) * (1 - TOL), "typical set too small")
    if ts.cardinality:
        expect(ts.max_prob <= 2.0 ** (-n * (h - c * delta)) * (1 + TOL), "member probability above 2^-n(H-c delta)")
        expect(ts.min_prob >= 2.0 ** (-n * (h + c * delta)) * (1 - TOL), "member probability below 2^-n(H+c delta)")
    return [ts.cardinality, ts.total_probability]


# ---------------------------------------------------------------------------
# small-states: many states with D <= 64, the cone program and tiny qcore calls
# ---------------------------------------------------------------------------


def small_states(seed: int, workdir: Path) -> Workload:
    inputs = _Inputs("small-states", seed, workdir)
    tasks: list[Task] = []

    # The (2,4), (3,4) and (4,4) solves hold the median task, and the five
    # (4,16) solves the tail task.
    shapes = [(2, 4)] * 8 + [(3, 4)] * 4 + [(4, 4)] * 4 + [(2, 8)] * 3 + [(4, 8)] * 3 + [(2, 16)] + [(4, 16)] * 5
    for i, (d_a, d_b) in enumerate(shapes):
        rho = qcore.make_state([("A", d_a), ("B", d_b)], inputs.density(f"hmin{i}", d_a * d_b, d_a * d_b))
        tasks.append(Task(
            f"hmin.{d_a}x{d_b}",
            lambda rho=rho: entropy.conditional_min_entropy(rho, ["B"]),
            lambda r, rho=rho: _check_cone(r, rho, ["B"]),
        ))

    for i, (d_a, d_b, rank) in enumerate([(2, 4, 8), (2, 8, 4), (4, 4, 2)]):
        rho = qcore.make_state([("A", d_a), ("B", d_b)], inputs.density(f"hmax{i}", d_a * d_b, rank))

        def check_hmax(h, rho=rho, d_a=d_a):
            s_cond = entropy.conditional_entropy(rho, ["A"], ["B"])
            expect(s_cond - CONE_TOL <= h <= math.log2(d_a) + CONE_TOL, f"H_max {h!r} outside [S(A|B) {s_cond!r}, log2 d_A]")
            return h

        tasks.append(Task(f"hmax.{d_a}x{d_b}.r{rank}", lambda rho=rho: entropy.conditional_max_entropy(rho, ["B"]), check_hmax))

    eps = 0.1
    for i in range(2):
        seq_state = qcore.make_state(_qubits("C1", "C2", "C3", "R"), inputs.density(f"seq{i}", 16, 16))
        tasks.append(Task(
            "sequential_cost.m3",
            lambda seq_state=seq_state: regions.sequential_cost(seq_state, ["C1", "C2", "C3"], ["R"], eps),
            lambda entries, seq_state=seq_state: _check_sequential(entries, seq_state, eps),
        ))

    # The Nelder-Mead cost of one search varies several-fold between states, so
    # many short searches (grid=0: one refinement, d_C = 2) stand in for a few
    # long ones; a single d_C = 3 search alone spread 3.5x between seeds.
    for i in range(8):
        psi = qcore.pure_state([("A", 2), ("B", 2), ("C", 2)], inputs.vector(f"eoa{i}", 8))
        search_seed = inputs.integer(f"eoa_seed{i}")

        def check_eoa(out, psi=psi):
            asymptotic, one_shot = out
            _close(asymptotic, min(entropy.von_neumann(psi, ["A"]), entropy.von_neumann(psi, ["B"])), TOL, "E_a = min S")
            expect(one_shot <= asymptotic + CONE_TOL, f"one-shot {one_shot!r} above the asymptotic value {asymptotic!r}")
            start = assisted.average_entropy_for_basis(psi, ["A"], ["C"], np.eye(2, dtype=complex))
            expect(one_shot >= start - TOL, "search ended below its computational-basis start")
            return [asymptotic, one_shot]

        tasks.append(Task(
            "eoa_pure.dC2",
            lambda psi=psi, s=search_seed: assisted.eoa_pure(psi, ["A"], ["B"], ["C"], grid=0, seed=s),
            check_eoa,
        ))

    for i in range(6):
        tasks.append(_property_batch(inputs, i))

    small_file = inputs.state_file("small.json", _qubits("A", "B", "C"), matrix=inputs.density("cli_small", 8, 4))
    small_state = cli.parse_state_file(small_file)

    def check_cli_small(out):
        expect(out["hmin"] <= out["conditional"] + CONE_TOL <= out["hmax"] + 2 * CONE_TOL, "H_min <= S <= H_max")
        expect(out["hmin"] <= out["h2"] + TOL, "H_min <= H_2")
        _close(out["coherent"], -out["conditional"], TOL, "I(A>B) = -S(A|B)")
        _close(out["entropy_left"], entropy.von_neumann(small_state, ["A"]), TOL, "S(A)")
        return [out[k] for k in sorted(out) if isinstance(out[k], float)]

    tasks.append(Task("cli.entropy.all", lambda: run_cli(["entropy", "--state", small_file, "--split", "A|B,C"]), check_cli_small))

    lam2 = Fraction(int(inputs.rng.integers(1, 50)), 100)
    inputs.record("swap", np.array([lam2.numerator, lam2.denominator]))

    def check_swap(trace):
        expect(trace.aggregate["scp"] == 2 * lam2, "singlet conversion probability != 2 lambda2")
        expect(sum(o.probability for o in trace.outcomes) == 1, "branch probabilities do not sum to 1")
        return [trace.aggregate["scp"]]

    tasks.append(Task("protocols.swap", lambda: protocols.entanglement_swap(1 - lam2, lam2), check_swap))
    tasks.append(_touch_hashing(inputs, "small-states"))

    def warm_up():
        entropy.conditional_min_entropy(qcore.random_state([("A", 2), ("B", 2)], np.random.default_rng(0)), ["B"])
        assisted.average_entropy_for_basis(qcore.ghz(3), ["A"], ["C"], np.eye(2, dtype=complex))
        from scipy.optimize import minimize  # noqa: F401  (the Nelder-Mead searches import it lazily)

    return Workload(spread_out(tasks), inputs.digest(), warm_up)


def _check_sequential(entries, seq_state, eps: float) -> list:
    expect([e.label for e in entries] == ["C1", "C2", "C3"], "ordering")
    for e in entries:
        _close(e.rhs_unsmoothed, regions.sequential_cost_rhs(e.hmin_exact, eps, 3), TOL, "sequential rhs")
        joint = [e.label] + list(e.relative_reference)
        s_cond = entropy.conditional_entropy(seq_state, [e.label], e.relative_reference)
        expect(-1 - CONE_TOL <= e.hmin_exact <= s_cond + CONE_TOL, f"H_min({joint}) {e.hmin_exact!r} out of range")
    return [[e.hmin_exact, e.renes_upper] for e in entries]


def _property_batch(inputs: _Inputs, index: int) -> Task:
    """Property-suite invariants on forty random 2-3 qubit states."""
    kind = ("ssa", "subadditivity", "hmin_h2", "distances", "gentle", "projector")[index]
    rows = [inputs.density(f"{kind}{k}", 8, 8) for k in range(40)]
    alt_side = {"hmin_h2": 2, "distances": 8, "gentle": 8, "projector": 2}.get(kind, 1)
    alt = [inputs.density(f"{kind}alt{k}", alt_side, alt_side) for k in range(40)]

    def call():
        out = []
        for k, (m, m2) in enumerate(zip(rows, alt)):
            if kind == "ssa":
                s = qcore.make_state(_qubits("A", "B", "C"), m)
                out.append((entropy.coherent_information(s, "A", ["B", "C"]), entropy.coherent_information(s, "A", "B")))
            elif kind == "subadditivity":
                s = qcore.make_state(_qubits("A", "B", "C"), m)
                out.append((entropy.von_neumann(s, "A") + entropy.von_neumann(s, ["B", "C"]), entropy.von_neumann(s),
                            decoupling.purity(s, ["A", "B"], check_swap_trick=True)))
            elif kind == "hmin_h2":
                s = qcore.make_state(_qubits("A", "B", "C"), m)
                joint = qcore.partial_trace(s, ["A", "B"])
                sigma = qcore.make_state(_qubits("B"), m2)
                out.append((entropy.min_entropy_relative(joint, sigma), entropy.collision_entropy(joint, sigma)))
            elif kind == "distances":
                a = qcore.make_state(_qubits("A", "B", "C"), m)
                b = qcore.make_state(_qubits("A", "B", "C"), m2)
                rep = qcore.distances(a, b)
                out.append((rep.fidelity, rep.trace_distance, rep.purified_distance))
            elif kind == "gentle":
                out.append(typicality.gentle_measurement_defect(m, np.eye(8) - 0.3 * m2))
            else:
                state = qcore.make_state([("A", 2)], np.diag(np.real(np.diag(m2))).astype(complex))
                n = 6 + k % 5
                report = typicality.typical_projector_checks(state, n, delta=1.0 / n + 0.05)
                out.append(report)
        return out

    def check(out):
        values = []
        for item in out:
            if kind == "ssa":
                expect(item[0] >= item[1] - TOL, "coherent information grew under discarding C")
            elif kind == "subadditivity":
                expect(item[0] >= item[1] - TOL, "subadditivity S(A)+S(BC) >= S(ABC)")
            elif kind == "hmin_h2":
                expect(item[0] <= item[1] + TOL, "H_min above H_2")
            elif kind == "distances":
                f, t, p = item
                expect(1 - f <= t + TOL and t <= math.sqrt(max(0.0, 1 - f * f)) + TOL, "Fuchs-van de Graaf")
                expect(t <= p + TOL, "trace distance above purified distance")
            elif kind == "gentle":
                expect(item[0] <= item[1] + TOL, "gentle measurement")
            else:
                for flag in ("mass_ok", "eigenvalue_sandwich_ok", "cardinality_sandwich_ok", "purity_bound_ok", "gentle_ok"):
                    expect(getattr(item, flag), f"typical projector {flag}")
                item = (item.epsilon, item.purity)
            values.append(list(item))
        return values

    return Task(f"properties.{kind}", call, check)


# ---------------------------------------------------------------------------
# monte-carlo: RNG-driven sampling in protocols and decoupling
# ---------------------------------------------------------------------------


def monte_carlo(seed: int, workdir: Path) -> Workload:
    inputs = _Inputs("monte-carlo", seed, workdir)
    tasks: list[Task] = []
    n, delta, trials = 2000, 0.05, 2

    for tag, p in (("feasible", FEASIBLE_P), ("infeasible", INFEASIBLE_P)):
        s = inputs.integer(f"hash_{tag}")
        tasks.append(Task(
            f"hashing.{tag}.n{n}",
            lambda p=p, s=s: protocols.hashing_simulation(p, n, delta, trials=trials, seed=s),
            lambda t, p=p: _check_hashing(t, p, n, delta, trials),
        ))

    for d, rank in ((2, 1), (4, 2), (4, 3)):
        s = inputs.integer(f"twirl{d}{rank}")
        tasks.append(Task(
            f"twirl.d{d}.L{rank}",
            lambda d=d, rank=rank, s=s: decoupling.twirl_average_check(d, rank, samples=4000, seed=s),
            lambda r, d=d, rank=rank: _check_twirl(r.r, r.s, r.max_deviation, d, rank),
        ))

    two = qcore.pure_state([("C1", 2), ("C2", 4), ("R", 4)], inputs.vector("two_sender", 32))
    single = qcore.pure_state(_qubits("A", "B", "R") + [("C", 4)], inputs.vector("single_helper", 32))
    singles = [single] + [
        qcore.pure_state(_qubits("A", "B", "R") + [("C", 4)], inputs.vector(f"single_helper{i}", 32)) for i in range(3)
    ]
    shapes = [
        ("two_sender", two, (decoupling.sender("C1", 2), decoupling.sender("C2", 4, ancilla=2)), ["R"]),
        ("two_sender.rem", two, (decoupling.sender("C1", 2), decoupling.sender("C2", 4, ancilla=2, rank=3)), ["R"]),
    ]
    # The eight single-helper runs hold the median task.
    for state in singles:
        shapes.append(("single_helper", state, (decoupling.sender("C", 4),), ["A", "R"]))
        shapes.append(("single_helper.rem", state, (decoupling.sender("C", 4, rank=3),), ["A", "R"]))
    for tag, state, senders, ref in shapes:
        spec = decoupling.InstrumentSpec(senders=senders, seed=inputs.integer(f"inst_{tag}"), samples=80)
        tasks.append(Task(
            f"instrument.{tag}",
            lambda state=state, spec=spec, ref=ref: decoupling.simulate_random_instrument(state, spec, ref, keep_outcomes=True),
            _check_instrument,
        ))

    theta = float(inputs.uniform("schmidt_theta", 0.1, 1.4))

    def check_schmidt(trace):
        expect(sum(o.probability for o in trace.outcomes) == 1, "Schmidt projection probabilities do not sum to 1")
        expect(trace.aggregate["sandwich_ok"], "expected entanglement outside its sandwich")
        return [trace.aggregate["expected_entanglement"], trace.aggregate["n_times_entropy"]]

    tasks.append(Task("schmidt_projection.n40", lambda: protocols.schmidt_projection(theta, 40), check_schmidt))

    spectrum = inputs.uniform("typ_spectrum", 0.1, 0.9)
    typ_state = qcore.make_state([("A", 2)], np.diag([spectrum, 1 - spectrum]).astype(complex))

    def check_projector(report):
        for flag in ("mass_ok", "eigenvalue_sandwich_ok", "cardinality_sandwich_ok", "purity_bound_ok", "gentle_ok"):
            expect(getattr(report, flag), f"typical projector {flag}")
        return [report.epsilon, report.purity]

    tasks.append(Task("typicality.projector.n12", lambda: typicality.typical_projector_checks(typ_state, 12, 0.15), check_projector))
    p3 = inputs.uniform("typ_p", 0.2, 1.0, 3)
    p3 = tuple(float(x) for x in p3 / p3.sum())
    tasks.append(Task("typicality.set.n24", lambda: typicality.typical_set(p3, 24, 0.08), lambda ts: _check_typical_set(ts, p3, 24, 0.08)))

    cli_seed = str(inputs.integer("cli_seed"))
    two_file = inputs.state_file("two_sender.json", two.systems, amplitudes=two.vector())
    p_arg = ",".join(str(x) for x in FEASIBLE_P)

    def check_cli_hash(out):
        h = qcore.shannon_entropy(FEASIBLE_P)
        nominal = math.ceil(1000 * (out["entropy_bits"] + 0.1))
        _close(out["entropy_bits"], h, TOL, "CLI hashing entropy")
        expect(out["rounds_run"] == nominal and out["feasible"], "CLI hashing rounds")
        _close(out["yield"], (1000 - nominal) / 1000, TOL, "CLI hashing yield")
        return [out["yield"], out["success_frequency"]]

    tasks.append(Task(
        "cli.hash_sim.n1000",
        lambda: run_cli(["hash-sim", "--p", p_arg, "--n", "1000", "--delta", "0.05", "--trials", "2", "--seed", cli_seed]),
        check_cli_hash,
    ))
    tasks.append(Task(
        "cli.twirl.d3.L2",
        lambda: run_cli(["twirl", "--d", "3", "--L", "2", "--samples", "2000", "--seed", cli_seed]),
        lambda out: _check_twirl(Fraction(out["r"]["numerator"], out["r"]["denominator"]),
                                 Fraction(out["s"]["numerator"], out["s"]["denominator"]), out["max_deviation"], 3, 2),
    ))

    def check_cli_decouple(out):
        expect(0.0 <= out["empirical_q"] <= 2.0, "decoupling error outside [0, 2]")
        expect(out["analytic_bound"] > 0.0 and out["samples"] == 30, "decoupling bound or sample count")
        return [out["empirical_q"], out["stderr"], out["analytic_bound"]]

    tasks.append(Task(
        "cli.decouple.two_sender",
        lambda: run_cli(["decouple", "--state", two_file, "--senders", "C1:K=1:L=1,C2:K=2:L=1", "--reference", "R",
                         "--samples", "30", "--seed", cli_seed]),
        check_cli_decouple,
    ))

    link_entropies = [float(x) for x in inputs.uniform("chain_oracle", 0.2, 1.0, 9)]

    def chain_min_cut():
        nodes = ["A"] + [f"C{i}" for i in range(1, 9)] + ["B"]

        def cut_entropy(subset: frozenset) -> float:
            inside = [name in subset or name == "A" for name in nodes[:-1]] + [False]
            return sum(link_entropies[i] for i in range(len(nodes) - 1) if inside[i] != inside[i + 1])

        return regions.min_cut_entanglement_oracle(cut_entropy, ["A"], nodes[1:-1])

    def check_chain(out):
        _close(out[0], min(link_entropies), TOL, "chain min-cut vs weakest link")
        return [out[0], list(out[1])]

    tasks.append(Task("min_cut.oracle.h8", chain_min_cut, check_chain))

    lams = inputs.uniform("repeater", 0.55, 0.95, 2)

    def repeater():
        links = [qcore.schmidt_pair((lam, 1 - lam), (f"L{i}", f"R{i}")) for i, lam in enumerate(lams)]
        return assisted.hierarchical_vs_random(links)

    def check_repeater(cmp):
        want = min(qcore.binary_entropy(float(x)) for x in lams)
        _close(cmp.hierarchical_rate, want, TOL, "hierarchical rate vs weakest link")
        _close(cmp.random_rate, cmp.hierarchical_rate, TOL, "product chain: both strategies agree")
        return [cmp.hierarchical_rate, cmp.random_rate]

    tasks.append(Task("assisted.repeater.2links", repeater, check_repeater))
    bell_diag = protocols.bell_diagonal_state(FEASIBLE_P)
    tasks.append(Task("coneprog.bell_diagonal", lambda: entropy.conditional_min_entropy(bell_diag, ["B"]),
                      lambda r: _check_cone(r, bell_diag, ["B"])))

    def warm_up():
        decoupling.twirl_average_check(2, 1, samples=10, seed=1)
        protocols.hashing_simulation(FEASIBLE_P, 32, 0.1, trials=1, seed=1, decoys=100)
        run_cli(["schmidt", "--theta", "0.5", "--n", "2"])

    return Workload(spread_out(tasks), inputs.digest(), warm_up)


def _check_twirl(r: Fraction, s: Fraction, deviation: float, d: int, rank: int) -> list:
    denom = d * (d * d - 1)
    expect(r == Fraction(rank * (d - rank), denom) and s == Fraction(rank * (rank * d - 1), denom), "twirl coefficients")
    expect(math.isfinite(deviation) and deviation >= 0.0, "twirl deviation")
    return [r, s, deviation]


def _check_instrument(result) -> list:
    per_sample: dict[int, float] = {}
    for row in result.outcome_rows:
        per_sample[row["sample"]] = per_sample.get(row["sample"], 0.0) + row["probability"]
    expect(len(per_sample) == result.samples, "an instrument sample has no outcomes")
    for sample, total in per_sample.items():
        _close(total, 1.0, TOL, f"instrument probabilities of sample {sample}")
    expect(bool(np.all((result.per_sample >= -TOL) & (result.per_sample <= 2.0 + TOL))), "per-sample error outside [0, 2]")
    expect(result.analytic_bound > 0.0, "analytic bound not positive")
    return [result.empirical_q, result.stderr, result.analytic_bound]


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "multiparty": multiparty,
    "small-states": small_states,
    "monte-carlo": monte_carlo,
}
