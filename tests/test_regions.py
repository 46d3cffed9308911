import itertools
import math

import numpy as np
import pytest

from entlab import assisted, entropy, qcore, regions

import ginibre


def _two_sender_state():
    parts = qcore.tensor(qcore.max_entangled(2, ("C1", "C2a")), qcore.max_entangled(2, ("C2b", "R")))
    return qcore.merge_systems(parts, {"C2": ["C2a", "C2b"]})


def test_subset_min_entropies_decompose_sigma_once_and_equal_each_subset_bitwise(monkeypatch):
    rng = np.random.default_rng(38)
    systems = [("C1", 2), ("C2", 3), ("C3", 2), ("R", 3)]
    state = ginibre.state(systems, rng, 9)
    support_eigh = qcore._support_eigh
    shapes = []

    def counted(matrix):
        shapes.append(matrix.shape)
        return support_eigh(matrix)

    monkeypatch.setattr(qcore, "_support_eigh", counted)
    senders, reference = ["C1", "C2", "C3"], ["R"]
    got = regions.subset_min_entropies(state, senders, reference)
    assert shapes == [(3, 3)]
    sigma = qcore.partial_trace(state, reference)
    want = {
        mask: entropy.min_entropy_relative(qcore.partial_trace(state, list(t) + reference), sigma)
        for mask, t in regions.subsets(senders)
    }
    assert list(got) == list(want) and all(got[mask] == want[mask] for mask in want)
    assert len(shapes) == 1 + len(want)


def test_two_sender_merging_region_exact():
    region = regions.merging_rate_region(_two_sender_state(), ["C1", "C2"])
    assert region.rhs_of(["C1"]) == pytest.approx(-1.0, abs=1e-9)
    assert region.rhs_of(["C2"]) == pytest.approx(0.0, abs=1e-9)
    assert region.rhs_of(["C1", "C2"]) == pytest.approx(1.0, abs=1e-9)


def test_single_sender_region_is_source_compression_point():
    rng = np.random.default_rng(2)
    state = qcore.random_state([("C1", 3), ("R", 3)], rng)
    region = regions.merging_rate_region(state, ["C1"])
    assert region.rhs_of(["C1"]) == pytest.approx(entropy.von_neumann(state, "C1"), abs=1e-9)


def test_merging_rhs_two_routes_agree_for_pure_states():
    # For a pure global state the conditional rhs also equals S(R') - S(T, R')
    # through the complement; the two evaluations must agree.
    rng = np.random.default_rng(5)
    psi = qcore.random_pure([("C1", 2), ("C2", 2), ("B", 2), ("R", 2)], rng)
    region = regions.merging_rate_region(psi, ["C1", "C2"], ["B"])
    for labels in (["C1"], ["C2"], ["C1", "C2"]):
        direct = region.rhs_of(labels)
        complement = entropy.von_neumann(psi, "R") - entropy.von_neumann(psi, list(labels) + ["R"])
        assert direct == pytest.approx(complement, abs=1e-9)


def test_pure_state_entropies_agree_with_the_dense_twin():
    # The state above is stored as amplitudes, so S(T) and S(T^c) come from one
    # reduction and the two routes read the same spectra.  Its dense twin keeps
    # the eigh path on every side: there T and T^c agree on their own, and the
    # twin agrees with the amplitude route.
    rng = np.random.default_rng(5)
    psi = qcore.random_pure([("C1", 2), ("C2", 2), ("B", 2), ("R", 2)], rng)
    twin = qcore.make_state(psi.systems, psi.matrix)
    assert twin.is_pure and np.array_equal(twin.spectrum(), qcore.clamped_eigenvalues(twin.matrix))
    for k in range(1, len(psi.labels)):
        for part in itertools.combinations(psi.labels, k):
            rest = [x for x in psi.labels if x not in part]
            dense = entropy.von_neumann(twin, part)
            assert dense == pytest.approx(entropy.von_neumann(twin, rest), abs=1e-12)
            assert dense == pytest.approx(entropy.von_neumann(psi, part), abs=1e-12)
    senders = (["C1", "C2"], ["B"])
    for (_, rhs), (_, dense_rhs) in zip(
        regions.merging_rate_region(psi, *senders).constraints, regions.merging_rate_region(twin, *senders).constraints
    ):
        assert rhs == pytest.approx(dense_rhs, abs=1e-12)


def test_membership_verdicts():
    region = regions.merging_rate_region(_two_sender_state(), ["C1", "C2"])
    assert regions.region_membership(region, (0.0, 1.0)).verdict == "inside"
    assert regions.region_membership(region, (-1.0, 0.0)).verdict == "boundary"
    outside = regions.region_membership(region, (-2.0, 0.0))
    assert outside.verdict == "outside"
    assert region.mask_of(["C1"]) in outside.violated
    with pytest.raises(qcore.StateError):
        regions.region_membership(region, (0.0,))


def test_split_transfer_region_partition_and_products():
    state = qcore.tensor(qcore.max_entangled(2, ("A", "C1")), qcore.max_entangled(2, ("C2", "B")))
    region_t, region_tbar = regions.split_transfer_region(state, ["C1"], ["C2"], ["A"], ["B"])
    assert region_t.rhs_of(["C1"]) < 0
    assert region_tbar.rhs_of(["C2"]) < 0

    empty, other = regions.split_transfer_region(state, [], ["C1", "C2"], ["A"], ["B"])
    assert empty.constraints == ()

    # Product across the cut: the two regions match independent merging regions.
    rng = np.random.default_rng(7)
    left = qcore.random_pure([("C1", 2), ("A", 2)], rng)
    right = qcore.random_pure([("C2", 2), ("B", 2)], rng)
    product = qcore.tensor(left, right)
    region_t, region_tbar = regions.split_transfer_region(product, ["C1"], ["C2"], ["A"], ["B"])
    merge_t = regions.merging_rate_region(left, ["C1"], ["A"])
    merge_tbar = regions.merging_rate_region(right, ["C2"], ["B"])
    assert region_t.rhs_of(["C1"]) == pytest.approx(merge_t.rhs_of(["C1"]), abs=1e-9)
    assert region_tbar.rhs_of(["C2"]) == pytest.approx(merge_tbar.rhs_of(["C2"]), abs=1e-9)


def test_split_transfer_zero_cut_flagged():
    state = qcore.tensor(qcore.max_entangled(2, ("A", "C1")), qcore.max_mixed(2, "C2"))
    purified = qcore.purify(state, "B")
    region_t, _ = regions.split_transfer_region(purified, ["C2"], ["C1"], ["A"], ["B"])
    if abs(region_t.rhs_of(["C2"])) <= 1e-9:
        assert region_t.kind.endswith(":zero-cut")


def test_one_shot_cost_region_from_state():
    state = qcore.example_4_1(2, [0.75, 0.25])
    eps = 0.2
    region = regions.one_shot_cost_region(state, ["C1", "C2"], ["R"], eps)
    consts = 4 * math.log2(1 / eps) + 2 * 2 + 8
    assert region.rhs_of(["C1"]) == pytest.approx(-1.0 + consts, abs=1e-7)
    assert region.rhs_of(["C2"]) == pytest.approx(-(1 - math.log2(0.75)) + consts, abs=1e-7)
    assert region.rhs_of(["C1", "C2"]) == pytest.approx(math.log2(0.75) + consts, abs=1e-7)


@pytest.mark.parametrize("eps", [0.0, -1.0, 1.0, math.nan, math.inf])
def test_cost_regions_reject_eps_outside_the_open_unit_interval(eps):
    state = qcore.example_4_1(2, [0.75, 0.25])
    with pytest.raises(qcore.StateError, match="eps must lie in"):
        regions.one_shot_cost_region(state, ["C1", "C2"], ["R"], eps)
    with pytest.raises(qcore.StateError, match="eps must lie in"):
        regions.sequential_cost(state, ["C1", "C2"], ["R"], eps)


def test_region_constructors_reject_a_party_named_twice():
    state = qcore.example_4_1(2, [0.75, 0.25])
    builds = [
        lambda: regions.merging_rate_region(state, ["C1", "C1"]),
        lambda: regions.one_shot_cost_region(state, ["C1", "C2", "C1"], ["R"], 0.1),
        lambda: regions.sequential_cost(state, ["C2", "C2"], ["R"], 0.1),
        lambda: regions.split_transfer_region(state, ["C1", "C1"], ["C2"], [], ["R"]),
    ]
    for build in builds:
        with pytest.raises(qcore.LabelError, match="duplicate label"):
            build()


def test_one_shot_cost_constant_tracks_party_count():
    # Same single-subset entropy, different m: the 2m term must move the rhs.
    for m in (1, 2, 3):
        assert regions.one_shot_cost_rhs(0.0, 0.1, m) == pytest.approx(
            4 * math.log2(10) + 2 * m + 8, abs=1e-12
        )


def test_cost_example_thresholds():
    eps = 0.1
    out = regions.compression_example_negative_pair(300.0, eps)
    assert out["admits_negative_pair"]
    out = regions.compression_example_negative_pair(100.0, eps)
    assert not out["admits_negative_pair"]

    # Embezzling theta version: the sum constraint shrinks like -log H_d.
    log2_hd = math.log2(qcore.harmonic_number(4096))
    sum_rhs = regions.one_shot_cost_rhs(log2_hd, eps, 3)
    assert sum_rhs == pytest.approx(-log2_hd + 4 * math.log2(10) + 14, abs=1e-12)


def test_sequential_cost_single_sender_constants():
    rng = np.random.default_rng(11)
    state = qcore.random_state([("C1", 2), ("R", 2)], rng)
    entries = regions.sequential_cost(state, ["C1"], ["R"], eps=0.25)
    assert len(entries) == 1
    expected = -entries[0].hmin_exact + 4 * math.log2(2 / 0.25) + 2 * math.log2(13)
    assert entries[0].rhs_unsmoothed == pytest.approx(expected, abs=1e-9)
    assert entries[0].rhs_renes <= entries[0].rhs_unsmoothed + 1e-9


def test_sequential_cost_reduces_each_label_set_once(monkeypatch):
    state = qcore.random_state([("C1", 2), ("C2", 2), ("C3", 2), ("B", 2), ("R", 2)], np.random.default_rng(4))
    reductions = []
    real_trace = qcore.partial_trace

    def traced(rho, keep):
        if rho is state:
            reductions.append(qcore._normalize_labels(rho, keep))
        return real_trace(rho, keep)

    monkeypatch.setattr(qcore, "partial_trace", traced)
    entries = regions.sequential_cost(state, ["C1", "C2", "C3"], ["R"], eps=0.1)
    # The joint state of each entry and both terms of S(label | rel_ref) come
    # from one table: each label set is reduced from the input once.
    assert sorted(reductions) == sorted([("C1", "C2", "C3", "R"), ("C2", "C3", "R"), ("C3", "R"), ("R",)])
    assert [e.relative_reference for e in entries] == [("C2", "C3", "R"), ("C3", "R"), ("R",)]


def test_sequential_orderings_keep_first_mover_positive():
    eps = 0.1
    for log2_d in (4.0, 64.0, 280.0):
        seq = regions.compression_example_sequential_bounds(log2_d, eps)
        assert seq["first_mover_c2"] > 0
        assert seq["first_mover_c1"] > 0
    for probe in (0.05, 0.2, 0.5, 0.9):
        seq = regions.compression_example_sequential_bounds(280.0, probe)
        assert seq["first_mover_c2"] > 0


def test_sequential_never_reaches_negative_pair_corner():
    # No ordering yields simultaneously negative first two costs where the
    # simultaneous-merge region admits them.
    eps = 0.1
    log2_d = regions.compression_example_negative_pair(1.0, eps)["log2_d_threshold"] + 2.0
    assert regions.compression_example_negative_pair(log2_d, eps)["admits_negative_pair"]
    seq = regions.compression_example_sequential_bounds(log2_d, eps)
    assert min(seq["first_mover_c2"], seq["first_mover_c1"]) > 0


def test_min_cut_entanglement_examples():
    link = (0.6, 0.4)
    chain = qcore.merge_systems(
        qcore.tensor_all(
            [
                qcore.schmidt_pair(link, ("A", "C1l")),
                qcore.schmidt_pair(link, ("C1r", "B")),
            ]
        ),
        {"C1": ["C1l", "C1r"]},
    )
    value, cut = regions.min_cut_entanglement(chain, ["A"], ["B"], ["C1"])
    assert value == pytest.approx(qcore.shannon_entropy(link), abs=1e-9)
    assert cut == ()

    rng = np.random.default_rng(13)
    psi = qcore.random_pure([("A", 2), ("B", 2), ("C", 3)], rng)
    value, cut = regions.min_cut_entanglement(psi, ["A"], ["B"], ["C"])
    expected = min(entropy.von_neumann(psi, "A"), entropy.von_neumann(psi, ["A", "C"]))
    assert value == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(min(entropy.von_neumann(psi, "A"), entropy.von_neumann(psi, "B")), abs=1e-9)

    idle = qcore.tensor(qcore.max_mixed(2, "A"), qcore.random_pure([("B", 2), ("C", 2)], rng))
    purified = qcore.purify(idle, "R")
    value, cut = regions.min_cut_entanglement(purified, ["A"], ["B"], ["C"])
    assert cut == ()


def test_min_cut_argmin_invariant_under_helper_relabeling():
    rng = np.random.default_rng(17)
    psi = qcore.random_pure([("A", 2), ("B", 2), ("H1", 2), ("H2", 2)], rng)
    base_value, base_cut = regions.min_cut_entanglement(psi, ["A"], ["B"], ["H1", "H2"])
    for perm in itertools.permutations(["H1", "H2"]):
        value, cut = regions.min_cut_entanglement(psi, ["A"], ["B"], list(perm))
        assert value == pytest.approx(base_value, abs=1e-9)
        assert set(cut) == set(base_cut)


def test_corner_points_satisfy_region():
    region = regions.merging_rate_region(_two_sender_state(), ["C1", "C2"])
    for ordering, point in regions.corner_points(region).items():
        verdict = regions.region_membership(region, point)
        assert verdict.verdict in ("inside", "boundary")
        assert not verdict.violated


def _eigendecomposition_sides(monkeypatch) -> list[int]:
    """The side of each matrix given to eigvalsh or eigh from here on, one entry per matrix of a stack."""
    sides = []
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _original=original, **kwargs):
            shape = np.shape(a)
            sides.extend([shape[-1]] * math.prod(shape[:-2]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return sides


def _random_qubits(labels, seed, pure=False):
    rng = np.random.default_rng(seed)
    systems = [(x, 2) for x in labels]
    return qcore.random_pure(systems, rng) if pure else qcore.random_state(systems, rng)


# Each subset entropy is decomposed once per call.  The mixed states carry a
# reference R, so no subset is the whole state, whose spectrum the state holds.
@pytest.mark.parametrize(
    "labels, pure, run, limit, exact",
    [
        (["C1", "C2", "C3", "C4", "B", "R"], False,
         lambda st: regions.merging_rate_region(st, ["C1", "C2", "C3", "C4"], ["B"]), 2**4, False),
        (["A", "B", "C1", "C2", "C3", "R"], False,
         lambda st: assisted.mincut_coherent(st, ["A"], ["B"], ["C1", "C2", "C3"]), 2**3 + 1, False),
        (["A", "B", "C", "R"], False, lambda st: assisted.beating_hashing(st, ["A"], ["B"], ["C"]), 4, True),
        ([f"C{i}" for i in range(1, 8)] + ["R"], True,
         lambda st: regions.merging_rate_region(st, [f"C{i}" for i in range(1, 8)]), 2**7, False),
    ],
    ids=["merging-4-senders", "mincut-coherent-3-helpers", "beating-hashing", "merging-7-senders-pure"],
)
def test_subset_entropies_are_decomposed_once_per_call(monkeypatch, labels, pure, run, limit, exact):
    state = _random_qubits(labels, seed=len(labels), pure=pure)
    sides = _eigendecomposition_sides(monkeypatch)
    run(state)
    assert len(sides) == limit if exact else len(sides) <= limit


def test_pure_states_decompose_the_smaller_side_only(monkeypatch):
    # The 7-sender region reads every subset of the senders.  Of a set and its
    # complement within the 8 qubits, one has at most 4 qubits, so no matrix
    # with a side above 16 is decomposed, once for each of the 127 subsets.
    senders = [f"C{i}" for i in range(1, 8)]
    psi = _random_qubits(senders + ["R"], seed=8, pure=True)
    sides = _eigendecomposition_sides(monkeypatch)
    regions.merging_rate_region(psi, senders)
    assert len(sides) == 2**7 - 1 and max(sides) <= 16
    # The whole state reads as the empty set, without a decomposition.
    sides.clear()
    assert entropy.von_neumann(psi) == 0.0 and psi.spectrum()[-1] == psi.trace()
    assert sides == []


def test_region_lookups_reject_an_unknown_party_or_subset():
    region = regions.merging_rate_region(_two_sender_state(), ["C1", "C2"])
    with pytest.raises(qcore.LabelError) as unknown:
        region.mask_of(["C1", "C3"])
    assert unknown.value.args[0] == "'C3' is not a party of the region; its parties are ['C1', 'C2']"
    with pytest.raises(qcore.LabelError, match="'C3' is not a party"):
        region.rhs_of(["C3"])
    face = regions.RegionSpec(parties=("C1", "C2"), constraints=((0b01, 1.0),), kind="one_shot_cost")
    with pytest.raises(qcore.LabelError) as missing:
        face.rhs_of(label for label in ("C2", "C1"))
    assert missing.value.args[0] == "the region has no constraint for the subset ['C1', 'C2']"


def test_region_constructors_reject_an_empty_party_by_name():
    state = qcore.example_4_1(2, [0.75, 0.25])
    builds = [
        ("the sender list", lambda: regions.merging_rate_region(state, [])),
        ("the sender list", lambda: regions.one_shot_cost_region(state, [], ["R"], 0.1)),
        ("the sender ordering", lambda: regions.sequential_cost(state, [], ["R"], 0.1)),
    ]
    for party, build in builds:
        with pytest.raises(qcore.LabelError) as empty:
            build()
        assert empty.value.args[0] == f"{party} has no labels"
    # A split keeps its empty side.
    region_t, _ = regions.split_transfer_region(state, [], ["C1", "C2"], [], ["R"])
    assert region_t.kind == "split_transfer:empty"
