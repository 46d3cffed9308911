import importlib
import itertools
import math
import pkgutil
import re

import numpy as np
import pytest

import entlab
from entlab import acceptance, assisted, coneprog, decoupling, entropy, protocols, qcore, regions, typicality

import ginibre


def test_bell_constructors_are_orthonormal_basis():
    kinds = ["phi_plus", "phi_minus", "psi_plus", "psi_minus"]
    vectors = [qcore.bell(k).vector() for k in kinds]
    gram = np.array([[np.vdot(u, v) for v in vectors] for u in vectors])
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_werner_singlet_weight_is_entanglement_fidelity():
    singlet = qcore.bell("psi_minus").vector()
    for f in (0.0, 0.3, 1.0):
        w = qcore.werner(f)
        assert np.vdot(singlet, w.matrix @ singlet).real == pytest.approx(f, abs=1e-12)
    with pytest.raises(qcore.StateError):
        qcore.werner(1.2)


def test_max_mixed_entropy_and_tensor_composition():
    assert entropy.von_neumann(qcore.max_mixed(4)) == pytest.approx(2.0, abs=1e-12)
    tau2a = qcore.max_mixed(2, "A")
    tau2b = qcore.max_mixed(2, "B")
    composed = qcore.tensor(tau2a, tau2b)
    assert np.allclose(composed.matrix, np.eye(4) / 4)
    with pytest.raises(qcore.LabelError):
        qcore.tensor(tau2a, qcore.max_mixed(3, "A"))


def test_tensor_with_classical_register_keeps_trace_and_side():
    ket0 = qcore.make_state([("C", 2)], np.diag([1.0, 0.0]).astype(complex))
    composed = qcore.tensor(qcore.bell("phi_plus"), ket0)
    assert composed.total_dim == 8
    assert composed.trace() == pytest.approx(1.0, abs=1e-12)


def test_embezzle_amplitudes_follow_harmonic_weights():
    state = qcore.embezzle(2)
    vec = state.vector()
    h2 = 1.5
    assert abs(vec[0]) == pytest.approx(1 / math.sqrt(h2), abs=1e-12)
    assert abs(vec[3]) == pytest.approx(1 / math.sqrt(2 * h2), abs=1e-12)
    coeffs = qcore.schmidt(qcore.embezzle(5), "A").coefficients
    h5 = qcore.harmonic_number(5)
    expected = np.array([1 / math.sqrt(j * h5) for j in range(1, 6)])
    assert np.allclose(coeffs, expected, atol=1e-12)


def test_partial_trace_of_maximally_entangled_is_maximally_mixed():
    reduced = qcore.partial_trace(qcore.bell("phi_plus"), "A")
    assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_of_product_recovers_factor():
    rng = np.random.default_rng(3)
    rho = qcore.random_state([("A", 3)], rng)
    sig = qcore.random_state([("B", 2)], rng)
    reduced = qcore.partial_trace(qcore.tensor(rho, sig), "A")
    assert np.allclose(reduced.matrix, rho.matrix, atol=1e-12)


def test_purification_roundtrip_and_rank_padding():
    tau = qcore.max_mixed(2)
    pure = qcore.purify(tau, "R")
    assert pure.is_pure
    assert qcore.schmidt(pure, "A").rank == 2

    diag = qcore.make_state([("A", 2)], np.diag([1.0, 0.0]).astype(complex))
    assert qcore.purify(diag, "R").dim_of("R") == 1

    werner = qcore.werner(0.8)
    purified = qcore.purify(werner, "R")
    assert purified.total_dim == 16
    roundtrip = qcore.partial_trace(purified, ["A", "B"])
    assert np.max(np.abs(roundtrip.matrix - werner.matrix)) < 1e-10


@pytest.mark.parametrize("lambdas", [[1 - 1e-14, 1e-14], [1 - 1e-11, 1e-11], [0.5, 0.5], [0.6, 0.3, 0.1]])
def test_schmidt_rank_is_two_to_the_zero_entropy_of_either_marginal(lambdas):
    # A coefficient c counts when c^2, an eigenvalue of each marginal, is above SUPPORT_TOL.
    pair = qcore.schmidt_pair(lambdas)
    rank = qcore.schmidt(pair, "A").rank
    assert rank == 2 ** entropy.zero_entropy(qcore.partial_trace(pair, "A"))
    assert rank == 2 ** entropy.zero_entropy(qcore.partial_trace(pair, "B"))


def test_schmidt_examples():
    coeffs = qcore.schmidt(qcore.max_entangled(2), "A").coefficients
    assert np.allclose(coeffs, [1 / math.sqrt(2)] * 2, atol=1e-12)
    pair = qcore.schmidt_pair([0.7, 0.3])
    coeffs = qcore.schmidt(pair, "A").coefficients
    assert np.allclose(coeffs, [math.sqrt(0.7), math.sqrt(0.3)], atol=1e-12)
    with pytest.raises(qcore.StateError):
        qcore.schmidt(qcore.werner(0.8), "A")


def test_schmidt_reduced_spectra_agree():
    rng = np.random.default_rng(11)
    psi = qcore.random_pure([("A", 2), ("B", 3), ("C", 2)], rng)
    left = np.sort(qcore.schmidt(psi, ["A", "B"]).coefficients ** 2)
    spec_left = np.sort(np.linalg.eigvalsh(qcore.partial_trace(psi, ["A", "B"]).matrix))[-left.size:]
    assert np.allclose(left, spec_left, atol=1e-9)


def test_distance_report_extremes_and_sandwiches():
    rho = qcore.make_state([("A", 2)], np.diag([1.0, 0.0]).astype(complex))
    sig = qcore.make_state([("A", 2)], np.diag([0.0, 1.0]).astype(complex))
    rep = qcore.distances(rho, sig)
    assert rep.fidelity == pytest.approx(0.0, abs=1e-12)
    assert rep.trace_distance == pytest.approx(1.0, abs=1e-12)

    same = qcore.distances(rho, rho)
    assert same.fidelity == pytest.approx(1.0, abs=1e-12)
    assert same.trace_distance == pytest.approx(0.0, abs=1e-12)
    assert same.purified_distance == pytest.approx(0.0, abs=1e-7)

    rep = qcore.distances(qcore.werner(0.9), qcore.werner(0.8))
    assert 1 - rep.fidelity <= rep.trace_distance + 1e-12
    assert rep.trace_distance <= math.sqrt(1 - rep.fidelity**2) + 1e-12
    assert rep.trace_distance <= rep.purified_distance + 1e-12
    assert rep.purified_distance <= 2 * math.sqrt(rep.trace_distance) + 1e-12


def test_haar_unitary_contract():
    rng = np.random.default_rng(21)
    phase = qcore.haar_unitaries_per_stream(1, [rng])[0]
    assert abs(abs(phase[0, 0]) - 1.0) < 1e-12

    u1 = qcore.haar_unitaries_per_stream(4, [np.random.default_rng(99)])[0]
    u2 = qcore.haar_unitaries_per_stream(4, [np.random.default_rng(99)])[0]
    assert np.allclose(u1, u2)
    assert np.max(np.abs(u1.conj().T @ u1 - np.eye(4))) < 1e-10


def _haar_one_stream(dim, rng):
    """One Haar unitary drawn alone: one Ginibre matrix, one 2-D QR, one phase fix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


@pytest.mark.parametrize("streams", [1, 17])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_per_stream_draw_is_each_streams_own_draw_bit_for_bit(dim, streams):
    seeds = np.random.SeedSequence(29).spawn(streams)
    stacked = qcore.haar_unitaries_per_stream(dim, [np.random.default_rng(s) for s in seeds])
    alone = np.stack([_haar_one_stream(dim, np.random.default_rng(s)) for s in seeds])
    assert stacked.shape == (streams, dim, dim)
    assert stacked.tobytes() == alone.tobytes()
    assert stacked[0].tobytes() == qcore.haar_unitaries(dim, 1, np.random.default_rng(seeds[0]))[0].tobytes()


@pytest.mark.parametrize("streams", [1, 17])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_per_stream_draw_leaves_each_stream_where_its_own_draw_does(dim, streams):
    seeds = np.random.SeedSequence(29).spawn(streams)
    stacked = [np.random.default_rng(s) for s in seeds]
    alone = [np.random.default_rng(s) for s in seeds]
    qcore.haar_unitaries_per_stream(dim, stacked)
    for rng in alone:
        _haar_one_stream(dim, rng)
    assert [rng.bit_generator.state for rng in stacked] == [rng.bit_generator.state for rng in alone]


SPAWN_SEEDS = {
    "0": 0,
    "1": 1,
    "2^32-1": 2**32 - 1,
    "2^32": 2**32,
    "2^64+5": 2**64 + 5,
    "2^130+3": 2**130 + 3,
    "DEFAULT_SEED": qcore.DEFAULT_SEED,
    "ACCEPTANCE_SEED": acceptance.ACCEPTANCE_SEED,
}


@pytest.mark.parametrize("count", [0, 1, 2, 80, 300])
@pytest.mark.parametrize("seed", SPAWN_SEEDS.values(), ids=SPAWN_SEEDS.keys())
def test_spawned_streams_are_numpys_spawned_streams(seed, count):
    got = qcore.spawn_rngs(seed, count)
    want = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]
    assert len(got) == count
    for k, (rng, ref) in enumerate(zip(got, want)):
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.bit_generator.seed_seq.spawn_key == (k,)
        assert rng.bit_generator.seed_seq.entropy == seed
        assert rng.random() == ref.random()
        assert rng.random(dtype=np.float32) == ref.random(dtype=np.float32)


def test_a_negative_seed_is_rejected_as_numpy_rejects_it():
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        np.random.SeedSequence(-1)
    for count in (0, 3):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            qcore.spawn_rngs(-1, count)


def test_spawned_streams_build_no_seed_sequence(monkeypatch):
    built = []

    class Spy(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", Spy)
    monkeypatch.setattr(np.random.bit_generator, "SeedSequence", Spy)
    rngs = qcore.spawn_rngs(7, 5)
    assert built == []
    assert not any(isinstance(rng.bit_generator.seed_seq, np.random.bit_generator.SeedSequence) for rng in rngs)


def test_haar_mean_projects_to_maximally_mixed():
    # Monte Carlo version of the single-system averaging identity, 3-sigma headroom.
    rng = np.random.default_rng(7)
    us = qcore.haar_unitaries(4, 20000, rng)
    mean = np.einsum("nij,njk->ik", us[:, :, :1], us[:, :, :1].conj().transpose(0, 2, 1)) / 20000
    assert np.max(np.abs(mean - np.eye(4) / 4)) < 5e-3


def test_apply_unitary_matches_direct_conjugation():
    rng = np.random.default_rng(5)
    state = qcore.random_state([("A", 2), ("B", 3)], rng)
    u = qcore.haar_unitaries_per_stream(3, [rng])[0]
    rotated = qcore.apply_unitary(state, ["B"], u)
    direct = np.kron(np.eye(2), u) @ state.matrix @ np.kron(np.eye(2), u).conj().T
    assert np.max(np.abs(rotated.matrix - direct)) < 1e-12


def test_permute_and_merge_systems():
    state = qcore.tensor(qcore.max_entangled(2, ("A", "B")), qcore.max_mixed(3, "C"))
    swapped = qcore.permute_systems(state, ["C", "A", "B"])
    assert swapped.labels == ("C", "A", "B")
    back = qcore.permute_systems(swapped, ["A", "B", "C"])
    assert np.max(np.abs(back.matrix - state.matrix)) < 1e-12
    merged = qcore.merge_systems(state, {"AB": ["A", "B"]})
    assert merged.systems == (("AB", 4), ("C", 3))


def _bookkeeping_matches_systems(state):
    assert state.labels == tuple(name for name, _ in state.systems)
    assert state.dims == tuple(d for _, d in state.systems)
    assert state.total_dim == math.prod(state.dims)
    for i, (name, d) in enumerate(state.systems):
        assert state.index_of(name) == i and state.dim_of(name) == d
    for lookup in (state.index_of, state.dim_of):
        with pytest.raises(qcore.LabelError, match="unknown subsystem label 'nope'"):
            lookup("nope")


@pytest.mark.parametrize("stored", ["factor", "matrix"])
def test_derived_states_carry_labels_and_dims_of_their_systems(stored):
    rng = np.random.default_rng(4)
    systems = [("A", 2), ("B", 3), ("C", 1), ("D", 2)]
    state = qcore.random_pure(systems, rng) if stored == "factor" else qcore.random_state(systems, rng)
    derived = [
        state,
        qcore.permute_systems(state, ["D", "A", "C", "B"]),
        qcore.merge_systems(state, {"AB": ["A", "B"]}),
        qcore.merge_systems(qcore.permute_systems(state, ["C", "D", "B", "A"]), {"DB": ["D", "B"], "Ca": ["C"]}),
        qcore.partial_trace(state, ["D", "B"]),
        qcore.partial_trace(state, "C"),
        qcore.partial_trace(qcore.merge_systems(state, {"BC": ["B", "C"]}), ["D", "BC"]),
    ]
    for s in derived:
        _bookkeeping_matches_systems(s)
    assert [s.labels for s in derived[1:]] == [
        ("D", "A", "C", "B"), ("AB", "C", "D"), ("Ca", "DB", "A"), ("B", "D"), ("C",), ("BC", "D"),
    ]
    assert qcore._normalize_labels(derived[1], ["B", "A", "D"]) == ("D", "A", "B")
    with pytest.raises(qcore.LabelError, match=r"unknown subsystem labels \['E', 'F'\]"):
        qcore._normalize_labels(state, ["F", "A", "E"])


def test_build_state_constructor_pure_mixed_and_errors():
    bell = qcore.build_state({"state": {"kind": "constructor", "name": "bell_phi_plus"}})
    assert bell.labels == ("A", "B")

    pure = qcore.build_state(
        {
            "systems": [{"label": "A", "dim": 2}],
            "state": {"kind": "pure", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
        }
    )
    assert pure.is_pure

    mixed = qcore.build_state(
        {
            "systems": [{"label": "A", "dim": 2}],
            "state": {"kind": "mixed", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
        }
    )
    assert mixed.is_pure

    with pytest.raises(qcore.StateError):
        qcore.build_state(
            {
                "systems": [{"label": "A", "dim": 2}],
                "state": {"kind": "mixed", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]},
            }
        )
    with pytest.raises(qcore.StateError):
        qcore.build_state({"state": {"kind": "constructor", "name": "nope"}})


def test_make_state_rejects_bad_inputs():
    with pytest.raises(qcore.StateError):
        qcore.make_state([("A", 2)], np.ones((3, 3)))
    with pytest.raises(qcore.StateError):
        qcore.make_state([("A", 2)], np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(qcore.LabelError):
        qcore.make_state([("A", 2), ("A", 2)], np.eye(4) / 4)
    with pytest.raises(qcore.StateError):
        qcore.make_state([("A", 2)], np.diag([0.7, 0.7]))


# -- the positivity check at its floor of -1e-10 --


def _spectrum_with_smallest(smallest, side, rng):
    """A unit-sum spectrum, ascending, whose smallest entry is ``smallest``."""
    eigs = np.sort(rng.uniform(0.5, 1.5, side))
    eigs[0] = 0.0
    eigs *= (1.0 - smallest) / eigs.sum()
    eigs[0] = smallest
    return eigs


def _in_random_basis(eigs, rng):
    u = qcore.haar_unitaries_per_stream(len(eigs), [rng])[0]
    return (u * eigs) @ u.conj().T


@pytest.mark.parametrize("side", [2, 16, 64])
def test_make_state_accepts_eigenvalues_just_above_the_floor(side):
    rng = np.random.default_rng(side)
    eigs = _spectrum_with_smallest(-0.5e-10, side, rng)
    for m in (np.diag(eigs), _in_random_basis(eigs, rng)):
        state = qcore.make_state([("A", side)], m)
        assert state.spectrum()[0] == 0.0


@pytest.mark.parametrize("side", [2, 16, 64])
def test_make_state_rejects_eigenvalues_below_the_floor_with_the_smallest_one(side):
    rng = np.random.default_rng(side)
    eigs = _spectrum_with_smallest(-2e-10, side, rng)
    for m in (np.diag(eigs), _in_random_basis(eigs, rng)):
        with pytest.raises(qcore.StateError, match=r"^matrix is not positive semidefinite \(min eigenvalue -2\.000e-10\)$"):
            qcore.make_state([("A", side)], m)


def _with_zero_rows(block, side, rng):
    """``block`` on a random set of rows of a side x side matrix whose other rows are exactly zero."""
    rows = np.sort(rng.choice(side, block.shape[0], replace=False))
    m = np.zeros((side, side), dtype=complex)
    m[np.ix_(rows, rows)] = block
    return m


@pytest.mark.parametrize("side", [16, 64])
def test_make_state_floor_on_the_support_of_a_zero_row_matrix(side):
    # The Cholesky check runs on the block of rows that are not zero.  A block
    # eigenvalue of -0.9e-10 passes; -1.1e-10 is rejected with the message of
    # the whole matrix's eigenvalues, as before the block check.
    rng = np.random.default_rng(side + 1)
    k = side // 4
    accepted = _with_zero_rows(_in_random_basis(_spectrum_with_smallest(-0.9e-10, k, rng), rng), side, rng)
    assert qcore.support_rows(accepted).size == k
    assert qcore.make_state([("A", side)], accepted).spectrum()[0] == 0.0
    rejected = _with_zero_rows(_in_random_basis(_spectrum_with_smallest(-1.1e-10, k, rng), rng), side, rng)
    assert qcore.support_rows(rejected).size == k
    smallest = np.linalg.eigvalsh((rejected + rejected.conj().T) / 2)[0]
    message = f"matrix is not positive semidefinite (min eigenvalue {smallest:.3e})"
    assert message.endswith("(min eigenvalue -1.100e-10)")
    with pytest.raises(qcore.StateError, match=f"^{re.escape(message)}$"):
        qcore.make_state([("A", side)], rejected)


def test_support_rows_drops_only_rows_that_are_exactly_zero():
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[3, 3] = 0.5
    assert qcore.support_rows(m).tolist() == [1, 3]
    # A zero diagonal entry with a nonzero entry elsewhere in its row keeps the row.
    m[0, 3] = m[3, 0] = 1e-300j
    assert qcore.support_rows(m).tolist() == [0, 1, 3]
    assert qcore.support_rows(np.eye(4)) is None
    m[2, 1] = m[1, 2] = 1e-5
    assert qcore.support_rows(m) is None


def _make_state_full_passes(systems, matrix, norm_mode="normalized"):
    """make_state as it was before its support path: every check runs on the whole matrix."""
    systems, side = qcore._checked_systems(systems)
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (side, side):
        raise qcore.StateError(f"matrix side {m.shape} does not match product dimension {side}")
    if not np.isfinite(m).all():
        raise qcore.StateError("matrix has non-finite entries")
    adjoint = np.conjugate(m.T, out=np.empty(m.shape, dtype=complex))
    defect = float(np.max(np.abs(m - adjoint))) if side else 0.0
    if defect > qcore.HERMITICITY_REJECT:
        raise qcore.StateError(f"matrix is not Hermitian (max defect {defect:.3e} > {qcore.HERMITICITY_REJECT})")
    adjoint += m
    adjoint /= 2.0
    m = adjoint
    rows = qcore.support_rows(m)
    shifted = m.copy() if rows is None else m[np.ix_(rows, rows)]
    shifted.flat[:: shifted.shape[0] + 1] -= qcore.EIGENVALUE_FLOOR
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        smallest = np.linalg.eigvalsh(m)[0]
        if smallest < qcore.EIGENVALUE_FLOOR:
            raise qcore.StateError(f"matrix is not positive semidefinite (min eigenvalue {smallest:.3e})") from None
    tr = float(np.real(np.trace(m)))
    if norm_mode == "normalized":
        if abs(tr - 1.0) > qcore.TRACE_TOL:
            raise qcore.StateError(f"trace {tr!r} is not 1 within {qcore.TRACE_TOL}")
    elif not (0.0 < tr <= 1.0 + qcore.TRACE_TOL):
        raise qcore.StateError(f"trace {tr!r} is not in (0, 1] within {qcore.TRACE_TOL}")
    return qcore._trusted(systems, norm_mode, matrix=m)


def _assert_same_make_state(matrix, norm_mode="normalized"):
    """make_state and the full-pass reference give the same bits, signs of zeros included, or the same error.

    Returns the error message, or None when both accept the matrix.
    """
    systems = [("A", matrix.shape[0])]
    try:
        want = _make_state_full_passes(systems, matrix, norm_mode)
    except qcore.StateError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            qcore.make_state(systems, matrix, norm_mode)
        return str(exc)
    got = qcore.make_state(systems, matrix, norm_mode)
    assert got.matrix.tobytes() == want.matrix.tobytes()
    _assert_carries_its_support(got)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got.matrix, part)), np.signbit(getattr(want.matrix, part)))
    assert got.is_pure == want.is_pure
    assert got.trace() == want.trace()
    return None


def _assert_carries_its_support(state):
    """The state was built with its support, and it is support_rows of the stored matrix."""
    assert state._support is not qcore._UNREAD
    want = qcore.support_rows(state.matrix)
    if want is None:
        assert state.support is None
    else:
        assert state.support.tolist() == want.tolist()


def _hermitian_block(k, rng, rank=None, smallest=None):
    """A k x k unit-trace density on a random basis, of the given rank or with the given smallest eigenvalue."""
    if smallest is not None:
        return _in_random_basis(_spectrum_with_smallest(smallest, k, rng), rng)
    return ginibre.density([k], rng, rank)


def test_make_state_on_the_support_equals_the_full_passes_bitwise():
    rng = np.random.default_rng(18)
    side, k = 32, 8
    block = _hermitian_block(k, rng, rank=3)
    # Zero rows with zero columns: the support path.  A small anti-Hermitian
    # part inside the block is symmetrized away.
    noise = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    m = _with_zero_rows(block + 1e-9 * (noise - noise.conj().T), side, rng)
    assert _assert_same_make_state(m) is None
    assert _assert_same_make_state(m / 2, "subnormalized") is None
    assert _assert_same_make_state(m.T.copy(order="F").T) is None
    pure = np.zeros((side, side), dtype=complex)
    v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    pure[np.ix_(range(k), range(k))] = np.outer(v, v.conj()) / np.vdot(v, v).real
    assert _assert_same_make_state(pure) is None
    rows = qcore.support_rows(m)
    out = np.setdiff1d(np.arange(side), rows)
    # A zero row whose column carries 1e-12: the full passes turn it into a
    # nonzero row of (M + M†)/2.
    leak = m.copy()
    leak[rows[0], out[0]] = 1e-12
    assert qcore.support_rows(leak).tolist() == rows.tolist()
    assert _assert_same_make_state(leak) is None
    # A -0.0 off the block, in a kept row or in zero rows, that (M + M†)/2 keeps.
    for entries in (
        {(rows[1], out[1]): complex(0.0, -0.0)},
        {(out[2], out[3]): complex(-0.0, -0.0), (out[3], out[2]): complex(-0.0, 0.0)},
    ):
        signed = m.copy()
        for (i, j), z in entries.items():
            signed[i, j] = z
        i, j = next(iter(entries))
        kept = _make_state_full_passes([("A", side)], signed).matrix[i, j]
        assert np.signbit(kept.real) or np.signbit(kept.imag)
        assert _assert_same_make_state(signed) is None
    # A real outer product has -0.0 off its block as well.
    real = np.outer([-0.6, 0.0, 0.8, 0.0], [-0.6, 0.0, 0.8, 0.0])
    assert np.signbit(real).any() and _assert_same_make_state(real) is None
    # A row that (M + M†)/2 zeroes: kept by the support of M, dropped by that of the result.
    anti = m.copy()
    anti[out[4], out[4]] = 2e-9j
    assert _assert_same_make_state(anti) is None
    # NaN inside the support, a Hermiticity defect inside the block, a non-PSD block.
    nan = m.copy()
    nan[rows[2], rows[3]] = np.nan
    assert _assert_same_make_state(nan) == "matrix has non-finite entries"
    skew = m.copy()
    skew[rows[2], rows[3]] += 3e-8
    assert _assert_same_make_state(skew).startswith("matrix is not Hermitian (max defect ")
    negative = _with_zero_rows(_hermitian_block(k, rng, smallest=-1e-6), side, rng)
    assert _assert_same_make_state(negative).startswith("matrix is not positive semidefinite (min eigenvalue -1.000e-06")
    assert _assert_same_make_state(np.zeros((side, side))).startswith("trace 0.0 is not 1")


def test_make_state_eigenvalue_fallback_reads_the_unshifted_matrix(monkeypatch):
    # With every Cholesky factorization failing, the eigenvalues decide.  The
    # floor's shift on the diagonal must be undone before they are read and
    # before the matrix is stored: left on, -1.5e-10 would read as -0.5e-10
    # and pass, and a stored diagonal would be 1e-10 off.
    calls = []

    def failing(matrix, *args, **kwargs):
        calls.append(np.shape(matrix))
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    rng = np.random.default_rng(36)
    k = 24
    for smallest in (-1.5e-10, -0.5e-10, 1e-3):
        block = _in_random_basis(_spectrum_with_smallest(smallest, k, rng), rng)
        for m in (block, _with_zero_rows(block, 40, rng)):
            calls.clear()
            message = _assert_same_make_state(m)
            assert calls == [(k, k)] * 2  # the reference's factorization, then make_state's
            if smallest < qcore.EIGENVALUE_FLOOR:
                assert message.startswith("matrix is not positive semidefinite (min eigenvalue -1.500e-10)")
            else:
                assert message is None


def test_make_state_with_a_tiled_adjoint_equals_the_full_passes_bitwise():
    # M† is built in 64 x 64 tiles; at side 300 the last ones are partial.
    rng = np.random.default_rng(300)
    dense = ginibre.density([300], rng, None)
    assert _assert_same_make_state(dense) is None
    dense[7, 290] += 2e-8
    assert _assert_same_make_state(dense).startswith("matrix is not Hermitian (max defect 2.0")
    leaky = _with_zero_rows(ginibre.density([40], rng, 5), 300, rng)
    leaky[qcore.support_rows(leaky)[0], np.flatnonzero(~np.any(leaky, axis=0))[-1]] = 1e-12
    assert _assert_same_make_state(leaky) is None


@pytest.mark.parametrize("seed", range(4))
def test_make_state_on_random_zero_row_matrices_equals_the_full_passes_bitwise(seed):
    rng = np.random.default_rng(1800 + seed)
    for _ in range(15):
        side = int(rng.choice([4, 9, 16, 48, 128]))
        k = int(rng.integers(2, side))
        kind = rng.integers(6)
        block = _hermitian_block(k, rng, smallest=-1e-6 if kind == 0 else None, rank=int(rng.integers(1, k + 1)))
        m = _with_zero_rows(block, side, rng)
        rows = qcore.support_rows(m)
        out = np.setdiff1d(np.arange(side), rows)
        i, j = rng.choice(rows, 2)
        if kind == 1 and out.size:
            m[i, rng.choice(out)] = 1e-12
        elif kind == 2:
            m[i, j] += rng.choice([5e-9, 5e-8])
        elif kind == 3:
            m[i, j] = rng.choice([np.nan, np.inf])
        elif kind == 4 and out.size:
            m[rng.choice(out), rng.choice(out)] = -0.0
        _assert_same_make_state(m, rng.choice(["normalized", "subnormalized"]))


def test_make_state_scans_the_support_of_the_overlap_joint_once(monkeypatch):
    support_rows = qcore.support_rows
    calls = []

    def counted(matrix):
        calls.append(matrix.shape)
        return support_rows(matrix)

    monkeypatch.setattr(qcore, "support_rows", counted)
    _, coeff, big = acceptance.overlap_family(32, np.random.default_rng(32))
    joint = qcore.make_state([("C1", 32), ("R", 32)], big)
    # The input once, then the 32 x 32 symmetrized block for rows that cancel to zero.
    assert calls == [(1024, 1024), (32, 32)]
    sigma = qcore.make_state([("R", 32)], np.diag(coeff**2).astype(complex))
    calls.clear()
    entropy.min_entropy_relative(joint, sigma)
    assert (1024, 1024) not in calls


def test_full_passes_scan_the_symmetrized_support_only_with_a_zero_real_diagonal_entry(monkeypatch):
    support_rows = qcore.support_rows
    scans = []

    def counted(matrix):
        if not np.all(np.diagonal(matrix)):  # past support_rows' O(D) diagonal test: a row scan
            scans.append(matrix.shape)
        return support_rows(matrix)

    monkeypatch.setattr(qcore, "support_rows", counted)
    rng = np.random.default_rng(19)
    dense = ginibre.density([6], rng, None)
    qcore.make_state([("A", 6)], dense)
    assert scans == []
    # A zero row but for 1e-9i on its diagonal: the input has no zero diagonal
    # entry, but (M + M†)/2 zeroes the row, so its support is scanned and the row found.
    m = _with_zero_rows(ginibre.density([5], rng, None), 6, rng)
    out = int(np.flatnonzero(~np.any(m, axis=1))[0])
    m[out, out] = 1e-9j
    stored = qcore.make_state([("A", 6)], m).matrix
    assert scans == [(6, 6)]
    assert not stored[out].any()
    assert _assert_same_make_state(dense) is None
    assert _assert_same_make_state(m) is None


def test_carried_support_of_a_block_row_that_cancels_to_zero():
    # Row 1 is nonzero in M, so it is in S, but its entries are anti-Hermitian:
    # (M + M†)/2 zeroes it, and the carried support drops it as a rescan does.
    m = np.zeros((6, 6), dtype=complex)
    m[0, 0], m[3, 3] = 0.25, 0.75
    m[1, 1] = 1e-9j
    m[1, 3], m[3, 1] = 2e-9, -2e-9
    assert qcore.support_rows(m).tolist() == [0, 1, 3]
    state = qcore.make_state([("A", 6)], m)
    assert state.support.tolist() == [0, 3]
    _assert_carries_its_support(state)
    assert _assert_same_make_state(m) is None
    # A kept row with a -0.0 inside the block: a zero, and the row stays.
    m[0, 3] = m[3, 0] = complex(-0.0, 0.0)
    assert _assert_same_make_state(m) is None


@pytest.mark.parametrize("side, k", [(4, 2), (9, 4), (130, 7), (300, 40), (1024, 32)])
def test_make_state_block_path_trace_is_np_trace_bitwise(side, k):
    # The block path sums the block's diagonal in D zeros; a trace off 1 shows
    # its bits in the message, which the full passes take from np.trace.
    rng = np.random.default_rng(side)
    for scale in (1.0, 1.0 + 3e-9, 0.5):
        m = _with_zero_rows(_hermitian_block(k, rng), side, rng) * scale
        assert qcore._zero_outside(m, qcore.support_rows(m))
        message = _assert_same_make_state(m)
        assert (message is None) == (scale == 1.0)


def _assert_support_is_support_rows(state):
    want = qcore.support_rows(state.matrix)
    assert state.support is None if want is None else state.support.tolist() == want.tolist()


def test_permute_systems_returns_the_state_for_its_own_order():
    rng = np.random.default_rng(31)
    dims = (2, 3, 4, 2)
    labels = [f"S{i}" for i in range(len(dims))]
    systems = list(zip(labels, dims))
    side = math.prod(dims)
    dense = qcore.make_state(systems, ginibre.density([side], rng, None))
    sparse = qcore.make_state(systems, _with_zero_rows(ginibre.density([11], rng, 3), side, rng))
    column = qcore.random_pure(systems, rng)
    kept = qcore.partial_trace(qcore.random_pure(systems + [("E", 2)], rng), labels)
    assert dense.support is None and sparse.support.size == 11
    assert column._factor.shape == (side, 1) and kept._factor.shape == (side, 2)
    for state in (dense, sparse, column, kept):
        with pytest.raises(qcore.LabelError, match="is not a permutation"):
            qcore.permute_systems(state, labels[:-1] + labels[:1])
        caches = (state.spectrum(), state.is_pure, state.support)
        for order in (state.labels, labels):
            assert qcore.permute_systems(state, order) is state
        assert all(kept_cache is cache for kept_cache, cache in zip((state._spectrum, state._pure, state._support), caches))
        for _ in range(6):
            order = list(rng.permutation(labels))
            if order == labels:
                continue
            permuted = qcore.permute_systems(state, order)
            # Any other order reads the support of the permuted matrix on first read.
            assert permuted._support is qcore._UNREAD
            _assert_support_is_support_rows(permuted)
            _assert_support_is_support_rows(qcore.merge_systems(permuted, {"G": order[1:3]}))


@pytest.mark.parametrize("d", [8, 16, 32])
def test_make_state_accepts_rank_deficient_states(d):
    rng = np.random.default_rng(d)
    big = acceptance.overlap_family(d, rng)[2]
    joint = qcore.make_state([("C1", d), ("R", d)], big)
    half = qcore.make_state([("C1", d), ("R", d)], big / 2, norm_mode="subnormalized")
    assert half.trace() == pytest.approx(0.5, abs=1e-12)
    assert np.sum(joint.spectrum() > 1e-10) == d
    low_rank = qcore.make_state([("A", d)], ginibre.density([d], rng, rank=2))
    assert np.sum(low_rank.spectrum() > 1e-10) == 2


def test_full_rank_test_densities_are_the_library_draws_bitwise():
    # tests/ginibre.py keeps the ranked generator that tests draw their inputs
    # from; at full rank it must still make the library's draws and arithmetic.
    for dims in ([2], [3, 2], [4, 4]):
        library = qcore.random_density(dims, np.random.default_rng(5))
        assert ginibre.density(dims, np.random.default_rng(5), None).tobytes() == library.tobytes()
    systems = [("A", 2), ("B", 3)]
    library = qcore.random_state(systems, np.random.default_rng(6))
    assert ginibre.state(systems, np.random.default_rng(6), None).matrix.tobytes() == library.matrix.tobytes()


def test_spectrum_is_the_clamped_eigvalsh_of_the_stored_matrix_bitwise():
    rng = np.random.default_rng(8)
    for k in range(20):
        side = (2, 3, 8, 16, 64)[k % 5]
        rank = None if k % 2 else max(1, side // 3)
        state = qcore.make_state([("A", side)], ginibre.density([side], rng, rank))
        expected = qcore._clamp(np.linalg.eigvalsh(state.matrix))
        assert state.spectrum().tobytes() == expected.tobytes()


def test_worked_example_state_shape():
    state = qcore.example_ch5()
    assert state.total_dim == 32
    assert state.is_pure
    assert entropy.von_neumann(state, "R") == pytest.approx(0.601, abs=2e-3)


def test_two_pairs_plus_theta_builder():
    state = qcore.example_4_1(2, [0.75, 0.25])
    assert state.labels == ("C1", "C2", "C3", "R")
    assert state.dims == (2, 4, 4, 2)
    assert state.is_pure
    emb = qcore.example_4_1(2, "embezzle:2")
    assert emb.total_dim == 64


def test_constructors_reject_non_finite_input():
    for bad in (np.nan, np.inf):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(qcore.StateError, match="non-finite"):
            qcore.make_state([("A", 2)], m)
        with pytest.raises(qcore.StateError, match="non-finite"):
            qcore.pure_state([("A", 2)], np.array([1.0, bad]))
    with pytest.raises(qcore.StateError, match="length"):
        qcore.pure_state([("A", 2)], np.ones(3))


def test_trace_norm_uses_absolute_hermiticity_tolerance():
    # A 1e-6 asymmetry passes np.allclose's default rtol but is not Hermitian.
    x = np.array([[0.0, 1.0 + 1e-6], [1.0, 0.0]], dtype=complex)
    svd = float(np.sum(np.linalg.svd(x, compute_uv=False)))
    assert qcore.trace_norm(x) == pytest.approx(svd, abs=1e-15)
    assert abs(float(np.sum(np.abs(np.linalg.eigvalsh(x)))) - svd) > 1e-8


def _trace_norm_reference(matrix):
    """One matrix's trace norm as computed before trace_norm took stacks."""
    if np.allclose(matrix, matrix.conj().T, rtol=0.0, atol=1e-12):
        return float(np.sum(np.abs(np.linalg.eigvalsh(matrix))))
    return float(np.sum(np.linalg.svd(matrix, compute_uv=False)))


def _mixed_stack(side, rng, count=9, complex_entries=True):
    """Hermitian and non-Hermitian members, interleaved."""
    x = rng.standard_normal((count, side, side))
    if complex_entries:
        x = x + 1j * rng.standard_normal((count, side, side))
    hermitian = (x + np.swapaxes(x, -1, -2).conj()) / 2
    return np.where((np.arange(count) % 3 != 1)[:, None, None], hermitian, x)


@pytest.mark.parametrize("side", range(1, 13))
@pytest.mark.parametrize("complex_entries", [True, False])
def test_stacked_trace_norm_equals_the_per_matrix_reference_bitwise(side, complex_entries):
    rng = np.random.default_rng(100 * side + complex_entries)
    stack = _mixed_stack(side, rng, complex_entries=complex_entries)
    want = np.array([_trace_norm_reference(m) for m in stack])
    norms = qcore.trace_norm(stack)
    assert norms.shape == (9,) and norms.dtype == np.float64
    assert norms.tobytes() == want.tobytes()
    # More leading axes, and each member on its own.
    assert qcore.trace_norm(stack[:8].reshape(2, 4, side, side)).tobytes() == want[:8].reshape(2, 4).tobytes()
    for member, value in zip(stack, want):
        alone = qcore.trace_norm(member)
        assert type(alone) is float and alone.hex() == value.hex()
    # All members Hermitian, and none.
    for kind in (stack[::3], stack[1::3]):
        assert qcore.trace_norm(kind).tobytes() == np.array([_trace_norm_reference(m) for m in kind]).tobytes()


def _asymmetric(base, defect):
    """[[0, base], [base + defect, 0]]: Hermitian within 1e-12 iff |defect| <= 1e-12.

    eigvalsh reads the lower triangle, so the Hermitian path gives
    2 |base + defect| and the SVD path |base| + |base + defect|.
    """
    return np.array([[0.0, base], [base + defect, 0.0]], dtype=complex)


# Each defect is exact: base + defect is representable, and the difference
# of the two entries is the defect itself.
BOUNDARY_CASES = [
    (0.0, 1e-12, True),
    (0.0, np.nextafter(1e-12, 1.0), False),
    (0.0, -1e-12, True),
    (0.0, 1e-12j, True),
    (0.0, np.nextafter(1e-12, 1.0) * 1j, False),
    (1024.0, 2.0**-40, True),
    (1024.0, 2.0**-39, False),
    (1.0, 2.0**-40, True),
    (1.0, 2.0**-39, False),
]


@pytest.mark.parametrize("base, defect, hermitian", BOUNDARY_CASES)
def test_trace_norm_hermiticity_boundary_is_absolute_at_1e12(base, defect, hermitian):
    m = _asymmetric(base, defect)
    assert m[1, 0] - m[0, 1] == defect
    expected = 2 * abs(base + defect) if hermitian else abs(base) + abs(base + defect)
    assert qcore.trace_norm(m) == pytest.approx(expected, rel=1e-15, abs=1e-27)
    assert qcore.trace_norm(m) == _trace_norm_reference(m)


def test_trace_norm_decides_hermiticity_per_member_of_a_stack():
    stack = np.array([_asymmetric(base, defect) for base, defect, _ in BOUNDARY_CASES])
    want = np.array([_trace_norm_reference(m) for m in stack])
    assert qcore.trace_norm(stack).tobytes() == want.tobytes()
    assert qcore.trace_norm(stack[::-1]).tobytes() == want[::-1].tobytes()


def _outcome(fn, matrix):
    with np.errstate(all="ignore"):
        try:
            return ("value", repr(fn(matrix)))
        except Exception as exc:  # the exception itself is the behaviour under test
            return ("raises", type(exc), str(exc))


NAN, INF = np.nan, np.inf


@pytest.mark.parametrize(
    "entries, kind",
    [
        ([[NAN, 1], [1, 0]], "raises"),
        ([[0, NAN], [NAN, 0]], "raises"),
        ([[0, NAN], [1, 0]], "raises"),
        ([[INF, 1], [1, 0]], "value"),
        ([[-INF, 0], [0, 1]], "value"),
        ([[0, INF], [INF, 0]], "value"),
        ([[0, INF], [-INF, 0]], "value"),
        ([[0, complex(INF, 1)], [complex(INF, -1), 0]], "value"),
        ([[0, complex(1, INF)], [complex(1, -INF), 0]], "value"),
        ([[1, 0], [0, complex(INF, NAN)]], "value"),
        # Equal infinities count as Hermitian, and eigvalsh raises where the SVD gives nan.
        ([[0, 0, 0], [0, INF, 0], [0, 0, 0]], "raises"),
    ],
)
def test_trace_norm_of_non_finite_input_behaves_as_before(entries, kind):
    real = not any(isinstance(x, complex) for row in entries for x in row)
    for dtype in (float, complex) if real else (complex,):
        m = np.array(entries, dtype=dtype)
        expected = _outcome(_trace_norm_reference, m)
        assert expected[0] == kind
        assert _outcome(qcore.trace_norm, m) == expected


def test_distinct_labels_returns_tuples_and_names_the_first_repeat():
    assert qcore.distinct_labels(["A", "B"], "C", (), (x for x in "DE")) == (("A", "B"), ("C",), (), ("D", "E"))
    assert qcore.distinct_labels() == ()
    with pytest.raises(qcore.LabelError) as within:
        qcore.distinct_labels(["A", "B", "B", "A"])
    assert within.value.args[0] == "duplicate label 'B' in [['A', 'B', 'B', 'A']]"
    with pytest.raises(qcore.LabelError) as across:
        qcore.distinct_labels(["A"], "B", ["C", "B"])
    assert across.value.args[0] == "duplicate label 'B' in [['A'], ['B'], ['C', 'B']]"


def _four_party():
    return qcore.example_4_1(2, [0.75, 0.25])  # C1, C2, C3, R


def _one_sender(label="C1"):
    return decoupling.InstrumentSpec(senders=(decoupling.sender(label, 2),), samples=1)


# Every entry point that takes label groups, each given a label twice.
LABEL_CLASHES = {
    "make_state": (lambda: qcore.make_state([("A", 2), ("A", 2)], np.eye(4) / 4), "A"),
    "tensor": (lambda: qcore.tensor(qcore.max_mixed(2, "A"), qcore.max_mixed(2, "A")), "A"),
    "apply_unitary": (lambda: qcore.apply_unitary(qcore.example_ch5(), ["C1", "C1"], np.eye(4)), "C1"),
    "purify": (lambda: qcore.purify(qcore.max_mixed(2, "A"), "A"), "A"),
    "merge_systems": (
        lambda: qcore.merge_systems(qcore.tensor(qcore.max_mixed(2, "A"), qcore.max_mixed(2, "B")), {"A": ["B"]}),
        "A",
    ),
    "conditional_entropy": (lambda: entropy.conditional_entropy(_four_party(), ["C1", "C2"], ["C2"]), "C2"),
    "entropy_report": (lambda: entropy.entropy_report(_four_party(), ["C1"], ["C1", "R"], "svn"), "C1"),
    "merging_rate_region": (lambda: regions.merging_rate_region(_four_party(), ["C1", "C2"], ["C2", "R"]), "C2"),
    "split_transfer_region": (
        lambda: regions.split_transfer_region(_four_party(), ["C1"], ["C1", "C2"], [], ["R"]),
        "C1",
    ),
    "one_shot_cost_region": (lambda: regions.one_shot_cost_region(_four_party(), ["C1", "R"], ["R"], 0.1), "R"),
    "sequential_cost": (lambda: regions.sequential_cost(_four_party(), ["C1", "C2"], ["C2"], 0.1), "C2"),
    "min_cut_entanglement": (
        lambda: regions.min_cut_entanglement(_four_party(), ["C1"], ["R"], ["C1", "C2"]),
        "C1",
    ),
    "min_cut_entanglement_oracle": (
        lambda: regions.min_cut_entanglement_oracle(lambda labels: 0.0, ["C1"], ["C2", "C1"]),
        "C1",
    ),
    "decoupling_bound_purity": (
        lambda: decoupling.decoupling_bound_purity(_four_party(), _one_sender(), ["C1", "R"]),
        "C1",
    ),
    "decoupling_bound_minentropy": (
        lambda: decoupling.decoupling_bound_minentropy(_four_party(), _one_sender(), ["R", "C1"]),
        "C1",
    ),
    "simulate_random_instrument": (
        lambda: decoupling.simulate_random_instrument(_four_party(), _one_sender(), "C1"),
        "C1",
    ),
    "split_transfer_errors": (
        lambda: decoupling.split_transfer_errors(_four_party(), _one_sender(), _one_sender(), (["C2"], ["C3"])),
        "C1",
    ),
    "mincut_coherent": (lambda: assisted.mincut_coherent(qcore.example_ch5(), ["A", "C1"], ["B"], ["C1", "C2"]), "C1"),
    "assisted_lower_bound": (lambda: assisted.assisted_lower_bound(qcore.example_ch5(), ["A"], ["A", "B"], []), "A"),
    "beating_hashing": (
        lambda: assisted.beating_hashing(qcore.example_ch5(), ["A"], ["B", "C1"], ["C1", "C2"]),
        "C1",
    ),
    "concurrence_of_assistance": (lambda: assisted.concurrence_of_assistance(qcore.example_ch5(), ["A"], ["A"]), "A"),
    "eoa_pure": (lambda: assisted.eoa_pure(qcore.example_ch5(), ["A"], ["A", "B"], ["C1"]), "A"),
    "average_entropy_for_basis": (
        lambda: assisted.average_entropy_for_basis(qcore.example_ch5(), ["A", "C1"], ["C1"], np.eye(2)),
        "C1",
    ),
    "da_upper_bounds": (lambda: assisted.da_upper_bounds(qcore.example_ch5(), ["A"], ["B"], ["C1", "B"]), "B"),
}


@pytest.mark.parametrize("name", sorted(LABEL_CLASHES))
def test_every_entry_point_rejects_a_label_clash_through_distinct_labels(name):
    call, label = LABEL_CLASHES[name]
    with pytest.raises(qcore.LabelError) as clash:
        call()
    assert re.fullmatch(rf"duplicate label {re.escape(repr(label))} in \[\[.*\]\]", clash.value.args[0])


def test_apply_unitary_and_merge_reject_invalid_arguments():
    state = qcore.max_mixed(2, "A")
    with pytest.raises(qcore.StateError, match="not unitary"):
        qcore.apply_unitary(state, ["A"], np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(qcore.LabelError):
        qcore.apply_unitary(qcore.tensor(state, qcore.max_mixed(2, "B")), ["A", "A"], np.eye(4))
    three = qcore.tensor_all([state, qcore.max_mixed(2, "B"), qcore.max_mixed(2, "C")])
    with pytest.raises(qcore.LabelError):
        qcore.merge_systems(three, {"A": ["C"]})


@pytest.mark.parametrize(
    "groups, message",
    [
        ({"A": ["B"]}, "duplicate"),  # takes the label of the ungrouped system A
        ({"X": []}, "no members"),
        ({"X": ["A"], "Y": ["A"]}, "listed in groups"),
    ],
    ids=["label-of-ungrouped-neighbour", "empty-group", "system-in-two-groups"],
)
def test_merge_systems_rejects_ambiguous_groups(groups, message):
    state = qcore.tensor(qcore.max_mixed(2, "A"), qcore.max_mixed(2, "B"))
    with pytest.raises(qcore.LabelError, match=message):
        qcore.merge_systems(state, groups)


def test_states_are_immutable_and_pure_states_stay_vectors():
    psi = qcore.ghz(12)
    assert psi.total_dim == 4096 and psi.is_pure
    with pytest.raises(AttributeError):
        psi.is_pure = False
    reduced = qcore.partial_trace(psi, ["A", "B"])
    assert np.allclose(reduced.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-15)
    assert entropy.von_neumann(psi, ["A"]) == pytest.approx(1.0, abs=1e-12)
    moved = qcore.apply_unitary(qcore.permute_systems(psi, psi.labels[::-1]), ["L"], np.array([[0, 1], [1, 0]]))
    assert moved.is_pure and moved.vector().shape == (4096,)
    # None of these built the 4096 x 4096 density matrix.
    assert psi._matrix is None and moved._matrix is None


# -- trusted operations against the validating constructor and the dense reference --


def _dense_partial_trace(matrix, dims, keep):
    n = len(dims)
    t = matrix.reshape(tuple(dims) * 2)
    for i in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    side = int(np.prod([dims[i] for i in keep]))
    return t.reshape(side, side)


def _dense_permute(matrix, dims, perm):
    n = len(dims)
    side = matrix.shape[0]
    return matrix.reshape(tuple(dims) * 2).transpose(list(perm) + [p + n for p in perm]).reshape(side, side)


def _dense_apply(matrix, dims, idx, u):
    rest = [i for i in range(len(dims)) if i not in idx]
    perm = list(idx) + rest
    moved = _dense_permute(matrix, dims, perm)
    full = np.kron(u, np.eye(moved.shape[0] // u.shape[0]))
    rotated = full @ moved @ full.conj().T
    return _dense_permute(rotated, [dims[p] for p in perm], list(np.argsort(perm)))


def _random_family(kind, dims, rng):
    systems = [(chr(ord("A") + i), d) for i, d in enumerate(dims)]
    if kind == "pure":
        return qcore.random_pure(systems, rng)
    rank = int(rng.integers(1, int(np.prod(dims)) + 1))
    m = ginibre.density(dims, rng, rank)
    if kind == "subnormalized":
        return qcore.make_state(systems, m * rng.uniform(0.3, 1.0), "subnormalized")
    return qcore.make_state(systems, m)


def _revalidated(state):
    return qcore.make_state(state.systems, state.matrix, state.norm_mode)


def _check_trusted(out, want_matrix):
    again = _revalidated(out)
    assert again.is_pure == out.is_pure
    assert np.max(np.abs(out.matrix - want_matrix)) <= 1e-12
    if out.is_pure:
        v = out.vector()
        k = int(np.argmax(np.abs(v)))
        assert abs(v[k].imag) <= 1e-15 and v[k].real > 0.0
        assert np.max(np.abs(np.outer(v, v.conj()) - out.matrix)) <= 1e-12


@pytest.mark.parametrize("kind", ["pure", "mixed", "subnormalized"])
@pytest.mark.parametrize("seed", range(8))
def test_trusted_operations_match_dense_reference(kind, seed):
    rng = np.random.default_rng([seed, len(kind)])
    dims = [int(d) for d in rng.integers(1, 5, size=int(rng.integers(2, 5)))]
    state = _random_family(kind, dims, rng)
    dense = state.matrix
    n = len(dims)
    labels = list(state.labels)

    keep = sorted(int(i) for i in rng.choice(n, size=int(rng.integers(0, n)), replace=False))
    reduced = qcore.partial_trace(state, [labels[i] for i in keep])
    _check_trusted(reduced, _dense_partial_trace(dense, dims, keep))

    perm = [int(p) for p in rng.permutation(n)]
    permuted = qcore.permute_systems(state, [labels[p] for p in perm])
    assert permuted.is_pure == state.is_pure
    _check_trusted(permuted, _dense_permute(dense, dims, perm))

    merged = qcore.merge_systems(state, {"M": labels[:2]})
    assert merged.dims == (dims[0] * dims[1],) + tuple(dims[2:])
    _check_trusted(merged, dense)

    idx = [int(i) for i in rng.choice(n, size=int(rng.integers(1, min(n, 2) + 1)), replace=False)]
    u = qcore.haar_unitaries_per_stream(int(np.prod([dims[i] for i in idx])), [rng])[0]
    rotated = qcore.apply_unitary(state, [labels[i] for i in idx], u)
    assert rotated.is_pure == state.is_pure
    _check_trusted(rotated, _dense_apply(dense, dims, idx, u))

    other = qcore.merge_systems(_random_family(kind, [2], rng), {"Z": ["A"]})
    product = qcore.tensor(state, other)
    assert product.is_pure == (state.is_pure and other.is_pure)
    _check_trusted(product, np.kron(dense, other.matrix))


@pytest.mark.parametrize("kind", ["pure", "mixed", "subnormalized"])
def test_dense_states_read_their_purity_on_first_read(kind):
    state = _revalidated(_random_family(kind, [2, 3, 2], np.random.default_rng(len(kind))))
    reduced = qcore.partial_trace(state, ["A", "C"])
    # Built, reduced and relabeled without a purity sum.
    assert state._pure is None and reduced._pure is None
    assert qcore.merge_systems(state, {"M": ["A", "B"]})._pure is None
    for out in (state, reduced):
        assert out.is_pure == _revalidated(out).is_pure
        assert out._pure is out.is_pure
    if kind != "mixed":  # a random mixed state may have rank one
        assert state.is_pure == (kind == "pure")
    # A relabeling made after the first read carries the flag along.
    assert qcore.merge_systems(state, {"M": ["A", "B"]})._pure is state.is_pure


def _assert_reductions_match_dense_partial_trace(state):
    # A dense state gives the same bits, not only close: outputs rounded to 12
    # digits must not move.  A state stored as amplitudes is one Gram product,
    # within d_traced * eps * Tr rho of the reference entry by entry, and
    # exactly Hermitian.
    dims = list(state.dims)
    for k in range(len(dims) + 1):  # k = 0 is the full trace
        for keep in itertools.combinations(range(len(dims)), k):
            reduced = qcore.partial_trace(state, [state.labels[i] for i in keep]).matrix
            want = _dense_partial_trace(state.matrix, dims, list(keep))
            if state._factor is None:
                assert np.array_equal(reduced, want)
                continue
            d_traced = math.prod(dims) // math.prod(dims[i] for i in keep)
            assert np.max(np.abs(reduced - want)) <= d_traced * np.finfo(float).eps * state.trace()
            assert np.array_equal(reduced, reduced.conj().T)


@pytest.mark.parametrize("seed", range(6))
def test_vector_reductions_within_roundoff_and_dense_reductions_bitwise(seed):
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(1, 9, size=int(rng.integers(1, 6)))]
    systems = [(f"S{i}", d) for i, d in enumerate(dims)]
    psi = qcore.random_pure(systems, rng)
    _assert_reductions_match_dense_partial_trace(psi)
    assert psi.trace() == float(np.real(np.trace(psi.matrix)))
    # A dense mixed state on the same systems takes the matrix path.
    _assert_reductions_match_dense_partial_trace(qcore.tensor_all([qcore.random_state([s], rng) for s in systems]))


@pytest.mark.parametrize("dims", [(16, 4), (3, 16, 2), (64, 2), (2, 64), (2, 16, 64)], ids=lambda d: "x".join(map(str, d)))
def test_reductions_over_large_traced_systems_match_dense_partial_trace(dims):
    # numpy sums 8 or more terms pairwise when a reduction leaves one entry and
    # term by term otherwise; traced dimensions of 16 and 64 reach both cases.
    rng = np.random.default_rng(len(dims))
    systems = [(f"S{i}", d) for i, d in enumerate(dims)]
    _assert_reductions_match_dense_partial_trace(qcore.random_pure(systems, rng))
    # Correlated and dense without a D-sided eigendecomposition.
    mixed = qcore.tensor(ginibre.state(systems[:-1], rng, rank=2), qcore.random_pure(systems[-1:], rng))
    assert not mixed.is_pure
    _assert_reductions_match_dense_partial_trace(mixed)


def test_dense_reduction_with_more_systems_than_einsum_indices():
    # 27 systems need 54 einsum indices, above numpy's 52, unless the systems
    # of dimension 1 are left out.
    systems = [(f"S{i}", 2 if i < 3 else 1) for i in range(27)]
    rho = qcore.random_state(systems, np.random.default_rng(0))
    keep = [1, 5, 26]
    reduced = qcore.partial_trace(rho, [systems[i][0] for i in keep])
    assert np.array_equal(reduced.matrix, _dense_partial_trace(rho.matrix, list(rho.dims), keep))


def test_vector_phase_convention_and_stored_amplitudes():
    rng = np.random.default_rng(4)
    amplitudes = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    psi = qcore.pure_state([("A", 3), ("B", 4)], amplitudes)
    v = psi.vector()
    k = int(np.argmax(np.abs(amplitudes)))
    expected = amplitudes / np.linalg.norm(amplitudes)
    expected = expected * abs(expected[k]) / expected[k]
    assert np.max(np.abs(v - expected)) <= 1e-15
    assert abs(v[k].imag) <= 1e-15 and v[k].real > 0.0
    dense_pure = qcore.make_state(psi.systems, psi.matrix)
    assert np.max(np.abs(dense_pure.vector() - v)) <= 1e-12


def test_the_factor_of_a_state_stored_as_amplitudes_is_its_vector(monkeypatch):
    psi = qcore.random_pure([("A", 3), ("B", 4)], np.random.default_rng(7))
    eigh, calls = np.linalg.eigh, []

    def counted(matrix, *args, **kwargs):
        calls.append(np.shape(matrix))
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    factor = psi.factor()
    purified = qcore.purify(psi, "R")
    assert calls == []
    assert factor.shape == (12, 1) and np.array_equal(factor, psi._factor)
    assert purified.dim_of("R") == 1 and purified._factor is not None
    assert np.max(np.abs(purified._factor - psi._factor)) <= np.finfo(float).eps


def test_vector_and_purify_of_dense_inputs_keep_the_eigh_path_bits():
    # The dominant eigenvector scaled by math.sqrt of its eigenvalue, and the
    # kept eigenvectors scaled by np.sqrt: the paths before the factor.
    rng = np.random.default_rng(11)
    psi = qcore.random_pure([("A", 3), ("B", 4)], rng)
    for rho in (qcore.make_state(psi.systems, psi.matrix), qcore.random_state([("A", 3), ("B", 4)], rng),
                qcore.make_state([("A", 4)], np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))):
        eigs, vecs = np.linalg.eigh(rho.matrix)
        keep = eigs > qcore.SUPPORT_TOL
        amplitudes = vecs[:, keep] * np.sqrt(eigs[keep])
        assert np.array_equal(rho.factor(), amplitudes)
        expected = qcore.pure_state(list(rho.systems) + [("R", amplitudes.shape[1])], amplitudes)
        assert np.array_equal(qcore.purify(rho, "R")._factor, expected._factor)
        if rho.is_pure:
            v = vecs[:, -1] * math.sqrt(max(eigs[-1], 0.0))
            k = int(np.argmax(np.abs(v)))
            assert np.array_equal(rho.vector(), v / (v[k] / abs(v[k])))


def test_tensor_of_two_vectors_is_stored_as_amplitudes():
    rng = np.random.default_rng(12)
    a = qcore.random_pure([("A", 2), ("B", 3)], rng)
    b = qcore.random_pure([("C", 2), ("D", 2)], rng)
    product = qcore.tensor(a, b)
    assert product._factor is not None and product._matrix is None
    assert np.array_equal(product._factor, np.kron(a._factor, b._factor))
    dense = qcore.make_state(product.systems, np.kron(a.matrix, b.matrix))
    eps = np.finfo(float).eps
    assert np.max(np.abs(product.matrix - dense.matrix)) <= eps
    for k in range(1, len(product.labels)):
        for keep in itertools.combinations(product.labels, k):
            d_traced = product.total_dim // math.prod(product.dim_of(x) for x in keep)
            gap = qcore.partial_trace(product, keep).matrix - qcore.partial_trace(dense, keep).matrix
            assert np.max(np.abs(gap)) <= d_traced * eps
    mixed = qcore.tensor(a, qcore.max_mixed(2, "C"))
    assert mixed._factor is None and np.array_equal(mixed.matrix, np.kron(a.matrix, np.eye(2) / 2))


def _eigh_shapes(monkeypatch):
    """The shape of each matrix given to np.linalg.eigh from here on."""
    eigh, shapes = np.linalg.eigh, []

    def counted(matrix, *args, **kwargs):
        shapes.append(np.shape(matrix))
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return shapes


def _gram_reduction(amplitudes, dims, keep):
    # The reduction of a state stored as amplitudes before reductions kept a
    # factor: the Gram product Psi^T conj(Psi) of Psi[traced, kept].
    traced = [i for i in reversed(range(len(dims))) if i not in keep]
    d_keep = math.prod(dims[i] for i in keep)
    psi = amplitudes.reshape(dims).transpose(traced + list(keep)).reshape(-1, d_keep)
    return qcore._hermitian_part(psi.T @ psi.conj())


def _proper_subsets(labels):
    return [keep for k in range(1, len(labels)) for keep in itertools.combinations(labels, k)]


@pytest.mark.parametrize("seed", range(4))
def test_a_reduction_keeps_a_factor_exactly_when_it_has_fewer_columns_than_rows(seed):
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(1, 7, size=5)]
    psi = qcore.random_pure([(f"S{i}", d) for i, d in enumerate(dims)], rng)
    factors = []
    for keep in _proper_subsets(psi.labels):
        reduced = qcore.partial_trace(psi, keep)
        d_keep = reduced.total_dim
        assert reduced.systems == tuple((x, psi.dim_of(x)) for x in keep)
        assert (reduced._factor is not None) == (psi.total_dim // d_keep < d_keep)
        if reduced._factor is not None and reduced._factor.shape[1] > 1:
            factors.append(reduced)
    assert factors
    # A kept factor reduced again: its r columns count as traced too.
    for state in factors:
        r = state._factor.shape[1]
        for keep in _proper_subsets(state.labels):
            reduced = qcore.partial_trace(state, keep)
            assert (reduced._factor is not None) == (state.total_dim // reduced.total_dim * r < reduced.total_dim)
            assert np.max(np.abs(reduced.matrix - _dense_partial_trace(state.matrix, list(state.dims),
                                                                         [state.index_of(x) for x in keep]))) <= 1e-15


@pytest.mark.parametrize("seed", range(4))
def test_a_kept_factor_s_matrix_is_the_gram_product_bit_for_bit(seed):
    rng = np.random.default_rng(10 + seed)
    dims = [int(d) for d in rng.integers(1, 7, size=5)]
    psi = qcore.random_pure([(f"S{i}", d) for i, d in enumerate(dims)], rng)
    amplitudes = psi.factor()[:, 0]
    kept = 0
    for keep in _proper_subsets(psi.labels):
        reduced = qcore.partial_trace(psi, keep)
        want = _gram_reduction(amplitudes, dims, [psi.index_of(x) for x in keep])
        if reduced._factor is not None and reduced._factor.shape[1] == 1:
            # Only systems of dimension 1 were traced: one column, whose matrix
            # is its outer product.
            assert np.max(np.abs(reduced.matrix - want)) <= np.finfo(float).eps
            continue
        kept += reduced._factor is not None
        assert np.array_equal(reduced.matrix, want)
    assert kept


def test_the_factor_of_a_kept_factor_decomposes_its_gram_matrix_only(monkeypatch):
    rng = np.random.default_rng(21)
    psi = qcore.random_pure([("A", 3), ("B", 2), ("C", 5), ("D", 4)], rng)
    shapes = _eigh_shapes(monkeypatch)
    eps = np.finfo(float).eps
    for keep in (["A", "C", "D"], ["C", "D"], ["A", "B", "C"]):
        reduced = qcore.partial_trace(psi, keep)
        r = reduced._factor.shape[1]
        assert 1 < r < reduced.total_dim
        shapes.clear()
        v = reduced.factor()
        assert shapes == [(r, r)]
        assert v.shape == (reduced.total_dim, r)
        assert np.max(np.abs(v @ v.conj().T - reduced.matrix)) <= reduced.total_dim * eps
        # The spectrum is the Gram matrix's, padded with zeros, and pure
        # states' complementary reductions share it.
        shapes.clear()
        eigs = reduced.spectrum()
        assert shapes == [] and np.all(eigs[:-r] == 0.0)
        rest = [x for x in psi.labels if x not in keep]
        other = qcore.partial_trace(psi, rest).spectrum()
        assert np.max(np.abs(eigs[-r:] - other[-r:])) <= 4 * eps


def test_a_reduction_of_a_product_pure_state_is_pure():
    # Tracing C out of psi_AB (x) phi_C keeps a factor of d_C = 5 columns of rank one.
    rng = np.random.default_rng(22)
    product = qcore.tensor(qcore.random_pure([("A", 3), ("B", 4)], rng), qcore.random_pure([("C", 5)], rng))
    reduced = qcore.partial_trace(product, ["A", "B"])
    assert reduced._factor.shape == (12, 5) and reduced.is_pure
    dense = qcore.make_state(reduced.systems, reduced.matrix)
    assert np.max(np.abs(reduced.vector() - dense.vector())) <= np.finfo(float).eps
    assert entropy.von_neumann(reduced) == pytest.approx(0.0, abs=1e-14)
    mixed = qcore.partial_trace(product, ["A", "C"])
    assert mixed._factor is not None and not mixed.is_pure


def _shannon_loop(p):
    # qcore.shannon_entropy before it selected the positive entries.
    return -sum(qcore.xlog2x(float(x)) for x in p)


def test_shannon_entropy_keeps_the_bits_of_the_sum_over_every_entry():
    rng = np.random.default_rng(5)
    weights = rng.dirichlet(np.ones(6))
    spectra = [
        np.concatenate([np.zeros(2048 - 6), np.sort(weights)]),
        rng.permutation(np.concatenate([np.zeros(5), weights])),
        np.array([0.0, -1e-17, 0.0, 1.0]),
        [1.0],
        np.zeros(7),
        [0.0, 0.25, 0.0, 0.75],
    ]
    for p in spectra:
        got, want = qcore.shannon_entropy(p), _shannon_loop(p)
        assert type(got) is float and got.hex() == want.hex()
    assert qcore.shannon_entropy(np.zeros(3)).hex() == "-0x0.0p+0"


# -- the operator-sandwich kernel against a dense kron reference --


def _random_matrix(side, rng):
    return rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))


def _kernel(op, matrix, dims, axes):
    out_dims = list(dims)
    k = len(axes)
    for a, d in zip(axes, op.shape[:k]):
        out_dims[a] = d
    side = int(np.prod(out_dims))
    return qcore._sandwich(op, matrix.reshape(tuple(dims) * 2), axes).reshape(side, side)


def test_sandwich_matches_dense_kron_reference():
    rng = np.random.default_rng(17)
    rho = qcore.random_density([2, 3, 2], rng)

    h = _random_matrix(3, rng)
    h = h + h.conj().T
    full = np.kron(np.kron(np.eye(2), h), np.eye(2))
    assert np.max(np.abs(_kernel(h, rho, [2, 3, 2], [1]) - full @ rho @ full.conj().T)) <= 1e-13

    # The adjoint of a 3 x 2 isometry restricts the middle system to its range.
    v, _ = np.linalg.qr(_random_matrix(3, rng)[:, :2])
    full = np.kron(np.kron(np.eye(2), v.conj().T), np.eye(2))
    got = _kernel(v.conj().T, rho, [2, 3, 2], [1])
    assert got.shape == (8, 8)
    assert np.max(np.abs(got - full @ rho @ full.conj().T)) <= 1e-13

    u = qcore.haar_unitaries_per_stream(6, [rng])[0]
    full = np.kron(np.eye(2), u)
    got = _kernel(u.reshape(3, 2, 3, 2), rho, [2, 3, 2], [1, 2])
    assert np.max(np.abs(got - full @ rho @ full.conj().T)) <= 1e-13
    # Two systems out of order and not adjacent: u acts on (third, first).
    u = qcore.haar_unitaries_per_stream(4, [rng])[0]
    got = _kernel(u.reshape(2, 2, 2, 2), rho, [2, 3, 2], [2, 0])
    assert np.max(np.abs(got - _dense_apply(rho, [2, 3, 2], [2, 0], u))) <= 1e-13


def test_sandwich_on_one_axis_is_the_tensordot_pair_bit_for_bit():
    # The random instrument's outputs depend on these exact contractions.
    rng = np.random.default_rng(5)
    dims = (2, 3, 4)
    t = qcore.random_density(list(dims), rng).reshape(dims * 2)
    for i, d in enumerate(dims):
        u = qcore.haar_unitaries_per_stream(d, [rng])[0]
        pair = np.moveaxis(np.tensordot(u, t, axes=([1], [i])), 0, i)
        pair = np.moveaxis(np.tensordot(pair, u.conj(), axes=([3 + i], [1])), -1, 3 + i)
        assert np.array_equal(qcore._sandwich(u, t, [i]), pair)


def test_every_exception_class_of_the_package_is_a_state_error():
    # Rejected input is one class; only the cone program's stall is not input.
    modules = [importlib.import_module(f"entlab.{info.name}") for info in pkgutil.iter_modules(entlab.__path__)]
    found = {
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, BaseException) and cls.__module__ == module.__name__
    }
    assert {qcore.StateError, qcore.LabelError, entropy.SupportError, coneprog.ConeProgramError} <= found
    assert [cls for cls in found - {coneprog.ConeProgramError} if not issubclass(cls, qcore.StateError)] == []


@pytest.mark.parametrize(
    "weights",
    [[math.nan, math.nan, 0.5, 0.5], [1.0, math.nan, 0.0, 0.0], [math.inf, -math.inf, 0.5, 0.5]],
    ids=["nan-pair", "nan-with-unit-sum", "infinities"],
)
@pytest.mark.parametrize("caller", ["schmidt_pair", "bell_diagonal_state", "hashing_simulation", "typical_set"])
def test_non_finite_weights_are_rejected_as_no_probability_vector(caller, weights):
    calls = {
        "schmidt_pair": lambda: qcore.schmidt_pair(weights),
        "bell_diagonal_state": lambda: protocols.bell_diagonal_state(weights),
        "hashing_simulation": lambda: protocols.hashing_simulation(weights, 20, 0.1, trials=1),
        "typical_set": lambda: typicality.typical_set(weights, 5, 0.1),
    }
    with pytest.raises(qcore.StateError, match="must be a probability vector"):
        calls[caller]()


def test_probability_vector_keeps_the_tolerances_of_the_three_checks():
    assert qcore.probability_vector([0.5 + 9e-10, 0.5], "p").tolist() == [0.5 + 9e-10, 0.5]
    assert qcore.probability_vector([1.0 + 1e-12, -1e-12], "p").dtype == np.float64
    for bad in ([0.5 + 2e-9, 0.5], [1.0 + 1e-11, -1e-11], [], [math.nan]):
        with pytest.raises(qcore.StateError, match="^w must be a probability vector$"):
            qcore.probability_vector(bad, "w")
