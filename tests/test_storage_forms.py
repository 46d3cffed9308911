"""Every operation on every storage form of a state, against the same rho stored dense.

A ``LabeledState`` stores its operator as a factor V (rho = V V^dagger) or as
a dense block on its rows, ``(rows, B)``: all rows, or the rows S of a
block-supported input.  Each case below is one rho in one of these forms,
named ``<state>.<kind>``.  Each operation runs on the case and on the
reference, the same rho wrapped as a dense matrix on all rows, and the two
results are compared: bit for bit where qcore claims it (``BITWISE`` lists
each claim and where it is made), and elsewhere within D * eps * Tr rho,
entry by entry.  Row indices, the support and S, are compared exactly.
After every operation, each cached slot of the case and of the result
equals what a fresh state on the same stored operator computes.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from entlab import qcore

EPS = np.finfo(float).eps

# Storage kinds: a one-column factor, a wider factor, a dense block on all
# rows, and a dense block on the rows S of a block-supported input.
COLUMN, FACTOR, DENSE, BLOCK = "column", "factor", "dense", "block"
ALL = frozenset({COLUMN, FACTOR, DENSE, BLOCK})
DENSE_FORMS = frozenset({DENSE, BLOCK})

# The kinds whose result claims the reference's bits, for each operation.
BITWISE = {
    # make_state: on S every stored bit is the full passes'; a factor builds (V V^dagger) made Hermitian.
    "matrix": ALL,
    # LabeledState.trace: the diagonal in D zeros, summed as np.trace sums it; one column sums |psi_i|^2 alike.
    "trace": DENSE_FORMS | {COLUMN},
    # LabeledState.spectrum: a dense block has the clamped eigenvalues of the dense matrix.
    "spectrum": DENSE_FORMS,
    # support_block: the stored operator on S x S, read from the block without building the matrix.
    "support_block": ALL,
    # LabeledState.factor: a dense block decomposes the dense matrix.
    "factor": DENSE_FORMS,
    # partial_trace: a dense reduction sums the diagonal blocks in the np.trace reference's order.
    "partial_trace": DENSE_FORMS,
    # permute_systems: a dense block transposes the dense matrix.
    "permute_systems": DENSE_FORMS,
    # merge_systems: the stored operator is unchanged.
    "merge_systems": ALL,
    # tensor: a dense partner or a dense block gives the kron of the dense matrices.
    "tensor": DENSE_FORMS,
    # apply_unitary: a dense block is sandwiched as the dense matrix.
    "apply_unitary": DENSE_FORMS,
}


PURE_SYSTEMS = [("A", 2), ("B", 3), ("C", 2)]
JOINT_SYSTEMS = [("C1", 4), ("R", 4)]


def _pure(rng):
    return qcore.random_pure(PURE_SYSTEMS, rng)


def _rank2(rng):
    # d_traced * r = 2 < d_keep = 6, so the reduction keeps Psi^T, two columns.
    return qcore.partial_trace(_pure(rng), ["A", "B"])


def _unit_dim(rng):
    # A system of dimension 1 between two others; the reduction keeps a two-column factor.
    return qcore.partial_trace(qcore.random_pure([("A", 2), ("U", 1), ("C", 3), ("D", 2)], rng), ["A", "U", "C"])


def _joint_input(rng):
    """A density on C1 (x) R, 4 x 4, supported on eight rows, one of -0.0 and one that cancels.

    Row 4 is -0.0 throughout its kept columns, so its bits are not all zero;
    row 10 holds 1e-9i on its diagonal and an anti-Hermitian pair, which
    (M + M^dagger)/2 zeroes.  Both rows are stored in S and left out of the
    support.  The trace of 16 entries, summed pairwise, differs in its last
    bit from the sum of the six nonzero ones.
    """
    kept = [0, 3, 6, 9, 13, 15]
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    block = g @ g.conj().T
    m = np.zeros((16, 16), dtype=complex)
    m[np.ix_(kept, kept)] = block / np.real(np.trace(block))
    m[4, kept + [4, 10]] = complex(-0.0, -0.0)
    m[10, 10] = 1e-9j
    m[10, 0], m[0, 10] = 2e-9, -2e-9
    return m


def _stored_factor(state):
    """The state and its rho, (V V^dagger) made Hermitian."""
    v = state._factor
    return state, qcore._hermitian_part(np.outer(v, v.conj()) if v.shape[1] == 1 else v @ v.conj().T)


def _validated(systems, m):
    """make_state of ``m`` and its rho, the full passes' (M + M^dagger)/2."""
    return qcore.make_state(systems, m), qcore._hermitian_part(m)


# Each case is named <state>.<kind> and builds (state, rho) from a generator
# seeded by the state's name, so the forms of one state hold one rho.
CASES = {
    "pure.column": lambda rng: _stored_factor(_pure(rng)),
    "pure.dense": lambda rng: _validated(PURE_SYSTEMS, _pure(rng).matrix),
    "rank2.factor": lambda rng: _stored_factor(_rank2(rng)),
    "rank2.dense": lambda rng: _validated(PURE_SYSTEMS[:2], _rank2(rng).matrix),
    "full_rank.dense": lambda rng: _validated(PURE_SYSTEMS, qcore.random_density([12], rng)),
    "joint.block": lambda rng: _validated(JOINT_SYSTEMS, _joint_input(rng)),
    "unit_dim.factor": lambda rng: _stored_factor(_unit_dim(rng)),
    "unit_dim.dense": lambda rng: _validated([("A", 2), ("U", 1), ("C", 3)], _unit_dim(rng).matrix),
}


def _case(name):
    """The state of case ``name``, its kind, and the same rho wrapped dense on all rows."""
    state_name, kind = name.split(".")
    state, rho = CASES[name](np.random.default_rng(list(state_name.encode())))
    assert _kind(state) == kind
    return state, kind, qcore._trusted(state.systems, state.norm_mode, matrix=rho)


def _kind(state):
    if state._factor is not None:
        return COLUMN if state._factor.shape[1] == 1 else FACTOR
    return DENSE if state._block[0] is None else BLOCK


def _tolerance(reference):
    return reference.total_dim * EPS * reference.trace()


def _same(got, want, exact, tol):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if exact:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want), initial=0.0) <= tol


def _fresh(state):
    """A new state on the same stored operator, with no cache filled."""
    return qcore.LabeledState(state.systems, state.norm_mode, factor=state._factor, block=state._block)


def _assert_caches_are_recomputations(state):
    fresh = _fresh(state)
    if state._matrix is not None:
        assert not state._matrix.flags.writeable
        assert state._matrix.tobytes() == fresh.matrix.tobytes()
    if state._spectrum is not None:
        assert state._spectrum.tobytes() == fresh.spectrum().tobytes()
    if state._pure is not None:
        assert state._pure == fresh.is_pure
    if state._support is not qcore._UNREAD:
        want = qcore.support_rows(fresh.matrix)
        assert (state._support is None) if want is None else state._support.tolist() == want.tolist()


def _assert_same_state(got, want, exact, tol):
    """``got`` and ``want`` are one state: systems, norm mode and matrix (bit for bit when ``exact``)."""
    assert got.systems == want.systems and got.norm_mode == want.norm_mode
    _same(got.matrix, want.matrix, exact, tol)
    _assert_caches_are_recomputations(got)


def _label_sets(state):
    return [list(keep) for k in range(len(state.labels) + 1) for keep in itertools.combinations(state.labels, k)]


NAMES = sorted(CASES)


@pytest.mark.parametrize("name", NAMES)
def test_reads_without_the_dense_matrix(name):
    # trace, support and support_block of a stored block read the block alone;
    # a factor's trace reads the factor.
    state, kind, reference = _case(name)
    tol = _tolerance(reference)
    _same(state.trace(), reference.trace(), kind in BITWISE["trace"], tol)
    assert reference.trace() == float(np.real(np.trace(reference.matrix)))
    assert state._matrix is None
    support, want = state.support, reference.support
    assert (support is None) if want is None else support.tolist() == want.tolist()
    rows, block = qcore.support_block(state)
    want_rows, want_block = qcore.support_block(reference)
    assert (rows is None) if want_rows is None else rows.tolist() == want_rows.tolist()
    _same(block, want_block, kind in BITWISE["support_block"], tol)
    if kind == BLOCK:
        assert state._matrix is None
        # The joint's trace tells a sum over D entries from one over the block's own diagonal.
        assert state.trace() != float(np.real(np.sum(state._block[1].diagonal())))
    _assert_caches_are_recomputations(state)


@pytest.mark.parametrize("name", NAMES)
def test_matrix_spectrum_purity_and_factor(name):
    state, kind, reference = _case(name)
    tol = _tolerance(reference)
    matrix = state.matrix
    _same(matrix, reference.matrix, kind in BITWISE["matrix"], tol)
    assert not matrix.flags.writeable and state.matrix is matrix
    spectrum = state.spectrum()
    _same(spectrum, reference.spectrum(), kind in BITWISE["spectrum"], tol)
    if kind == COLUMN:
        assert spectrum.tolist() == [0.0] * (state.total_dim - 1) + [state.trace()]
    assert state.is_pure == reference.is_pure
    factor, want = state.factor(), reference.factor()
    assert factor.shape == want.shape
    if kind == COLUMN:
        assert factor is state._factor
    if kind in BITWISE["factor"]:
        _same(factor, want, True, tol)
    else:
        _same(factor @ factor.conj().T, want @ want.conj().T, False, tol)
    _assert_caches_are_recomputations(state)


@pytest.mark.parametrize("name", NAMES)
def test_partial_trace_to_every_label_set(name):
    state, kind, reference = _case(name)
    tol = _tolerance(reference)
    for keep in _label_sets(state):
        _assert_same_state(qcore.partial_trace(state, keep), qcore.partial_trace(reference, keep),
                           kind in BITWISE["partial_trace"], tol)
    assert qcore.partial_trace(state, state.labels) is state
    _assert_caches_are_recomputations(state)


@pytest.mark.parametrize("name", NAMES)
def test_permute_and_merge_systems(name):
    state, kind, reference = _case(name)
    tol = _tolerance(reference)
    state.is_pure, state.spectrum(), state.support  # fill the caches that merge_systems carries
    for order in itertools.permutations(state.labels):
        permuted = qcore.permute_systems(state, order)
        if order == state.labels:
            assert permuted is state
        _assert_same_state(permuted, qcore.permute_systems(reference, order), kind in BITWISE["permute_systems"], tol)
    labels = state.labels
    for groups in [{"M": labels[i:i + 2]} for i in range(len(labels) - 1)] + [{"M": labels}]:
        merged = qcore.merge_systems(state, groups)
        _assert_same_state(merged, qcore.merge_systems(reference, groups), kind in BITWISE["merge_systems"], tol)
        assert merged._spectrum is state._spectrum and merged._pure is state._pure
        assert merged._support is state._support and merged._matrix is state._matrix
    _assert_caches_are_recomputations(state)


@pytest.mark.parametrize("partner", ["dense", "column"])
@pytest.mark.parametrize("name", NAMES)
def test_tensor(name, partner):
    state, kind, reference = _case(name)
    rng = np.random.default_rng(7)
    other = qcore.random_state([("Z", 2)], rng) if partner == "dense" else qcore.random_pure([("Z", 2)], rng)
    out = qcore.tensor(state, other)
    want = qcore.tensor(reference, other)
    exact = kind in BITWISE["tensor"] or partner == "dense"
    _assert_same_state(out, want, exact, _tolerance(want))
    _assert_same_state(qcore.tensor(other, state), qcore.tensor(other, reference), exact, _tolerance(want))


@pytest.mark.parametrize("name", NAMES)
def test_apply_unitary(name):
    state, kind, reference = _case(name)
    tol = _tolerance(reference)
    rng = np.random.default_rng(11)
    for labels in [[label] for label in state.labels] + [list(state.labels[::-1])]:
        d = int(np.prod([state.dim_of(label) for label in labels]))
        u = qcore.haar_unitaries(d, 1, rng)[0]
        _assert_same_state(qcore.apply_unitary(state, labels, u), qcore.apply_unitary(reference, labels, u),
                           kind in BITWISE["apply_unitary"], tol)
    _assert_caches_are_recomputations(state)


def test_every_kind_has_a_case_and_every_claim_names_known_kinds():
    assert {name.split(".")[1] for name in CASES} == ALL
    assert all(kinds <= ALL for kinds in BITWISE.values())
