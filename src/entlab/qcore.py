"""Multipartite state algebra: labeled density operators, composition, reduction,
purification, Schmidt analysis, distance measures, and Haar-random unitaries."""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

HERMITICITY_REJECT = 1e-8
EIGENVALUE_FLOOR = -1e-10
TRACE_TOL = 1e-10
PURITY_TOL = 1e-9
SUPPORT_TOL = 1e-12
UNITARITY_TOL = 1e-8
MAX_TOTAL_DIM = 4096

DEFAULT_SEED = 0x51A7E


class StateError(ValueError):
    """Raised on rejected input: a broken density-operator contract, a bad label or argument."""


class LabelError(StateError):
    """Raised on unknown, duplicated or missing subsystem labels."""


class SupportError(StateError):
    """Raised when an operator has no eigenvalue above SUPPORT_TOL, or a marginal has weight outside a support."""


def xlog2x(x: float) -> float:
    """x * log2(x) with the convention 0 * log2(0) = 0."""
    if x <= 0.0:
        return 0.0
    return x * math.log2(x)


def binary_entropy(x: float) -> float:
    """Shannon entropy of a (x, 1-x) coin, in bits."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -xlog2x(x) - xlog2x(1.0 - x)


def shannon_entropy(p: Sequence[float]) -> float:
    """Shannon entropy of a probability vector in bits, summed over its positive entries: a zero adds exactly 0.0."""
    p = np.asarray(p, dtype=float)
    return -sum(map(xlog2x, p[p > 0].tolist()), 0.0)


def probability_vector(p: Sequence[float], name: str) -> np.ndarray:
    """p as a float array; StateError unless every entry is finite and at least
    -1e-12 and the entries sum to 1 within 1e-9."""
    p = np.asarray(p, dtype=float)
    if not (np.isfinite(p).all() and (p >= -1e-12).all() and abs(p.sum() - 1.0) <= 1e-9):
        raise StateError(f"{name} must be a probability vector")
    return p


def clamped_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix with values in [EIGENVALUE_FLOOR, 0) set to 0."""
    return _clamp(np.linalg.eigvalsh(matrix))


def _clamp(eigs: np.ndarray) -> np.ndarray:
    return np.where((eigs < 0) & (eigs >= EIGENVALUE_FLOOR), 0.0, eigs)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^dagger)/2 of a matrix, or of each matrix of a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def _gram(v: np.ndarray) -> np.ndarray:
    """V^dagger V, made exactly Hermitian: the r x r matrix with the non-zero spectrum of V V^dagger; a stack gives one per V."""
    return _hermitian_part(v.conj().swapaxes(-1, -2) @ v)


def _one_column(factor: np.ndarray | None) -> bool:
    """A stored factor of one column (of each of a stack): a pure state's, whose entropy is 0."""
    return factor is not None and factor.shape[-1] == 1


def _support_mask(eigs: np.ndarray) -> np.ndarray:
    """The mask of the eigenvalues above SUPPORT_TOL, the one eigenvalue cut; SupportError if none is."""
    kept = eigs > SUPPORT_TOL
    if not kept.any():
        raise SupportError(f"the operator has no eigenvalue above {SUPPORT_TOL:g}")
    return kept


def _support_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvectors and their :func:`_support_mask`."""
    eigs, vecs = np.linalg.eigh(matrix)
    return eigs, vecs, _support_mask(eigs)


def _scattered(side: int, rows: np.ndarray | None, block: np.ndarray) -> np.ndarray:
    """The side x side matrix that is ``block`` on ``rows`` x ``rows`` and zero elsewhere; ``block`` if ``rows`` is None."""
    if rows is None:
        return block
    m = np.zeros((side, side), dtype=complex)
    m[np.ix_(rows, rows)] = block
    return m


def _restricted(m: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """M on ``rows`` x ``rows``, a copy; M itself if ``rows`` is None."""
    return m if rows is None else m[np.ix_(rows, rows)]


# The value of a cache slot that has not been filled, where None is a value.
_UNREAD = object()


class LabeledState:
    """A density operator carrying an ordered list of named subsystems.

    The operator is stored in the tensor-product order of ``systems`` in one
    of two forms: a factor V, D x r with rho = V V^dagger (a pure state's
    amplitudes, a kron of factors, or a reduction of one,
    :func:`partial_trace`); or a dense block on its rows, ``(rows, B)``.
    ``rows`` is None when B is the whole D x D matrix, or the rows S of a
    block-supported input with B = rho_SS and every entry outside S x S zero
    (:func:`make_state`).  ``_matrix`` caches the dense, read-only ``matrix``
    on first read: B itself when every row is stored, else built from the
    factor or the block.  The spectrum, :attr:`is_pure` and :attr:`support`
    are computed on first read and cached; a factor's spectrum decomposes its
    r x r Gram matrix V^dagger V at most, and a block's the dense matrix.
    :func:`make_state` fills the support, as it knows it already, and
    :func:`support_block` hands rho_SS to readers that need no more.  States
    are immutable after construction, and only this module reads their
    private slots.

    ``labels``, ``dims`` and the position of each label are built once, at
    construction.  Only :func:`make_state`, :func:`pure_state` and
    :func:`build_state` validate their input.  The operations of this module
    map valid states to valid states, so they wrap their results without a
    new eigendecomposition.
    """

    __slots__ = ("systems", "labels", "dims", "_position", "norm_mode", "_matrix", "_factor", "_block", "_spectrum", "_pure",
                 "_support")

    systems: tuple[tuple[str, int], ...]
    labels: tuple[str, ...]
    dims: tuple[int, ...]
    norm_mode: str

    def __init__(self, systems: tuple[tuple[str, int], ...], norm_mode: str, factor: np.ndarray | None = None,
                 block: tuple[np.ndarray | None, np.ndarray] | None = None, support=_UNREAD):
        init = object.__setattr__
        init(self, "systems", systems)
        labels = tuple(name for name, _ in systems)
        init(self, "labels", labels)
        init(self, "dims", tuple(d for _, d in systems))
        init(self, "_position", {name: i for i, name in enumerate(labels)})
        init(self, "norm_mode", norm_mode)
        init(self, "_matrix", None)
        init(self, "_factor", factor)
        init(self, "_block", block)
        init(self, "_spectrum", None)
        init(self, "_pure", None)
        init(self, "_support", support)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"LabeledState is immutable; cannot set {name!r}")

    @property
    def matrix(self) -> np.ndarray:
        """The dense density matrix (read-only): the block on all rows, else built from the factor or the block on first read."""
        m = self._matrix
        if m is None:
            v = self._factor
            if v is None:
                m = _scattered(self.total_dim, *self._block)
            else:
                m = _hermitian_part(np.outer(v, v.conj()) if _one_column(v) else v @ v.conj().T)
            m.setflags(write=False)
            object.__setattr__(self, "_matrix", m)
        return m

    def spectrum(self) -> np.ndarray:
        """Eigenvalues in ascending order; computed once.

        A factor has the clamped eigenvalues of its Gram matrix V^dagger V,
        padded with zeros; one column psi has (0, ..., 0, ||psi||^2) exactly,
        with ||psi||^2 = :meth:`trace`.  A dense block has the eigenvalues of
        the dense :attr:`matrix`, clamped as by :func:`clamped_eigenvalues`,
        on all rows or on S alike: the k x k block's would differ in their
        last bits.
        """
        eigs = self._spectrum
        if eigs is None:
            v = self._factor
            if v is None:
                eigs = clamped_eigenvalues(self.matrix)
            else:
                eigs = np.zeros(self.total_dim)
                eigs[eigs.size - v.shape[1]:] = self.trace() if _one_column(v) else clamped_eigenvalues(_gram(v))
            eigs.setflags(write=False)
            object.__setattr__(self, "_spectrum", eigs)
        return eigs

    def entropy(self) -> float:
        """The Shannon entropy of :meth:`spectrum` in bits; 0 for one stored column, a pure state."""
        return 0.0 if _one_column(self._factor) else shannon_entropy(self.spectrum())

    @property
    def is_pure(self) -> bool:
        """Decided on first read: the state is normalized and Tr(rho^2) >= 1 - PURITY_TOL,
        with Tr(rho^2) = ||rho||_F^2, or ||V^dagger V||_F^2 for a factor V."""
        if self._pure is None:
            v = self._factor
            m = self.matrix if v is None else _gram(v)
            pure = self.norm_mode == "normalized" and float(np.vdot(m, m).real) >= 1.0 - PURITY_TOL
            object.__setattr__(self, "_pure", pure)
        return self._pure

    @property
    def support(self) -> np.ndarray | None:
        """:func:`support_rows` of the stored :attr:`matrix`: its rows that are not exactly zero, None if every row is."""
        rows = self._support
        if rows is _UNREAD:
            rows = support_rows(self.matrix)
            if rows is not None:
                rows.setflags(write=False)
            object.__setattr__(self, "_support", rows)
        return rows

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def dim_of(self, label: str) -> int:
        return self.dims[self.index_of(label)]

    def index_of(self, label: str) -> int:
        try:
            return self._position[label]
        except KeyError:
            raise LabelError(f"unknown subsystem label {label!r}") from None

    def trace(self) -> float:
        """The real part of the dense matrix's trace, without building the matrix.

        A dense block's is summed as ``np.trace`` sums the matrix, and so is
        one column's; a wider factor V sums the |V_ij|^2, within D * eps *
        Tr rho of that.
        """
        v = self._factor
        if v is not None:
            return float(np.real(np.sum(v * v.conj())))
        # The block's diagonal placed in D zeros is the dense diagonal, which np.trace sums in this order.
        rows, block = self._block
        diagonal = np.zeros(self.total_dim, dtype=complex)
        diagonal[slice(None) if rows is None else rows] = block.diagonal()
        return float(diagonal.sum().real)

    def factor(self) -> np.ndarray:
        """V (D x r) with V V^dagger = rho less its eigenvalues at or below SUPPORT_TOL.

        A stored column is returned as it is.  Any other state returns the
        eigenvectors of its kept eigenvalues, in ascending order, each scaled
        by sqrt(lambda): W U for a stored factor W, with U the kept eigenvectors
        of its Gram matrix W^dagger W.  Nothing is cached: the factor of a
        D = 4096 mixed state is 256 MB.
        """
        v = self._factor
        if _one_column(v):
            return v
        eigs, vecs, keep = _support_eigh(self.matrix if v is None else _gram(v))
        return vecs[:, keep] * np.sqrt(eigs[keep]) if v is None else v @ vecs[:, keep]

    def vector(self) -> np.ndarray:
        """State vector of a pure state, with its largest-magnitude entry real and positive.

        It is the top column of :meth:`factor`: the stored column, or the
        dominant eigenvector scaled by its eigenvalue's root.
        """
        if not self.is_pure:
            raise StateError("vector() requires a pure state")
        v = self.factor()[:, -1]
        k = int(np.argmax(np.abs(v)))
        phase = v[k] / abs(v[k]) if abs(v[k]) > 0 else 1.0
        return v / phase


def distinct_labels(*groups: Iterable[str] | str) -> tuple[tuple[str, ...], ...]:
    """Each group as a tuple, a plain string being one label.

    A label that appears twice, within one group or across two, raises
    LabelError.  Every check that label groups do not clash comes here.
    """
    groups = tuple([(g,) if isinstance(g, str) else tuple(g) for g in groups])
    flat = groups[0] if len(groups) == 1 else sum(groups, ())
    if len(set(flat)) != len(flat):
        seen: set[str] = set()
        repeat = next(x for x in flat if x in seen or seen.add(x))
        raise LabelError(f"duplicate label {repeat!r} in {[list(g) for g in groups]!r}")
    return groups


def _normalize_labels(state: LabeledState, labels: Iterable[str] | str) -> tuple[str, ...]:
    """Validate labels against the state and return them in the state's system order."""
    wanted = {labels} if isinstance(labels, str) else set(labels)
    position = state._position
    if not wanted <= position.keys():
        raise LabelError(f"unknown subsystem labels {sorted(wanted - position.keys())!r}")
    return tuple(sorted(wanted, key=position.__getitem__))


def _checked_systems(systems: Sequence[tuple[str, int]]) -> tuple[tuple[tuple[str, int], ...], int]:
    """Labels and dimensions checked against the state contract; returns (systems, total dimension)."""
    systems = tuple((str(name), int(d)) for name, d in systems)
    distinct_labels([name for name, _ in systems])
    for name, d in systems:
        if d < 1:
            raise StateError(f"subsystem {name!r} has non-positive dimension {d}")
    side = math.prod(d for _, d in systems)
    if side > MAX_TOTAL_DIM:
        raise StateError(f"total dimension {side} exceeds the cap {MAX_TOTAL_DIM}")
    return systems, side


def support_rows(matrix: np.ndarray) -> np.ndarray | None:
    """Indices of the rows of ``matrix`` that are not exactly zero; None if every row is kept.

    A row is a candidate only if its diagonal entry is exactly 0, and a
    candidate is dropped only if its whole row is exactly 0: a matrix that is
    PSD within EIGENVALUE_FLOOR can carry off-diagonal entries of about 1e-5
    in a row whose diagonal entry is 0, and such a row stays.  A matrix with
    no zero diagonal entry costs one O(D) scan of the diagonal.  Entry (i, i)
    lies in row i of any matrix with no more rows than columns, so the rule
    holds for those too: ``make_state`` applies it to the D x 2D int64 view of
    its input, whose rows are zero where every bit is.  ``make_state`` and
    :attr:`LabeledState.support`, which ``entropy.min_entropy_relative``
    reads, apply this one rule.
    """
    if np.all(np.diagonal(matrix)):
        return None
    keep = np.any(matrix, axis=1)
    if keep.all():
        return None
    return np.flatnonzero(keep)


def make_state(
    systems: Sequence[tuple[str, int]],
    matrix: np.ndarray,
    norm_mode: str = "normalized",
) -> LabeledState:
    """Validate and wrap a density matrix as a LabeledState.

    Non-finite entries are rejected.  The matrix is symmetrized to (M + M†)/2;
    a Hermiticity correction larger than 1e-8 is rejected rather than silently
    absorbed.  Positivity is decided by one Cholesky factorization, and the
    eigenvalues are computed only if it fails (see :func:`_check_positive`).
    No spectrum is kept: :meth:`LabeledState.spectrum` computes it from the
    stored matrix when it is first read.

    Every input takes one path, on the rows it stores.  A nonzero diagonal
    entry keeps its row, so an input whose diagonal has no zero stores all
    rows after one O(D) test.  Otherwise the input is read once, as int64
    (:func:`support_rows` of that view): let S be its k rows whose bits are
    not all zero.  +0.0 is the one float whose bits are all zero, so every
    row outside S is +0.0 throughout, both parts.  If the columns outside S
    are +0.0 on the k rows of S as well (:func:`_zero_outside`), then
    M = M_SS (+) 0 after a permutation and the state stores S; any other
    input, a 1e-12 entry in a zero row's column included, stores all rows.
    The finiteness test, the Hermiticity defect and the symmetrization run
    on the stored rows' block B, M itself or M_SS, and the Cholesky
    factorization on the support of B, its rows that are not exactly zero.
    That support is scanned only when some diagonal entry of B has real
    part 0: the diagonal of (M + M†)/2 is Re M_ii.  On S the full passes
    would read only +0.0 outside the block and store +0.0 there, so every
    check, message and stored bit is the same; the D x D
    :attr:`LabeledState.matrix`, B scattered into zeros, is built on first
    read.  The trace sums B's diagonal placed in D zeros
    (:meth:`LabeledState.trace`), the sum ``np.trace`` takes of the dense
    matrix.

    The state carries the support of its stored matrix
    (:attr:`LabeledState.support`): the stored rows less those of B that are
    exactly zero, such as a row of -0.0 or one that cancels.
    """
    systems, side = _checked_systems(systems)
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (side, side):
        raise StateError(f"matrix side {m.shape} does not match product dimension {side}")
    rows = None if np.all(np.diagonal(m)) else support_rows(np.ascontiguousarray(m).view(np.int64))
    if rows is not None and not _zero_outside(m, rows):
        rows = None
    block = _checked_hermitian_part(_restricted(m, rows))
    inner = support_rows(block)
    _check_positive(_restricted(block, inner), lambda: _scattered(side, rows, block))
    support = rows if inner is None else (inner if rows is None else rows[inner])
    state = _trusted(systems, norm_mode, matrix=block, rows=rows, support=support)

    tr = state.trace()
    if norm_mode == "normalized":
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateError(f"trace {tr!r} is not 1 within {TRACE_TOL}")
    elif norm_mode == "subnormalized":
        if not (0.0 < tr <= 1.0 + TRACE_TOL):
            raise StateError(f"trace {tr!r} is not in (0, 1] within {TRACE_TOL}")
    else:
        raise StateError(f"unknown norm_mode {norm_mode!r}")
    return state


def _zero_outside(m: np.ndarray, rows: np.ndarray) -> bool:
    """True when every entry of M in ``rows`` and outside their columns is +0.0 in both parts.

    ``rows`` are the rows of M whose bits are not all zero, so with this test
    every entry outside the block ``rows`` x ``rows`` is +0.0.  The test reads
    M's bits as int64 on the k kept rows only, at k x (D - k) cost: a leak
    into a zero row's column is found there.
    """
    outside = np.ones(m.shape[0], dtype=bool)
    outside[rows] = False
    bits = np.ascontiguousarray(m).view(np.int64)
    return not np.any(bits[rows][:, np.repeat(outside, 2)])


_ADJOINT_TILE = 64


def _checked_hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M†)/2 of a square matrix, after rejecting non-finite entries and a Hermiticity defect above 1e-8.

    M† is built once into a C-ordered buffer that serves the defect and then
    becomes (M + M†)/2 in place, so no copy of it stays alive through the
    Cholesky check.  M† is built in 64 x 64 tiles, each read from a block of
    M that stays in cache: 9.3 ms at D = 1024 and 50 ms at D = 2048, against
    17.2 and 95 ms for one strided transpose, which reads M column by column
    (one core of a Xeon with 4 MB of L2), the same bits either way.  While M
    fits in L2 the strided call is the faster, by about 2 us at side 64 or
    less (one tile) and 140 us at side 256.
    """
    if not np.isfinite(m).all():
        raise StateError("matrix has non-finite entries")
    side = m.shape[0]
    adjoint = np.empty(m.shape, dtype=complex)
    for i in range(0, side, _ADJOINT_TILE):
        for j in range(0, side, _ADJOINT_TILE):
            np.conjugate(m[j:j + _ADJOINT_TILE, i:i + _ADJOINT_TILE].T,
                         out=adjoint[i:i + _ADJOINT_TILE, j:j + _ADJOINT_TILE])
    defect = float(np.max(np.abs(m - adjoint))) if side else 0.0
    if defect > HERMITICITY_REJECT:
        raise StateError(f"matrix is not Hermitian (max defect {defect:.3e} > {HERMITICITY_REJECT})")
    adjoint += m
    adjoint /= 2.0
    return adjoint


def _check_positive(block: np.ndarray, whole: Callable[[], np.ndarray]) -> None:
    """Reject a Hermitian matrix M = ``whole()`` whose smallest eigenvalue is below EIGENVALUE_FLOOR.

    ``block`` is M itself, or M_SS for a set S of rows outside which M is
    zero, rows and columns alike, so that after a permutation M = M_SS (+) 0.
    :func:`make_state` calls it once, with its stored block on that block's
    support, and ``whole`` gives the stored block or scatters it into the
    D x D matrix.  The spectrum of M is that of M_SS together with D - k
    zeros, and the shifted zero block, -EIGENVALUE_FLOOR * I, is positive
    definite, so M - EIGENVALUE_FLOOR * I is positive definite exactly when
    M_SS - EIGENVALUE_FLOOR * I is.  Cholesky decides that on the k x k
    block, up to a backward error of order k * eps * ||M||, far below the
    floor's 1e-10.  The shift goes onto the block's own diagonal, whose saved
    values are written back before anything else reads it, so neither an
    identity nor a copy (128 and 256 MB at D = 4096) is built.  ``whole`` is
    called, and the eigenvalues of all of M computed, only when the
    factorization fails, so every rejection and its message are decided by
    M's smallest eigenvalue.  The factorization reads the transpose, which
    numpy hands to LAPACK without a transposing copy: for Hermitian M_SS it
    is conj(M_SS), whose factor is conj(L) bit for bit, so it fails exactly
    when M_SS's does (about 20% faster at D = 1024, one BLAS thread).
    """
    diagonal = block.diagonal().copy()
    block.flat[:: block.shape[0] + 1] -= EIGENVALUE_FLOOR
    try:
        try:
            np.linalg.cholesky(block.T)
        finally:
            block.flat[:: block.shape[0] + 1] = diagonal
    except np.linalg.LinAlgError:
        smallest = np.linalg.eigvalsh(whole())[0]
        if smallest < EIGENVALUE_FLOOR:
            raise StateError(f"matrix is not positive semidefinite (min eigenvalue {smallest:.3e})") from None


def pure_state(systems: Sequence[tuple[str, int]], amplitudes: np.ndarray) -> LabeledState:
    """Validate an amplitude vector and wrap it, normalized, as a pure LabeledState.

    The vector is the state's one-column factor; an outer product is PSD, so
    no eigendecomposition is needed.
    """
    systems, side = _checked_systems(systems)
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if v.size != side:
        raise StateError(f"amplitude vector of length {v.size} does not match product dimension {side}")
    if not np.isfinite(v).all():
        raise StateError("amplitude vector has non-finite entries")
    norm = float(np.linalg.norm(v))
    if norm <= 0:
        raise StateError("amplitude vector has zero norm")
    return _trusted(systems, "normalized", factor=(v / norm)[:, np.newaxis])


def _trusted(systems: tuple[tuple[str, int], ...], norm_mode: str, matrix: np.ndarray | None = None,
             factor: np.ndarray | None = None, rows: np.ndarray | None = None, support=_UNREAD) -> LabeledState:
    """Wrap a result that is a valid state by construction, without checking it.

    ``matrix`` is the dense block on ``rows``, the whole matrix when ``rows`` is None.
    """
    for part in (matrix, factor, rows, support):
        if isinstance(part, np.ndarray):
            part.setflags(write=False)
    return LabeledState(systems, norm_mode, factor=factor, block=None if matrix is None else (rows, matrix),
                        support=support)


def support_block(state: LabeledState) -> tuple[np.ndarray | None, np.ndarray]:
    """(S, rho_SS): :attr:`LabeledState.support` and the stored operator on S x S; (None, the matrix) if every row is kept.

    A dense block gives itself when it is stored on S, or its rows and
    columns on S, read from the block on its stored rows without building
    the D x D matrix: the same entries, bit for bit.  A factor reads them
    from the dense matrix.
    """
    rows = state.support
    block_rows, block = state._block or (None, state.matrix)
    if rows is None or rows.size == block.shape[0]:
        return rows, block
    inner = rows if block_rows is None else np.searchsorted(block_rows, rows)
    return rows, _restricted(block, inner)


def tensor(a: LabeledState, b: LabeledState) -> LabeledState:
    """Tensor product of two states with disjoint label sets; two stored factors give their kron."""
    systems, _ = _checked_systems(a.systems + b.systems)
    if a.norm_mode != b.norm_mode:
        raise StateError("cannot tensor states with different norm modes")
    if a._factor is not None and b._factor is not None:
        return _trusted(systems, a.norm_mode, factor=np.kron(a._factor, b._factor))
    return _trusted(systems, a.norm_mode, matrix=np.kron(a.matrix, b.matrix))


def tensor_all(states: Sequence[LabeledState]) -> LabeledState:
    out = states[0]
    for s in states[1:]:
        out = tensor(out, s)
    return out


def _partial_trace_dense(matrix: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace a dense operator on systems of ``dims`` down to the systems at positions ``keep``.

    The kept systems stay in their order in ``dims``.  Giving each traced
    system one index for row and column makes einsum return the diagonal
    blocks <j|rho|j> as a view, traced systems first, last system first, so
    no D x D copy is made.  Systems of dimension 1 add nothing and are left
    out, which keeps einsum within its 52 indices.  The blocks are summed one
    traced axis at a time, the outermost term by term into every entry; where
    a step leaves one entry, numpy sums pairwise, as np.trace of the dense
    tensor does, so both give the same bits.
    """
    axes = [i for i, d in enumerate(dims) if d > 1]
    dims, kept = [dims[i] for i in axes], [axes.index(i) for i in sorted(keep) if i in axes]
    n = len(dims)
    traced = [i for i in reversed(range(n)) if i not in kept]
    cols = [i if i in traced else n + i for i in range(n)]
    d_keep = math.prod(dims[i] for i in kept)
    t = np.einsum(matrix.reshape(dims * 2), list(range(n)) + cols, traced + kept + [n + i for i in kept])
    t = t.reshape([dims[i] for i in traced] + [d_keep, d_keep])
    for _ in traced:
        t = np.add.reduce(np.ascontiguousarray(t), axis=0)
    return t


def _factor_layout(tensor: np.ndarray, keep: list[int]) -> np.ndarray:
    """Psi[traced, kept], a view of a factor V read as a tensor (the systems' axes, then V's column axis).

    V's column axis is the outermost traced axis, then come the other traced
    systems last to first and the kept ones, as on the dense path.
    """
    return tensor.transpose([i for i in reversed(range(tensor.ndim)) if i not in keep] + keep)


def _reduce_factor(psi: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(factor, matrix) of rho = Psi^T conj(Psi) for a flattened Psi[traced, kept], or for each of a stack:
    the factor Psi^T while d_traced * r < d_keep, so that its Gram is the smaller side, else rho made Hermitian."""
    psi_t = psi.swapaxes(-1, -2)
    if psi.shape[-2] < psi.shape[-1]:
        return psi_t, None
    return None, _hermitian_part(psi_t @ psi.conj())


def partial_trace(state: LabeledState, keep: Iterable[str] | str) -> LabeledState:
    """Reduced operator on the kept subsystems, trace preserved.

    A factor V (D x r) is read as Psi[traced, kept] (:func:`_factor_layout`)
    and reduced by :func:`_reduce_factor`.
    """
    kept = _normalize_labels(state, keep)
    if len(kept) == len(state.systems):
        return state
    keep_idx = [state.index_of(name) for name in kept]
    new_systems = tuple(state.systems[i] for i in keep_idx)
    v = state._factor
    if v is None:
        return _trusted(new_systems, state.norm_mode, matrix=_partial_trace_dense(state.matrix, state.dims, keep_idx))
    psi = _factor_layout(v.reshape(state.dims + v.shape[1:]), keep_idx).reshape(-1, math.prod(d for _, d in new_systems))
    factor, matrix = _reduce_factor(psi)
    return _trusted(new_systems, state.norm_mode, matrix=matrix, factor=factor)


# Bytes of reductions that one batch of _factor_entropies holds at once.
_BATCH_BYTES = 1 << 20


def _factor_entropies(state: LabeledState, keys: Sequence[tuple[str, ...]]) -> dict[tuple[str, ...], float] | None:
    """The entropy of ``partial_trace(state, T)`` for each label set T of ``keys`` (in the state's order); None for a matrix.

    Each value is the reduction's :meth:`LabeledState.entropy`, bit for bit.
    The sets are grouped by the shape of their Psi (:func:`_factor_layout`),
    each copied into its slot of a stack by one transposing copy (cheaper
    than an index array per set), up to _BATCH_BYTES at a time; a stack is
    reduced by :func:`_reduce_factor` and takes one batched Gram product and
    one stacked ``eigvalsh``.  numpy runs each matrix of a stack through the
    BLAS and LAPACK calls of a lone matrix of its layout, so each row is the
    one a reduction of its own gives.
    """
    v = state._factor
    if v is None:
        return None
    tensor = v.reshape(state.dims + v.shape[1:])
    out = {}
    groups: dict[tuple[int, int], list[tuple[tuple[str, ...], np.ndarray]]] = {}
    for key in keys:
        keep = [state.index_of(name) for name in key]
        if len(keep) == len(state.dims):
            out[key] = state.entropy()
            continue
        d_keep = math.prod(state.dims[i] for i in keep)
        groups.setdefault((v.size // d_keep, d_keep), []).append((key, _factor_layout(tensor, keep)))
    per_batch = max(1, _BATCH_BYTES // v.nbytes)
    for shape, members in groups.items():
        for start in range(0, len(members), per_batch):
            batch = members[start:start + per_batch]
            stack = np.empty((len(batch),) + shape, dtype=v.dtype)
            for slot, (_, psi) in zip(stack, batch):
                slot.reshape(psi.shape)[...] = psi
            factor, matrix = _reduce_factor(stack)
            if _one_column(factor):
                out.update((key, 0.0) for key, _ in batch)
            else:
                eigs = clamped_eigenvalues(matrix if factor is None else _gram(factor))
                out.update((key, shannon_entropy(row)) for (key, _), row in zip(batch, eigs))
    return out


def permute_systems(state: LabeledState, order: Sequence[str]) -> LabeledState:
    """The same state with its subsystems listed (and its operator stored) in ``order``.

    The state's own order returns the state itself, with its cached spectrum,
    purity and support; any other order computes them anew on first read.
    """
    if sorted(order) != sorted(state.labels):
        raise LabelError(f"order {list(order)!r} is not a permutation of {list(state.labels)!r}")
    if tuple(order) == state.labels:
        return state
    perm = [state.index_of(name) for name in order]
    new_systems = tuple(state.systems[p] for p in perm)
    dims = state.dims
    n = len(perm)
    v = state._factor
    if v is not None:
        f = v.reshape(dims + v.shape[1:]).transpose(perm + [n]).reshape(v.shape)
        return _trusted(new_systems, state.norm_mode, factor=f)
    t = state.matrix.reshape(dims + dims).transpose(perm + [p + n for p in perm])
    side = state.total_dim
    return _trusted(new_systems, state.norm_mode, matrix=t.reshape(side, side))


def _act_on_axes(op: np.ndarray, t: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Contract ``op`` (shaped out-dims + in-dims) with the tensor axes ``axes``, in place of them."""
    k = len(axes)
    out = np.tensordot(op, t, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, list(range(k)), list(axes))


def _sandwich(op: np.ndarray, t: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """op t op^dagger for an operator tensor ``t`` (row axes, then column axes).

    ``op``, shaped out-dims + in-dims, acts on the row axes ``axes`` and its
    adjoint on the matching column axes; it may be non-square.
    """
    k = len(axes)
    cols = [t.ndim // 2 + a for a in axes]
    t = _act_on_axes(op, t, axes)
    # rho op^dagger contracts conj(op) by its input axes with the column axes.
    t = np.tensordot(t, op.conj(), axes=(cols, list(range(k, 2 * k))))
    return np.moveaxis(t, list(range(t.ndim - k, t.ndim)), cols)


def apply_unitary(state: LabeledState, labels: Sequence[str], unitary: np.ndarray) -> LabeledState:
    """Conjugate the state by a unitary acting on the listed subsystems (in that order)."""
    (labels,) = distinct_labels(labels)
    idx = [state.index_of(name) for name in labels]
    dims = state.dims
    act_dims = tuple(dims[i] for i in idx)
    d_act = math.prod(act_dims)
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (d_act, d_act):
        raise StateError(f"unitary shape {u.shape} does not match subsystem dimension {d_act}")
    if not np.isfinite(u).all():
        raise StateError("unitary has non-finite entries")
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(d_act))))
    if defect > UNITARITY_TOL:
        raise StateError(f"operator is not unitary (max defect of U^dagger U {defect:.3e} > {UNITARITY_TOL})")
    u_t = u.reshape(act_dims + act_dims)
    v = state._factor
    if v is not None:
        f = _act_on_axes(u_t, v.reshape(dims + v.shape[1:]), idx)
        return _trusted(state.systems, state.norm_mode, factor=f.reshape(v.shape))
    m = state.matrix
    t = _sandwich(u_t, m.reshape(dims + dims), idx).reshape(m.shape)
    return _trusted(state.systems, state.norm_mode, matrix=_hermitian_part(t))


def purify(state: LabeledState, ref_label: str = "R") -> LabeledState:
    """Rank-padded purification: pure state on systems + ref whose reduction recovers the input."""
    if state.norm_mode != "normalized":
        raise StateError("purification requires a normalized state")
    distinct_labels(state.labels, ref_label)
    amplitudes = state.factor()  # entry (i, k) is the amplitude of |i>|k>
    return pure_state(list(state.systems) + [(ref_label, amplitudes.shape[1])], amplitudes)


@dataclass(frozen=True)
class SchmidtData:
    """Non-increasing Schmidt coefficients with orthonormal left/right vectors."""

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    @property
    def rank(self) -> int:
        return int(np.sum(self.coefficients**2 > SUPPORT_TOL))  # squared: the marginals' eigenvalues


def schmidt(state: LabeledState, left: Iterable[str] | str) -> SchmidtData:
    """Schmidt decomposition of a pure state across the (left | rest) bipartition."""
    if not state.is_pure:
        raise StateError("Schmidt decomposition requires a pure state")
    left_labels = _normalize_labels(state, left)
    right_labels = tuple(name for name in state.labels if name not in left_labels)
    if not left_labels or not right_labels:
        raise LabelError("Schmidt split needs non-empty sides")
    s = permute_systems(state, list(left_labels) + list(right_labels))
    d_left = int(np.prod([state.dim_of(name) for name in left_labels]))
    d_right = s.total_dim // d_left
    psi = s.vector().reshape(d_left, d_right)
    u, sv, vh = np.linalg.svd(psi)
    r = min(d_left, d_right)
    return SchmidtData(coefficients=sv[:r], left_vectors=u[:, :r], right_vectors=vh[:r].conj().T)


# ---------------------------------------------------------------------------
# Distance measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistanceReport:
    fidelity: float
    generalized_fidelity: float
    trace_distance: float
    purified_distance: float


def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(matrix)
    eigs = np.clip(eigs, 0.0, None)
    return (vecs * np.sqrt(eigs)) @ vecs.conj().T


def trace_norm(matrix: np.ndarray) -> float | np.ndarray:
    """Sum of singular values; eigvalsh absolute sum for Hermitian input.

    A stack (..., n, n) gives one norm per matrix; a single matrix gives a float.
    Hermiticity is decided per matrix, entrywise, by an absolute tolerance
    alone, as ``np.allclose(m, m^H, rtol=0, atol=1e-12)`` decides it (equal
    infinities count as close): a relative one would let a defect that scales
    with the entries through.
    """
    adjoint = np.swapaxes(matrix, -1, -2).conj()
    hermitian = ((np.abs(matrix - adjoint) <= 1e-12) | (matrix == adjoint)).all(axis=(-2, -1))
    if hermitian.all():
        norms = np.sum(np.abs(np.linalg.eigvalsh(matrix)), axis=-1)
    else:
        norms = np.empty(hermitian.shape)
        norms[hermitian] = np.sum(np.abs(np.linalg.eigvalsh(matrix[hermitian])), axis=-1)
        norms[~hermitian] = np.sum(np.linalg.svd(matrix[~hermitian], compute_uv=False), axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def fidelity_ops(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr sqrt(sqrt(rho) sigma sqrt(rho)) for PSD operators."""
    root = psd_sqrt(rho)
    inner = root @ sigma @ root
    eigs = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sum(np.sqrt(eigs)))


def distances(a: LabeledState, b: LabeledState) -> DistanceReport:
    """Fidelity, generalized fidelity, trace distance, and purified distance."""
    if a.systems != b.systems:
        raise StateError("distance measures need identical label sets and dimensions")
    f = fidelity_ops(a.matrix, b.matrix)
    gap_a = max(0.0, 1.0 - a.trace())
    gap_b = max(0.0, 1.0 - b.trace())
    f_bar = f + math.sqrt(gap_a * gap_b)
    d = 0.5 * trace_norm(a.matrix - b.matrix)
    p = math.sqrt(max(0.0, 1.0 - min(f_bar, 1.0) ** 2))
    return DistanceReport(
        fidelity=f,
        generalized_fidelity=f_bar,
        trace_distance=d,
        purified_distance=p,
    )


# ---------------------------------------------------------------------------
# Haar-random unitaries and RNG streams
# ---------------------------------------------------------------------------


# numpy's SeedSequence hash (``numpy/random/bit_generator.pyx``): a pool of
# four uint32 words, filled and mixed by ``hashmix`` at the running constants
# INIT_A * MULT_A^i, then read out by the same hash at INIT_B * MULT_B^i.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


@functools.cache
def _hash_constants(start: int, mult: int, count: int) -> tuple[int, ...]:
    """The running hash constants start * mult^i mod 2^32 for i < ``count``, built once per argument set."""
    out = [start]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return tuple(out)


def _hashmix(value, const, next_const):
    """numpy's ``hashmix`` of ``value`` at the running constant ``const``, whose successor is ``next_const``.

    The arguments are Python ints below 2^32 or uint32 arrays, which wrap
    mod 2^32 as the mask does; so are those of :func:`_mix`.
    """
    value = (value ^ const) * next_const & _MASK32
    return value ^ value >> _XSHIFT


def _mix(x, y):
    """numpy's ``mix`` of a pool word x with a hashed word y."""
    result = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


# The constants at which generate_state reads out 8 uint32 words.
_OUTPUT_CONSTANTS = np.array(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1), dtype=np.uint32)
_OUTPUT_CONSTANTS.setflags(write=False)


class _SpawnedSeed(np.random.bit_generator.ISeedSequence):
    """Child ``spawn_key`` of ``SeedSequence(entropy)``, holding the four uint64 words PCG64 seeds from."""

    def __init__(self, entropy: int, spawn_key: tuple[int, ...], words: np.ndarray):
        self.entropy = entropy
        self.spawn_key = spawn_key
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
            raise ValueError("a spawned stream holds only the 4 uint64 words that seed its PCG64")
        return self._words


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Deterministic per-task RNG streams derived from one root seed.

    Stream k is ``np.random.default_rng(np.random.SeedSequence(seed).spawn(count)[k])``,
    bit for bit, without building a SeedSequence per stream.  A child's
    entropy is the seed's little-endian uint32 words, zero-padded to the
    pool's 4, then its spawn key k.  Every word but k is the same for all
    children, so their pool is mixed once in Python ints, and k then enters
    as a column of uint32s: one vectorized pass mixes it into each child's
    pool and reads out its ``generate_state(4, uint64)``, whose words are
    lo | hi << 32 of consecutive uint32s.  Each PCG64 is seeded from its
    words through a :class:`_SpawnedSeed`.
    """
    n = operator.index(seed)
    if n < 0:
        raise ValueError("expected non-negative integer")
    entropy = [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]
    entropy += [0] * (_POOL_SIZE - len(entropy))
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (len(entropy) + 1) + 1)
    steps = iter(zip(consts, consts[1:]))
    pool = [_hashmix(word, *next(steps)) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(steps)))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, *next(steps)))
    # The spawn key, one row per child, is mixed into each pool word at the last four constants.
    keys = np.arange(count, dtype=np.uint32)[:, np.newaxis]
    last = np.array(list(steps), dtype=np.uint32)
    pool = _mix(np.array(pool, dtype=np.uint32), _hashmix(keys, last[:, 0], last[:, 1]))
    # generate_state reads the pool cyclically into 8 uint32s.
    halves = _hashmix(np.concatenate((pool, pool), axis=1), _OUTPUT_CONSTANTS[:-1], _OUTPUT_CONSTANTS[1:]).astype(np.uint64)
    words = halves[:, 0::2] | halves[:, 1::2] << 32
    return [np.random.Generator(np.random.PCG64(_SpawnedSeed(seed, (k,), w))) for k, w in enumerate(words)]


def haar_unitaries(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``count`` Haar unitaries from one stream: all real parts, then all imaginary parts."""
    _check_unitary_dim(dim)
    z = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    return _haar_from_ginibre(z)


def haar_unitaries_per_stream(dim: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One Haar unitary from each stream of ``rngs``, stacked in their order.

    Each stream draws its real block, then its imaginary block, as
    ``haar_unitaries(dim, 1, rng)`` does, and the stack goes through one QR
    call.  numpy's stacked QR factors each matrix with the LAPACK calls of a
    single one, so every unitary is that stream's
    ``haar_unitaries(dim, 1, rng)[0]``, bit for bit.
    """
    _check_unitary_dim(dim)
    normals = np.empty((len(rngs), 2, dim, dim))
    for rng, out in zip(rngs, normals):
        rng.standard_normal(out=out)
    return _haar_from_ginibre(normals[:, 0] + 1j * normals[:, 1])


def _check_unitary_dim(dim: int) -> None:
    if dim < 1:
        raise StateError("unitary dimension must be >= 1")


def _haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack z = X + iY, X and Y of standard normal entries:
    z scaled in place by 1/sqrt(2), then QR, phases fixed by diag(r_ii/|r_ii|)
    (Mezzadri, arXiv:math-ph/0609050)."""
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phases = diag / np.abs(diag)
    return q * phases[:, np.newaxis, :]


# ---------------------------------------------------------------------------
# Named constructors
# ---------------------------------------------------------------------------


_BELL_AMPLITUDES = {
    "phi_plus": np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
    "phi_minus": np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
    "psi_plus": np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
    "psi_minus": np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2),
}


def bell(kind: str = "phi_plus", labels: Sequence[str] = ("A", "B")) -> LabeledState:
    if kind not in _BELL_AMPLITUDES:
        raise StateError(f"unknown Bell state {kind!r}; pick one of {sorted(_BELL_AMPLITUDES)}")
    return pure_state([(labels[0], 2), (labels[1], 2)], _BELL_AMPLITUDES[kind])


def ghz(n: int = 3, labels: Sequence[str] | None = None) -> LabeledState:
    if labels is None:
        labels = [chr(ord("A") + i) for i in range(n)]
    amplitudes = np.zeros(2**n, dtype=complex)
    amplitudes[0] = amplitudes[-1] = 1 / math.sqrt(2)
    return pure_state([(name, 2) for name in labels], amplitudes)


def werner(f: float, labels: Sequence[str] = ("A", "B")) -> LabeledState:
    """Mixture of the singlet (weight F) with the three other Bell states."""
    if not 0.0 <= f <= 1.0:
        raise StateError(f"Werner parameter {f!r} outside [0, 1]")
    m = f * _bell_projector("psi_minus")
    for kind in ("phi_plus", "phi_minus", "psi_plus"):
        m = m + (1.0 - f) / 3.0 * _bell_projector(kind)
    return make_state([(labels[0], 2), (labels[1], 2)], m)


def _bell_projector(kind: str) -> np.ndarray:
    v = _BELL_AMPLITUDES[kind]
    return np.outer(v, v.conj())


def max_entangled(d: int, labels: Sequence[str] = ("A", "B")) -> LabeledState:
    amplitudes = np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)
    return pure_state([(labels[0], d), (labels[1], d)], amplitudes)


def max_mixed(d: int, label: str = "A") -> LabeledState:
    return make_state([(label, d)], np.eye(d, dtype=complex) / d)


def harmonic_number(d: int) -> float:
    return float(sum(Fraction(1, j) for j in range(1, d + 1)))


def embezzle(d: int, labels: Sequence[str] = ("A", "B")) -> LabeledState:
    """The d-level embezzling pair with amplitudes 1/sqrt(j H_d) on |jj>."""
    h = harmonic_number(d)
    lam = np.array([1.0 / (j * h) for j in range(1, d + 1)])
    return schmidt_pair(lam, labels)


def schmidt_pair(lambdas: Sequence[float], labels: Sequence[str] = ("A", "B")) -> LabeledState:
    """Bipartite pure state sum_i sqrt(lambda_i)|ii> for a probability vector lambda."""
    lam = probability_vector(lambdas, "Schmidt weights")
    d = lam.size
    amplitudes = np.zeros(d * d, dtype=complex)
    for i in range(d):
        amplitudes[i * d + i] = math.sqrt(max(lam[i], 0.0))
    return pure_state([(labels[0], d), (labels[1], d)], amplitudes)


def example_ch5() -> LabeledState:
    """Five-party pure state: a noiseless A-C1 pair next to a leaky B-C2-R branch.

    Systems (A, C1, B, C2, R), all qubits.  C1 and C2 belong to the helper.
    """
    psi_ac1 = pure_state(
        [("A", 2), ("C1", 2)],
        np.array([0.5, 0, 0, math.sqrt(0.75)], dtype=complex),
    )
    amp = np.zeros(8, dtype=complex)
    amp[0b000] = 1 / math.sqrt(2)
    amp[0b110] = 0.5
    amp[0b111] = 0.5
    psi_bc2r = pure_state([("B", 2), ("C2", 2), ("R", 2)], amp)
    return tensor(psi_ac1, psi_bc2r)


CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    dtype=complex,
)


def example_ch5_cnot() -> LabeledState:
    """The example_ch5 state after a CNOT (control C1, target C2) at the helper."""
    return apply_unitary(example_ch5(), ["C1", "C2"], CNOT)


def example_4_1(d: int, theta: Sequence[float] | str) -> LabeledState:
    """Four-party state: two d-level maximally entangled pairs plus a theta pair.

    Systems C1 (dim d), C2 (dim d*d1), C3 (dim d*d1), R (dim d), with
    C2 = C2a x C2b and C3 = C3a x C3b, where C1-C2a and C3a-R are maximally
    entangled and C2b-C3b carries the theta pair.  ``theta`` is either a
    Schmidt-weight vector or the string ``"embezzle:<d1>"``.
    """
    if isinstance(theta, str):
        kind, _, arg = theta.partition(":")
        if kind != "embezzle":
            raise StateError(f"unknown theta spec {theta!r}")
        th = embezzle(int(arg), ("C2b", "C3b"))
    else:
        th = schmidt_pair(theta, ("C2b", "C3b"))
    parts = tensor_all(
        [
            max_entangled(d, ("C1", "C2a")),
            max_entangled(d, ("C3a", "R")),
            th,
        ]
    )
    return merge_systems(
        permute_systems(parts, ["C1", "C2a", "C2b", "C3a", "C3b", "R"]),
        {"C2": ["C2a", "C2b"], "C3": ["C3a", "C3b"]},
    )


def merge_systems(state: LabeledState, groups: dict[str, Sequence[str]]) -> LabeledState:
    """Fuse adjacent subsystems into single labels (dimension = product).

    Each system belongs to at most one group; systems outside every group keep
    their labels, and a group may not take the label of such a system.
    """
    grouped: dict[str, str] = {}
    for new, members in groups.items():
        if not members:
            raise LabelError(f"group {new!r} has no members")
        idx = [state.index_of(m) for m in members]
        if idx != list(range(idx[0], idx[0] + len(idx))):
            raise LabelError(f"systems {list(members)!r} are not adjacent; permute first")
        for m in members:
            if m in grouped:
                raise LabelError(f"system {m!r} is listed in groups {grouped[m]!r} and {new!r}")
            grouped[m] = new
    new_systems: list[tuple[str, int]] = []
    for name, dim in state.systems:
        target = grouped.get(name)
        if target is None:
            new_systems.append((name, dim))
        elif name == groups[target][0]:
            new_systems.append((target, dim))
        else:
            new_systems[-1] = (target, new_systems[-1][1] * dim)
    distinct_labels([name for name, _ in new_systems])
    merged = LabeledState(tuple(new_systems), state.norm_mode, factor=state._factor, block=state._block)
    # The stored operator is unchanged, so the built matrix and the cached spectrum, purity and support carry over.
    for cache in ("_matrix", "_spectrum", "_pure", "_support"):
        object.__setattr__(merged, cache, getattr(state, cache))
    return merged


CONSTRUCTORS = {
    "bell_phi_plus": lambda params: bell("phi_plus", **params),
    "bell_phi_minus": lambda params: bell("phi_minus", **params),
    "bell_psi_plus": lambda params: bell("psi_plus", **params),
    "bell_psi_minus": lambda params: bell("psi_minus", **params),
    "ghz": lambda params: ghz(**params),
    "werner": lambda params: werner(**params),
    "max_entangled": lambda params: max_entangled(**params),
    "max_mixed": lambda params: max_mixed(**params),
    "embezzle": lambda params: embezzle(**params),
    "schmidt_pair": lambda params: schmidt_pair(**params),
    "example_ch5": lambda params: example_ch5(**params),
    "example_ch5_cnot": lambda params: example_ch5_cnot(**params),
    "example_4_1": lambda params: example_4_1(**params),
}


def _spec_dimension(value) -> int:
    """A StateSpec dimension: an integer, or a float with an integral value; booleans are rejected."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"dimension {value!r} is not an integer")
    return int(value)


def build_state(spec: dict) -> LabeledState:
    """Build a LabeledState from a StateSpec mapping (see the CLI file schema)."""
    body = spec.get("state", spec)
    kind = body.get("kind", "constructor")
    if kind == "constructor":
        name = body.get("name")
        if name not in CONSTRUCTORS:
            raise StateError(f"unknown constructor {name!r}; known: {sorted(CONSTRUCTORS)}")
        return CONSTRUCTORS[name](dict(body.get("params") or {}))
    systems = [(entry["label"], _spec_dimension(entry["dim"])) for entry in spec["systems"]]
    if kind == "pure":
        return pure_state(systems, _complex_entries(body["amplitudes"], 1))
    if kind == "mixed":
        return make_state(systems, _complex_entries(body["matrix"], 2), body.get("norm_mode", "normalized"))
    raise StateError(f"unknown state kind {kind!r}")


def _complex_entries(entries, depth: int) -> np.ndarray:
    """The ``[re, im]`` pairs of a state file, nested ``depth`` lists deep, as a complex array.

    Rows of one length whose entries are all pairs of numbers (booleans and
    ints included) are flattened into one list of numbers, which takes one
    numpy conversion; its float64 values, read as complex128, hold the bits
    of ``complex(re, im)`` entry by entry.  numpy's nested-list conversion
    would take longer than ``complex`` per entry.  Anything else (a string,
    a ragged row, a pair of another length, an int beyond float64) goes
    through ``complex(re, im)`` one entry at a time, which raises the error
    a malformed file reports.
    """
    rows = entries if depth == 2 else [entries]
    try:
        pairs = list(itertools.chain.from_iterable(rows))
        values = None
        if len(set(map(len, rows))) == 1 and set(map(len, pairs)) == {2}:
            values = np.array(list(itertools.chain.from_iterable(pairs)))
    except (TypeError, ValueError):  # a row or an entry that is no list, or a number that is one
        values = None
    if values is not None and values.dtype.kind in "bif" and values.shape == (2 * len(pairs),):
        numbers = values.astype(float, copy=False).view(complex)
        return numbers if depth == 1 else numbers.reshape(len(rows), -1)
    if depth == 1:
        return np.array([complex(re, im) for re, im in entries])
    return np.array([[complex(re, im) for re, im in row] for row in entries])


def random_density(dims: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix from a normalized square Ginibre factor."""
    side = int(np.prod(dims))
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def random_state(systems: Sequence[tuple[str, int]], rng: np.random.Generator) -> LabeledState:
    return make_state(systems, random_density([d for _, d in systems], rng))


def random_pure(systems: Sequence[tuple[str, int]], rng: np.random.Generator) -> LabeledState:
    side = int(np.prod([d for _, d in systems]))
    v = rng.standard_normal(side) + 1j * rng.standard_normal(side)
    return pure_state(systems, v)
