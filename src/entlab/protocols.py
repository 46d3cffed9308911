"""Executable small-scale protocols: entanglement swapping with Procrustean
conversion, the hashing method on Bell-pair strings, and Schmidt projection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import entropy, qcore, typicality
from .qcore import LabeledState, StateError

BELL_ORDER = ("phi_plus", "psi_plus", "phi_minus", "psi_minus")  # bit codes 00 01 10 11
DECOY_BATCHES = 30  # rejection-sampling batches per decoy panel before giving up


@dataclass(frozen=True)
class Outcome:
    label: str
    probability: float | Fraction
    register: dict | None = None


@dataclass(frozen=True)
class ProtocolTrace:
    outcomes: tuple[Outcome, ...]
    aggregate: dict


# ---------------------------------------------------------------------------
# Entanglement swapping
# ---------------------------------------------------------------------------


def entanglement_swap(lambda1, lambda2) -> ProtocolTrace:
    """Swap two identical sqrt(l1)|00> + sqrt(l2)|11> links through a middle node.

    The middle node's Bell measurement yields outcomes 01/11 (already maximally
    entangled after a Pauli fix) with probability l1*l2 each, and 00/10 with
    probability (l1^2 + l2^2)/2 each, after which a two-outcome filter converts
    to a singlet with probability 2 l2^2/(l1^2 + l2^2).  The total singlet
    conversion probability is exactly 2 l2.  Rational inputs stay exact.
    """
    exact = isinstance(lambda1, (int, Fraction)) and isinstance(lambda2, (int, Fraction))
    l1 = Fraction(lambda1) if exact else float(lambda1)
    l2 = Fraction(lambda2) if exact else float(lambda2)
    if not (exact or math.isfinite(l1) and math.isfinite(l2)):
        raise StateError(f"lambda1 and lambda2 must be finite, got {l1!r} and {l2!r}")
    sum_defect = abs(float(l1 + l2) - 1.0)
    if l1 < l2 or l2 < 0 or sum_defect > (0 if exact else 1e-12):
        raise StateError("need lambda1 >= lambda2 >= 0 with lambda1 + lambda2 = 1")

    p_bell = l1 * l2
    p_partial = (l1 * l1 + l2 * l2) / 2
    procrustean = 2 * l2 * l2 / (l1 * l1 + l2 * l2)

    outcomes = (
        Outcome("01", p_bell, register={"correction": "Z"}),
        Outcome("11", p_bell, register={"correction": "I"}),
        Outcome("00", p_partial, register={"procrustean_success": procrustean}),
        Outcome("10", p_partial, register={"procrustean_success": procrustean}),
    )
    scp = 2 * p_bell + 2 * p_partial * procrustean
    return ProtocolTrace(
        outcomes=outcomes,
        aggregate={"scp": scp, "exact": exact},
    )


# ---------------------------------------------------------------------------
# Hashing method
# ---------------------------------------------------------------------------


@dataclass
class HashingRound:
    subset_bits: np.ndarray  # uint16 indices into the 2n-bit string (2n <= 10000)
    parity: int
    consumed_pair: int
    panel_size: int  # decoys left in the panel after this round


@dataclass
class HashingTrial:
    hidden: np.ndarray  # n Bell symbols in {0,1,2,3}
    rounds: list[HashingRound]  # logged for trial 0 only
    decoys_surviving: int
    hidden_typical: bool

    @property
    def succeeded(self) -> bool:
        return self.decoys_surviving == 0 and self.hidden_typical


def bell_diagonal_state(p: Sequence[float]) -> LabeledState:
    """Two-qubit mixture of the four Bell states with weights p (code order 00,01,10,11)."""
    p = qcore.probability_vector(p, "p")
    if p.size != 4:
        raise StateError("p must be a distribution over the four Bell states")
    m = np.zeros((4, 4), dtype=complex)
    for weight, kind in zip(p, BELL_ORDER):
        b = qcore.bell(kind)
        m = m + weight * b.matrix
    return qcore.make_state([("A", 2), ("B", 2)], m)


def _symbols_to_bits(symbols: np.ndarray) -> np.ndarray:
    """Bell symbols s as the bit pairs (s >> 1, s & 1), along the last axis."""
    bits = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],), dtype=np.uint8)
    bits[..., 0::2] = symbols >> 1
    bits[..., 1::2] = symbols & 1
    return bits


_WORD = np.dtype("<u8")


def _pack_symbols(symbols: np.ndarray) -> np.ndarray:
    """Bell symbols as little-endian uint64 words along the last axis: w = ceil(n / 64)
    words of the s >> 1 bit plane, then w words of the s & 1 plane.

    Pair i's two bits sit at bit i of each plane; :func:`_pack_subset` packs bit
    indices of the 2n-bit string (2i + 0 for s >> 1, 2i + 1 for s & 1) the same way.
    """
    n = symbols.shape[-1]
    w = -(-n // 64)
    planes = np.zeros(symbols.shape[:-1] + (2, 8 * w), dtype=np.uint8)
    for plane, bit in enumerate((2, 1)):
        planes[..., plane, : -(-n // 8)] = np.packbits(symbols & bit, axis=-1, bitorder="little")
    return planes.reshape(symbols.shape[:-1] + (16 * w,)).view(_WORD)


def _pack_subset(subset: np.ndarray, n: int) -> np.ndarray:
    """A set of 2n-bit string indices as a word mask in the layout of :func:`_pack_symbols`."""
    w = -(-n // 64)
    flags = np.zeros(128 * w, dtype=bool)
    flags[(subset & 1) * (64 * w) + (subset >> 1)] = True
    return np.packbits(flags, bitorder="little").view(_WORD)


def _parities(words: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Parity (0 or 1) of the masked bits of each packed row."""
    return np.bitwise_count(np.bitwise_xor.reduce(words & mask, axis=-1)) & 1


def _cuts(p: np.ndarray) -> np.ndarray:
    """float32 thresholds of the symbol sampler: a uniform u gives symbol
    (u > cut[0]) + (u > cut[1]) + (u > cut[2]).  They never decrease, so the
    three comparisons are nested."""
    return np.maximum.accumulate(np.cumsum(p)[:3].astype(np.float32))


def _word_cuts(p: np.ndarray) -> list[int]:
    """:func:`_cuts` as thresholds on the uint32 x behind each float32 draw.

    A float32 draw is u = (x >> 8) 2^-24, so u > c exactly when
    x >> 8 >= floor(c 2^24) + 1, that is x >= (floor(c 2^24) + 1) << 8.  A cut
    of 1.0 or just below gives 2^32 or more and a cut below 0 gives at most 0:
    Python ints, so the comparison is all False or all True without wrapping.
    """
    return [(math.floor(float(c) * (1 << 24)) + 1) << 8 for c in _cuts(p)]


def _sample_symbols(rng: np.random.Generator, p: np.ndarray, shape) -> np.ndarray:
    """I.i.d. Bell symbols in {0..3}; thresholded uniforms beat a generic sampler here.

    The symbols and the generator's state are those of thresholding
    ``rng.random(shape, dtype=np.float32)`` at :func:`_cuts`.
    """
    cut = _word_cuts(p)
    x = _next_words(rng, int(np.prod(shape))).reshape(shape)
    out = (x >= cut[0]).astype(np.uint8)
    out += x >= cut[1]
    out += x >= cut[2]
    return out


def hashing_simulation(
    p: Sequence[float],
    n: int,
    delta: float,
    trials: int = 50,
    seed: int = qcore.DEFAULT_SEED,
    decoys: int = 10_000,
) -> ProtocolTrace:
    """Simulate the parity-hashing identification of an unknown Bell string.

    The hidden n-pair string is drawn i.i.d. from p.  Instead of tracking the
    full candidate set, a panel of i.i.d. decoy strings restricted to the
    delta-typical set estimates the union-bound failure probability: a decoy
    survives a round only when its announced subset parity matches the hidden
    one.  Each round consumes one pair; the nominal round count
    ceil(n (S + 2 delta)) is capped at n, and a nominal count >= n marks the
    distillation infeasible (non-positive yield).  Failure modes per trial:
    surviving decoys, or an atypical hidden string (no candidate inside the
    typical search set).  The panel is bit-packed (:func:`_pack_symbols`), so
    a round takes every decoy's parity with one popcount per row.  An empty
    delta-typical set, a delta that is not finite, trials < 1 or decoys < 1
    raises StateError.

    Round r picks a random non-empty subset of the 2(n - r) bits still alive:
    its mask is a ``rng.integers(0, 2, 2(n - r), dtype=np.uint8)`` draw,
    redrawn while all zero, which :class:`_RoundMasks` reads from words drawn
    ahead.  Every log, survivor count and output is that of drawing each mask
    when it is needed; only the generator's end state can differ (it may run
    ahead), and each trial's generator is its own and is dropped after its
    rounds.
    """
    p_arr = np.asarray(p, dtype=float)
    state = bell_diagonal_state(p_arr)
    s_bits = entropy.von_neumann(state)
    if n < 1 or n > 5000:
        raise StateError("n must lie in [1, 5000]")
    if trials < 1:
        raise StateError(f"trials must be at least 1, got {trials}")
    if decoys < 1:
        raise StateError(f"decoys must be at least 1, got {decoys}")
    if not math.isfinite(delta):
        raise StateError(f"delta must be finite, got {delta!r}")
    if not typicality.has_typical_type(p_arr, n, delta):
        raise StateError(f"no length-{n} string is {delta!r}-typical for p = {p_arr.tolist()}: no decoy can be drawn")
    # A deterministic source leaves a single candidate: no parities needed.
    nominal_rounds = 0 if s_bits < 1e-9 else math.ceil(n * (s_bits + 2.0 * delta))
    feasible = nominal_rounds < n
    rounds_run = min(n, nominal_rounds)

    # Round r draws a mask over the 2(n - r) alive bits: ceil((n - r) / 2) words.
    mask_words = sum(-(-(n - r) // 2) for r in range(rounds_run))

    rngs = qcore.spawn_rngs(seed, trials)
    trial_records: list[HashingTrial] = []
    for trial_index, rng in enumerate(rngs):
        hidden = _sample_symbols(rng, p_arr, n)
        hidden_typical = bool(typicality.typical_mask(hidden, p_arr, delta))
        # A decoy's parity matches the hidden one exactly when the parity of
        # their difference is even; the 2-bit code makes XOR of symbols the
        # XOR of bits, so the panel holds the packed differences.  Decoys
        # equal to the hidden string (zero rows) drop out.
        panel = _sample_typical_panel(rng, p_arr, n, delta, decoys)
        panel ^= _pack_symbols(hidden)
        panel = panel[panel.any(axis=1)]
        # Round bookkeeping is kept only for the first trial; the full subset
        # lists of every round of every trial would dominate memory otherwise.
        # Trial 0 draws every round and logs parities of the unpacked hidden
        # bits, but filters its panel only while a decoy is left.  Later
        # trials stop once no decoy is left: their own RNG streams leave every
        # other trial unchanged.
        keep_rounds = trial_index == 0
        rounds: list[HashingRound] = []
        # The alive bit indices (pairs 2i, 2i + 1 side by side, in order),
        # shrunk in place as pairs are consumed.
        alive = np.arange(2 * n, dtype=np.uint16)
        hidden_bits = _symbols_to_bits(hidden)
        masks = _RoundMasks(rng, mask_words)
        for r in range(rounds_run):
            if not (keep_rounds or panel.shape[0]):
                break
            m = 2 * (n - r)
            while True:
                picked = masks(m).nonzero()[0]
                if picked.size:
                    break
            subset = alive.take(picked)
            if panel.shape[0]:
                panel = panel[_parities(panel, _pack_subset(subset, n)) == 0]
            # The largest picked position and its partner are one pair.
            j = int(picked[-1]) & ~1
            consumed = int(alive[j]) >> 1
            if keep_rounds:
                rounds.append(
                    HashingRound(
                        subset_bits=subset,
                        parity=int(np.bitwise_xor.reduce(hidden_bits.take(subset))),
                        consumed_pair=consumed,
                        panel_size=int(panel.shape[0]),
                    )
                )
            alive[j : m - 2] = alive[j + 2 : m]
        trial_records.append(HashingTrial(hidden, rounds, int(panel.shape[0]), hidden_typical))

    successes = sum(1 for t in trial_records if t.succeeded)
    yield_per_pair = (n - rounds_run) / n
    aggregate = {
        "entropy_bits": s_bits,
        "nominal_rounds": nominal_rounds,
        "rounds_run": rounds_run,
        "feasible": feasible,
        "yield": yield_per_pair,
        "nominal_yield": 1.0 - nominal_rounds / n,
        "success_frequency": successes / trials,
        "trials": trials,
        "decoys": decoys,
        "atypical_hidden": sum(1 for t in trial_records if not t.hidden_typical),
        "trial_records": trial_records,
    }
    outcomes = tuple(
        Outcome(
            label=f"trial{i}",
            probability=Fraction(1, trials),
            register={
                "success": t.succeeded,
                "decoys_surviving": t.decoys_surviving,
                "hidden_typical": t.hidden_typical,
            },
        )
        for i, t in enumerate(trial_records)
    )
    return ProtocolTrace(outcomes=outcomes, aggregate=aggregate)


_CHUNK_DRAWS = 1 << 17  # uint32 words drawn at a time by the decoy sampler: 512 KiB, inside L2


def _sample_typical_panel(rng: np.random.Generator, p: np.ndarray, n: int, delta: float, count: int) -> np.ndarray:
    """``count`` i.i.d. draws from p restricted to the delta-typical set, packed
    as :func:`_pack_symbols` packs them.

    Rejection in batches of ``count`` rows, at most DECOY_BATCHES of them.  Each
    batch is drawn in row chunks of about _CHUNK_DRAWS words (:func:`_next_words`),
    and a chunk is thresholded at :func:`_word_cuts`, counted and packed while
    it is in cache; no uniform and no symbol array is built.  The planes
    g_j = x >= cut[j] are nested, so symbol s = g0 + g1 + g2 has the bits
    s >> 1 = g1 and s & 1 = g0 ^ g1 ^ g2, and the counts N(0..3) are the
    differences of n, |g0|, |g1|, |g2| and 0.  Once ``count`` rows are kept,
    the rest of the batch is skipped (:func:`_skip_floats`).  The panel and the
    generator's state are those of thresholding whole batches of
    ``rng.random((count, n), dtype=np.float32)`` at :func:`_cuts` and filtering
    them.
    """
    low, high = typicality._count_bounds(p, n, delta)
    low, high = low[:, None], high[:, None]
    cut = _word_cuts(p)
    w, nbytes = -(-n // 64), -(-n // 8)
    panel = np.zeros((count, 16 * w), dtype=np.uint8)
    rows = max(1, _CHUNK_DRAWS // n)
    kept = 0
    for _ in range(DECOY_BATCHES):
        for start in range(0, count, rows):
            size = min(rows, count - start)
            x = _next_words(rng, size * n).reshape(size, n)
            g0, g1, g2 = (np.packbits(x >= c, axis=1, bitorder="little") for c in cut)
            a0, a1, a2 = (np.bitwise_count(g).sum(axis=1, dtype=np.intp) for g in (g0, g1, g2))
            counts = np.stack([n - a0, a0 - a1, a1 - a2, a2])
            ok = np.flatnonzero(np.all((counts >= low) & (counts <= high), axis=0))[: count - kept]
            if ok.size:
                dest = panel[kept : kept + ok.size]
                dest[:, :nbytes] = g1[ok]
                dest[:, 8 * w : 8 * w + nbytes] = (g0 ^ g1 ^ g2)[ok]
                kept += ok.size
            if kept == count:
                _skip_floats(rng, (count - start - size) * n)
                return panel.view(_WORD)
    drawn = DECOY_BATCHES * count
    raise StateError(
        f"only {kept} of {drawn} length-{n} draws ({kept / drawn:.3g}) were {delta!r}-typical: "
        f"the typical set is too unlikely to sample {count} decoys"
    )


def _next_words(rng: np.random.Generator, k: int) -> np.ndarray:
    """The next k uint32s x that ``rng.random(k, dtype=np.float32)`` turns into
    floats u = (x >> 8) 2^-24, in order, leaving rng in the state that call leaves.

    For PCG64 only, the bit generator :func:`qcore.spawn_rngs` makes.  It
    serves uint32s as the low, then the high half of a 64-bit word and keeps
    an unserved high half in its buffer (``has_uint32``, ``uinteger``).
    ``random_raw`` reads whole words past that buffer at about half the cost
    of float32 draws.  So a buffered half is served first, by one float32 draw;
    the rest comes from ``random_raw``; then ``advance(-1)`` steps back over the
    last word (and empties the buffer), and one or two float32 draws take that
    word again, which leaves the buffer as drawing all k does (as in
    :func:`_skip_floats`).  Taking the last word twice, rather than drawing the
    last values as floats after the bulk, returns ``random_raw``'s array
    without a copy.
    """
    bits = rng.bit_generator
    state = bits.state
    lead = min(k, state["has_uint32"])
    if lead:
        rng.random(dtype=np.float32)  # serves the buffered half, which random_raw skips
    m = k - lead
    words = bits.random_raw(-(-m // 2)).astype("<u8", copy=False).view("<u4")[:m]  # low half first
    if m:
        bits.advance(-1)
        rng.random(2 - m % 2, dtype=np.float32)
    if not lead:
        return words
    out = np.empty(k, dtype=np.uint32)
    out[0] = state["uinteger"]
    out[1:] = words
    return out


def _skip_floats(rng: np.random.Generator, k: int) -> None:
    """Move rng past k float32 draws without making them.

    A float32 takes one uint32, and PCG64 serves uint32s as the low, then the
    buffered high half of a 64-bit word.  ``advance`` drops that buffer, so a
    buffered half is drawn first, and the last one or two floats are drawn too:
    they leave the buffer (and the whole state) as drawing all k does.
    """
    if k and rng.bit_generator.state["has_uint32"]:
        rng.random(dtype=np.float32)
        k -= 1
    tail = k if k <= 2 else 2 - k % 2
    if k > tail:
        rng.bit_generator.advance((k - tail) // 2)
    rng.random(tail, dtype=np.float32)


_MASK_WORDS = 1 << 14  # uint32s a trial's round masks are drawn ahead into: 64 KiB


class _RoundMasks:
    """Call after call, the bool masks ``rng.integers(0, 2, m, dtype=np.uint8).view(bool)``
    would return.

    numpy makes each of the m bytes from the next uint32 of the generator's
    stream, low byte first, and keeps its top bit (b >> 7).  A call takes
    ceil(m / 4) whole uint32s: numpy drops the unused bytes of its last word.
    The words are drawn ahead by :func:`_next_words` into one fixed buffer of
    _MASK_WORDS, refilled in place.  ``words`` is how many the caller plans to
    take; a fill draws no more than that plan still needs (and always what the
    call needs), so a caller whose plan holds leaves rng where the integers
    calls leave it.  A caller that stops early leaves rng ahead of them.
    """

    def __init__(self, rng: np.random.Generator, words: int):
        self._rng = rng
        self._planned = words  # words the caller still plans to take
        self._words = np.empty(_MASK_WORDS, dtype=np.uint32)
        self._bytes = self._words.view(np.uint8)
        self._next = self._end = 0  # the drawn words not yet served are [_next, _end)

    def __call__(self, m: int) -> np.ndarray:
        k = -(-m // 4)
        left = self._end - self._next
        if left < k:
            self._words[:left] = self._words[self._next : self._end]
            self._next, self._end = 0, min(_MASK_WORDS, max(k, self._planned))
            self._words[left : self._end] = _next_words(self._rng, self._end - left)
        start = 4 * self._next
        self._next += k
        self._planned -= k
        return self._bytes[start : start + m] >= 128


def replay_hashing_trial(trial: HashingTrial) -> bool:
    """Check a round log against the hidden string and the protocol's rule.

    True when every announced parity is that of the hidden bits in its subset,
    every round consumes the pair of its largest subset bit, and no subset
    touches a pair consumed in an earlier round, so no pair is consumed twice.
    """
    bits = _symbols_to_bits(trial.hidden)
    consumed = np.zeros(trial.hidden.size, dtype=bool)
    for rnd in trial.rounds:
        subset = rnd.subset_bits
        if not subset.size or consumed[subset >> 1].any() or rnd.consumed_pair != int(subset.max()) >> 1:
            return False
        if int(np.bitwise_xor.reduce(bits[subset])) != rnd.parity:
            return False
        consumed[rnd.consumed_pair] = True
    return True


# ---------------------------------------------------------------------------
# Schmidt projection
# ---------------------------------------------------------------------------


def schmidt_projection(theta: float, n: int) -> ProtocolTrace:
    """Project n copies of cos(t)|00> + sin(t)|11> onto equal-coefficient blocks.

    Outcome k keeps a maximally entangled state of rank C(n, k) with probability
    C(n, k) c^(n-k) s^k.  Probabilities are exact rationals built from the float
    weights, so they sum to exactly one.
    """
    if not 0.0 < theta < math.pi / 2:
        raise StateError("theta must lie in (0, pi/2)")
    if not 1 <= n <= 64:
        raise StateError("n must lie in [1, 64]")
    c = Fraction(math.cos(theta) ** 2)
    s = 1 - c
    probs = [Fraction(math.comb(n, k)) * c ** (n - k) * s**k for k in range(n + 1)]
    assert sum(probs) == 1
    ranks = [math.comb(n, k) for k in range(n + 1)]
    expected_entanglement = sum(float(p) * math.log2(r) for p, r in zip(probs, ranks))
    outcome_entropy = qcore.shannon_entropy([float(p) for p in probs])
    per_copy = qcore.binary_entropy(float(s))
    outcomes = tuple(
        Outcome(label=f"k={k}", probability=probs[k], register={"rank": ranks[k]})
        for k in range(n + 1)
    )
    return ProtocolTrace(
        outcomes=outcomes,
        aggregate={
            "expected_entanglement": expected_entanglement,
            "n_times_entropy": n * per_copy,
            "outcome_entropy": outcome_entropy,
            "sandwich_ok": expected_entanglement - 1e-9
            <= n * per_copy
            <= outcome_entropy + expected_entanglement + 1e-9,
        },
    )
