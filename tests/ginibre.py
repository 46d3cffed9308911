"""Random density matrices of a chosen rank, for tests.

``qcore.random_density`` and ``qcore.random_state`` draw full rank only.
These make the same draws and the same arithmetic with a Ginibre factor of
``rank`` columns (all of them when ``rank`` is None), so a test input made
here is bit for bit the one the library made when its generators took a
rank, and a full-rank one equals the library's.
"""

from __future__ import annotations

import numpy as np

from entlab import qcore


def density(dims, rng: np.random.Generator, rank: int | None) -> np.ndarray:
    side = int(np.prod(dims))
    r = side if rank is None else rank
    g = rng.standard_normal((side, r)) + 1j * rng.standard_normal((side, r))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def state(systems, rng: np.random.Generator, rank: int | None) -> qcore.LabeledState:
    return qcore.make_state(systems, density([d for _, d in systems], rng, rank))
