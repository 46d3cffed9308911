#!/usr/bin/env python3
"""Time the one-shot assisted-entanglement search on the ``min-cut`` criterion's states.

    python3 scripts/time_assisted_search.py [SRC_DIR]

SRC_DIR, the BLAS threads and the fingerprint are as ``timing.py`` describes.
It draws the 20 random pure states of the ``min-cut`` acceptance criterion
(qubit A and B, a helper C of dimension 2 or 3) from the acceptance seed, in
the criterion's order, and times ``assisted.eoa_pure`` on each with the
criterion's grid and search seed.  It prints one JSON object:

- ``states``: for each state, ``d_c``, the ``timing.measure`` record of its
  REPEATS searches, the one-shot value, the asymptotic value
  min{S(A), S(B)} and the floor E_F(C_a);
- ``total_s``: the sum of the per-state nominal medians;
- ``fingerprint``.
"""

from __future__ import annotations

import math

import timing  # before numpy: it pins BLAS at one thread

GRID = 4  # the criterion's grid
REPEATS = 3


def criterion_states(acceptance, qcore, np) -> list[tuple]:
    """(state, search seed) pairs drawn as ``acceptance.criterion_min_cut`` draws them."""
    rng = np.random.default_rng(acceptance.ACCEPTANCE_SEED)
    out = []
    for _ in range(20):
        dims = [("A", 2), ("B", 2), ("C", int(rng.integers(2, 4)))]
        psi = qcore.random_pure(dims, rng)
        out.append((psi, int(rng.integers(1 << 31))))
    return out


def main(argv: list[str] | None = None) -> int:
    args = timing.parser(__doc__).parse_args(argv)
    acceptance, assisted, qcore = timing.load(args.src, "acceptance", "assisted", "qcore")
    import numpy as np

    rows = []
    for psi, seed in criterion_states(acceptance, qcore, np):
        (asymptotic, one_shot), record = timing.measure(
            lambda: assisted.eoa_pure(psi, ["A"], ["B"], ["C"], grid=GRID, seed=seed), REPEATS)
        c_a = assisted.concurrence_of_assistance(psi, ["A"], ["B"])
        floor = qcore.binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c_a * c_a))) / 2.0)
        rows.append({"d_c": psi.dim_of("C"), **record, "one_shot": one_shot, "asymptotic": asymptotic, "floor": floor})
    timing.emit({"states": rows, "total_s": round(sum(r["median_s"] for r in rows), 3)})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
