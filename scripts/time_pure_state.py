#!/usr/bin/env python3
"""Time von Neumann entropies of a 12-qubit pure state, and an 11-sender GHZ merging region.

    python3 scripts/time_pure_state.py [SRC_DIR]

SRC_DIR, the BLAS threads and the fingerprint are as ``timing.py`` describes.
The cases, on a seeded random pure state of 12 qubits stored as amplitudes
(D = 4096, the dimension cap):

- ``S(whole)``: ``entropy.von_neumann(psi)``;
- ``S(T).k1``, ``S(T).k6`` and ``S(T).k11``: ``entropy.von_neumann(psi, T)``
  for T the first 1, 6 and 11 qubits;
- ``ghz12.merge.m11``: ``regions.merging_rate_region`` of ``qcore.ghz(12)``
  with the first 11 qubits as senders, 2047 constraints.

Each call gets a state built afresh outside the timed span, so no spectrum
cached by an earlier call is read.  The entropies are timed REPEATS times
each, the region once.  Without the complement rule of
``entropy._spectral_side`` a tree decomposes the 2048-sided reduction of
``S(T).k11`` and the 4096-sided whole state: seconds each at one thread, and
hours for the region.  It prints one JSON object:

- ``cases``: for each case, ``repeats`` and the median and quartiles of the
  per-call seconds (the seconds of the one call for the region), with
  ``entropy`` as ``float.hex`` or, for the region, ``max_abs_error``, the
  largest distance of a right-hand side from its exact value (1 for the full
  sender set, 0 for every other);
- ``fingerprint``.
"""

from __future__ import annotations

import time

import timing  # before numpy: it pins BLAS at one thread

REPEATS = 7
SEED = 26
QUBITS = 12


def main(argv: list[str] | None = None) -> int:
    args = timing.parser(__doc__).parse_args(argv)
    entropy, qcore, regions = timing.load(args.src, "entropy", "qcore", "regions")
    import numpy as np

    systems = [(f"Q{i}", 2) for i in range(QUBITS)]
    amplitudes = qcore.random_pure(systems, np.random.default_rng(SEED)).vector()
    labels = [name for name, _ in systems]
    out = {}
    for name, part in [("S(whole)", None)] + [(f"S(T).k{k}", labels[:k]) for k in (1, 6, 11)]:
        seconds = []
        for _ in range(REPEATS):
            psi = qcore.pure_state(systems, amplitudes)
            start = time.perf_counter()
            value = entropy.von_neumann(psi, part)
            seconds.append(time.perf_counter() - start)
        q1, median, q3 = timing.quartiles(seconds)
        out[name] = {"repeats": REPEATS, "median_s": round(median, 5), "q1_q3_s": [round(q1, 5), round(q3, 5)],
                     "entropy": value.hex()}

    ghz = qcore.ghz(QUBITS)
    start = time.perf_counter()
    region = regions.merging_rate_region(ghz, ghz.labels[:-1])
    seconds = time.perf_counter() - start
    full = (1 << (QUBITS - 1)) - 1
    error = max(abs(rhs - (1.0 if mask == full else 0.0)) for mask, rhs in region.constraints)
    out["ghz12.merge.m11"] = {"repeats": 1, "median_s": round(seconds, 3), "max_abs_error": error}
    timing.emit({"cases": out})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
