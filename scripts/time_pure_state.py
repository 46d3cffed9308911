#!/usr/bin/env python3
"""Time von Neumann entropies and an H_max of a 12-qubit pure state, and two merging regions of pure states.

    python3 scripts/time_pure_state.py [SRC_DIR]

SRC_DIR, the BLAS threads and the fingerprint are as ``timing.py`` describes.
The cases, on a seeded random pure state of 12 qubits stored as amplitudes
(D = 4096, the dimension cap):

- ``S(whole)``: ``entropy.von_neumann(psi)``;
- ``S(T).k1``, ``S(T).k6`` and ``S(T).k11``: ``entropy.von_neumann(psi, T)``
  for T the first 1, 6 and 11 qubits;
- ``hmax.k3``: H_max(A|B) by ``entropy.entropy_report`` for A the first 3
  qubits and B the other 9;
- ``ghz12.merge.m11``: ``regions.merging_rate_region`` of ``qcore.ghz(12)``
  with the first 11 qubits as senders, 2047 constraints;
- ``random8.merge.m7``: ``regions.merging_rate_region`` of a seeded random
  pure state of 8 qubits with the first 7 as senders, 127 constraints, the
  shape of the benchmark's ``merge_region.pure.m7``.

Each case is timed by ``timing.measure``: the entropies and the 8-qubit
region over REPEATS calls, H_max and the GHZ region, whose call takes about
0.3 s, over SLOW_REPEATS, enough for every record to carry its quartiles.
Each call gets a state built afresh outside the timed span, so no spectrum
cached by an earlier call is read.  A tree that reads S(T) of a state
stored as amplitudes from a dense reduction of T decomposes the 2048-sided
reduction of ``S(T).k11`` and the 4096-sided whole state, seconds each at
one thread and hours for the region; this one reads
the larger side through the Gram matrix of the factor its reduction keeps.
A tree that purifies the state through an eigendecomposition of its
4096-sided matrix, instead of reading its amplitudes as the purification's
factor, takes about 100 s nominal for ``hmax.k3``, and one that counts the
rank of rho_B with an ``eigh`` of its 512 sides about 0.15 s.  It prints one
JSON object:

- ``cases``: for each case, the ``timing.measure`` record of the seconds per
  call, with ``entropy`` (H_max included) as ``float.hex`` or, for the region,
  ``max_abs_error``, the largest distance of a right-hand side of the GHZ
  region from its exact value (1 for the full sender set, 0 for every
  other), or ``rhs_sha256``, the sha256 of the 8-qubit region's right-hand
  sides as ``float.hex``, one a line in mask order;
- ``fingerprint``.
"""

from __future__ import annotations

import hashlib

import timing  # before numpy: it pins BLAS at one thread

REPEATS = 7
SLOW_REPEATS = 5
SEED = 26
QUBITS = 12
REGION_QUBITS = 8


def on_fresh(build, evaluate, repeats: int):
    """``timing.measure`` of ``evaluate`` on a state from ``build`` per call, built before any is timed."""
    states = [build() for _ in range(repeats + 1)]
    return timing.measure(lambda: evaluate(states.pop()), repeats)


def main(argv: list[str] | None = None) -> int:
    args = timing.parser(__doc__).parse_args(argv)
    entropy, qcore, regions = timing.load(args.src, "entropy", "qcore", "regions")
    import numpy as np

    systems = [(f"Q{i}", 2) for i in range(QUBITS)]
    amplitudes = qcore.random_pure(systems, np.random.default_rng(SEED)).vector()
    labels = [name for name, _ in systems]
    out = {}
    for name, part in [("S(whole)", None)] + [(f"S(T).k{k}", labels[:k]) for k in (1, 6, 11)]:
        value, record = on_fresh(lambda: qcore.pure_state(systems, amplitudes),
                                 lambda psi: entropy.von_neumann(psi, part), REPEATS)
        out[name] = {**record, "entropy": value.hex()}
    value, record = on_fresh(lambda: qcore.pure_state(systems, amplitudes),
                             lambda psi: entropy.entropy_report(psi, labels[:3], labels[3:], "hmax")["hmax"], SLOW_REPEATS)
    out["hmax.k3"] = {**record, "entropy": value.hex()}

    region, record = on_fresh(lambda: qcore.ghz(QUBITS),
                              lambda ghz: regions.merging_rate_region(ghz, ghz.labels[:-1]), SLOW_REPEATS)
    full = (1 << (QUBITS - 1)) - 1
    error = max(abs(rhs - (1.0 if mask == full else 0.0)) for mask, rhs in region.constraints)
    out["ghz12.merge.m11"] = {**record, "max_abs_error": error}

    systems = systems[:REGION_QUBITS]
    amplitudes = qcore.random_pure(systems, np.random.default_rng(SEED)).vector()
    region, record = on_fresh(lambda: qcore.pure_state(systems, amplitudes),
                              lambda psi: regions.merging_rate_region(psi, psi.labels[:-1]), REPEATS)
    rhs = "".join(f"{value.hex()}\n" for _, value in region.constraints)
    out["random8.merge.m7"] = {**record, "rhs_sha256": hashlib.sha256(rhs.encode()).hexdigest()}
    timing.emit({"cases": out})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
