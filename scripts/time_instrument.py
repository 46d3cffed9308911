#!/usr/bin/env python3
"""Time ``decoupling.simulate_random_instrument`` per call on the shapes the lab runs.

    python3 scripts/time_instrument.py [SRC_DIR]

SRC_DIR, the BLAS threads and the fingerprint are as ``timing.py`` describes.
The cases:

- the four instrument shapes of the benchmark's ``monte-carlo`` workload at
  80 samples, with outcome rows kept: ``two_sender`` (C1 of 2, C2 of 4 with
  an ancilla of 2, reference R of 4), ``two_sender.rem`` (C2 of rank 3),
  ``single_helper`` (C of 4 against A and R, with B traced out) and
  ``single_helper.rem`` (C of rank 3), each on a random pure state;
- ``cli.decouple``: the two-sender shape at 30 samples, as ``entlab
  decouple`` runs it in the benchmark;
- the three cases of the ``decoupling-bound`` criterion at 200 samples, built
  and seeded as the criterion builds them;
- ``two_sender.8x8``: the criterion's two-sender state with ancillas (8, 8),
  20 samples;
- ``cli.decouple_mixed4``: ``entlab decouple`` on ``tests/data/mixed4.json``
  as its CLI golden runs it (C1 with K = 2 and L = 3, C2, reference R, 20
  samples), a full-rank mixed marginal with L d_R = 6 equal to the senders'
  summed dimension g_1 + g_2 = 6;
- ``dense.C16xR4`` and ``dense.C4xR128``: one sender of rank 1 on a random
  full-rank mixed state, 20 samples.  A full-rank marginal gives the factor
  r = D columns, and the outcome products cost D L d_R r against the
  rotation's g D r, so these put L d_R = 4 below g = 16 and L d_R = 128
  above g = 4.

Each case is timed by ``timing.measure``, over REPEATS calls for the
benchmark and CLI shapes and 3 for the others.  It prints one JSON object:

- ``cases``: for each case, ``samples``, the ``timing.measure`` record of the
  seconds per call, ``empirical_q`` as ``float.hex``, and the sha256 of the
  ``per_sample`` array's bytes and of the outcome rows as JSON (the rows of
  an empty tuple for the cases that keep none), so that two trees can be
  checked for equal results bit for bit;
- ``fingerprint``.
"""

from __future__ import annotations

import hashlib
import json

import timing  # before numpy: it pins BLAS at one thread

REPEATS = 15
SEED = 19


def cases(acceptance, cli, decoupling, qcore, np) -> list[tuple]:
    """(name, state, senders, reference, samples, seed, slow) for every timed case."""
    rng = np.random.default_rng(SEED)
    sender = decoupling.sender
    two = qcore.random_pure([("C1", 2), ("C2", 4), ("R", 4)], rng)
    single = qcore.random_pure([("A", 2), ("B", 2), ("R", 2), ("C", 4)], rng)
    two_acc = acceptance._two_sender_state()
    ch5 = qcore.permute_systems(qcore.example_ch5(), ["A", "B", "R", "C1", "C2"])
    merged = qcore.merge_systems(ch5, {"C": ["C1", "C2"]})
    mixed4 = cli.parse_state_file(timing.ROOT / "tests" / "data" / "mixed4.json")
    dense16 = qcore.random_state([("C", 16), ("R", 4)], rng)
    dense4 = qcore.random_state([("C", 4), ("R", 128)], rng)
    seed = acceptance.ACCEPTANCE_SEED
    return [
        ("two_sender", two, (sender("C1", 2), sender("C2", 4, ancilla=2)), ["R"], 80, 1, False),
        ("two_sender.rem", two, (sender("C1", 2), sender("C2", 4, ancilla=2, rank=3)), ["R"], 80, 2, False),
        ("single_helper", single, (sender("C", 4),), ["A", "R"], 80, 3, False),
        ("single_helper.rem", single, (sender("C", 4, rank=3),), ["A", "R"], 80, 4, False),
        ("cli.decouple", two, (sender("C1", 2), sender("C2", 4, ancilla=2)), ["R"], 30, 5, False),
        ("decoupling-bound.two_sender", two_acc, (sender("C1", 2), sender("C2", 4, ancilla=2)), ["R"], 200, seed, True),
        ("decoupling-bound.single_helper", merged, (sender("C", 4),), ["A", "R"], 200, seed + 1, True),
        ("decoupling-bound.4x4", two_acc, (sender("C1", 2, ancilla=4), sender("C2", 4, ancilla=4)), ["R"], 200, seed, True),
        ("two_sender.8x8", two_acc, (sender("C1", 2, ancilla=8), sender("C2", 4, ancilla=8)), ["R"], 20, seed, True),
        ("cli.decouple_mixed4", mixed4, (sender("C1", 2, ancilla=2, rank=3), sender("C2", 2)), ["R"], 20, 9, False),
        ("dense.C16xR4", dense16, (sender("C", 16),), ["R"], 20, 6, False),
        ("dense.C4xR128", dense4, (sender("C", 4),), ["R"], 20, 7, True),
    ]


def main(argv: list[str] | None = None) -> int:
    args = timing.parser(__doc__).parse_args(argv)
    acceptance, cli, decoupling, qcore = timing.load(args.src, "acceptance", "cli", "decoupling", "qcore")
    import numpy as np

    out = {}
    for name, state, senders, reference, samples, seed, slow in cases(acceptance, cli, decoupling, qcore, np):
        spec = decoupling.InstrumentSpec(senders=senders, seed=seed, samples=samples)
        keep = name.startswith(("two_sender", "single_helper")) and not slow

        result, record = timing.measure(
            lambda: decoupling.simulate_random_instrument(state, spec, reference, keep_outcomes=keep),
            3 if slow else REPEATS,
        )
        out[name] = {
            "samples": samples,
            **record,
            "empirical_q": result.empirical_q.hex(),
            "per_sample_sha256": hashlib.sha256(result.per_sample.tobytes()).hexdigest(),
            "outcome_rows_sha256": hashlib.sha256(json.dumps(result.outcome_rows).encode()).hexdigest(),
        }
    timing.emit({"cases": out})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
