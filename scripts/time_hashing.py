#!/usr/bin/env python3
"""Time the hashing simulation: its decoy sampler and its rounds.

    python3 scripts/time_hashing.py [SRC_DIR]

SRC_DIR, the BLAS threads and the fingerprint are as ``timing.py`` describes.
The cases:

- ``panel.n2000``: one ``protocols._sample_typical_panel`` of 10^4 decoys at
  n = 2000, delta = 0.05 and p = (0.8, 0.1, 0.05, 0.05), the ``hashing``
  criterion's shape, on a generator that has drawn a hidden string first, as
  a trial's does;
- the three hashing shapes of the benchmark's ``monte-carlo`` workload, each
  ``protocols.hashing_simulation`` with two trials of 10^4 decoys at
  delta = 0.05: ``hashing.feasible.n2000`` (p = (0.9, 0.05, 0.03, 0.02)),
  ``hashing.infeasible.n2000`` (p = (0.8, 0.1, 0.05, 0.05)) and
  ``cli.hash_sim.n1000`` (the feasible p at n = 1000, the arguments of the
  workload's ``entlab hash-sim`` call);
- ``verify.hashing``: the ``hashing`` criterion of ``entlab verify``, run as
  ``acceptance.run_one`` runs it.

Each case is timed by ``timing.measure`` over REPEATS calls (3 for
``verify.hashing``); its untimed first call also hashes every panel the
sampler returns.  ``protocols._sample_symbols`` and
``protocols._sample_typical_panel`` are wrapped from outside and timed:
``sampler_s`` is the median of their time per timed call and ``rounds_s``
the median per call less ``sampler_s`` (the rounds, packing and
bookkeeping), both scaled by the case's ``speed_scale``.  It prints one JSON
object:

- ``cases``: for each case, the ``timing.measure`` record of the seconds per
  call, ``sampler_s`` and ``rounds_s`` for the simulations and the
  criterion, and ``panels``, a SHA-256 over the bytes of every panel the
  first call drew, so that two trees can be checked for equal output.  The
  three simulations also give ``rounds``, the length of trial 0's round
  log, and ``us_per_round``, ``rounds_s`` over those rounds in microseconds
  (it also carries the panel filtering and the second trial's few rounds);
  ``verify.hashing`` gives the criterion's ``detail`` line;
- ``fingerprint``.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import timing  # before numpy: it pins BLAS at one thread

REPEATS = 7
SEED = 21
VERIFY_P = (0.8, 0.1, 0.05, 0.05)
FEASIBLE_P = (0.9, 0.05, 0.03, 0.02)


class Sampler:
    """Wraps the two samplers of ``protocols`` and adds up their seconds; while
    ``digest`` is set, every panel returned is hashed into it."""

    def __init__(self, protocols):
        self.seconds = 0.0
        self.digest = None
        for name in ("_sample_symbols", "_sample_typical_panel"):
            setattr(protocols, name, self._timed(getattr(protocols, name), name == "_sample_typical_panel"))

    def _timed(self, real, is_panel: bool):
        def call(*args):
            start = time.perf_counter()
            out = real(*args)
            self.seconds += time.perf_counter() - start
            if is_panel and self.digest is not None:
                self.digest.update(out.tobytes())  # before the caller XORs the hidden string in
            return out

        return call


def main(argv: list[str] | None = None) -> int:
    args = timing.parser(__doc__).parse_args(argv)
    acceptance, protocols = timing.load(args.src, "acceptance", "protocols")
    import numpy as np

    sampler = Sampler(protocols)

    def panel():
        rng = np.random.default_rng(SEED)
        protocols._sample_symbols(rng, np.asarray(VERIFY_P), 2000)
        return protocols._sample_typical_panel(rng, np.asarray(VERIFY_P), 2000, 0.05, 10_000)

    def simulation(p, n):
        return lambda: protocols.hashing_simulation(p, n, 0.05, trials=2, seed=SEED)

    cases = [
        ("panel.n2000", panel, REPEATS),
        ("hashing.feasible.n2000", simulation(FEASIBLE_P, 2000), REPEATS),
        ("hashing.infeasible.n2000", simulation(VERIFY_P, 2000), REPEATS),
        ("cli.hash_sim.n1000", simulation(FEASIBLE_P, 1000), REPEATS),
        ("verify.hashing", lambda: acceptance.run_one("hashing"), 3),
    ]
    out = {}
    for name, call, repeats in cases:
        digest = sampler.digest = hashlib.sha256()
        sampled = []

        def counted():
            sampler.seconds = 0.0
            result = call()
            sampler.digest = None  # only the first call's panels are hashed
            sampled.append(sampler.seconds)
            return result

        first, case = timing.measure(counted, repeats)
        if name != "panel.n2000":
            sampler_s = statistics.median(sampled[1:]) * case["speed_scale"]  # [0] is the untimed call
            rounds_s = case["median_s"] - sampler_s
            case["sampler_s"] = round(sampler_s, 4)
            case["rounds_s"] = round(rounds_s, 4)
        if name not in ("panel.n2000", "verify.hashing"):
            case["rounds"] = len(first.aggregate["trial_records"][0].rounds)
            case["us_per_round"] = round(rounds_s / case["rounds"] * 1e6, 1)
        case["panels"] = digest.hexdigest()
        if name == "verify.hashing":
            case["detail"] = first.detail
        out[name] = case
    timing.emit({"cases": out})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
