#!/usr/bin/env python3
"""Time the hashing simulation: its decoy sampler and its rounds.

    python3 scripts/time_hashing.py [SRC_DIR] [--repeats 7]

Imports ``entlab`` from SRC_DIR (default: this checkout's ``src/``), so the
same script times two versions of the package side by side.  BLAS runs at one
thread.  The cases:

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

Each case gets one untimed call first, which also hashes every panel the
sampler returns.  Then ``--repeats`` timed calls (half of it, at least 1, for
``verify.hashing``).  In the simulations, ``protocols._sample_symbols`` and
``protocols._sample_typical_panel`` are wrapped from outside and timed:
``sampler_s`` is their time per call and ``rounds_s`` the rest (the rounds,
packing and bookkeeping).  It prints one JSON object:

- ``cases``: for each case, ``repeats``, the median and the quartiles of the
  seconds per call, the medians of ``sampler_s`` and ``rounds_s`` for the
  simulations, and ``panels``, a SHA-256 over the bytes of every panel the
  first call drew, so that two trees can be checked for equal output;
  ``verify.hashing`` also gives the criterion's ``detail`` line;
- ``fingerprint``: cores, CPU model and the Python, numpy, scipy and BLAS
  versions, as ``time_state_validation.py`` reports them.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

from time_state_validation import fingerprint

ROOT = Path(__file__).resolve().parent.parent
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


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"), help="directory holding the entlab package")
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per case")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy as np

    from entlab import acceptance, protocols

    sampler = Sampler(protocols)

    def panel():
        rng = np.random.default_rng(SEED)
        protocols._sample_symbols(rng, np.asarray(VERIFY_P), 2000)
        return protocols._sample_typical_panel(rng, np.asarray(VERIFY_P), 2000, 0.05, 10_000)

    def simulation(p, n):
        return lambda: protocols.hashing_simulation(p, n, 0.05, trials=2, seed=SEED)

    cases = [
        ("panel.n2000", panel, args.repeats),
        ("hashing.feasible.n2000", simulation(FEASIBLE_P, 2000), args.repeats),
        ("hashing.infeasible.n2000", simulation(VERIFY_P, 2000), args.repeats),
        ("cli.hash_sim.n1000", simulation(FEASIBLE_P, 1000), args.repeats),
        ("verify.hashing", lambda: acceptance.run_one("hashing"), max(1, args.repeats // 2)),
    ]
    out = {}
    for name, call, repeats in cases:
        sampler.digest = hashlib.sha256()
        first = call()
        digest, sampler.digest = sampler.digest.hexdigest(), None
        seconds, sampled = [], []
        for _ in range(repeats):
            sampler.seconds = 0.0
            start = time.perf_counter()
            call()
            seconds.append(time.perf_counter() - start)
            sampled.append(sampler.seconds)
        q1, median, q3 = _quartiles(seconds)
        case = {"repeats": repeats, "median_s": round(median, 4), "q1_q3_s": [round(q1, 4), round(q3, 4)]}
        if name != "panel.n2000":
            case["sampler_s"] = round(statistics.median(sampled), 4)
            case["rounds_s"] = round(statistics.median(s - t for s, t in zip(seconds, sampled)), 4)
        case["panels"] = digest
        if name == "verify.hashing":
            case["detail"] = first.detail
        out[name] = case
    json.dump({"cases": out, "fingerprint": fingerprint()}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
