#!/usr/bin/env python3
"""Time ``coneprog.solve_min_trace`` per solve, and count its line-search trials.

    python3 scripts/time_cone.py [SRC_DIR]

SRC_DIR, the BLAS threads and the fingerprint are as ``timing.py`` describes.
The shapes (d_A, d_B) are those of the benchmark's ``small-states`` solves,
(2, 4) to (4, 16), and the ROADMAP's (2, 32) and (16, 16), each on a random
full-rank state with a fixed seed.

Each shape is timed by ``timing.measure`` over REPEATS solves (3 for (2, 32)
and (16, 16)).  One more solve runs with ``coneprog._logdet_pd``,
``coneprog._newton_system`` and ``coneprog._gradient`` wrapped from outside,
which every version of the solver calls through the module.  From those calls:

- ``barrier_evals``: the log-dets of a slack I x sigma - rho, one per barrier
  value that factors anything; ``factorizations`` adds those of sigma.
- the line-search census.  A search is the run of trials after one Newton
  direction; a barrier value at the current iterate (the start of a stage)
  is not a trial.  A search ends with a step when the next Newton system is
  built before the next direction.  ``trials_per_search`` is the histogram of
  trials per search, and ``trials_without_step`` the trials spent in searches
  that end without a step.  A search whose first trial already rounds to the
  iterate factors nothing and is not seen.

It prints one JSON object:

- ``shapes``: for each shape, the ``timing.measure`` record of the seconds
  per solve, ``newton_steps``, ``newton_steps_one_ulp`` (the steps of one
  more solve with rho_00 moved up by one ulp: roundoff should not move the
  count), ``ms_per_step`` (the nominal median divided by the steps), the
  counts above and ``digest``, a hash of the optimum, sigma and the dual
  certificate, so that two trees can be checked for equal bits;
- ``fingerprint``.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import timing  # before numpy: it pins BLAS at one thread

REPEATS = 7
SHAPES = [(2, 4), (3, 4), (4, 4), (2, 8), (4, 8), (2, 16), (4, 16), (2, 32), (16, 16)]
SLOW = {(2, 32), (16, 16)}
SEED = 20


def census(coneprog, rho, d_a: int, d_b: int) -> dict:
    """Factorization counts and the line-search census of one solve."""
    events = []
    inner = {name: getattr(coneprog, name) for name in ("_logdet_pd", "_newton_system", "_gradient")}

    def logdet(matrix):
        events.append(("slack" if matrix.shape[0] == d_a * d_b else "sigma", matrix.tobytes()))
        return inner["_logdet_pd"](matrix)

    def system(first, sigma, *args):
        events.append(("system", sigma.tobytes()))
        return inner["_newton_system"](first, sigma, *args)

    def gradient(*args):
        events.append(("direction", None))
        return inner["_gradient"](*args)

    for name, wrapper in (("_logdet_pd", logdet), ("_newton_system", system), ("_gradient", gradient)):
        setattr(coneprog, name, wrapper)
    try:
        coneprog.solve_min_trace(rho, d_a, d_b)
    finally:
        for name, fn in inner.items():
            setattr(coneprog, name, fn)

    searches = []  # (trials, ended with a step) per search that factored a trial
    current = None  # sigma of the last Newton system
    trials = 0
    for kind, data in events:
        if kind in ("system", "direction") and trials:
            searches.append((trials, kind == "system"))
            trials = 0
        if kind == "system":
            current = data
        elif kind == "slack":
            trials += 1
        elif kind == "sigma" and data == current:
            trials -= 1  # the value at the iterate that starts a stage
    if trials:
        searches.append((trials, False))

    kinds = Counter(kind for kind, _ in events)
    histogram = Counter(n for n, _ in searches)
    return {
        "barrier_evals": kinds["slack"],
        "factorizations": kinds["slack"] + kinds["sigma"],
        "searches": len(searches),
        "trials": sum(n for n, _ in searches),
        "trials_without_step": sum(n for n, stepped in searches if not stepped),
        "searches_without_step": sum(not stepped for _, stepped in searches),
        "trials_per_search": {str(n): histogram[n] for n in sorted(histogram)},
    }


def main(argv: list[str] | None = None) -> int:
    args = timing.parser(__doc__).parse_args(argv)
    coneprog, qcore = timing.load(args.src, "coneprog", "qcore")
    import numpy as np

    out = {}
    for d_a, d_b in SHAPES:
        rho = qcore.random_density([d_a, d_b], np.random.default_rng([SEED, d_a, d_b]))
        repeats = 3 if (d_a, d_b) in SLOW else REPEATS
        sol, record = timing.measure(lambda: coneprog.solve_min_trace(rho, d_a, d_b), repeats)
        digest = hashlib.sha256(np.float64(sol.optimum).tobytes() + sol.sigma.tobytes() + sol.dual.tobytes())
        bumped = rho.copy()
        bumped[0, 0] = np.nextafter(rho[0, 0].real, np.inf)
        out[f"{d_a}x{d_b}"] = {
            **record,
            "newton_steps": sol.newton_steps,
            "newton_steps_one_ulp": coneprog.solve_min_trace(bumped, d_a, d_b).newton_steps,
            "ms_per_step": round(1e3 * record["median_s"] / max(sol.newton_steps, 1), 4),
            **census(coneprog, rho, d_a, d_b),
            "digest": digest.hexdigest()[:16],
        }
    timing.emit({"shapes": out})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
