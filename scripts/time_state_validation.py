#!/usr/bin/env python3
"""Time state validation: ``make_state`` on mixed inputs and state-file loading.

    python3 scripts/time_state_validation.py [SRC_DIR] [--sizes 256,1024] [--joints 32] [--parse-sizes 1024]

SRC_DIR, the BLAS threads and the fingerprint are as ``timing.py`` describes.
For each side D it builds one random full-rank density matrix, and for each
d in ``--joints`` the benchmark's joint of the ``gershgorin`` criterion's
overlap family (d nonzero rows of D = d^2, see overlap_joint), and prints,
as one JSON object:

- ``make_state_s``: the median seconds of ``make_state`` over the repeats,
  for each full-rank side;
- ``make_state_joint_s``: the same for each overlap-family joint, keyed by d;
- ``parse_state_file_s``: for each parse size, the seconds of the whole
  ``cli.parse_state_file`` and of its ``json.load`` alone, from one file
  written to a temporary directory;
- ``fingerprint``.

The input matrices are drawn from a fixed seed.  Building them and writing
the files is not timed.  A state file of side D holds D^2 [re, im] pairs,
52 MB at D = 1024 and 208 MB at D = 2048, and ``json.load`` holds all of
them as Python lists, so mind the memory before adding larger parse sizes.
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time
from pathlib import Path

import timing  # before numpy: it pins BLAS at one thread

SEED = 8


def _sizes(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _repeats(side: int) -> int:
    return 7 if side <= 256 else 5 if side <= 1024 else 3 if side <= 2048 else 1


def overlap_joint(d: int, directory: Path):
    """The benchmark's overlap-family joint for d: d nonzero rows of D = d^2.

    It is built by ``_overlap_family`` of ``bench/workloads.py``, which makes
    the draws of ``entlab.acceptance.overlap_family`` with the bias from
    [0.05, 0.4), from a generator seeded with SEED.  It is taken from the
    benchmark rather than the package so that every SRC_DIR is timed on the
    same matrix, also one whose package has no such helper.
    """
    from workloads import _Inputs, _overlap_family

    return _overlap_family(_Inputs("time_state_validation", SEED, directory), d, 0)[1]


def time_make_state(qcore, matrix) -> list[float]:
    side = matrix.shape[0]
    seconds = []
    for _ in range(_repeats(side)):
        start = time.perf_counter()
        qcore.make_state([("A", side)], matrix)
        seconds.append(time.perf_counter() - start)
    return seconds


def time_parse(cli, qcore, side: int, rng, directory: Path) -> dict:
    matrix = qcore.random_density([side], rng)
    spec = {
        "systems": [{"label": "A", "dim": side}],
        "state": {"kind": "mixed", "matrix": [[[z.real, z.imag] for z in row] for row in matrix.tolist()]},
    }
    path = directory / f"mixed{side}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    del spec, matrix
    start = time.perf_counter()
    with open(path, "r", encoding="utf-8") as fh:
        json.load(fh)
    json_s = time.perf_counter() - start
    start = time.perf_counter()
    cli.parse_state_file(path)
    total_s = time.perf_counter() - start
    file_mb = path.stat().st_size / 1e6
    path.unlink()
    return {"parse_state_file_s": total_s, "json_load_s": json_s, "file_mb": round(file_mb, 1)}


def main(argv: list[str] | None = None) -> int:
    parser = timing.parser(__doc__)
    parser.add_argument("--sizes", type=_sizes, default=_sizes("256,1024,2048,4096"), help="make_state sides")
    parser.add_argument("--joints", type=_sizes, default=_sizes("32"), help="overlap-family joints, by d")
    parser.add_argument("--parse-sizes", type=_sizes, default=_sizes("1024,2048"), help="state-file sides")
    args = parser.parse_args(argv)
    cli, qcore = timing.load(args.src, "cli", "qcore")
    import numpy as np

    rng = np.random.default_rng(SEED)
    make_state = {}
    for side in args.sizes:
        runs = time_make_state(qcore, qcore.random_density([side], rng))
        make_state[str(side)] = {"median_s": statistics.median(runs), "runs_s": runs}
    make_state_joint = {}
    parse = {}
    with tempfile.TemporaryDirectory() as tmp:
        for d in args.joints:
            runs = time_make_state(qcore, overlap_joint(d, Path(tmp)))
            make_state_joint[str(d)] = {"median_s": statistics.median(runs), "runs_s": runs}
        for side in args.parse_sizes:
            parse[str(side)] = time_parse(cli, qcore, side, rng, Path(tmp))
    timing.emit({"make_state_s": make_state, "make_state_joint_s": make_state_joint, "parse_state_file_s": parse})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
