#!/usr/bin/env python3
"""Time state validation: ``make_state`` on mixed inputs and state-file loading.

    python3 scripts/time_state_validation.py [SRC_DIR] [--sizes 256,1024] [--joints 32,64] [--parse-sizes 1024]

SRC_DIR, the BLAS threads and the fingerprint are as ``timing.py`` describes.
For each side D it builds one random full-rank density matrix, and for each
d in ``--joints`` the joint of the ``gershgorin`` criterion's overlap family,
``acceptance.overlap_family(d, rng)`` of the timed tree on a generator
seeded with SEED: d nonzero rows of D = d^2 on C1 (x) R, which
``make_state`` validates on its d x d block, and sigma^R = diag(c_j^2) of
its amplitudes.  For each parse size it writes one state file to a
temporary directory.  Every case is timed by ``timing.measure``.  It prints
one JSON object:

- ``cases``: the ``timing.measure`` record of each case, keyed
  ``make_state.D`` for the full-rank sides; ``make_state.joint<d>`` for
  ``make_state`` of a joint and ``min_entropy_relative.joint<d>`` for
  H_min(C1 R | R) of the validated joint relative to sigma^R, each over
  JOINT_REPEATS calls, with ``value`` as ``float.hex``; and
  ``json_load.D`` and ``parse_state_file.D`` for ``json.load`` of a state
  file alone and the whole ``cli.parse_state_file`` of it, which also give
  ``file_mb``;
- ``fingerprint``.

The input matrices are drawn from fixed seeds.  Building them and writing
the files is not timed.  A state file of side D holds D^2 [re, im] pairs,
52 MB at D = 1024 and 208 MB at D = 2048, and ``json.load`` holds all of
them as Python lists, so mind the memory before adding larger parse sizes.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import timing  # before numpy: it pins BLAS at one thread

SEED = 8
PARSE_REPEATS = 1  # a D = 2048 file takes about 8 s to parse
JOINT_REPEATS = 7


def _sizes(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _repeats(side: int) -> int:
    return 7 if side <= 256 else 5 if side <= 1024 else 3 if side <= 2048 else 1


def time_make_state(qcore, matrix) -> dict:
    side = matrix.shape[0]

    def validate() -> None:  # returns nothing, so no validated copy stays alive while the next is timed
        qcore.make_state([("A", side)], matrix)

    return timing.measure(validate, _repeats(side))[1]


def time_joint(acceptance, entropy, qcore, d: int) -> dict:
    import numpy as np

    _, coeff, big = acceptance.overlap_family(d, np.random.default_rng(SEED))
    systems = [("C1", d), ("R", d)]
    sigma = qcore.make_state([("R", d)], np.diag(coeff**2).astype(complex))
    joint = qcore.make_state(systems, big)

    def validate() -> None:  # as in time_make_state
        qcore.make_state(systems, big)

    value, record = timing.measure(lambda: entropy.min_entropy_relative(joint, sigma), JOINT_REPEATS)
    return {
        f"make_state.joint{d}": timing.measure(validate, JOINT_REPEATS)[1],
        f"min_entropy_relative.joint{d}": {**record, "value": value.hex()},
    }


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
    file_mb = round(path.stat().st_size / 1e6, 1)

    def load() -> None:  # as in time_make_state
        with open(path, "r", encoding="utf-8") as fh:
            json.load(fh)

    def parse() -> None:
        cli.parse_state_file(path)

    cases = {
        f"json_load.{side}": {**timing.measure(load, PARSE_REPEATS)[1], "file_mb": file_mb},
        f"parse_state_file.{side}": {**timing.measure(parse, PARSE_REPEATS)[1], "file_mb": file_mb},
    }
    path.unlink()
    return cases


def main(argv: list[str] | None = None) -> int:
    parser = timing.parser(__doc__)
    parser.add_argument("--sizes", type=_sizes, default=_sizes("256,1024,2048,4096"), help="make_state sides")
    parser.add_argument("--joints", type=_sizes, default=_sizes("32,64"), help="overlap-family joints, by d")
    parser.add_argument("--parse-sizes", type=_sizes, default=_sizes("1024,2048"), help="state-file sides")
    args = parser.parse_args(argv)
    acceptance, cli, entropy, qcore = timing.load(args.src, "acceptance", "cli", "entropy", "qcore")
    import numpy as np

    rng = np.random.default_rng(SEED)
    cases = {}
    for side in args.sizes:
        cases[f"make_state.{side}"] = time_make_state(qcore, qcore.random_density([side], rng))
    for d in args.joints:
        cases.update(time_joint(acceptance, entropy, qcore, d))
    with tempfile.TemporaryDirectory() as tmp:
        for side in args.parse_sizes:
            cases.update(time_parse(cli, qcore, side, rng, Path(tmp)))
    timing.emit({"cases": cases})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
