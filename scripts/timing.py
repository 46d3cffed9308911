"""Shared parts of the ``time_*.py`` scripts in this directory.

Each script imports ``entlab`` from SRC_DIR (default: this checkout's
``src/``), so the same script times two versions of the package side by side.
``load`` refuses a SRC_DIR that holds no ``entlab/__init__.py``, or whose
``entlab`` is not the one imported, with ``error: ...`` and exit status 2
before anything is timed, so a mistyped path cannot time another tree.  BLAS
runs at one thread: importing this module pins it, as ``bench/run.py`` does,
so every script imports it before numpy.  Every whole-call timing goes
through ``measure``, which gives seconds at the benchmark's nominal machine
speed.  Each script prints one JSON object through ``emit``, which adds
``fingerprint``: cores, CPU model, the Python, numpy and scipy versions, and
the BLAS name, version and thread count, the count read from OpenBLAS itself.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402  (bench/run.py imports only the standard library at module level)

run.pin_blas_threads()


def parser(doc: str) -> argparse.ArgumentParser:
    """An argument parser described by the first line of ``doc``, with SRC_DIR."""
    p = argparse.ArgumentParser(description=doc.splitlines()[0])
    p.add_argument("src", nargs="?", default=str(ROOT / "src"), help="directory holding the entlab package")
    return p


def package_dir(src: str) -> Path:
    """The ``entlab`` package directory in ``src``; exits 2 if ``src`` holds none."""
    package = Path(src).resolve() / "entlab"
    if not (package / "__init__.py").is_file():
        _fail(f"{package / '__init__.py'} is missing; SRC_DIR must hold the entlab package")
    return package


def load(src: str, *names: str) -> list:
    """The ``entlab`` submodules ``names``, imported from the package in ``src``."""
    package = package_dir(src)
    sys.path.insert(0, str(package.parent))
    import entlab

    if Path(entlab.__file__).resolve().parent != package:
        _fail(f"imported entlab from {entlab.__file__}, not from {package}")
    return [importlib.import_module(f"entlab.{name}") for name in names]


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def measure(call, repeats: int) -> tuple[object, dict]:
    """``call()``'s result and the record of ``repeats`` timed calls.

    One untimed call comes first; its result is returned.  Each timed call
    runs right after one run of the benchmark's ``run.reference_kernel``, and
    one more kernel run follows the last, as in ``run.run_pass``.  The record
    holds ``repeats``, ``median_s``, ``q1_q3_s`` and ``speed_scale``
    (``run.speed_scale`` of the kernel runs), each to four significant
    digits; its seconds are at the benchmark's nominal speed, and raw seconds
    are those over ``speed_scale``.
    """
    first = call()
    kernel = run.reference_kernel()
    seconds, reference_s = [], []
    for _ in range(repeats):
        reference_s.append(kernel())
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    reference_s.append(kernel())
    scale = run.speed_scale(reference_s)
    # statistics.quantiles refuses a single value; one call is its own quartiles
    q1, median, q3 = statistics.quantiles(seconds, n=4) if repeats > 1 else seconds * 3
    return first, {
        "repeats": repeats,
        "median_s": _significant(median * scale),
        "q1_q3_s": [_significant(q1 * scale), _significant(q3 * scale)],
        "speed_scale": _significant(scale),
    }


def _significant(x: float) -> float:
    return float(f"{x:.4g}")


def fingerprint() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": run.cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": run.blas_info(),
    }


def emit(payload: dict) -> None:
    """Print ``payload`` with the machine's ``fingerprint`` as one JSON object."""
    json.dump({**payload, "fingerprint": fingerprint()}, sys.stdout, indent=1)
    print()
