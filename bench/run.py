#!/usr/bin/env python3
"""entlab benchmark: one seeded workload run as a closed loop.

    python3 bench/run.py --workload multiparty --seed 1 --seconds 15 --trace 0

One client issues the workload's task list pass after pass, each task only
after the previous one returned, until ``--seconds`` have passed and at least
MIN_PASSES passes are complete.  Every task's output is checked.  End-to-end
times are given at a nominal machine speed, measured by a reference kernel
run next to every task (see reference_kernel).  With
``--trace 0`` the end-to-end metrics are measured with tracing off; with
``--trace 1`` untraced and traced passes alternate and the per-layer metrics
come from the traced ones.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give the fingerprint and the details.  ``--out FILE``
also writes the whole record, which ``bench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_REPEATS = 3
TAIL_BEYOND = 10
SETUP_REFERENCE_RUNS = 8
# The reference kernel's time on the baseline machine in a quiet phase; times
# are reported at this machine speed (see speed_scale).
REFERENCE_NOMINAL_S = 0.006
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, scipy.optimize, entlab, entlab.cli, entlab.coneprog; print(time.perf_counter() - t)"
)


def pin_blas_threads() -> None:
    """Fix BLAS/OpenMP threads at one before numpy loads.

    One thread on every machine keeps runs in different shells comparable.  On
    a shared two-core machine a second BLAS thread also waits on whatever else
    runs on the other core: a fixed kernel timed in 5 s windows spread 20%
    (interquartile range over median) with two threads and 13% with one.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_entlab():
    """Import entlab from this checkout's src/, never from an installed copy."""
    package = SRC / "entlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} is missing; run the benchmark from a full checkout")
    sys.path.insert(0, str(SRC))
    import entlab

    if Path(entlab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported entlab from {entlab.__file__}, not from {package}")
    return entlab


# ---------------------------------------------------------------------------
# Passes and metrics
# ---------------------------------------------------------------------------


def rounded(obj):
    """Task outputs reduced to 12 significant digits for the output digest."""
    import numpy as np

    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, str):
        return obj
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [rounded(x) for x in obj]
    raise TypeError(f"cannot digest a {type(obj).__name__}")


@functools.cache
def reference_kernel():
    """A fixed kernel of interpreter loops, small numpy calls, a 64x64
    eigendecomposition, a 256x256 product and an 8 MB copy; it returns its
    own run time.

    It does not touch entlab, so no change to the program moves it; only the
    machine's current speed does.  On a shared machine that speed drifts by
    a third over minutes, and timing this kernel next to every task lets the
    benchmark report times at one nominal speed (see speed_scale).
    """
    import numpy as np

    rng = np.random.default_rng(0)
    sym = rng.standard_normal((64, 64))
    sym = sym + sym.T
    square = rng.standard_normal((256, 256))
    tiny = rng.standard_normal((4, 4))
    long = rng.standard_normal(1 << 20)

    def kernel() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        for _ in range(200):
            np.trace(tiny @ tiny)
        for _ in range(2):
            np.linalg.eigvalsh(sym)
        square @ square
        long.copy().sum()
        return time.perf_counter() - start

    return kernel


def speed_scale(reference_s: list[float]) -> float:
    """Factor that turns seconds measured next to these reference timings into
    seconds at the nominal speed: REFERENCE_NOMINAL_S over their mean."""
    return REFERENCE_NOMINAL_S * len(reference_s) / math.fsum(reference_s)


def run_pass(tasks, tracer=None) -> dict:
    """Run every task once, in order; returns wall time, latencies, failures and the output digest.

    ``wall_s`` is the sum of the task-call latencies, so the benchmark's own
    checks stay out of it; with a tracer, recording is paused while a check
    or the reference kernel runs, so the layer metrics count only the calls
    the tasks make.  The reference kernel runs before every task and after
    the last one; ``scale`` is the pass's speed_scale.
    """
    from workloads import CheckFailed

    paused = tracer.paused if tracer is not None else contextlib.nullcontext
    reference = reference_kernel()
    digest = hashlib.sha256()
    latencies: list[float] = []
    reference_s: list[float] = []
    failures: list[str] = []
    for task in tasks:
        with paused():
            reference_s.append(reference())
        t0 = time.perf_counter()
        try:
            out = task.call()
        except Exception as exc:  # a task that raises is a failed task, not an aborted run
            latencies.append(time.perf_counter() - t0)
            failures.append(f"{task.name}: raised {exc!r}")
            continue
        latencies.append(time.perf_counter() - t0)
        try:
            with paused():
                values = rounded(task.check(out))
        except CheckFailed as exc:
            failures.append(f"{task.name}: {exc}")
            continue
        except Exception as exc:
            failures.append(f"{task.name}: check raised {exc!r}")
            continue
        digest.update(task.name.encode())
        digest.update(json.dumps(values).encode())
    with paused():
        reference_s.append(reference())
    return {
        "wall_s": math.fsum(latencies),
        "scale": speed_scale(reference_s),
        "latencies": latencies,
        "failures": failures,
        "digest": digest.hexdigest(),
    }


def tail_quantile(n_tasks: int) -> float:
    """Highest quantile with TAIL_BEYOND tasks beyond it in a run of MIN_PASSES passes.

    Fixing it from the minimum run keeps the same quantile on every run of a
    workload, whatever the number of passes the time budget allows.  A task
    list too short to have ten tasks beyond its median reports the median.
    """
    return max(0.5, 1.0 - TAIL_BEYOND / (MIN_PASSES * n_tasks))


def end_to_end(passes: list[dict], setups: list[float], n_tasks: int) -> tuple[dict, dict]:
    """End-to-end metrics, every time at the nominal speed; raw figures go to the details."""
    import numpy as np

    latencies = np.array([x * p["scale"] for p in passes for x in p["latencies"]])
    q = tail_quantile(n_tasks)
    tail = float(np.quantile(latencies, q))
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] * p["scale"] for p in passes), "s"),
        "task_p50_ms": (1e3 * float(np.median(latencies)), "ms"),
        "task_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "tail_percentile": round(100.0 * q, 3),
        "tail_samples_beyond": int(np.sum(latencies > tail)),
        "task_samples": int(latencies.size),
        "raw_wall_s": statistics.median(p["wall_s"] for p in passes),
    }
    return metrics, details


def measure(tasks, seconds: float, trace: bool) -> tuple[list[dict], list[dict], object]:
    """Run passes until the time budget is spent; returns (untraced, traced, tracer)."""
    from tracer import Tracer

    untraced: list[dict] = []
    traced: list[dict] = []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(tasks))
        if tracer is not None:
            with tracer:
                traced.append(run_pass(tasks, tracer))
        enough = len(traced) >= 1 if trace else len(untraced) >= MIN_PASSES
        if enough and time.perf_counter() - start >= seconds:
            return untraced, traced, tracer


# ---------------------------------------------------------------------------
# Set-up and fingerprint
# ---------------------------------------------------------------------------


def measure_import() -> float:
    """Seconds to import numpy, scipy and entlab in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def set_up(name: str, seed: int, workdir: Path):
    """Import, input generation, state-file writing and warm-up.

    Returns (workload, seconds at the nominal speed, seconds as measured); the
    reference kernel runs SETUP_REFERENCE_RUNS times before and after.
    """
    from workloads import WORKLOADS

    reference = reference_kernel()
    reference_s = [reference() for _ in range(SETUP_REFERENCE_RUNS)]
    import_s = measure_import()
    start = time.perf_counter()
    workload = WORKLOADS[name](seed, workdir)
    workload.warm_up()
    seconds = import_s + time.perf_counter() - start
    reference_s += [reference() for _ in range(SETUP_REFERENCE_RUNS)]
    return workload, seconds * speed_scale(reference_s), seconds


def blas_info() -> dict:
    import ctypes

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": deps.get("name"), "version": deps.get("version"), "threads": int(os.environ["OPENBLAS_NUM_THREADS"])}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, cwd=ROOT, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "entlab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(input_digest: str) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "input_digest": input_digest,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["multiparty", "small-states", "monte-carlo"])
    parser.add_argument("--seed", required=True, type=lambda s: int(s, 0))
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--out", default=None, help="also write the full record as JSON to this file")
    return parser.parse_args(argv)


def run(args) -> dict:
    """Set up, measure and check one workload; returns the full record."""
    workroot = ROOT / ".bench_work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot))
    try:
        setups, raw_setups, digests = [], [], set()
        for _ in range(SETUP_REPEATS):
            workload, seconds, raw_seconds = set_up(args.workload, args.seed, workdir)
            setups.append(seconds)
            raw_setups.append(raw_seconds)
            digests.add(workload.input_digest)
        untraced, traced, tracer = measure(workload.tasks, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass  # another run still holds its own directory there

    passes = untraced + traced
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if len(digests) != 1:
        failures.append("set-up: the same seed produced different inputs")
    metrics, details = end_to_end(untraced, setups, len(workload.tasks))
    if args.trace:
        # Per-layer metrics are means per traced pass, so the walls are means
        # too; the overhead compares the two kinds of pass at the nominal speed.
        traced_wall = statistics.mean(p["wall_s"] for p in traced)
        overhead = statistics.mean(p["wall_s"] * p["scale"] for p in traced) - statistics.mean(
            p["wall_s"] * p["scale"] for p in untraced)
        metrics = tracer.metrics(len(traced), overhead)
        details["traced_wall_s"] = traced_wall
        details["layer_self_s_sum"] = sum(tracer.layer_self_s().values()) / len(traced)
    output_digests = sorted({p["digest"] for p in passes})
    details.update({
        "tasks_per_pass": len(workload.tasks),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
        "output_digest": output_digests[0] if len(output_digests) == 1 else "unstable",
        "setup_runs_s": setups,
        "raw_setup_runs_s": raw_setups,
        "pass_scales": [p["scale"] for p in untraced],
        "task_names": [task.name for task in workload.tasks],
        "raw_pass_walls_s": [p["wall_s"] for p in untraced],
        "raw_pass_latencies_ms": [[1e3 * x for x in p["latencies"]] for p in untraced],
    })
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(digests.pop() if len(digests) == 1 else "unstable"),
        "details": details,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    import_entlab()
    sys.path.insert(0, str(BENCH))
    record = run(args)
    for name, metric in record["result"]["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"fingerprint": record["fingerprint"]}, sort_keys=True))
    print(json.dumps({"details": record["details"]}, sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
