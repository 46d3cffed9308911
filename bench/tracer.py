"""Span tracer for the traced benchmark run.

While installed, it replaces the public functions of the entlab modules and
the numpy.linalg factorisation entry points with wrappers that record one span
per call.  A span's self time is its duration minus the durations of the spans
it caused, and the wrappers' own bookkeeping goes to a separate ``trace``
bucket, so the layer self times plus that bucket add up to at most the traced
wall time.  Nothing under ``src/`` knows about the tracer: it patches module
attributes from the outside and puts every original back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("qcore", "entropy", "coneprog", "decoupling", "regions", "assisted", "protocols", "typicality", "cli")
LINALG_FUNCS = ("eigvalsh", "eigh", "eig", "eigvals", "svd", "qr", "cholesky", "inv", "solve", "slogdet", "det", "lstsq", "pinv")
EIG_FUNCS = frozenset({"eigvalsh", "eigh", "eig", "eigvals"})


def wrap_targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, layer) for every function the tracer wraps."""
    targets = []
    for layer in LAYERS:
        module = importlib.import_module(f"entlab.{layer}")
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            targets.append((module, name, layer))
    targets.extend((np.linalg, name, "linalg") for name in LINALG_FUNCS)
    return targets


class Tracer:
    """Accumulates spans and counters over every pass run while it is installed."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.inclusive_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.eig_dim_max = 0
        self.bookkeeping_s = 0.0
        self._paused = False
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        from entlab import regions

        self._region_spec = regions.RegionSpec
        for owner, name, layer in wrap_targets():
            original = getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(f"{layer}.{name}", name, original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block pass straight through, unrecorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, key: str, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            entered = clock()
            self._before(key, name, args, kwargs)
            eig_before = self.counts["linalg.eig.calls"]
            frame = [0.0]
            stack.append(frame)
            start = clock()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[key] += 1
                self.inclusive_s[key] += elapsed
                self.self_s[key] += elapsed - frame[0]
                if returned:
                    self._after(key, result, self.counts["linalg.eig.calls"] - eig_before)
                # The wrapper's own work, outside [start, start + elapsed], goes
                # to the trace bucket and is hidden from the caller's self time.
                spent = clock() - entered
                self.bookkeeping_s += spent - elapsed
                if stack:
                    stack[-1][0] += spent
            return result

        return traced

    def _before(self, key: str, name: str, args, kwargs) -> None:
        if name in EIG_FUNCS and key.startswith("linalg."):
            shape = np.shape(args[0] if args else kwargs["a"])
            side = int(shape[-1])
            batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            self.counts["linalg.eig.calls"] += batch
            self.counts["linalg.eig.cube_sum"] += batch * side**3
            self.eig_dim_max = max(self.eig_dim_max, side)
        elif key == "qcore.make_state":
            matrix = args[1] if len(args) > 1 else kwargs["matrix"]
            side = int(np.shape(matrix)[0])
            self.counts["qcore.make_state.elems"] += side * side

    def _after(self, key: str, result, nested_eigs: int) -> None:
        if key.startswith("regions."):
            specs = result if isinstance(result, tuple) else (result,)
            specs = [s for s in specs if isinstance(s, self._region_spec)]
            if specs:
                self.counts["regions.constraints"] += sum(len(s.constraints) for s in specs)
                self.counts["regions.region_eigs"] += nested_eigs
        elif key == "entropy.conditional_min_entropy":
            self.counts["coneprog.newton_steps"] += result.iterations
        elif key == "decoupling.simulate_random_instrument":
            self.counts["decoupling.samples"] += result.samples
        elif key == "decoupling.twirl_average_check":
            self.counts["decoupling.twirl_samples"] += result.samples
        elif key == "protocols.hashing_simulation":
            trials = int(result.aggregate["trials"])
            self.counts["protocols.hashing.trials"] += trials
            self.counts["protocols.hashing.rounds"] += trials * int(result.aggregate["rounds_run"])

    # -- results ----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS + ("linalg",)}
        for key, value in self.self_s.items():
            out[key.split(".", 1)[0]] += value
        return out

    def metrics(self, passes: int, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each averaged over ``passes`` traced passes."""
        per = 1.0 / passes
        calls_by_layer: Counter = Counter()
        for key, n in self.calls.items():
            calls_by_layer[key.split(".", 1)[0]] += n
        out: dict[str, tuple[float, str]] = {}
        for layer, seconds in self.layer_self_s().items():
            out[f"{layer}.calls"] = (calls_by_layer[layer] * per, "count")
            out[f"{layer}.self_s"] = (seconds * per, "s")
        c = self.counts
        out["linalg.eig.calls"] = (c["linalg.eig.calls"] * per, "count")
        out["linalg.eig.dim_max"] = (float(self.eig_dim_max), "dim")
        out["linalg.eig.cube_sum"] = (c["linalg.eig.cube_sum"] * per, "dim3")
        out["qcore.make_state.calls"] = (self.calls["qcore.make_state"] * per, "count")
        out["qcore.make_state.self_s"] = (self.self_s["qcore.make_state"] * per, "s")
        out["qcore.make_state.elems"] = (c["qcore.make_state.elems"] * per, "elems")
        out["qcore.partial_trace.calls"] = (self.calls["qcore.partial_trace"] * per, "count")
        out["qcore.permute_systems.calls"] = (self.calls["qcore.permute_systems"] * per, "count")
        out["entropy.von_neumann.calls"] = (self.calls["entropy.von_neumann"] * per, "count")
        out["regions.constraints"] = (c["regions.constraints"] * per, "count")
        out["regions.eig_per_constraint"] = (_ratio(c["regions.region_eigs"], c["regions.constraints"]), "eig/constraint")
        out["coneprog.solves"] = (self.calls["coneprog.solve_min_trace"] * per, "count")
        out["coneprog.newton_steps"] = (c["coneprog.newton_steps"] * per, "count")
        out["coneprog.ms_per_newton_step"] = (
            1e3 * _ratio(self.inclusive_s["coneprog.solve_min_trace"], c["coneprog.newton_steps"]),
            "ms/step",
        )
        out["assisted.objective_calls"] = (self.calls["assisted.average_entropy_for_basis"] * per, "count")
        out["decoupling.samples"] = (c["decoupling.samples"] * per, "count")
        out["decoupling.twirl_samples"] = (c["decoupling.twirl_samples"] * per, "count")
        out["protocols.hashing.trials"] = (c["protocols.hashing.trials"] * per, "count")
        out["protocols.hashing.rounds"] = (c["protocols.hashing.rounds"] * per, "count")
        out["protocols.hashing.ms_per_trial"] = (
            1e3 * _ratio(self.inclusive_s["protocols.hashing_simulation"], c["protocols.hashing.trials"]),
            "ms/trial",
        )
        out["trace.self_s"] = (self.bookkeeping_s * per, "s")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0
