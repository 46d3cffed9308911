#!/usr/bin/env python3
"""List every reported value that differs between two entlab trees, with the evidence behind each move.

    python3 scripts/digit_ledger.py OLD_SRC NEW_SRC [--sources cli,verify,golden,bench]

OLD_SRC and NEW_SRC each hold an ``entlab`` package; a directory without
one is refused as ``timing.py`` describes.  Each tree runs in its own
interpreter at one BLAS thread, the old one five times (see ``cone`` and
``phase`` below), all at once, on the same inputs, all taken from this
checkout:

- ``cli``: the golden JSON and CSV cases of ``tests/test_cli.py``, run in
  ``tests/data``, with every float printed to 17 significant digits instead
  of 12, so that a move below the printed digits shows too;
- ``verify``: the verdict and detail line of every ``entlab verify``
  criterion;
- ``golden``: the cone, eoa, instrument and hashing golden inputs of
  ``tests/data``, run as their tests run them;
- ``bench``: every task of the three benchmark workloads at seeds 1-10, one
  pass each, with the values each task's check returns before the benchmark
  rounds and digests them.

An output is one case, criterion, golden input or task; a field is one value
in it.  A field moves when it is not the same float (the same ``repr``), or,
for any other value, not equal.  Each moved field is listed with its old and
new values, |delta|, both 12-significant-digit strings and the evidence that
its old digits were not certified.  The ledger knows four kinds of
evidence, all read from the old tree:

- ``pure``: a pure state has spec(rho_T) = spec(rho_{T^c}) in exact
  arithmetic, so the old tree's own max |S(T) - S(T^c)|, each side reduced
  and decomposed on its own, over the label sets that the output read from
  pure states (with S(empty) = 0) is the roundoff its entropies carry.  A
  state counts as pure when ``is_pure`` says so, which admits a matrix of
  purity down to 1 - PURITY_TOL (1 - 1e-9): on a nearly pure state the gap
  can exceed roundoff, and BOUND still caps every move.  It holds for every
  field of the output.
- ``cone``: each ``conditional_min_entropy`` result certifies the interval
  [``dual_bound``, ``optimum``], which holds the true optimum; ``cone_width``
  is the widest of them, relative to its optimum, over the results the
  output read.  A third collection runs the old tree with every such result
  scaled by 1 + TAINT, optimum and dual bound alike.  The fields that it
  moves are the ones read from the cone, and its move over TAINT converts
  the width into the field's unit: cone_width times the optimum for a raw
  optimum, dual bound or 2^H_max, about log2(optimum / dual_bound) for an
  H_min, an H_max or a cost built from them.
- ``phase``: a global phase changes no density operator, so in exact
  arithmetic no reported value.  Every state stored as amplitudes enters
  through ``qcore.pure_state``; three more collections run the old tree with
  its amplitudes multiplied by e^{i theta}, one per theta in PHASES.  The
  same collections left-multiply every random-instrument unitary drawn by
  ``qcore.haar_unitaries_per_stream`` by diag(e^{i theta k}): a diagonal
  commutes with every outcome projector of the computational basis and with
  tau x psi^R, so no probability or distance changes either, and dense
  inputs to the instrument get evidence too.  The largest
  |field(theta) - field| over the output's float fields and the three
  phases is the roundoff that its values carry.  It holds for every field of
  the output; a spread of 0 is none.  The ``support2`` instrument goldens
  replace the Haar draw by fixed unitaries, and get the same diagonal
  phases on those.
- ``weight``: a random instrument's probabilities sum to the weight
  ||V||_F^2 of its working factor V (``decoupling._working_factor``), which
  equals Tr rho of the input state only up to roundoff, and that defect
  moves every probability and distance with it.  ``weight`` is the largest
  |(||V||_F^2 - Tr rho)| / Tr rho over the instrument calls of the output,
  and a float field's weight evidence is it times |field|.  A tree without
  ``_working_factor`` gives none; a defect of 0 is none.

A field's evidence is the largest of the kinds that it has; the
``evidence`` column holds it, and the ``evidence`` object of the payload
every kind for each output with a moved field.  A field with none has none,
and the column says so.  A moved float is explained when |delta| is at most
EVIDENCE_FACTOR times its evidence (``delta_over_evidence`` gives the
ratio): a reported value such as S(T|rest) is a difference of two
entropies, and each may carry that roundoff.  A larger move, or one without
evidence, is unexplained.

Newton step counts are work counts, not reported values.  A moved integer
field whose old value is the step count of a cone solve that the output ran
in the old tree, and whose new value is one in the new tree, is listed under
``work_counts`` (output, field, old, new) and not under ``moved``.

It prints one JSON object: ``summary``, per source the outputs, fields,
moved fields, those whose 12-digit string moved, the largest |delta| and
|delta| / evidence, the moved fields unexplained or beyond BOUND, and the
moved work counts; ``evidence``; ``moved``, one row per moved field;
``work_counts``; and ``fingerprint``.  The exit status is 0 when every moved
field is a float within BOUND of its old value and explained, else 1; a tree
against a copy of itself lists nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import timing  # before numpy: it pins BLAS at one thread

SOURCES = ("cli", "verify", "golden", "bench")
SEEDS = range(1, 11)
MODULES = ("acceptance", "assisted", "cli", "decoupling", "entropy", "protocols", "qcore")
BOUND = 1e-11  # the largest |delta| a moved float may have
EVIDENCE_FACTOR = 2.0  # the largest |delta| / evidence of an explained move: a difference of two entropies
TAINT = 1e-9  # the relative scaling of cone results that finds the fields read from them
PHASES = (0.7, 1.9, 2.6)  # the phases theta, in radians, of the phase collections
TESTS = timing.ROOT / "tests"
DATA = TESTS / "data"
FULL_DIGITS = 17  # enough for every float to round-trip
NO_EVIDENCE = ("none: the output reads no pure state and no instrument factor, moves under no global phase,"
               " and the field no cone value")
ABSENT = "<absent>"  # a field that one tree's output does not have
COLUMNS = ("output", "field", "old", "new", "abs_delta", "old_12", "new_12", "evidence", "delta_over_evidence")
WORK_COLUMNS = ("output", "field", "old", "new")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--collect"]:
        return collect(argv[1:])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", help="directory holding the old entlab package")
    p.add_argument("new", help="directory holding the new entlab package")
    _add_sources_option(p)
    args = p.parse_args(argv)
    for src in (args.old, args.new):
        timing.package_dir(src)
    old, new, tainted, *phased = _collect_all([args.old, "--sources", args.sources, "--evidence"],
                                              [args.new, "--sources", args.sources],
                                              [args.old, "--sources", args.sources, "--taint"],
                                              *([args.old, "--sources", args.sources, "--phase", repr(theta)] for theta in PHASES))
    old["tainted"] = tainted["outputs"]
    old["phased"] = [run["outputs"] for run in phased]
    rows, work = moved_rows(old, new)
    summary = summarize(old, new, rows, work)
    payload = {"old": str(Path(args.old).resolve()), "new": str(Path(args.new).resolve()),
               "bound": BOUND, "evidence_factor": EVIDENCE_FACTOR,
               "sources": args.sources.split(","), "summary": summary,
               "evidence": {output: evidence_kinds(old, output) for output in dict.fromkeys(row[0] for row in rows)},
               "fingerprint": timing.fingerprint(), "moved_columns": list(COLUMNS), "work_columns": list(WORK_COLUMNS)}
    print(_dump(payload, {"moved": rows, "work_counts": work}))
    return 0 if all(s["unexplained"] == s["beyond_bound"] == 0 for s in summary.values()) else 1


def _add_sources_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sources", default=",".join(SOURCES), help=f"comma-separated subset of {', '.join(SOURCES)}")


def _collect_all(*collections: list[str]) -> list[dict]:
    """Run the collections at once, each in its own interpreter, and read what they print."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for i, args in enumerate(collections):
            path = Path(tmp) / f"{i}.json"
            with open(path, "w", encoding="utf-8") as out:  # the child keeps its own descriptor
                runs.append((path, args[0], subprocess.Popen([sys.executable, __file__, "--collect", *args], stdout=out, env=env)))
        for _, src, proc in runs:
            if proc.wait() != 0:
                timing._fail(f"collecting from {src} exited with status {proc.returncode}")
        return [json.loads(path.read_text(encoding="utf-8")) for path, _, _ in runs]


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _same(x, y) -> bool:
    if isinstance(x, float) and isinstance(y, float):
        return repr(x) == repr(y)
    return type(x) is type(y) and x == y


def _twelve(x) -> str | None:
    return f"{x:.12g}" if isinstance(x, float) else None


def evidence_kinds(old: dict, output: str) -> dict:
    """The old tree's evidence for ``output``: ``pure``, the widest relative cone interval, ``phase``
    and the relative ``weight`` defect of its instrument factors."""
    widths = [max(0.0, optimum - dual) / optimum for dual, optimum, _ in old["cones"].get(output, [])]
    fields = old["outputs"].get(output, {})
    spreads = [abs(z - x) for run in old["phased"] for field, z in run.get(output, {}).items()
               if isinstance(x := fields.get(field), float) and isinstance(z, float) and math.isfinite(z - x)]
    return {"pure": old["evidence"].get(output), "cone_width": max(widths, default=None),
            "phase": max(spreads, default=0.0) or None, "weight": old["weights"].get(output) or None}


def field_evidence(old: dict, kinds: dict, output: str, field: str) -> float | None:
    """The largest of the pure and phase evidence, for a float field the weight defect times |field|,
    and for a field read from the cone the cone width in its unit."""
    known = [kinds["pure"], kinds["phase"]]
    x, z = old["outputs"].get(output, {}).get(field), old["tainted"].get(output, {}).get(field)
    if kinds["weight"] is not None and isinstance(x, float):
        known.append(kinds["weight"] * abs(x))
    if kinds["cone_width"] is not None and isinstance(x, float) and isinstance(z, float) and not _same(x, z):
        known.append(abs(z - x) / TAINT * kinds["cone_width"])
    return max((e for e in known if e is not None), default=None)


def _is_steps(value, output: str, side: dict) -> bool:
    """True when ``value`` is an int and the step count of a cone solve of ``output`` in ``side``."""
    return type(value) is int and value in {steps for *_, steps in side["cones"].get(output, [])}


def moved_rows(old: dict, new: dict) -> tuple[list[list], list[list]]:
    """One row (see COLUMNS) per field whose value differs, or exists on one side only,
    and one (see WORK_COLUMNS) per moved Newton step count."""
    rows, work = [], []
    missing = object()
    for output in sorted(set(old["outputs"]) | set(new["outputs"])):
        a, b = old["outputs"].get(output, {}), new["outputs"].get(output, {})
        kinds = evidence_kinds(old, output)
        for field in list(a) + [f for f in b if f not in a]:
            x, y = a.get(field, missing), b.get(field, missing)
            if _same(x, y):
                continue
            if _is_steps(x, output, old) and _is_steps(y, output, new):
                work.append([output, field, x, y])
                continue
            gap = field_evidence(old, kinds, output, field)
            evidence = NO_EVIDENCE if gap is None else gap
            x, y = (ABSENT if v is missing else v for v in (x, y))
            delta = abs(y - x) if isinstance(x, float) and isinstance(y, float) else None
            ratio = delta / gap if delta is not None and gap else None
            rows.append([output, field, x, y, delta, _twelve(x), _twelve(y), evidence, ratio])
    return rows, work


def summarize(old: dict, new: dict, rows: list[list], work: list[list]) -> dict:
    summary = {}
    for output in sorted(set(old["outputs"]) | set(new["outputs"])):
        s = summary.setdefault(output.split("/")[0], {
            "outputs": 0, "fields": 0, "moved": 0, "moved_12": 0, "max_abs_delta": 0.0,
            "max_delta_over_evidence": 0.0, "unexplained": 0, "beyond_bound": 0, "work_counts": 0,
        })
        s["outputs"] += 1
        s["fields"] += len(new["outputs"].get(output, old["outputs"].get(output, {})))
    for output, _, _, _, delta, old_12, new_12, _, ratio in rows:
        s = summary[output.split("/")[0]]
        s["moved"] += 1
        s["moved_12"] += old_12 != new_12
        s["unexplained"] += ratio is None or not ratio <= EVIDENCE_FACTOR
        s["beyond_bound"] += delta is None or not delta <= BOUND
        if delta is not None:
            s["max_abs_delta"] = max(s["max_abs_delta"], delta)
        if ratio is not None:
            s["max_delta_over_evidence"] = max(s["max_delta_over_evidence"], ratio)
    for output, *_ in work:
        summary[output.split("/")[0]]["work_counts"] += 1
    return summary


def _dump(payload: dict, tables: dict[str, list[list]]) -> str:
    """``payload`` indented, then each table with one row per line."""
    text = json.dumps(payload, indent=1)[:-2]
    for name, rows in tables.items():
        body = ",".join("\n  " + json.dumps(row) for row in rows)
        text += f',\n "{name}": [' + body + ("\n ]" if rows else "]")
    return text + "\n}"


# ---------------------------------------------------------------------------
# Collection, inside one tree
# ---------------------------------------------------------------------------


def collect(argv: list[str]) -> int:
    """Print, as one JSON object, the fields of every output of ``--sources`` in the tree at SRC,
    the cone solves each output read (:class:`ConeReads`), and with ``--evidence``
    each output's price (:class:`PureReads`) and weight defect (:class:`WeightReads`);
    with ``--taint`` every cone result is scaled by 1 + TAINT, and with ``--phase THETA``
    every amplitude vector given to ``qcore.pure_state`` is multiplied by e^{i THETA}
    and every unitary of ``qcore.haar_unitaries_per_stream`` by diag(e^{i THETA k})
    (:func:`_phased_unitaries`)."""
    p = argparse.ArgumentParser()
    p.add_argument("src")
    _add_sources_option(p)
    p.add_argument("--evidence", action="store_true")
    p.add_argument("--taint", action="store_true")
    p.add_argument("--phase", type=float)
    args = p.parse_args(argv)
    modules = dict(zip(MODULES, timing.load(args.src, *MODULES)))
    sys.path.insert(0, str(TESTS))
    import pytest

    outputs, evidence, weights, cones = {}, {}, {}, {}
    with pytest.MonkeyPatch.context() as mp:
        cli = modules["cli"]
        round_floats, format_cell = cli._round_floats, cli._format_cell
        mp.setattr(cli, "_round_floats", lambda obj, digits=12: round_floats(obj, FULL_DIGITS))
        mp.setattr(cli, "_format_cell", lambda value: f"{value:.{FULL_DIGITS}g}" if isinstance(value, float) else format_cell(value))
        reads = PureReads(modules["entropy"], modules["qcore"], mp) if args.evidence else None
        factors = WeightReads(modules["decoupling"], mp) if args.evidence else None
        if args.phase is not None:
            mp.setattr(modules["qcore"], "pure_state", _phased_state(modules["qcore"].pure_state, args.phase))
            mp.setattr(modules["qcore"], "haar_unitaries_per_stream",
                       _phased_unitaries(modules["qcore"].haar_unitaries_per_stream, args.phase))
        solves = ConeReads(modules["entropy"], mp, 1.0 + TAINT if args.taint else 1.0)
        for source in args.sources.split(","):
            for output, produce in UNITS[source](modules, args.phase):
                outputs[output] = dict(leaves(produce()))
                evidence[output] = reads.price() if reads else None
                weights[output] = factors.take() if factors else None
                cones[output] = solves.take()
    json.dump({"outputs": outputs, "evidence": evidence, "weights": weights, "cones": cones}, sys.stdout)
    return 0


def _phased_state(pure_state, theta: float):
    """``pure_state`` with its amplitudes multiplied by e^{i theta}."""
    import numpy as np

    phase = np.exp(1j * theta)
    return lambda systems, amplitudes: pure_state(systems, phase * np.asarray(amplitudes, dtype=complex))


def _phased_unitaries(draw, theta: float):
    """``draw(dim, rngs)``, a unitary stack, with each unitary left-multiplied by diag(e^{i theta k})."""
    import numpy as np

    return lambda dim, rngs: np.exp(1j * theta * np.arange(dim))[:, np.newaxis] * draw(dim, rngs)


def leaves(obj, path: str = ""):
    """(field, value) for every scalar in ``obj``, as JSON values; a field is a path like ``a.b[2]``."""
    import numpy as np

    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        for i, value in enumerate(obj):
            yield from leaves(value, f"{path}[{i}]")
    elif isinstance(obj, (bool, np.bool_)):
        yield path, bool(obj)
    elif isinstance(obj, (int, np.integer)):
        yield path, int(obj)
    elif isinstance(obj, (float, np.floating)):
        yield path, float(obj)
    elif obj is None or isinstance(obj, str):
        yield path, obj
    elif isinstance(obj, Fraction):
        yield path, str(obj)
    else:
        raise TypeError(f"{path}: cannot list a {type(obj).__name__}")


class PureReads:
    """The label sets each output reads from pure states, and their price.

    Wraps the subset-entropy table's reads of one entry and, in a tree that
    has it, of a list (``entropies``), ``von_neumann`` and ``spectrum`` of
    the tree; a read of the whole state counts as the set of all its labels.  The
    price reduces and decomposes T and T^c each on its own, whatever side the
    tree's entropies read.
    """

    def __init__(self, entropy, qcore, mp):
        self._qcore = qcore
        self._reads: dict[int, tuple] = {}
        self._paused = False
        table_call, von_neumann, spectrum = entropy._SubsetTable.__call__, entropy.von_neumann, qcore.LabeledState.spectrum

        def read_table(table, part):
            value = table_call(table, part)
            self._read(table._state, part)
            return value

        def read_table_list(table, parts):
            parts = list(parts)
            values = table_list(table, parts)
            for part in parts:
                self._read(table._state, part)
            return values

        def read_von_neumann(state, part=None):
            value = von_neumann(state, part)
            self._read(state, part)
            return value

        def read_spectrum(state):
            self._read(state, None)
            return spectrum(state)

        mp.setattr(entropy._SubsetTable, "__call__", read_table)
        table_list = getattr(entropy._SubsetTable, "entropies", None)
        if table_list is not None:
            mp.setattr(entropy._SubsetTable, "entropies", read_table_list)
        mp.setattr(entropy, "von_neumann", read_von_neumann)
        mp.setattr(qcore.LabeledState, "spectrum", read_spectrum)

    def _read(self, state, part) -> None:
        if self._paused or not state.is_pure:
            return
        labels = state.labels if part is None else self._qcore._normalize_labels(state, part)
        if labels:
            self._reads.setdefault(id(state), (state, set()))[1].add(labels)

    def price(self) -> float | None:
        """max |S(T) - S(T^c)| in this tree over the reads since the last call; None without reads."""
        reads, self._reads = self._reads, {}
        self._paused = True
        try:
            gaps = [
                abs(self._entropy(state, labels) - self._entropy(state, [x for x in state.labels if x not in labels]))
                for state, sets in reads.values()
                for labels in sets
            ]
        finally:
            self._paused = False
        return max(gaps) if gaps else None

    def _entropy(self, state, labels) -> float:
        if not labels:
            return 0.0
        return self._qcore.shannon_entropy(self._qcore.partial_trace(state, labels).spectrum())


class WeightReads:
    """The largest relative weight defect |(||V||_F^2 - Tr rho)| / Tr rho of the random
    instrument's working factors V since the last :meth:`take`, rho the input state."""

    def __init__(self, decoupling, mp):
        import numpy as np

        self._defect: float | None = None
        inner = getattr(decoupling, "_working_factor", None)
        if inner is None:
            return

        def read(state, spec, ref_labels):
            factor = inner(state, spec, ref_labels)
            weight, trace = float(np.vdot(factor, factor).real), state.trace()
            self._defect = max(self._defect or 0.0, abs(weight - trace) / trace)
            return factor

        mp.setattr(decoupling, "_working_factor", read)

    def take(self) -> float | None:
        """The defect since the last call; None without an instrument call."""
        defect, self._defect = self._defect, None
        return defect


class ConeReads:
    """The cone solves each output reads: [dual_bound, optimum, Newton steps] per
    ``conditional_min_entropy`` result, the one door to the cone program.

    With ``scale`` other than 1, each result is handed on with its optimum
    and dual bound multiplied by it.
    """

    def __init__(self, entropy, mp, scale: float):
        self._solves: list[list] = []
        inner = entropy.conditional_min_entropy

        def read(rho, cond):
            result = inner(rho, cond)
            self._solves.append([result.dual_bound, result.optimum, result.iterations])
            if scale == 1.0:
                return result
            return dataclasses.replace(result, optimum=result.optimum * scale, dual_bound=result.dual_bound * scale)

        mp.setattr(entropy, "conditional_min_entropy", read)

    def take(self) -> list[list]:
        """The solves since the last call."""
        solves, self._solves = self._solves, []
        return solves


# ---------------------------------------------------------------------------
# The outputs of each source: (name, thunk) pairs, run in order; theta is the
# phase of a ``--phase`` collection, else None
# ---------------------------------------------------------------------------


def cli_units(m, theta):
    import test_cli

    cli = m["cli"]

    def run(argv: list[str], csv_out: bool) -> dict:
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(DATA):
            out, table = Path(tmp) / "out.json", Path(tmp) / "out.csv"
            code = cli.main(argv + ["--out", str(out)] + (["--csv", str(table)] if csv_out else []))
            if not csv_out:
                return {"exit": code, "json": json.loads(out.read_text(encoding="utf-8"))}
            with open(table, newline="", encoding="utf-8") as fh:
                return {"exit": code, "rows": [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(fh)]}

    for name, argv in sorted(test_cli.GOLDEN_CASES.items()):
        yield f"cli/{name}", lambda argv=argv: run(argv, False)
    for name, argv in sorted(test_cli.CSV_GOLDEN_CASES.items()):
        yield f"csv/{name}", lambda argv=argv: run(argv, True)


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def verify_units(m, theta):
    acceptance = m["acceptance"]

    def run(name: str) -> dict:
        result = acceptance.run_one(name)
        return {"passed": result.passed, "detail": result.detail}

    for name in acceptance.CRITERIA:
        yield f"verify/{name}", lambda name=name: run(name)


def golden_units(m, theta):
    import pytest
    import test_assisted
    import test_coneprog
    import test_decoupling
    import test_protocols

    assisted, decoupling, protocols, qcore = m["assisted"], m["decoupling"], m["protocols"], m["qcore"]

    def cone(spec: dict) -> dict:
        with pytest.MonkeyPatch.context() as mp:
            result, value = test_coneprog._solve(spec, mp)
        return {"value": value, "optimum": result.optimum, "dual_bound": result.dual_bound}

    def eoa(entry: dict) -> dict:
        amplitudes = [complex(re, im) for re, im in entry["amplitudes"]]
        psi = qcore.pure_state([tuple(s) for s in entry["systems"]], amplitudes)
        asymptotic, one_shot = assisted.eoa_pure(psi, entry["a"], entry["b"], entry["c"], grid=entry["grid"], seed=entry["seed"])
        return {"asymptotic": asymptotic, "one_shot": one_shot}

    def instrument(case: dict):
        with pytest.MonkeyPatch.context() as mp:
            if case.get("unitary") == "support2":
                draw = test_decoupling._support_unitaries
                mp.setattr(qcore, "haar_unitaries_per_stream", draw if theta is None else _phased_unitaries(draw, theta))
            senders = tuple(decoupling.sender(*s) for s in case["senders"])
            spec = decoupling.InstrumentSpec(senders=senders, seed=case["seed"], samples=case["samples"])
            state = test_decoupling._golden_state(case["state"])
            return decoupling.simulate_random_instrument(state, spec, case["reference"], keep_outcomes=True)

    def hashing(case: dict) -> dict:
        trace = protocols.hashing_simulation(
            case["p"], case["n"], case["delta"], trials=case["trials"], seed=case["seed"], decoys=case["decoys"]
        )
        return {"outcomes": trace.outcomes, **{k: v for k, v in trace.aggregate.items() if k != "trial_records"}}

    for i, spec in enumerate(test_coneprog.GOLDEN):
        yield f"golden/cone.{i}", lambda spec=spec: cone(spec)
    for i, entry in enumerate(test_assisted.EOA_GOLDEN):
        yield f"golden/eoa.{i}", lambda entry=entry: eoa(entry)
    for case in test_decoupling.INSTRUMENT_GOLDEN:
        yield f"golden/instrument.{case['name']}", lambda case=case: instrument(case)
    for i, case in enumerate(test_protocols.HASHING_GOLDEN + test_protocols.HASHING_ROUNDS_GOLDEN):
        yield f"golden/hashing.{i}", lambda case=case: hashing(case)


def bench_units(m, theta):
    import workloads

    def run(task):
        out = task.call()
        try:
            return task.check(out)
        except workloads.CheckFailed as exc:
            return {"check_failed": str(exc)}

    for name, build in workloads.WORKLOADS.items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                seen: dict[str, int] = {}
                for task in build(seed, Path(tmp)).tasks:
                    k = seen[task.name] = seen.get(task.name, -1) + 1
                    yield f"bench/{name}/s{seed}/{task.name}#{k}", lambda task=task: run(task)


UNITS = {"cli": cli_units, "verify": verify_units, "golden": golden_units, "bench": bench_units}


if __name__ == "__main__":
    raise SystemExit(main())
