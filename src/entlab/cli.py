"""Command-line front end: state files, subcommand dispatch, deterministic
seeding, and machine-readable JSON/CSV outputs."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import secrets
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import assisted, decoupling, entropy, protocols, qcore, regions, typicality

SEED_ENV = "ENTLAB_SEED"


def parse_seed(text: str) -> int:
    """A non-negative seed in any Python integer notation (decimal, 0x.., 0o.., 0b..)."""
    seed = int(text, 0)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return seed


def default_seed() -> int:
    env = os.environ.get(SEED_ENV)
    if not env:
        return qcore.DEFAULT_SEED
    try:
        return parse_seed(env)
    except (ValueError, argparse.ArgumentTypeError):
        raise qcore.StateError(f"{SEED_ENV}={env!r} is not a non-negative integer") from None


def _parse_numbers(text: str) -> list[float]:
    """A comma-separated list of finite floats, e.g. ``0.7,0.3``."""
    message = f"{text!r} is not a comma-separated list of finite numbers"
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(message)
    return values


def _parse_weight(text: str) -> float | Fraction:
    """A float, or an exact fraction such as ``1/3``."""
    try:
        return Fraction(text) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number or a fraction p/q with q != 0") from None


def parse_state_file(path: str | Path) -> qcore.LabeledState:
    """Load a StateSpec JSON file and delegate to the state constructors."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise qcore.StateError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    try:
        return qcore.build_state(spec)
    except qcore.StateError as exc:
        raise qcore.StateError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise qcore.StateError(f"{path}: malformed StateSpec ({exc})") from exc


def _round_floats(obj, digits: int = 12):
    """Round floats to a fixed significant-digit budget for byte-stable output."""
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, Fraction):
        return {"numerator": obj.numerator, "denominator": obj.denominator}
    if isinstance(obj, np.floating):
        return _round_floats(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if is_dataclass(obj) and not isinstance(obj, type):
        return _round_floats(asdict(obj))
    return obj


def emit_json(payload: dict, out_path: str | None) -> None:
    try:
        text = json.dumps(_round_floats(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        # NaN and infinities have no JSON form: refuse the output, write nothing.
        raise qcore.StateError(f"output is not valid JSON: {exc}") from None
    if out_path:
        _replace_file(out_path, text)
    else:
        sys.stdout.write(text)


def emit_csv(rows: list[dict], out_path: str) -> None:
    """Format every row, then write the table as :func:`_replace_file` does."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()) if rows else [])
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _format_cell(v) for k, v in row.items()})
    _replace_file(out_path, buf.getvalue())


def _replace_file(out_path: str, text: str) -> None:
    """Write ``text`` to a random sibling, created exclusively, then rename it over
    the output in one step; a failed write removes the sibling and leaves the output."""
    out = Path(out_path)
    tmp = out.with_name(f".{out.name}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "x", newline="", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        tmp.replace(out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _format_cell(value):
    if isinstance(value, float):
        return f"{value:.12g}"
    return value


def _split_labels(arg: str | None) -> list[str]:
    return [x for x in (arg or "").replace("|", ",").split(",") if x]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_entropy(args) -> int:
    state = parse_state_file(args.state)
    left, _, right = args.split.partition("|")
    # Only H_min and H_2 read sigma, so only they read its file.
    sigma = None
    if args.sigma != "marginal" and args.quantity in ("hmin", "h2", "all"):
        sigma = parse_state_file(args.sigma)
    payload: dict = {"state": str(args.state), "split": args.split}
    payload.update(entropy.entropy_report(state, _split_labels(left), _split_labels(right), args.quantity, sigma))
    if args.csv:
        emit_csv([payload], args.csv)
    emit_json(payload, args.out)
    return 0


# Region options read by some modes only, with those modes; the others reject them.
_REGION_MODE_OPTIONS = {
    "receiver": ("merge", "split"),
    "receiver_b": ("split",),
    "reference": ("cost", "seq"),
    "cut": ("split",),
    "eps": ("cost", "seq"),
    "ordering": ("seq",),
}
_DEFAULT_EPS = 0.1


def cmd_region(args) -> int:
    if args.mode in ("split", "seq") and (args.csv or args.point):
        raise qcore.StateError(f"region --mode {args.mode} writes no CSV and classifies no point; drop --csv and --point")
    ignored = [
        "--" + name.replace("_", "-")
        for name, modes in _REGION_MODE_OPTIONS.items()
        if args.mode not in modes and getattr(args, name) is not None
    ]
    if ignored:
        raise qcore.StateError(
            f"region --mode {args.mode} does not read {', '.join(ignored)}; drop {'it' if len(ignored) == 1 else 'them'}"
        )
    state = parse_state_file(args.state)
    # Split mode hands the constructors the cut and the rest, where a repeat would vanish.
    (senders,) = qcore.distinct_labels(_split_labels(args.senders))
    eps = _DEFAULT_EPS if args.eps is None else args.eps
    payload: dict = {"mode": args.mode}
    if args.mode == "split":
        t_side = _split_labels(args.cut)
        stray = [x for x in t_side if x not in senders]
        if stray:
            raise qcore.StateError(
                f"region --mode split: cut label {stray[0]!r} is not one of the senders {list(senders)!r}"
            )
        tbar_side = [x for x in senders if x not in t_side]
        region_t, region_tbar = regions.split_transfer_region(
            state, t_side, tbar_side, _split_labels(args.receiver), _split_labels(args.receiver_b)
        )
        payload["region_T"] = _region_payload(region_t)
        payload["region_Tbar"] = _region_payload(region_tbar)
    elif args.mode == "seq":
        ordering = _split_labels(args.ordering)
        if sorted(ordering) != sorted(senders):
            raise qcore.StateError(
                f"region --mode seq: the ordering {ordering!r} is not a permutation of the senders {list(senders)!r}"
            )
        entries = regions.sequential_cost(state, ordering, _split_labels(args.reference), eps)
        payload["sequential"] = [asdict(e) for e in entries]
    else:
        if args.mode == "merge":
            region = regions.merging_rate_region(state, senders, _split_labels(args.receiver))
        else:
            region = regions.one_shot_cost_region(state, senders, _split_labels(args.reference), eps)
        payload["region"] = _region_payload(region)
        if args.point:
            verdict = regions.region_membership(region, args.point)
            payload["membership"] = {
                "point": args.point,
                "verdict": verdict.verdict,
                "violated": [list(region.subset_labels(m)) for m in verdict.violated],
                "tight": [list(region.subset_labels(m)) for m in verdict.tight],
            }
        if args.csv:
            emit_csv(payload["region"]["constraints"], args.csv)
    emit_json(payload, args.out)
    return 0


def _region_payload(region: regions.RegionSpec) -> dict:
    return {
        "parties": list(region.parties),
        "kind": region.kind,
        "constraints": [
            {"bitmask": mask, "subset": "+".join(region.subset_labels(mask)), "rhs": rhs}
            for mask, rhs in region.constraints
        ],
    }


def _parse_senders(arg: str, state: qcore.LabeledState) -> list[decoupling.SenderSpec]:
    out = []
    for chunk in arg.split(","):
        parts = chunk.split(":")
        label = parts[0]
        opts = {"K": 1, "L": 1}
        for p in parts[1:]:
            key, _, value = p.partition("=")
            if key.upper() not in opts:
                raise qcore.StateError(f"sender {label!r}: unknown option {key!r}; expected K=<int> or L=<int>")
            try:
                opts[key.upper()] = int(value)
            except ValueError:
                raise qcore.StateError(f"sender {label!r}: {key}={value!r} is not an integer") from None
        out.append(decoupling.sender(label, state.dim_of(label), ancilla=opts["K"], rank=opts["L"]))
    return out


def cmd_decouple(args) -> int:
    state = parse_state_file(args.state)
    senders = _parse_senders(args.senders, state)
    spec = decoupling.InstrumentSpec(senders=tuple(senders), seed=args.seed, samples=args.samples)
    reference = _split_labels(args.reference)
    result = decoupling.simulate_random_instrument(
        state,
        spec,
        reference,
        with_minentropy_bound=args.bound in ("hmin", "both"),
        keep_outcomes=bool(args.csv),
    )
    payload = {
        "empirical_q": result.empirical_q,
        "stderr": result.stderr,
        "analytic_bound": result.analytic_bound if args.bound in ("purity", "both") else None,
        "minentropy_bound": result.minentropy_bound,
        "samples": result.samples,
        "seed": args.seed,
    }
    if args.csv:
        emit_csv(list(result.outcome_rows), args.csv)
    emit_json(payload, args.out)
    return 0


def cmd_twirl(args) -> int:
    report = decoupling.twirl_average_check(args.d, args.L, samples=args.samples, seed=args.seed)
    payload = {
        "d": report.dim,
        "L": report.rank,
        "samples": report.samples,
        "r": report.r,
        "s": report.s,
        "max_deviation": report.max_deviation,
    }
    emit_json(payload, args.out)
    return 0


def cmd_assist(args) -> int:
    cnot = _split_labels(args.cnot)
    if args.cnot and len(cnot) != 2:
        raise qcore.StateError(f"--cnot {args.cnot!r}: expected two labels, control,target")
    helpers = [_split_labels(h) for h in args.helpers.split(";")] if args.helpers else []
    state = parse_state_file(args.state)
    if cnot:
        state = qcore.apply_unitary(state, cnot, qcore.CNOT)
    report = assisted.assisted_lower_bound(state, _split_labels(args.a), _split_labels(args.b), helpers)
    payload = asdict(report)
    emit_json(payload, args.out)
    return 0


def cmd_swap(args) -> int:
    trace = protocols.entanglement_swap(1 - args.lambda2, args.lambda2)
    payload = {
        "outcomes": [
            {"label": o.label, "probability": o.probability, "register": o.register}
            for o in trace.outcomes
        ],
        "scp": trace.aggregate["scp"],
        "exact": trace.aggregate["exact"],
    }
    emit_json(payload, args.out)
    return 0


def cmd_hash_sim(args) -> int:
    trace = protocols.hashing_simulation(args.p, args.n, args.delta, trials=args.trials, seed=args.seed)
    aggregate = {k: v for k, v in trace.aggregate.items() if k != "trial_records"}
    if args.csv:
        rows = [
            {"trial": o.label, **(o.register or {})}
            for o in trace.outcomes
        ]
        emit_csv(rows, args.csv)
    emit_json(aggregate, args.out)
    return 0


def cmd_schmidt(args) -> int:
    trace = protocols.schmidt_projection(args.theta, args.n)
    payload = dict(trace.aggregate)
    payload["outcomes"] = [
        {"label": o.label, "probability": float(o.probability), "rank": o.register["rank"]}
        for o in trace.outcomes
    ]
    emit_json(payload, args.out)
    return 0


def cmd_typ_check(args) -> int:
    try:
        rows = typicality.typical_set_report(args.p, args.n, args.delta)
    except OverflowError as exc:
        raise qcore.StateError(f"typ-check at n = {args.n}: a type-class size or bound exceeds float range ({exc})") from exc
    if args.csv:
        emit_csv(rows, args.csv)
    emit_json({"n": args.n, "delta": args.delta, "rows": rows}, args.out)
    return 0


def cmd_verify(args) -> int:
    from . import acceptance

    results = acceptance.run_all(only=args.only)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.seconds:7.2f}s  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process.

    ``--seed`` defaults to None, which :func:`main` replaces by the
    ENTLAB_SEED default it reads at each call.
    """
    parser = argparse.ArgumentParser(
        prog="entlab",
        description="Numerical laboratory for state merging, decoupling bounds, and assisted distillation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    def seeded(p):
        p.add_argument("--seed", type=parse_seed, default=None, help="root RNG seed")

    def csv_output(p):
        p.add_argument("--csv", default=None, help="optional CSV output path")

    p = sub.add_parser("entropy", help="entropy family of a state for one bipartition")
    p.add_argument("--state", required=True)
    p.add_argument("--split", required=True, help="labels as LEFT|RIGHT, e.g. A|B,C")
    p.add_argument("--quantity", default="all", choices=entropy.QUANTITIES)
    p.add_argument("--sigma", default="marginal", help="conditioning operator: 'marginal' or a state file")
    common(p)
    csv_output(p)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("region", help="rate/cost region constraints and membership")
    p.add_argument("--state", required=True)
    p.add_argument("--mode", required=True, choices=["merge", "split", "cost", "seq"])
    p.add_argument("--senders", required=True, help="comma-separated sender labels")
    # Mode-specific options default to None, so that cmd_region can tell when one is given.
    p.add_argument("--receiver", default=None, help="receiver-side labels (merge; A side for split)")
    p.add_argument("--receiver-b", default=None, help="B-side receiver labels for split mode")
    p.add_argument("--reference", default=None, help="reference labels for cost/seq modes")
    p.add_argument("--cut", default=None, help="T-side labels for split mode")
    p.add_argument("--eps", type=float, default=None, help=f"smoothing for cost/seq modes (default {_DEFAULT_EPS})")
    p.add_argument("--point", type=_parse_numbers, default=None, help="comma-separated rate/cost point to classify (merge, cost)")
    p.add_argument("--ordering", default=None, help="sender ordering for seq mode")
    common(p)
    csv_output(p)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("decouple", help="Monte Carlo decoupling error vs analytic bound")
    p.add_argument("--state", required=True)
    p.add_argument("--senders", required=True, help="e.g. C1:K=1:L=1,C2:K=2:L=1")
    p.add_argument("--reference", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--bound", default="purity", choices=["purity", "hmin", "both"])
    common(p)
    seeded(p)
    csv_output(p)
    p.set_defaults(func=cmd_decouple)

    p = sub.add_parser("twirl", help="Monte Carlo check of the two-copy twirl identity")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--samples", type=int, default=20000)
    common(p)
    seeded(p)
    p.set_defaults(func=cmd_twirl)

    p = sub.add_parser("assist", help="assisted-distillation rate report")
    p.add_argument("--state", required=True)
    p.add_argument("--a", required=True, help="Alice's labels")
    p.add_argument("--b", required=True, help="Bob's labels")
    p.add_argument("--helpers", default="", help="helper groups, ';' between nodes, ',' within")
    p.add_argument("--cnot", default=None, help="apply a CNOT fault: control,target labels")
    common(p)
    p.set_defaults(func=cmd_assist)

    p = sub.add_parser("swap", help="entanglement swapping with optimal singlet conversion")
    p.add_argument("--lambda2", type=_parse_weight, required=True, help="smaller Schmidt weight, float or fraction like 1/3")
    common(p)
    p.set_defaults(func=cmd_swap)

    p = sub.add_parser("hash-sim", help="parity-hashing identification simulation")
    p.add_argument("--p", type=_parse_numbers, required=True, help="four comma-separated Bell weights")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--trials", type=int, default=50)
    common(p)
    seeded(p)
    csv_output(p)
    p.set_defaults(func=cmd_hash_sim)

    p = sub.add_parser("schmidt", help="Schmidt projection concentration statistics")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("typ-check", help="typical-set bounds vs exact statistics")
    p.add_argument("--p", type=_parse_numbers, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    common(p)
    csv_output(p)
    p.set_defaults(func=cmd_typ_check)

    p = sub.add_parser("verify", help="run the acceptance suite and print a pass/fail table")
    p.add_argument("--only", default=None, help="run a single criterion by name")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # ENTLAB_SEED is read before parsing, so a bad value fails every command first.
        seed = default_seed()
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) is None:
            args.seed = seed
        return args.func(args)
    except (qcore.StateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
