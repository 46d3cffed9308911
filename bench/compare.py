#!/usr/bin/env python3
"""Compare two sets of benchmark records, parent against change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the JSON records that ``bench/run.py --out`` writes.  For
every workload and end-to-end metric it prints each side's median and
quartiles and a verdict:

- ``better``: there are at least ten seed-matched pairs, the change wins at
  least 9/10 of them (ties count for neither side), the medians differ by more
  than the parent's interquartile range, and the change has no more failed
  tasks than the parent;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- ``unresolved``: neither.

The ``in bound`` column says whether the change's median stays within the
bound; it reads ``spread`` when the parent's own interquartile range is wider
than the bound, so "no regression" cannot be claimed from these runs.  The
output digests of seed-matched untraced runs are compared too.  Traced
records are listed as per-layer medians without a verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load(directory: Path) -> list[dict]:
    records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(directory.glob("*.json"))]
    if not records:
        raise SystemExit(f"error: no records in {directory}")
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: dict[int, float], change: dict[int, float], better: str, bound: float,
            more_failures: bool = False) -> tuple[str, str]:
    """(verdict, in-bound flag) for one metric on one workload; keys are seeds.

    ``more_failures`` says the change failed more tasks than the parent, which
    rules out ``better``.
    """
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(list(parent.values()))
    _, c_med, _ = quartiles(list(change.values()))
    pairs = [(parent[s], change[s]) for s in sorted(set(parent) & set(change))]
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    gain = sign * (p_med - c_med)
    worse_by = -gain / abs(p_med) if p_med else 0.0
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1 and not more_failures:
        result = "better"
    elif worse_by > bound:
        result = "worse"
    else:
        result = "unresolved"
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    in_bound = "spread" if spread > bound else ("yes" if worse_by <= bound else "no")
    return result, in_bound


def by_workload(records: list[dict], trace: int) -> dict[str, dict[int, dict]]:
    out: dict[str, dict[int, dict]] = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["workload"], {})[r["seed"]] = r
    return out


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[str]:
    lines = []
    header = f"{'workload':13s} {'metric':14s} {'parent q1/med/q3':>30s} {'change q1/med/q3':>30s}  verdict     in bound"
    lines.append(header)
    p_runs, c_runs = by_workload(parent, 0), by_workload(change, 0)
    for workload in sorted(set(p_runs) | set(c_runs)):
        p, c = p_runs.get(workload, {}), c_runs.get(workload, {})
        failed = [sum(r["result"]["failed"] for r in side.values()) for side in (p, c)]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = {s: r["result"]["metrics"][name]["value"] for s, r in p.items()}
            c_vals = {s: r["result"]["metrics"][name]["value"] for s, r in c.items()}
            if not p_vals or not c_vals:
                lines.append(f"{workload:13s} {name:14s} missing on one side")
                continue
            result, in_bound = verdict(p_vals, c_vals, metric["better"], metric["bound"], failed[1] > failed[0])
            fmt = lambda vals: "/".join(f"{x:.4g}" for x in quartiles(list(vals.values())))
            lines.append(f"{workload:13s} {name:14s} {fmt(p_vals):>30s} {fmt(c_vals):>30s}  {result:11s} {in_bound}")
        seeds = sorted(set(p) & set(c))
        same = [s for s in seeds if p[s]["details"]["output_digest"] == c[s]["details"]["output_digest"]]
        lines.append(
            f"{workload:13s} output digests match on {len(same)}/{len(seeds)} shared seeds; "
            f"failed tasks parent={failed[0]} change={failed[1]}"
        )
    p_traced, c_traced = by_workload(parent, 1), by_workload(change, 1)
    for workload in sorted(set(p_traced) & set(c_traced)):
        lines.append(f"{workload}: per-layer medians (parent -> change)")
        for metric in spec["per_layer"]:
            name = metric["name"]
            meds = [statistics.median(r["result"]["metrics"][name]["value"] for r in side[workload].values())
                    for side in (p_traced, c_traced)]
            lines.append(f"  {name:34s} {meds[0]:12.6g} -> {meds[1]:12.6g} {metric['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare parent and change benchmark records.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print("\n".join(compare(load(args.parent), load(args.change), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
