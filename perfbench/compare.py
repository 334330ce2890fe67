"""Compare two benchmark results files, one row per workload x metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl [--trace 0|1]

Each file holds the run records that run.py appends (perfbench/results/
runs.jsonl by default). Runs pair up by seed; with no common seed, in order.
Per row: each side's median and quartiles, the change's wins over the pairs,
and a verdict:

- better / worse: the change wins (loses) at least 9 of every 10 pairs and
  the medians differ by more than the parent's interquartile range;
- unresolved: otherwise, or with fewer than ten pairs.

For end-to-end metrics the bound column applies BENCHMARK.json's regression
bound: "exceeded" when the change's median is worse than the parent's by
more than the bound, "spread>bound" when the parent's own spread is wider
than the bound (unless every change run beats every parent run), else "ok".
Exits 1 when any bound is exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from measure import quartiles

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path, trace: int) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if record["trace"] == trace:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def pair_up(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in base}
    pairs = [(by_seed[r["seed"]], r) for r in new if r["seed"] in by_seed]
    return pairs or list(zip(base, new))


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            lower_is_better: bool) -> tuple[str, int]:
    sign = -1.0 if lower_is_better else 1.0
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    losses = sum(sign * (n - b) < 0 for b, n in pairs)
    if len(pairs) < MIN_PAIRS:
        return "unresolved", wins
    q1, base_med, q3 = quartiles(base)
    new_med = quartiles(new)[1]
    apart = abs(new_med - base_med) > q3 - q1
    if wins >= WIN_SHARE * len(pairs) and apart and sign * (new_med - base_med) > 0:
        return "better", wins
    if losses >= WIN_SHARE * len(pairs) and apart and sign * (new_med - base_med) < 0:
        return "worse", wins
    return "unresolved", wins


def bound_check(base: list[float], new: list[float], bound: float,
                lower_is_better: bool) -> str:
    q1, base_med, q3 = quartiles(base)
    new_med = quartiles(new)[1]
    worse_share = (new_med - base_med) / base_med * (1 if lower_is_better else -1)
    if worse_share > bound:
        return "exceeded"
    if (q3 - q1) / base_med > bound:
        all_better = (max(new) < min(base)) if lower_is_better else (min(new) > max(base))
        if not all_better:
            return "spread>bound"
    return "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    base_runs, new_runs = load_runs(args.parent, args.trace), load_runs(args.change, args.trace)
    header = (f"{'workload':16s} {'metric':38s} {'parent median [q1, q3]':>32s} "
              f"{'change median [q1, q3]':>32s} {'change':>8s} {'wins':>7s} "
              f"{'verdict':10s} bound")
    print(header)
    exceeded = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base_runs or workload not in new_runs:
            print(f"{workload:16s} (no runs in one or both files)")
            continue
        pairs = pair_up(base_runs[workload], new_runs[workload])
        for metric in metrics:
            name = metric["name"]
            base = [r["metrics"][name] for r in base_runs[workload] if name in r["metrics"]]
            new = [r["metrics"][name] for r in new_runs[workload] if name in r["metrics"]]
            if not base or not new:
                continue
            lower = metric["better"] == "lower"
            pair_values = [(b["metrics"][name], n["metrics"][name]) for b, n in pairs
                           if name in b["metrics"] and name in n["metrics"]]
            result, wins = verdict(base, new, pair_values, lower)
            bq1, bmed, bq3 = quartiles(base)
            nq1, nmed, nq3 = quartiles(new)
            change = f"{(nmed - bmed) / bmed:+.1%}" if bmed else "n/a"
            bound = ""
            if "bound" in metric:
                bound = bound_check(base, new, metric["bound"], lower) if bmed else "n/a"
                exceeded |= bound == "exceeded"
                bound = f"{bound} ({metric['bound']:.0%})"
            print(f"{workload:16s} {name:38s} "
                  f"{f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]':>32s} "
                  f"{f'{nmed:.4g} [{nq1:.4g}, {nq3:.4g}]':>32s} {change:>8s} "
                  f"{f'{wins}/{len(pair_values)}':>7s} {result:10s} {bound}")
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
