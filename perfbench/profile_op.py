"""Run one op of a workload under cProfile and print self time by survfuse module.

    python3 perfbench/profile_op.py --workload train_modulated [--seed 0]

Set-up runs once, as in run.py; the op is one in-process call of
`survfuse.cli.main(argv)`. Self time (cProfile's tottime) is grouped by the
survfuse module that holds the function; numpy, builtins and everything else
get a group each. cProfile adds a fixed cost to every Python call and none to
work inside native code, so its shares lean towards call-heavy modules; use
run.py for timings. Pool workers (ablate_pool) run outside the profiler.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import shutil
import sys
from collections import defaultdict

import run
from workloads import WORKLOADS, ablate_jobs

TOP_FUNCTIONS = 15


def group_of(filename: str, src: str) -> str:
    if filename.startswith(src):
        return "survfuse." + os.path.splitext(os.path.basename(filename))[0]
    if filename == "~" or filename.startswith("<"):
        return "builtins"
    if f"{os.sep}numpy{os.sep}" in filename:
        return "numpy"
    return "other"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        run.check_checkout()
    except run.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_root = run.HERE / "_work" / f"profile-{workload.name}-{os.getpid()}"
    try:
        _, work = run.run_setups(workload, args.seed, work_root, repeats=1)
        cli = run.import_cli()
        profiler = cProfile.Profile()
        code, text = profiler.runcall(run.in_process_op, cli,
                                      workload.op(work, args.seed, ablate_jobs()))
    except run.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    if code != 0:
        print(text, file=sys.stderr)
        print(f"error: the op exited with {code}", file=sys.stderr)
        return 1

    stats = pstats.Stats(profiler)
    src = str(run.ROOT / "src" / "survfuse") + os.sep
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (filename, _line, _func), (_cc, ncalls, tottime, _ct, _callers) in stats.stats.items():
        group = group_of(filename, src)
        self_s[group] += tottime
        calls[group] += ncalls
    total = sum(self_s.values())
    print(f"{workload.name} seed {args.seed}: {total:.3f} s self time under cProfile")
    print(f"  {'group':24s} {'self_s':>9s} {'share':>7s} {'calls':>10s}")
    for group in sorted(self_s, key=self_s.get, reverse=True):
        print(f"  {group:24s} {self_s[group]:9.3f} {self_s[group] / total:7.1%} "
              f"{calls[group]:10d}")
    print(f"top {TOP_FUNCTIONS} functions by self time:")
    rows = sorted(stats.stats.items(), key=lambda kv: kv[1][2], reverse=True)[:TOP_FUNCTIONS]
    for (filename, line, func), (_cc, ncalls, tottime, _ct, _callers) in rows:
        where = group_of(filename, src)
        print(f"  {tottime:8.3f} s {ncalls:9d}  {where}:{func}:{line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
