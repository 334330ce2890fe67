"""Benchmark for the survfuse CLI: two workloads, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train_modulated --seed 0 --seconds 45 --trace 0

Load model: a closed loop with one client. Each op is one
`python -m survfuse.cli ...` subprocess and the next op starts only after the
previous one has exited. Set-up generates every input from --seed with the CLI
(five times; setup_s is the median) before the first op. Ops run until
--seconds have passed, at least one.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json. --trace 1
is a separate run: it times `import survfuse.cli` in fresh interpreters, then
alternates untraced and traced in-process calls of `survfuse.cli.main(argv)`
and reports the per-layer metrics of the traced calls (see tracer.py) and the
tracing overhead. Both modes check every op's outputs (workloads.py). A traced
op also fails when a work measure raised or a per-layer metric that
BENCHMARK.json registers reads 0, and the traced run stops with an error when
a function it wraps is gone from the package: a metric that was not measured
must not pass as a zero.

Thread counts are left as the environment gives them: the benchmark sets no
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or similar variable.

Each run appends one record, with an environment stamp, to
perfbench/results/runs.jsonl (or --results); a traced run also writes its
spans next to it. The last line of standard output is the JSON result.
Related tools: compare.py (two results files), profile_op.py (cProfile of
one op), tracer_selftest.py (pytest self-test of the tracer).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from measure import environment_stamp, run_process, tail_percentile
from tracer import Tracer, op_metrics, unit_of, write_spans
from workloads import WORKLOADS, Workload, ablate_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
OP_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 150.0   # start no op that could end after this


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class OpRecord:
    wall_s: float
    cpu_s: float | None = None
    peak_rss_mb: float | None = None
    traced: bool = False
    result: tuple | None = None   # the values the output check compared
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "survfuse.cli"] + args


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def check_checkout() -> None:
    if not (ROOT / "src" / "survfuse" / "cli.py").is_file():
        raise BenchError(f"no survfuse sources under {ROOT / 'src'}")


# ---------------------------------------------------------------------------
# set-up


def run_setups(workload: Workload, seed: int, work_root: Path,
               repeats: int = SETUP_REPEATS) -> tuple[list[float], Path]:
    """Generate the inputs `repeats` times; returns (seconds each, last dir)."""
    times, work = [], None
    for rep in range(repeats):
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
        work = work_root / f"inputs{rep}"
        work.mkdir(parents=True)
        start = time.perf_counter()
        for name, text in workload.files.items():
            (work / name).write_text(text, encoding="utf-8")
        for args in workload.setup(work, seed):
            res = run_process(cli_argv(args), cli_env(), ROOT, work_root / "log",
                              OP_TIMEOUT_S, sample_rss=False)
            if res.returncode != 0:
                raise BenchError(f"set-up step {' '.join(args[:1])} failed "
                                 f"({res.returncode}): {res.stderr.strip()[-500:]}")
        times.append(time.perf_counter() - start)
    return times, work


# ---------------------------------------------------------------------------
# checks


def check_outputs(workload: Workload, work: Path, seed: int,
                  first: list) -> tuple[tuple | None, list[str]]:
    """Output check of one finished op; `first` holds the run's first result."""
    try:
        result, problems = workload.check(work, seed)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, [f"output check: {type(exc).__name__}: {exc}"]
    if not first:
        first.append(result)
    elif result != first[0]:
        problems.append(f"result {result} differs from the run's first op {first[0]}")
    return result, problems


def process_problems(returncode: int, text: str, timed_out: bool) -> list[str]:
    problems = []
    if timed_out:
        problems.append(f"killed after {OP_TIMEOUT_S:.0f} s")
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if "Traceback (most recent call last)" in text:
        problems.append("traceback in output")
    return problems


# ---------------------------------------------------------------------------
# timed run (--trace 0)


def timed_ops(workload: Workload, seed: int, seconds: float, work: Path,
              work_root: Path, run_start: float) -> list[OpRecord]:
    ops: list[OpRecord] = []
    first: list = []
    jobs = ablate_jobs()
    loop_start = time.perf_counter()
    while not ops or time.perf_counter() - loop_start < seconds:
        longest = max(op.wall_s for op in ops) if ops else 0.0
        if ops and time.perf_counter() - run_start + longest > RUN_DEADLINE_S:
            break
        shutil.rmtree(work / workload.out_dir, ignore_errors=True)
        res = run_process(cli_argv(workload.op(work, seed, jobs)), cli_env(), ROOT,
                          work_root / "log", OP_TIMEOUT_S)
        result = None
        problems = process_problems(res.returncode, res.stdout + res.stderr, res.timed_out)
        if not problems:
            result, problems = check_outputs(workload, work, seed, first)
        ops.append(OpRecord(wall_s=res.wall_s, cpu_s=res.cpu_s, peak_rss_mb=res.peak_rss_mb,
                            result=result, problems=problems))
    return ops


def end_to_end_metrics(workload: Workload, setup_times: list[float],
                       ops: list[OpRecord]) -> dict[str, float]:
    walls = [op.wall_s for op in ops]
    ok = sum(op.ok for op in ops)
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(walls),
        "rows_per_s": workload.rows_per_op * ok / sum(walls),
        "cpu_p50_s": statistics.median(op.cpu_s for op in ops),
        "peak_rss_mb": max(op.peak_rss_mb for op in ops),
        "fail_ratio": (len(ops) - ok) / len(ops),
    }


# ---------------------------------------------------------------------------
# traced run (--trace 1)


def startup_seconds(log_dir: Path) -> float:
    """Median wall time of a fresh interpreter that imports survfuse.cli."""
    times = []
    for _ in range(STARTUP_REPEATS):
        res = run_process([sys.executable, "-c", "import survfuse.cli"], cli_env(), ROOT,
                          log_dir, OP_TIMEOUT_S, sample_rss=False)
        if res.returncode != 0:
            raise BenchError(f"import survfuse.cli failed: {res.stderr.strip()[-500:]}")
        times.append(res.wall_s)
    return statistics.median(times)


def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import survfuse.cli
    if Path(survfuse.cli.__file__).resolve().parent != ROOT / "src" / "survfuse":
        raise BenchError(f"imported survfuse from {survfuse.cli.__file__}, "
                         f"not from {ROOT / 'src'}")
    return survfuse.cli


def in_process_op(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the op failed; record it and go on
            traceback.print_exc()
            code = 1
    return code, out.getvalue()


def trace_problems(metrics: dict[str, float], required: list[str]) -> list[str]:
    problems = []
    if metrics["trace.measure_errors"]:
        problems.append(f"tracer: {metrics['trace.measure_errors']:.0f} work measures raised")
    zero = [name for name in required if name in metrics and not metrics[name]]
    if zero:
        problems.append(f"tracer: registered metrics read 0: {', '.join(zero)}")
    return problems


def traced_ops(workload: Workload, seed: int, seconds: float, work: Path,
               run_start: float, required: list[str]):
    cli = import_cli()
    tracer = Tracer()
    argv = workload.op(work, seed, ablate_jobs())
    ops: list[OpRecord] = []
    traces, per_op = [], []
    first: list = []
    loop_start = time.perf_counter()
    while not traces or time.perf_counter() - loop_start < seconds:
        longest = max(op.wall_s for op in ops) if ops else 0.0
        if ops and time.perf_counter() - run_start + 2 * longest > RUN_DEADLINE_S:
            break
        for traced in (False, True):
            shutil.rmtree(work / workload.out_dir, ignore_errors=True)
            if traced:
                tracer.install()
                try:
                    if tracer.missing:
                        raise BenchError("cannot trace, absent from the package: "
                                         + ", ".join(tracer.missing))
                    (code, text), trace = tracer.run_op(lambda: in_process_op(cli, argv))
                finally:
                    tracer.uninstall()
                traces.append(trace)
                per_op.append(op_metrics(trace))
                wall = trace.wall_s
            else:
                start = time.perf_counter()
                code, text = in_process_op(cli, argv)
                wall = time.perf_counter() - start
            result = None
            problems = process_problems(code, text, False)
            if not problems:
                result, problems = check_outputs(workload, work, seed, first)
            if traced:
                problems += trace_problems(per_op[-1], required)
            ops.append(OpRecord(wall_s=wall, traced=traced, result=result, problems=problems))
    layer = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    traced_p50 = statistics.median(op.wall_s for op in ops if op.traced)
    untraced_p50 = statistics.median(op.wall_s for op in ops if not op.traced)
    layer["trace.op_p50_s"] = traced_p50
    layer["trace.untraced_op_p50_s"] = untraced_p50
    layer["trace.overhead"] = traced_p50 / untraced_p50
    return ops, layer, traces


# ---------------------------------------------------------------------------
# reporting


def describe_ops(ops: list[OpRecord]) -> str:
    walls = [op.wall_s for op in ops]
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                 else "no percentile has 10 samples above it")
    return f"n={len(walls)} ops; {tail_text}"


def print_human(workload: Workload, args, setup_times, ops, metrics, units):
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"  setup_s          {metrics['setup_s']:.4f} s  "
          f"(median of {len(setup_times)}: {', '.join(f'{t:.3f}' for t in setup_times)})")
    if args.trace == 0:
        failed = sum(not op.ok for op in ops)
        print(f"  op_p50_s         {metrics['op_p50_s']:.4f} s  ({describe_ops(ops)})")
        print(f"  rows_per_s       {metrics['rows_per_s']:.1f} rows/s  "
              f"({workload.rows_per_op} patient rows per op)")
        print(f"  cpu_p50_s        {metrics['cpu_p50_s']:.4f} s")
        print(f"  peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB")
        print(f"  fail_ratio       {metrics['fail_ratio']:.4f}  ({failed} of {len(ops)} ops)")
    else:
        for name in sorted(metrics):
            if name != "setup_s":
                print(f"  {name:44s} {metrics[name]:.6g} {units.get(name) or unit_of(name)}")
    for i, op in enumerate(ops):
        for problem in op.problems:
            print(f"  op {i} FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    run_start = time.perf_counter()
    # SIGTERM unwinds like Ctrl-C, so every started process is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=HERE / "results" / "runs.jsonl",
                        help="JSON-lines file this run's record is appended to")
    args = parser.parse_args(argv)

    try:
        check_checkout()
        spec = load_spec()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    stamp = environment_stamp(ROOT)
    work_root = HERE / "_work" / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    spans_file = None
    try:
        setup_times, work = run_setups(workload, args.seed, work_root)
        if args.trace == 0:
            ops = timed_ops(workload, args.seed, args.seconds, work, work_root, run_start)
            metrics = end_to_end_metrics(workload, setup_times, ops)
        else:
            metrics = {"setup_s": statistics.median(setup_times),
                       "cli.startup_s": startup_seconds(work_root / "log")}
            required = [m["name"] for m in spec["per_layer"]]
            ops, layer, traces = traced_ops(workload, args.seed, args.seconds, work,
                                            run_start, required)
            metrics.update(layer)
            args.results.parent.mkdir(parents=True, exist_ok=True)
            spans_file = args.results.parent / (
                f"spans-{workload.name}-s{args.seed}-{os.getpid()}.npz")
            write_spans(spans_file, traces)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    missing_metrics = [m["name"] for m in spec[section] if m["name"] not in metrics]
    if missing_metrics:
        print(f"error: no value for {missing_metrics}", file=sys.stderr)
        return 1
    failed = sum(not op.ok for op in ops)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": stamp, "setup_s_each": setup_times,
        "ops": [vars(op) for op in ops], "metrics": metrics,
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "spans_file": str(spans_file) if spans_file else None,
    }
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print_human(workload, args, setup_times, ops, metrics, units)
    result = {
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec[section]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
