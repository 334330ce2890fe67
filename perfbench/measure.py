"""Process measurement, summary statistics and the environment stamp.

An op is one CLI subprocess started in its own session. Its wall time runs
from just before the fork to the return of os.wait4; its CPU time and the
largest single-process RSS come from the rusage that os.wait4 returns, which
includes every pool worker the CLI reaped. A sampling thread also sums the
RSS of the whole process group, so concurrent workers count together.
"""

from __future__ import annotations

import math
import os
import platform
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
RSS_SAMPLE_S = 0.1
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")


@dataclass
class ProcResult:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


def _group_rss_bytes(pgid: int) -> int:
    """Summed RSS of every live process in one process group."""
    total = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                raw = fh.read()
        except OSError:
            continue
        fields = raw.rsplit(b")", 1)[1].split()
        if int(fields[2]) == pgid:   # pgrp; rss (pages) is fields[21]
            total += int(fields[21]) * PAGE_BYTES
    return total


class _GroupRssSampler(threading.Thread):
    def __init__(self, pgid: int):
        super().__init__(daemon=True)
        self.pgid = pgid
        self.peak = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.is_set():
            self.peak = max(self.peak, _group_rss_bytes(self.pgid))
            self._stop_event.wait(RSS_SAMPLE_S)

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


def run_process(argv: list[str], env: dict, cwd: Path, log_dir: Path,
                timeout_s: float, sample_rss: bool = True) -> ProcResult:
    """Run argv to completion and measure it; kills its group on timeout."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd,
                                start_new_session=True)
        sampler = _GroupRssSampler(proc.pid) if sample_rss else None
        if sampler:
            sampler.start()
        timed_out = threading.Event()

        def kill_group():
            timed_out.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout_s, kill_group)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:   # interrupted: take the op's whole group down with us
            kill_group()
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            wall = time.perf_counter() - start
            timer.cancel()
            timer.join()
            if sampler:
                sampler.stop()
        proc.returncode = os.waitstatus_to_exitcode(status)  # Popen must not reap again
    # A CLI that exits normally has joined its pool; anything left is stray.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    peak = max(usage.ru_maxrss * 1024, sampler.peak if sampler else 0)
    return ProcResult(returncode=proc.returncode, wall_s=wall,
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      peak_rss_mb=peak / 2**20,
                      stdout=out_path.read_text(errors="replace"),
                      stderr=err_path.read_text(errors="replace"),
                      timed_out=timed_out.is_set())


# ---------------------------------------------------------------------------
# statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it.

    Nearest-rank percentiles; returns (percentile, value), or None with ten
    or fewer samples.
    """
    n = len(values)
    if n <= 10:
        return None
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(values)[rank - 1]


# ---------------------------------------------------------------------------
# environment stamp


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_info() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": None}


def _git_rev(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment_stamp(root: Path) -> dict:
    import numpy as np
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV_VARS},
        "git_rev": _git_rev(root),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }
