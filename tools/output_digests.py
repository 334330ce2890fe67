"""Digest every output of the survfuse pipeline, to compare two checkouts.

For each seed, at --jobs 1, 2 and 3, each in its own run directory, this runs
gen-cohort, gen-cells, pretrain-smooth, train (stage-1 smoothing,
modulation, --track-rho, --image-probe), a second train without contribution
reports (--modulation off, no --track-rho: its metrics.jsonl holds null rho
and factor medians), eval and ablate on a small configuration, then prints
one `sha256 relative-path` line per output file.
A JSON file is digested without its top-level "timestamp" and with its run
directory replaced by a fixed token, so the lines of two checkouts (or two
machines' temporary directories) compare with `diff`:

    python3 tools/output_digests.py > a.txt      # in one checkout
    python3 tools/output_digests.py > b.txt      # in the other
    diff a.txt b.txt

It exits 1 if a command fails or if one seed's outputs differ across the
--jobs values. Only the standard library is used; the CLI runs from this
checkout's `src/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TOKEN = "<run>"
JOBS = (1, 2, 3)

# small enough for CI, large enough that every fold trains on several batches
# and that inference runs in row chunks: the training folds (300 rows), the
# final fit and `eval` (400 rows) hold at least two chunks of
# survfuse.fusion.INFERENCE_CHUNK rows
CONFIG = """\
[run]
k_folds = 4
epochs = 3

[smoothing]
stage1_epochs = 2
steps_per_epoch = 20

[cohort]
n_patients = 400

[cells]
n_cells = 200
"""


def _survfuse(args: list[str], run_dir: Path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "survfuse.cli"] + args, cwd=run_dir,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"survfuse {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")


def run_pipeline(run_dir: Path, seed: int, jobs: int) -> None:
    """Every command of the pipeline, outputs under run_dir."""
    run_dir.mkdir(parents=True)
    ini = run_dir / "run.ini"
    ini.write_text(CONFIG, encoding="utf-8")
    common = ["--config", str(ini), "--seed", str(seed)]
    cohort, cells = str(run_dir / "cohort.csv"), str(run_dir / "cells.csv")
    stage1 = str(run_dir / "stage1.ckpt")
    _survfuse(["gen-cohort", *common, "--out", str(run_dir)], run_dir)
    _survfuse(["gen-cells", *common, "--out", str(run_dir)], run_dir)
    _survfuse(["pretrain-smooth", *common, "--cells", cells, "--out", str(run_dir)],
              run_dir)
    _survfuse(["train", *common, "--cohort", cohort, "--stage1", stage1,
               "--smoothing", "on", "--modulation", "on", "--track-rho",
               "--image-probe", "--jobs", str(jobs), "--out", str(run_dir / "train")],
              run_dir)
    _survfuse(["train", *common, "--cohort", cohort, "--stage1", stage1,
               "--smoothing", "on", "--modulation", "off", "--jobs", str(jobs),
               "--out", str(run_dir / "train-unmodulated")], run_dir)
    (run_dir / "eval").mkdir()
    _survfuse(["eval", "--config", str(ini), "--cohort", cohort,
               "--model", str(run_dir / "train" / "model.ckpt"),
               "--out", str(run_dir / "eval")], run_dir)
    _survfuse(["ablate", *common, "--cohort", cohort, "--cells", cells,
               "--jobs", str(jobs), "--out", str(run_dir / "ablate")], run_dir)


def digest(path: Path, run_dir: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        obj = json.loads(data)
        obj.pop("timestamp", None)
        text = json.dumps(obj, indent=2, sort_keys=True)
        data = text.replace(str(run_dir), RUN_TOKEN).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def output_digests(run_dir: Path) -> dict[str, str]:
    """{path relative to run_dir: digest} for every file the pipeline wrote."""
    return {path.relative_to(run_dir).as_posix(): digest(path, run_dir)
            for path in sorted(run_dir.rglob("*"))
            if path.is_file() and path.name != "run.ini"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    args = parser.parse_args(argv)
    differ = []
    with tempfile.TemporaryDirectory(prefix="survfuse-digests-") as tmp:
        for seed in args.seeds:
            by_jobs = {}
            for jobs in JOBS:
                run_dir = Path(tmp) / f"seed{seed}" / f"jobs{jobs}"
                run_pipeline(run_dir, seed, jobs)
                by_jobs[jobs] = output_digests(run_dir)
                for rel, sha in by_jobs[jobs].items():
                    print(f"{sha}  seed{seed}/jobs{jobs}/{rel}")
            first = by_jobs[JOBS[0]]
            for jobs, digests in by_jobs.items():
                differ += [f"seed {seed}: {rel} at --jobs {jobs}"
                           for rel in sorted(set(first) | set(digests))
                           if digests.get(rel) != first.get(rel)]
    for line in differ:
        print(f"differs from --jobs {JOBS[0]}: {line}", file=sys.stderr)
    return 1 if differ else 0

if __name__ == "__main__":
    sys.exit(main())
