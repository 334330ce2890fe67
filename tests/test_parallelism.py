"""Where survfuse's parallelism comes from: one BLAS thread per process by
default, and a fold pool sized to the folds it has to run."""

import json
import os
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

import survfuse
from survfuse import experiment
from survfuse.cli import main
from survfuse.cohort import CohortSpec, generate_cohort, save_cohort
from survfuse.config import load_run_config
from survfuse.errors import ConfigError
from survfuse.experiment import run_cross_validation, run_stage1
from survfuse.smoothing import CellCorpusSpec, generate_cells

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(survfuse.__file__).resolve().parent.parent)


def _env(**threads) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(threads)
    return env


def _run(args, env, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)


# ---------------------------------------------------------------------------
# BLAS threads


@pytest.mark.parametrize("exported, expected", [(None, "1"), ("2", "2")])
def test_import_defaults_blas_threads_to_one_and_keeps_an_export(exported, expected):
    env = _env(**({"OPENBLAS_NUM_THREADS": exported} if exported else {}))
    probe = "import survfuse; import os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _run(["-c", probe], env).stdout.strip() == expected


def _train_outputs(root: Path, threads: str) -> tuple:
    # relative paths, so the reports' config echoes match too
    cwd = root / f"threads_{threads}"
    cwd.mkdir()
    env = _env(**{var: threads for var in THREAD_VARS})
    _run(["-m", "survfuse.cli", "train", "--cohort", "../cohort.csv",
          "--smoothing", "off", "--modulation", "on", "--k-folds", "3",
          "--epochs", "2", "--out", "run"], env, cwd=cwd)
    out = cwd / "run"
    report = json.loads((out / "report.json").read_text())
    report.pop("timestamp")
    return (json.dumps(report, sort_keys=True),
            *((out / name).read_bytes()
              for name in ("metrics.jsonl", "contributions.jsonl", "model.ckpt")))


def test_blas_thread_count_does_not_change_results(tmp_path):
    save_cohort(str(tmp_path / "cohort.csv"),
                generate_cohort(CohortSpec(n_patients=120, seed=3)))
    assert _train_outputs(tmp_path, "1") == _train_outputs(tmp_path, "2")


# ---------------------------------------------------------------------------
# fold pool


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs folds here."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


@pytest.fixture(scope="module")
def tiny_run():
    records = generate_cohort(CohortSpec(n_patients=40, seed=0))
    cfg = load_run_config(None, seed=0, smoothing_enabled=False, k_folds=2, epochs=1)
    cells = generate_cells(CellCorpusSpec(n_cells=4, gene_dim=records[0].rna.size,
                                          num_types=2))
    return records, cfg, run_stage1(cells, cfg)


def test_fold_pool_has_no_more_workers_than_folds(tiny_run, monkeypatch):
    records, cfg, bundle = tiny_run
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.sizes = []
    pooled = run_cross_validation(records, cfg, bundle, jobs=50)
    assert RecordingPool.sizes == [2]
    serial = run_cross_validation(records, cfg, bundle, jobs=1)
    assert RecordingPool.sizes == [2]
    assert pooled == serial


def test_jobs_below_one_is_a_clean_error(tiny_run, tmp_path, capsys):
    records, cfg, bundle = tiny_run
    with pytest.raises(ConfigError, match="--jobs"):
        run_cross_validation(records, cfg, bundle, jobs=0)
    cohort = str(tmp_path / "cohort.csv")
    save_cohort(cohort, records)
    argv = ["train", "--cohort", cohort, "--smoothing", "off", "--k-folds", "2",
            "--epochs", "1", "--out", str(tmp_path / "run"), "--jobs", "0"]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
