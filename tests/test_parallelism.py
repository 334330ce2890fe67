"""Where survfuse's parallelism comes from: one BLAS thread per process by
default, and `--jobs N` processes per command, the command's own included:
a pool of N - 1 workers, never more processes than tasks, whose workers
receive the cohort once. Each fold runs in exactly one of them."""

import dataclasses
import json
import os
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

import survfuse
from survfuse import experiment
from survfuse.cli import build_parser, main
from survfuse.cohort import Cohort, CohortSpec, generate_cohort, save_cohort
from survfuse.config import load_run_config
from survfuse.errors import ConfigError, NumericalError
from survfuse.experiment import run_ablation, run_cross_validation, run_stage1
from survfuse.smoothing import (CellCorpus, CellCorpusSpec, generate_cells,
                                save_cells)

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
    """Stands in for ProcessPoolExecutor: records its size, what each task is
    sent and how it is shut down; runs the initializer and every task here."""

    sizes: list[int] = []
    submissions: list[tuple] = []
    shutdowns: list[dict] = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        RecordingPool.sizes.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

    @classmethod
    def reset(cls):
        cls.sizes, cls.submissions, cls.shutdowns = [], [], []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False

    def shutdown(self, wait=True, *, cancel_futures=False):
        RecordingPool.shutdowns.append({"wait": wait, "cancel_futures": cancel_futures})

    def submit(self, fn, *args, **kwargs):
        RecordingPool.submissions.append((fn, args, kwargs))
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


@pytest.fixture(scope="module")
def tiny_run():
    cohort = generate_cohort(CohortSpec(n_patients=40, seed=0))
    cfg = load_run_config(None, seed=0, smoothing_enabled=False, k_folds=2, epochs=1)
    cfg = dataclasses.replace(cfg, smoothing=dataclasses.replace(
        cfg.smoothing, stage1_epochs=1, steps_per_epoch=5))
    cells = generate_cells(CellCorpusSpec(n_cells=4, gene_dim=cohort.x_rna.shape[1],
                                          num_types=2))
    return cohort, cfg, run_stage1(cells, cfg), cells


def _carries(value, kind) -> bool:
    """Whether `value` is, or holds in its lists, tuples or dicts, a `kind`."""
    if isinstance(value, kind):
        return True
    if isinstance(value, (list, tuple)):
        return any(_carries(v, kind) for v in value)
    if isinstance(value, dict):
        return any(_carries(v, kind) for v in value.values())
    return False


def test_fold_pool_has_no_more_workers_than_folds(tiny_run, monkeypatch):
    cohort, cfg, stage1, _ = tiny_run
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.reset()
    pooled = run_cross_validation(cohort, cfg, stage1, jobs=50)
    assert RecordingPool.sizes == [1]   # with this process: one per fold
    serial = run_cross_validation(cohort, cfg, stage1, jobs=1)
    assert RecordingPool.sizes == [1]
    assert pooled == serial
    assert len(RecordingPool.submissions) == 2
    assert not _carries(RecordingPool.submissions, Cohort)


@pytest.mark.parametrize("jobs", [3, 50])
def test_ablate_runs_on_one_pool_and_sends_inputs_once(tiny_run, monkeypatch, jobs):
    cohort, cfg, _, cells = tiny_run
    serial = run_ablation(cohort, cells, cfg, jobs=1)
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.reset()
    pooled = run_ablation(cohort, cells, cfg, jobs=jobs)
    n_tasks = 6 * cfg.k_folds   # every fold of the grid; stage 1 trains here
    assert RecordingPool.sizes == [min(jobs, n_tasks) - 1]
    assert len(RecordingPool.submissions) == n_tasks
    assert not _carries(RecordingPool.submissions, (Cohort, CellCorpus))
    assert pooled == serial


def test_failed_task_cancels_the_rest_and_surfaces_its_error(tiny_run, monkeypatch):
    cohort, cfg, _, cells = tiny_run

    def failing_fold(cohort, plan, fold, cfg, stage1):
        raise NumericalError(f"fold {fold} diverged")

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiment, "run_single_fold", failing_fold)
    RecordingPool.reset()
    with pytest.raises(NumericalError, match="fold 0 diverged"):
        run_ablation(cohort, cells, cfg, jobs=2)
    assert RecordingPool.shutdowns[0] == {"wait": True, "cancel_futures": True}


SMALL_GRID_INI = ("[run]\nk_folds = 2\nepochs = 1\n"
                  "[smoothing]\nstage1_epochs = 1\nsteps_per_epoch = 10\n")


def test_worker_error_is_a_clean_cli_error_without_running_the_rest(
        tiny_run, tmp_path, monkeypatch, capsys):
    cohort, _, _, cells = tiny_run
    started = tmp_path / "started"
    started.mkdir()

    def fold(cohort, plan, fold, cfg, stage1):
        if cfg.fusion_mode == "concat" and not cfg.smoothing.enabled \
                and not cfg.modulation.enabled and fold == 0:
            raise NumericalError("row 1 fold 0 diverged")
        (started / f"{os.getpid()}-{time.monotonic_ns()}").touch()
        time.sleep(1.0)
        return {}

    # forked workers inherit the substitute
    monkeypatch.setattr(experiment, "run_single_fold", fold)
    save_cohort(str(tmp_path / "cohort.csv"), cohort)
    save_cells(str(tmp_path / "cells.csv"), cells)
    (tmp_path / "grid.ini").write_text(SMALL_GRID_INI)
    argv = ["ablate", "--config", str(tmp_path / "grid.ini"),
            "--cohort", str(tmp_path / "cohort.csv"),
            "--cells", str(tmp_path / "cells.csv"),
            "--out", str(tmp_path / "ablation"), "--jobs", "2"]
    assert main(argv) == 1
    assert "error: row 1 fold 0 diverged" in capsys.readouterr().err
    # 11 other folds; cancelling leaves only those already handed to a worker
    assert len(list(started.iterdir())) < 6 * 2 - 1


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("setting, message", [
    ("weight_decay = nan", "weight_decay must be finite"),
    ("stage1_eta = inf", "eta must be positive and finite"),
    ("steps_per_epoch = 0", "steps_per_epoch must be positive"),
    ("feature_dim = 0", "feature_dim")])
def test_bad_stage1_setting_stops_ablate_before_any_fold(
        setting, message, jobs, tiny_run, tmp_path, monkeypatch, capsys):
    cohort, _, _, cells = tiny_run
    folds = []
    monkeypatch.setattr(experiment, "run_single_fold",
                        lambda *args: folds.append(args) or {})
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.reset()
    save_cohort(str(tmp_path / "cohort.csv"), cohort)
    save_cells(str(tmp_path / "cells.csv"), cells)
    (tmp_path / "grid.ini").write_text("[run]\nk_folds = 2\nepochs = 1\n"
                                       f"[smoothing]\n{setting}\n")
    argv = ["ablate", "--config", str(tmp_path / "grid.ini"),
            "--cohort", str(tmp_path / "cohort.csv"),
            "--cells", str(tmp_path / "cells.csv"),
            "--out", str(tmp_path / "ablation"), "--jobs", str(jobs)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert folds == []
    assert RecordingPool.submissions == []


def test_stage1_failure_stops_serial_ablate_before_any_fold(
        tiny_run, tmp_path, monkeypatch, capsys):
    cohort, _, _, cells = tiny_run
    folds = []

    def diverged(*args):
        raise NumericalError("stage 1 diverged")

    monkeypatch.setattr(experiment, "pretrain_mlp_a", diverged)
    monkeypatch.setattr(experiment, "run_single_fold",
                        lambda *args: folds.append(args) or {})
    save_cohort(str(tmp_path / "cohort.csv"), cohort)
    save_cells(str(tmp_path / "cells.csv"), cells)
    (tmp_path / "grid.ini").write_text(SMALL_GRID_INI)
    argv = ["ablate", "--config", str(tmp_path / "grid.ini"),
            "--cohort", str(tmp_path / "cohort.csv"),
            "--cells", str(tmp_path / "cells.csv"),
            "--out", str(tmp_path / "ablation"), "--jobs", "1"]
    assert main(argv) == 1
    assert "error: stage 1 diverged" in capsys.readouterr().err
    # stage 1 trains first, so no fold of rows 1-3 ran before it failed
    assert folds == []


def _wait_for(path: Path, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not path.exists():
        assert time.monotonic() < deadline, f"{path.name} never appeared"
        time.sleep(0.01)


def _runs(marks: Path) -> dict[str, list[int]]:
    """The pids that started each fold, from the `<fold>@<pid>` marks."""
    runs: dict[str, list[int]] = {}
    for mark in marks.iterdir():
        fold, pid = mark.name.split("@")
        runs.setdefault(fold, []).append(int(pid))
    return runs


def test_every_fold_runs_once_in_this_process_or_a_worker(tiny_run, tmp_path,
                                                          monkeypatch):
    cohort, cfg, _, cells = tiny_run
    real_fold = experiment.run_single_fold

    def marked(cohort, plan, fold, cfg, stage1):
        row = (cfg.smoothing.enabled, cfg.fusion_mode, cfg.modulation.enabled)
        (tmp_path / f"{row}-{fold}@{os.getpid()}").touch()
        time.sleep(0.2)   # long enough for both processes to take folds
        return real_fold(cohort, plan, fold, cfg, stage1)

    # forked workers inherit the substitute
    monkeypatch.setattr(experiment, "run_single_fold", marked)
    run_ablation(cohort, cells, cfg, jobs=2)
    runs = _runs(tmp_path)
    assert len(runs) == 6 * cfg.k_folds
    assert all(len(pids) == 1 for pids in runs.values())
    pids = {pid for [pid] in runs.values()}
    assert os.getpid() in pids and len(pids) == 2


def test_earlier_worker_error_outranks_this_process_error_and_stops_the_rest(
        tiny_run, tmp_path, monkeypatch, capsys):
    cohort, _, _, _ = tiny_run
    marks = tmp_path / "marks"
    marks.mkdir()

    def fold(cohort, plan, fold, cfg, stage1):
        (marks / f"{fold}@{os.getpid()}").touch()
        if fold == 3:   # this process's first task: the back of the queue
            _wait_for(tmp_path / "0-started")
            (tmp_path / "3-failed").touch()
            raise NumericalError("fold 3 diverged")
        if fold == 0:   # a worker's first task: the front of the queue
            (tmp_path / "0-started").touch()
            _wait_for(tmp_path / "3-failed")
            time.sleep(0.2)
            raise NumericalError("fold 0 diverged")
        return {}

    monkeypatch.setattr(experiment, "run_single_fold", fold)
    cohort_csv = str(tmp_path / "cohort.csv")
    save_cohort(cohort_csv, cohort)
    argv = ["train", "--cohort", cohort_csv, "--smoothing", "off", "--k-folds", "4",
            "--epochs", "1", "--out", str(tmp_path / "run"), "--jobs", "2"]
    assert main(argv) == 1
    assert "error: fold 0 diverged" in capsys.readouterr().err
    runs = _runs(marks)
    assert sorted(runs) == ["0", "3"]   # folds 1 and 2 never started
    assert runs["3"] == [os.getpid()] and runs["0"] != [os.getpid()]


def test_stage1_error_outranks_a_fold_error_at_jobs_2(tiny_run, tmp_path,
                                                      monkeypatch, capsys):
    cohort, _, _, cells = tiny_run
    marks = tmp_path / "marks"
    marks.mkdir()

    def fold(cohort, plan, fold, cfg, stage1):
        (marks / f"{cfg.smoothing.enabled}-{fold}@{os.getpid()}").touch()
        (tmp_path / "fold-failed").touch()
        raise NumericalError("row 1 fold 0 diverged")

    def stage1(*args):
        _wait_for(tmp_path / "fold-failed")
        raise NumericalError("stage 1 diverged")

    monkeypatch.setattr(experiment, "run_single_fold", fold)
    monkeypatch.setattr(experiment, "pretrain_mlp_a", stage1)
    save_cohort(str(tmp_path / "cohort.csv"), cohort)
    save_cells(str(tmp_path / "cells.csv"), cells)
    (tmp_path / "grid.ini").write_text(SMALL_GRID_INI)
    argv = ["ablate", "--config", str(tmp_path / "grid.ini"),
            "--cohort", str(tmp_path / "cohort.csv"),
            "--cells", str(tmp_path / "cells.csv"),
            "--out", str(tmp_path / "ablation"), "--jobs", "2"]
    assert main(argv) == 1
    assert "error: stage 1 diverged" in capsys.readouterr().err
    assert sorted(_runs(marks)) == ["False-0"]   # no fold after the failed one


# ---------------------------------------------------------------------------
# --jobs on the command line


def _ablate_outputs(root: Path, jobs: int) -> tuple:
    cwd = root / f"jobs_{jobs}"
    cwd.mkdir()
    _run(["-m", "survfuse.cli", "ablate", "--config", "../grid.ini",
          "--cohort", "../cohort.csv", "--cells", "../cells.csv",
          "--out", "ablation", "--jobs", str(jobs)], _env(), cwd=cwd)
    table = json.loads((cwd / "ablation" / "ablation.json").read_text())
    table.pop("timestamp")
    return (cwd / "ablation" / "ablation.csv").read_bytes(), table


def test_ablate_is_byte_identical_across_jobs(tmp_path):
    save_cohort(str(tmp_path / "cohort.csv"),
                generate_cohort(CohortSpec(n_patients=120, seed=3)))
    save_cells(str(tmp_path / "cells.csv"),
               generate_cells(CellCorpusSpec(n_cells=40, seed=3)))
    (tmp_path / "grid.ini").write_text(SMALL_GRID_INI)
    serial = _ablate_outputs(tmp_path, 1)
    assert _ablate_outputs(tmp_path, 2) == serial
    assert _ablate_outputs(tmp_path, 3) == serial


def _train_jobs_outputs(root: Path, jobs: int) -> tuple:
    cwd = root / f"jobs_{jobs}"
    cwd.mkdir()
    _run(["-m", "survfuse.cli", "train", "--cohort", "../cohort.csv",
          "--smoothing", "off", "--modulation", "on", "--track-rho",
          "--k-folds", "3", "--epochs", "2", "--out", "run", "--jobs", str(jobs)],
         _env(), cwd=cwd)
    out = cwd / "run"
    report = json.loads((out / "report.json").read_text())
    report.pop("timestamp")
    return (report, *((out / name).read_bytes()
                      for name in ("metrics.jsonl", "contributions.jsonl", "model.ckpt")))


def test_train_is_byte_identical_across_jobs(tmp_path):
    save_cohort(str(tmp_path / "cohort.csv"),
                generate_cohort(CohortSpec(n_patients=120, seed=3)))
    serial = _train_jobs_outputs(tmp_path, 1)
    assert _train_jobs_outputs(tmp_path, 2) == serial
    assert _train_jobs_outputs(tmp_path, 3) == serial


@pytest.mark.parametrize("command", [
    ["gen-cohort"], ["gen-cells"], ["pretrain-smooth"], ["eval", "--model", "m.ckpt"],
    ["gradcheck"]])
def test_jobs_is_a_usage_error_where_nothing_reads_it(command, tmp_path,
                                                      monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)   # a command that did run would write here
    with pytest.raises(SystemExit) as exc:
        main([*command, "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    (["gradcheck"], ["--config", "c.ini"]), (["gradcheck"], ["--out", "o"]),
    (["gradcheck"], ["--force"]), (["eval", "--model", "m.ckpt"], ["--seed", "1"])],
    ids=["gradcheck-config", "gradcheck-out", "gradcheck-force", "eval-seed"])
def test_common_flags_are_usage_errors_where_nothing_reads_them(command, flag, tmp_path,
                                                               monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*command, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_train_and_ablate_take_jobs(command):
    assert build_parser().parse_args([command, "--jobs", "3"]).jobs == 3


def test_jobs_below_one_is_a_clean_error(tiny_run, tmp_path, capsys):
    cohort, cfg, stage1, _ = tiny_run
    with pytest.raises(ConfigError, match="--jobs"):
        run_cross_validation(cohort, cfg, stage1, jobs=0)
    cohort_csv = str(tmp_path / "cohort.csv")
    save_cohort(cohort_csv, cohort)
    argv = ["train", "--cohort", cohort_csv, "--smoothing", "off", "--k-folds", "2",
            "--epochs", "1", "--out", str(tmp_path / "run"), "--jobs", "0"]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
