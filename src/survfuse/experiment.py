"""Cross-validated training runs and the ablation grid.

A run = split the cohort into k folds, train one independent model per
held-out fold, evaluate on the held-out fold, aggregate C-index as
mean +/- sample standard deviation. Folds share nothing mutable, so any
of the --jobs processes can train any fold. All randomness derives from
(seed, fold), making reports reproducible byte-for-byte regardless of --jobs.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .cohort import Cohort, fold_split, split_folds
from .config import RunConfig, config_echo
from .errors import ConfigError, SurvfuseError
from .fusion import build_model, evaluate, image_branch_features, train_survival
from .modulation import median, with_fold
from .smoothing import (CellCorpus, Stage1Result, gap_probe_pairs, interpolation_gap,
                        pretrain_mlp_a)
from .survival import probe_c_index


def tool_version() -> str:
    return f"survfuse {__version__} / numpy {np.__version__}"


def derive_seed(seed: int, tag: int, index: int = 0) -> int:
    """Stable independent integer seed for a (run, purpose, index) triple."""
    return int(np.random.SeedSequence([int(seed), int(tag), int(index)])
               .generate_state(1)[0])


# ---------------------------------------------------------------------------
# stage 1


def run_stage1(cells: CellCorpus, cfg: RunConfig) -> Stage1Result:
    """Build the fixed encoder and, if smoothing is on, pretrain MLP-A; the
    report holds the interpolation gap on held-out probe pairs before training
    (freshly initialized MLP-A) and after."""
    sm = cfg.smoothing
    encoder = sm.frozen_encoder(cells.expression.shape[1])
    if not sm.enabled:
        return Stage1Result(encoder)
    s1cfg = cfg.stage1_config()
    pairs, lams = gap_probe_pairs(cells, n_pairs=200, seed=cfg.seed)
    untrained = pretrain_mlp_a(cells, encoder, dataclasses.replace(s1cfg, epochs=0))
    gap_before = interpolation_gap(encoder, untrained.mlp_a, cells, pairs, lams)
    result = pretrain_mlp_a(cells, encoder, s1cfg)
    result.report = {"final_loss": result.loss_history[-1] if result.loss_history else None,
                     "steps": len(result.loss_history), "gap_before": gap_before,
                     "gap_after": interpolation_gap(encoder, result.mlp_a, cells, pairs, lams)}
    return result


# ---------------------------------------------------------------------------
# one fold


def stream_rows(columns: dict):
    """The rows of a run's epoch or contribution stream, one dict each, in order."""
    for values in zip(*columns.values()):
        yield dict(zip(columns, values))


def run_single_fold(cohort: Cohort, plan, fold: int,
                    cfg: RunConfig, stage1: Stage1Result) -> dict:
    """One fold's row; an error names the fold and keeps its type."""
    try:
        train, test = fold_split(cohort, plan, fold)
        fold_cfg = dataclasses.replace(cfg, seed=derive_seed(cfg.seed, 0xFD, fold))
        model = build_model(fold_cfg, cohort.x_cnv.shape[1], cohort.x_img.shape[1],
                            stage1.encoder, stage1.mlp_a)
        tres = train_survival(model, train, fold_cfg)
        test_metrics = evaluate(model, test)
        row = {
            "fold": fold,
            "c_index": test_metrics["c_index"],
            "mean_loss": test_metrics["mean_loss"],
            "train_c_index": tres.epoch_log["c_index"][-1],
            "skipped_batches": tres.skipped_batches,
            "epoch_stream": with_fold(tres.epoch_log, fold),
            "contribution_stream": with_fold(tres.step_log, fold),
        }
        if cfg.image_probe:
            row["image_probe_c"] = probe_c_index(
                image_branch_features(model, train), train.times, train.events,
                image_branch_features(model, test), test.times, test.events)
    except SurvfuseError as exc:
        raise type(exc)(f"fold {fold}: {exc}") from exc
    return row


# ---------------------------------------------------------------------------
# full run


def run_final_fit(cohort: Cohort, cfg: RunConfig, stage1: Stage1Result):
    """One model trained on the whole cohort (what `eval` consumes later).

    Its contribution reports are not kept, so it does not compute them unless
    modulation needs them.
    """
    cfg = dataclasses.replace(cfg, track_rho=False)
    try:
        model = build_model(cfg, cohort.x_cnv.shape[1], cohort.x_img.shape[1],
                            stage1.encoder, stage1.mlp_a)
        train_survival(model, cohort, cfg)
    except SurvfuseError as exc:
        raise type(exc)(f"final fit: {exc}") from exc
    return model


@dataclass
class RunOutputs:
    """A run's report, and its epoch and contribution streams: a fold column, then
    fusion.EPOCH_LOG_FIELDS or modulation.STEP_LOG_FIELDS, in fold order."""
    report: dict                          # JSON-ready, without the timestamp key
    epoch_stream: dict[str, list]
    contribution_stream: dict[str, array]


def _run_outputs(rows: list[dict], cfg: RunConfig, stage1: Stage1Result) -> RunOutputs:
    """One cross-validation run's report and streams from its fold rows."""
    rows = sorted(rows, key=lambda r: r["fold"])
    streams = {"epoch_stream": {}, "contribution_stream": {}}
    for row in rows:
        for name, merged in streams.items():
            for key, column in row.pop(name).items():
                merged.setdefault(key, column[:0]).extend(column)

    c_values = np.array([row["c_index"] for row in rows])
    report = {
        "kind": "cv_report",
        "tool_version": tool_version(),
        "config": config_echo(cfg),
        "k_folds": cfg.k_folds,
        "per_fold": rows,
        "c_index_mean": float(c_values.mean()),
        "c_index_std": float(c_values.std(ddof=1)) if len(rows) > 1 else 0.0,
        "skipped_batches": int(sum(row["skipped_batches"] for row in rows)),
        "rho_g_median": median(streams["contribution_stream"]["rho_g"]),
    }
    if cfg.image_probe:
        probe = np.array([row["image_probe_c"] for row in rows])
        report["image_probe_mean"] = float(probe.mean())
    if stage1.report is not None:
        report["stage1"] = stage1.report
    return RunOutputs(report=report, **streams)


# ---------------------------------------------------------------------------
# fold tasks
#
# A command's folds run on `jobs` processes: this one and a pool of jobs - 1
# forked workers. Every fold task is submitted to the pool in grid order and
# the workers take tasks from the front of the queue, while this process
# takes them from the back. One shared flag per task, created before the
# fork, decides which process runs it: the first to set it. A failed task
# sets every flag, so no fold starts after a failure. The cohort reaches
# each worker once, through the pool initializer (inherited, not pickled,
# under fork); a task carries only what differs between tasks. Tasks call
# run_single_fold through this module's globals, so a wrapper installed on
# that name before the pool starts runs in the workers too.

_worker_inputs: dict = {}


def _init_worker(cohort: Cohort, claims) -> None:
    _worker_inputs["cohort"] = cohort
    _worker_inputs["claims"] = claims


def _claim(claims, index: int) -> bool:
    """Set task `index`'s flag; False if another process set it first. With
    no flags (no pool) every task belongs to this process."""
    if claims is None:
        return True
    with claims.get_lock():
        if claims[index]:
            return False
        claims[index] = 1
    return True


def _claim_all(claims) -> None:
    if claims is not None:
        claims[:] = [1] * len(claims)


def _run_claimed(claims, index: int, cohort: Cohort, plan, fold: int,
                 cfg: RunConfig, stage1: Stage1Result) -> dict | None:
    """Task `index`'s fold row if this process claims it, else None. If the
    fold fails, every task left is claimed before the error propagates."""
    if not _claim(claims, index):
        return None
    try:
        return run_single_fold(cohort, plan, fold, cfg, stage1)
    except BaseException:
        _claim_all(claims)
        raise


def _fold_task(index: int, plan, fold: int, cfg: RunConfig,
               stage1: Stage1Result) -> dict | None:
    return _run_claimed(_worker_inputs["claims"], index, _worker_inputs["cohort"],
                        plan, fold, cfg, stage1)


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")


class _FoldTasks:
    """The fold tasks of one command, run on `jobs` processes, this one
    included, and never on more processes than tasks. With one process there
    is no pool and `run` runs every task here, in grid order."""

    def __init__(self, cohort: Cohort, plan, jobs: int, n_tasks: int):
        self.cohort = cohort
        self.plan = plan
        self.tasks: list[tuple] = []   # (fold, cfg, stage1), in grid order
        self.futures: list = []
        workers = min(jobs, n_tasks) - 1
        self.claims = multiprocessing.Array("b", n_tasks) if workers else None
        self.pool = (ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                         initargs=(cohort, self.claims))
                     if workers else None)

    def __enter__(self) -> "_FoldTasks":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.pool is not None:
            # on an error, no fold that has not started yet starts
            if exc_type is not None:
                _claim_all(self.claims)
            self.pool.shutdown(cancel_futures=exc_type is not None)

    def submit(self, cfg: RunConfig, stage1: Stage1Result) -> None:
        """Queue the k folds of one cross-validation run."""
        for fold in range(cfg.k_folds):
            if self.pool is not None:
                self.futures.append(self.pool.submit(
                    _fold_task, len(self.tasks), self.plan, fold, cfg, stage1))
            self.tasks.append((fold, cfg, stage1))

    def run(self) -> list[dict]:
        """Every task's fold row, in grid order.

        This process claims tasks from the back of the queue until none is
        left, then reads the workers' rows. The error of the first failed
        task in grid order propagates, as it would at --jobs 1."""
        n = len(self.tasks)
        order = range(n) if self.pool is None else range(n - 1, -1, -1)
        outcomes: dict[int, object] = {}
        for index in order:
            fold, cfg, stage1 = self.tasks[index]
            try:
                row = _run_claimed(self.claims, index, self.cohort, self.plan,
                                   fold, cfg, stage1)
            except Exception as exc:
                outcomes[index] = exc
                break
            if row is not None:
                outcomes[index] = row
        rows = []
        for index in range(n):
            outcome = outcomes[index] if index in outcomes else self.futures[index].result()
            if isinstance(outcome, Exception):
                raise outcome
            if outcome is not None:   # None: not run, because a task failed
                rows.append(outcome)
        return rows


def run_cross_validation(cohort: Cohort, cfg: RunConfig,
                         stage1: Stage1Result, jobs: int = 1) -> RunOutputs:
    _check_jobs(jobs)
    plan = split_folds(cohort, cfg.k_folds, cfg.seed)
    with _FoldTasks(cohort, plan, jobs, cfg.k_folds) as tasks:
        tasks.submit(cfg, stage1)
        rows = tasks.run()
    return _run_outputs(rows, cfg, stage1)


# ---------------------------------------------------------------------------
# ablation grid


ABLATION_GRID = (
    # (row, smoothing, fusion label); "modulation" = concat head + modulation
    (1, False, "concat"),
    (2, False, "kronecker"),
    (3, False, "modulation"),
    (4, True, "concat"),
    (5, True, "kronecker"),
    (6, True, "modulation"),
)


def _grid_config(cfg: RunConfig, smoothing_on: bool, fusion_label: str) -> RunConfig:
    modulation = dataclasses.replace(cfg.modulation,
                                     enabled=fusion_label == "modulation")
    smoothing = dataclasses.replace(cfg.smoothing, enabled=smoothing_on)
    kronecker = fusion_label == "kronecker"
    # contribution ratios split the concat head, so kronecker rows track none
    return dataclasses.replace(cfg, fusion_mode="kronecker" if kronecker else "concat",
                               track_rho=cfg.track_rho and not kronecker,
                               modulation=modulation, smoothing=smoothing)


def run_ablation(cohort: Cohort, cells: CellCorpus,
                 cfg: RunConfig, jobs: int = 1) -> dict:
    """All six grid cells, sharing one stage-1 pretraining across the
    smoothing rows. Row order is fixed: rows 1-3 without smoothing, 4-6
    with, each block ordered concat, kronecker, modulation.

    The folds of rows 1-3, which do not need stage 1, are queued first; this
    process then trains stage 1 while the pool's workers, if any, start on
    them; then the folds of rows 4-6 are queued and every fold runs as
    `_FoldTasks.run` says. With jobs = 1 that is stage 1 first, then every
    fold in grid order."""
    _check_jobs(jobs)
    plan = split_folds(cohort, cfg.k_folds, cfg.seed)
    configs = {row_id: _grid_config(cfg, on, label)
               for row_id, on, label in ABLATION_GRID}
    plain = [row_id for row_id, on, _ in ABLATION_GRID if not on]
    smooth = [row_id for row_id, on, _ in ABLATION_GRID if on]
    stage1_by_smoothing = {False: run_stage1(cells, configs[plain[0]])}
    with _FoldTasks(cohort, plan, jobs, len(ABLATION_GRID) * cfg.k_folds) as tasks:
        for row_id in plain:
            tasks.submit(configs[row_id], stage1_by_smoothing[False])
        stage1_by_smoothing[True] = run_stage1(cells, configs[smooth[0]])
        for row_id in smooth:
            tasks.submit(configs[row_id], stage1_by_smoothing[True])
        done = tasks.run()
    k = cfg.k_folds
    fold_rows = {row_id: done[i * k:(i + 1) * k] for i, row_id in enumerate(plain + smooth)}
    rows = []
    for row_id, smoothing_on, fusion_label in ABLATION_GRID:
        outputs = _run_outputs(fold_rows[row_id], configs[row_id],
                               stage1_by_smoothing[smoothing_on])
        rows.append({
            "row": row_id,
            "smoothing": smoothing_on,
            "fusion": fusion_label,
            "c_index_mean": outputs.report["c_index_mean"],
            "c_index_std": outputs.report["c_index_std"],
            "report": outputs.report,
        })
    return {
        "kind": "ablation_report",
        "tool_version": tool_version(),
        "config": config_echo(cfg),
        "rows": rows,
    }


def ablation_csv_lines(table: dict) -> list[str]:
    lines = ["row,smoothing,fusion,c_index_mean,c_index_std"]
    for row in table["rows"]:
        lines.append(f"{row['row']},{int(row['smoothing'])},{row['fusion']},"
                     f"{row['c_index_mean']!r},{row['c_index_std']!r}")
    return lines
