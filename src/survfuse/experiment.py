"""Cross-validated training runs and the ablation grid.

A run = split the cohort into k folds, train one independent model per
held-out fold, evaluate on the held-out fold, aggregate C-index as
mean +/- sample standard deviation. Folds share nothing mutable, so they
can execute in worker processes. All randomness derives from (seed, fold),
making reports reproducible byte-for-byte regardless of --jobs.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cohort import fold_split, split_folds
from .config import RunConfig, config_echo
from .errors import ConfigError
from .fusion import (FusionModel, FusionSpec, TrainConfig, build_model,
                     evaluate, image_branch_features, train_survival)
from .nnet import DenseLayer
from .smoothing import (CellProfile, FrozenEncoder, Stage1Config, Stage1Result,
                        gap_probe_pairs, interpolation_gap, pretrain_mlp_a)
from .survival import SurvivalRecord, probe_c_index


def tool_version() -> str:
    import importlib.metadata
    try:
        own = importlib.metadata.version("survfuse")
    except importlib.metadata.PackageNotFoundError:
        own = "0+unknown"
    return f"survfuse {own} / numpy {np.__version__}"


def derive_seed(seed: int, tag: int, index: int = 0) -> int:
    """Stable independent integer seed for a (run, purpose, index) triple."""
    return int(np.random.SeedSequence([int(seed), int(tag), int(index)])
               .generate_state(1)[0])


# ---------------------------------------------------------------------------
# stage 1


@dataclass
class Stage1Bundle:
    encoder: FrozenEncoder
    result: Stage1Result | None
    report: dict | None

    @property
    def mlp_a(self) -> list[DenseLayer] | None:
        return self.result.mlp_a if self.result is not None else None


def stage1_config(cfg: RunConfig) -> Stage1Config:
    """The stage-1 training settings of a run; a bad value raises
    ValidationError."""
    sm = cfg.smoothing
    return Stage1Config(epochs=sm.stage1_epochs, steps_per_epoch=sm.steps_per_epoch,
                        batch_pairs=sm.batch_pairs, eta=sm.stage1_eta,
                        weight_decay=sm.weight_decay,
                        hidden_dim=cfg.hidden_dim, feature_dim=sm.feature_dim,
                        seed=cfg.seed)


def run_stage1(cells: list[CellProfile], cfg: RunConfig) -> Stage1Bundle:
    """Build the fixed encoder and, if smoothing is on, pretrain MLP-A.

    The interpolation gap is measured on a held-out probe set before
    training (freshly initialized MLP-A) and after.
    """
    sm = cfg.smoothing
    encoder = sm.frozen_encoder(cells[0].expression.size)
    if not sm.enabled:
        return Stage1Bundle(encoder=encoder, result=None, report=None)
    s1cfg = stage1_config(cfg)
    pairs, lams = gap_probe_pairs(cells, n_pairs=200, seed=cfg.seed)
    zero = dataclasses.replace(s1cfg, epochs=0)
    untrained = pretrain_mlp_a(cells, encoder, zero)
    gap_before = interpolation_gap(encoder, untrained.mlp_a, pairs, lams)
    result = pretrain_mlp_a(cells, encoder, s1cfg)
    gap_after = interpolation_gap(encoder, result.mlp_a, pairs, lams)
    report = {
        "final_loss": result.loss_history[-1] if result.loss_history else None,
        "steps": len(result.loss_history),
        "gap_before": gap_before,
        "gap_after": gap_after,
    }
    return Stage1Bundle(encoder=encoder, result=result, report=report)


# ---------------------------------------------------------------------------
# one fold


def _new_model(records: list[SurvivalRecord], cfg: RunConfig, bundle: Stage1Bundle,
               seed: int, track_rho: bool = False) -> tuple[FusionModel, TrainConfig]:
    """A fresh model sized to the cohort, and its training config, from one seed."""
    fspec = FusionSpec(
        dim_cnv_mut=records[0].cnv_mut.size, dim_rna=records[0].rna.size,
        dim_image=records[0].image.size, snn_dim=cfg.snn_dim,
        gen_dim=cfg.gen_dim, img_dim=cfg.img_dim, hidden_dim=cfg.hidden_dim,
        fusion_mode=cfg.fusion_mode)
    model = build_model(fspec, bundle.encoder, bundle.mlp_a, seed=seed)
    tcfg = TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size, eta=cfg.eta,
                       seed=seed, modulation=cfg.modulation, track_rho=track_rho)
    return model, tcfg


def run_single_fold(records: list[SurvivalRecord], plan, fold: int,
                    cfg: RunConfig, bundle: Stage1Bundle) -> dict:
    train_recs, test_recs = fold_split(records, plan, fold)
    model, tcfg = _new_model(records, cfg, bundle, derive_seed(cfg.seed, 0xFD, fold),
                             track_rho=cfg.track_rho)
    tres = train_survival(model, train_recs, tcfg)
    test_metrics = evaluate(model, test_recs)
    row = {
        "fold": fold,
        "c_index": test_metrics["c_index"],
        "mean_loss": test_metrics["mean_loss"],
        "train_c_index": tres.epochs[-1].c_index,
        "skipped_batches": tres.skipped_batches,
        "epoch_stream": [dict(m.as_dict(), fold=fold) for m in tres.epochs],
        "contribution_stream": [dict(r, fold=fold) for r in tres.step_reports],
    }
    if cfg.image_probe:
        p_train = image_branch_features(model, train_recs)
        p_test = image_branch_features(model, test_recs)
        t_train = np.array([r.time for r in train_recs])
        e_train = np.array([r.event for r in train_recs])
        t_test = np.array([r.time for r in test_recs])
        e_test = np.array([r.event for r in test_recs])
        row["image_probe_c"] = probe_c_index(p_train, t_train, e_train,
                                             p_test, t_test, e_test)
    return row


# ---------------------------------------------------------------------------
# full run


def run_final_fit(records: list[SurvivalRecord], cfg: RunConfig,
                  bundle: Stage1Bundle):
    """One model trained on the whole cohort (what `eval` consumes later).

    Its contribution reports are not kept, so it does not compute them unless
    modulation needs them.
    """
    model, tcfg = _new_model(records, cfg, bundle, cfg.seed)
    train_survival(model, records, tcfg)
    return model


@dataclass
class RunOutputs:
    report: dict                     # JSON-ready, without the timestamp key
    epoch_stream: list[dict]         # one object per (fold, epoch)
    contribution_stream: list[dict]  # one object per (fold, step) report


def _run_outputs(rows: list[dict], cfg: RunConfig, bundle: Stage1Bundle) -> RunOutputs:
    """One cross-validation run's report and streams from its fold rows."""
    rows = sorted(rows, key=lambda r: r["fold"])
    epoch_stream, contribution_stream = [], []
    for row in rows:
        epoch_stream.extend(row.pop("epoch_stream"))
        contribution_stream.extend(row.pop("contribution_stream"))

    c_values = np.array([row["c_index"] for row in rows])
    rho_values = [r["rho_g"] for r in contribution_stream]
    report = {
        "kind": "cv_report",
        "tool_version": tool_version(),
        "config": config_echo(cfg),
        "k_folds": cfg.k_folds,
        "per_fold": rows,
        "c_index_mean": float(c_values.mean()),
        "c_index_std": float(c_values.std(ddof=1)) if len(rows) > 1 else 0.0,
        "skipped_batches": int(sum(row["skipped_batches"] for row in rows)),
        "rho_g_median": float(np.median(rho_values)) if rho_values else None,
    }
    if cfg.image_probe:
        probe = np.array([row["image_probe_c"] for row in rows])
        report["image_probe_mean"] = float(probe.mean())
    if bundle.report is not None:
        report["stage1"] = bundle.report
    return RunOutputs(report=report, epoch_stream=epoch_stream,
                      contribution_stream=contribution_stream)


# ---------------------------------------------------------------------------
# worker pool
#
# One pool serves a whole command. The cohort and the cell corpus reach each
# worker once, through the pool initializer (inherited, not pickled, under
# fork); a task carries only what differs between tasks. Tasks call
# run_single_fold and run_stage1 through this module's globals, so a wrapper
# installed on those names before the pool starts runs in the workers too.

_worker_inputs: dict = {}


def _init_worker(records: list[SurvivalRecord],
                 cells: list[CellProfile] | None) -> None:
    _worker_inputs["records"] = records
    _worker_inputs["cells"] = cells


def _fold_task(plan, fold: int, cfg: RunConfig, bundle: Stage1Bundle) -> dict:
    return run_single_fold(_worker_inputs["records"], plan, fold, cfg, bundle)


def _stage1_task(cfg: RunConfig) -> Stage1Bundle:
    return run_stage1(_worker_inputs["cells"], cfg)


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")


def _open_pool(jobs: int, n_tasks: int, records: list[SurvivalRecord],
               cells: list[CellProfile] | None = None) -> ProcessPoolExecutor:
    # a fork pool starts all its workers at once: no more than one per task
    return ProcessPoolExecutor(max_workers=min(jobs, n_tasks),
                               initializer=_init_worker, initargs=(records, cells))


def _submit_folds(pool, plan, cfg: RunConfig, bundle: Stage1Bundle) -> list:
    return [pool.submit(_fold_task, plan, fold, cfg, bundle)
            for fold in range(cfg.k_folds)]


def _results(pool, futures: list) -> list:
    """Every future's result in order. On the first error, pending tasks are
    cancelled so the error surfaces without running the rest."""
    try:
        return [fut.result() for fut in futures]
    except BaseException:
        pool.shutdown(cancel_futures=True)
        raise


def run_cross_validation(records: list[SurvivalRecord], cfg: RunConfig,
                         bundle: Stage1Bundle, jobs: int = 1) -> RunOutputs:
    _check_jobs(jobs)
    plan = split_folds(records, cfg.k_folds, cfg.seed)
    if jobs > 1:
        with _open_pool(jobs, cfg.k_folds, records) as pool:
            rows = _results(pool, _submit_folds(pool, plan, cfg, bundle))
    else:
        rows = [run_single_fold(records, plan, f, cfg, bundle)
                for f in range(cfg.k_folds)]
    return _run_outputs(rows, cfg, bundle)


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


def run_ablation(records: list[SurvivalRecord], cells: list[CellProfile],
                 cfg: RunConfig, jobs: int = 1) -> dict:
    """All six grid cells, sharing one stage-1 pretraining across the
    smoothing rows. Row order is fixed: rows 1-3 without smoothing, 4-6
    with, each block ordered concat, kronecker, modulation.

    With jobs = 1 stage 1 trains first, then every row's folds in grid order.
    With jobs > 1 the grid runs on one pool: stage 1 trains in a worker beside
    the folds of rows 1-3, which do not need it, and the folds of rows 4-6 are
    submitted when it returns. The stage-1 settings are checked before any
    fold trains."""
    _check_jobs(jobs)
    plan = split_folds(records, cfg.k_folds, cfg.seed)
    configs = {row_id: _grid_config(cfg, on, label)
               for row_id, on, label in ABLATION_GRID}
    plain = [row_id for row_id, on, _ in ABLATION_GRID if not on]
    smooth = [row_id for row_id, on, _ in ABLATION_GRID if on]
    stage1_config(configs[smooth[0]])   # fail here, not after rows 1-3 trained
    bundles = {False: run_stage1(cells, configs[plain[0]])}
    if jobs > 1:
        n_tasks = len(ABLATION_GRID) * cfg.k_folds + 1
        with _open_pool(jobs, n_tasks, records, cells) as pool:
            stage1 = pool.submit(_stage1_task, configs[smooth[0]])
            futures = {r: _submit_folds(pool, plan, configs[r], bundles[False])
                       for r in plain}
            [bundles[True]] = _results(pool, [stage1])
            futures.update({r: _submit_folds(pool, plan, configs[r], bundles[True])
                            for r in smooth})
            fold_rows = {r: _results(pool, futures[r]) for r in configs}
    else:
        bundles[True] = run_stage1(cells, configs[smooth[0]])
        fold_rows = {r: [run_single_fold(records, plan, f, configs[r], bundles[on])
                         for f in range(cfg.k_folds)]
                     for r, on, _ in ABLATION_GRID}
    rows = []
    for row_id, smoothing_on, fusion_label in ABLATION_GRID:
        outputs = _run_outputs(fold_rows[row_id], configs[row_id],
                               bundles[smoothing_on])
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
