"""Command-line surface.

Subcommands: gen-cohort, gen-cells, pretrain-smooth, train, eval, ablate,
gradcheck. Every command is deterministic given its configuration (the
seed is part of it); reports echo the full effective config, and the only
non-reproducible output field is the top-level "timestamp" key. Outputs
are written atomically (a temp file renamed into place); existing outputs are
refused unless --force is given. Exit code 0 means all requested work
completed.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import os
import sys

# numpy.random imports secrets, hence hmac and hashlib, and both import
# _hashlib, which maps OpenSSL's libcrypto (3.3 MB resident). No command
# hashes anything and every generator is seeded, so a None entry makes that
# import fail and both modules fall back to CPython's built-in hashes; set
# before any command imports numpy.random, and inherited by forked workers.
# setdefault leaves a process that already loaded _hashlib as it is.
sys.modules.setdefault("_hashlib", None)

from .cohort import generate_cohort, load_cohort, save_cohort
from .config import config_echo, load_cells_spec, load_cohort_spec, load_run_config
from .errors import SurvfuseError, ValidationError, write_text
from .experiment import (ablation_csv_lines, run_ablation, run_cross_validation,
                         run_final_fit, run_stage1, stream_rows, tool_version)
from .fusion import evaluate, load_model, save_model
from .smoothing import (Stage1Result, generate_cells, load_cells, load_stage1,
                        save_cells, save_stage1)


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _refuse_existing(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise ValidationError(f"{path} already exists (pass --force to overwrite)")


def _write_text(path: str, chunks, force: bool) -> None:
    _refuse_existing(path, force)
    write_text(path, chunks)


def _write_json(path: str, obj: dict, force: bool) -> None:
    # iterencode yields the text json.dumps(obj, indent=2) joins, piece by piece
    encoder = json.JSONEncoder(indent=2, sort_keys=True)
    _write_text(path, itertools.chain(encoder.iterencode(obj), ["\n"]), force)


def _write_jsonl(path: str, rows, force: bool) -> None:
    _write_text(path, (json.dumps(row, sort_keys=True) + "\n" for row in rows), force)


def _out_path(args, default_name: str, configured: str | None = None) -> str:
    if args.out:
        return os.path.join(args.out, default_name)
    return configured or default_name


# ---------------------------------------------------------------------------
# commands


def cmd_gen_cohort(args) -> int:
    spec = load_cohort_spec(args.config, seed=args.seed, n_patients=args.n_patients,
                            noise_g=args.noise_g, noise_p=args.noise_p,
                            censor_fraction=args.censor_target)
    cfg = load_run_config(args.config)
    path = _out_path(args, "cohort.csv", cfg.paths.cohort)
    _refuse_existing(path, args.force)
    cohort = generate_cohort(spec)
    save_cohort(path, cohort)
    n_events = int(cohort.events.sum())
    print(f"wrote {len(cohort)} records ({n_events} events, "
          f"{len(cohort) - n_events} censored) to {path}")
    return 0


def cmd_gen_cells(args) -> int:
    spec = load_cells_spec(args.config, seed=args.seed, n_cells=args.n_cells)
    cfg = load_run_config(args.config)
    path = _out_path(args, "cells.csv", cfg.paths.cells)
    _refuse_existing(path, args.force)
    cells = generate_cells(spec)
    save_cells(path, cells)
    print(f"wrote {len(cells)} cells ({spec.num_types} types, "
          f"{spec.gene_dim} genes) to {path}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = load_run_config(args.config, seed=args.seed, cells=args.cells,
                          smoothing_enabled=True)
    cells = load_cells(cfg.paths.cells)
    ckpt_path = _out_path(args, "stage1.ckpt", cfg.paths.stage1)
    report_path = _out_path(args, "stage1_report.json",
                            os.path.splitext(cfg.paths.stage1)[0] + "_report.json")
    _refuse_existing(ckpt_path, args.force)
    _refuse_existing(report_path, args.force)
    stage1 = run_stage1(cells, cfg)
    save_stage1(ckpt_path, stage1)
    report = dict(stage1.report, kind="stage1_report", tool_version=tool_version(),
                  config=config_echo(cfg), checkpoint=ckpt_path, timestamp=_timestamp())
    _write_json(report_path, report, args.force)
    loss = report["final_loss"]   # None after zero epochs
    loss_text = "" if loss is None else f"final loss {loss:.6f}, "
    print(f"stage-1 done: {loss_text}"
          f"gap {report['gap_before']:.4f} -> {report['gap_after']:.4f}; "
          f"checkpoint: {ckpt_path}")
    return 0


def _train_overrides(args) -> dict:
    tristate = {"on": True, "off": False, None: None}
    return dict(seed=args.seed, cohort=args.cohort, stage1=args.stage1,
                epochs=args.epochs, eta=args.eta, k_folds=args.k_folds,
                fusion_mode=args.fusion_mode,
                modulation_enabled=tristate[args.modulation],
                smoothing_enabled=tristate[args.smoothing],
                track_rho=True if args.track_rho else None,
                image_probe=True if args.image_probe else None)


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, out_dir=args.out, **_train_overrides(args))
    out_dir = cfg.paths.out_dir
    report_path = os.path.join(out_dir, "report.json")
    _refuse_existing(report_path, args.force)
    cohort = load_cohort(cfg.paths.cohort)
    stage1 = (load_stage1(cfg.paths.stage1) if cfg.smoothing.enabled
              else Stage1Result(cfg.smoothing.frozen_encoder(cohort.x_rna.shape[1])))
    outputs = run_cross_validation(cohort, cfg, stage1, jobs=args.jobs)
    report = dict(outputs.report)
    report["timestamp"] = _timestamp()
    _write_json(report_path, report, args.force)
    for name, stream in (("metrics.jsonl", outputs.epoch_stream),
                         ("contributions.jsonl", outputs.contribution_stream)):
        _write_jsonl(os.path.join(out_dir, name), stream_rows(stream), True)
    model = run_final_fit(cohort, cfg, stage1)   # full-cohort fit for `eval`
    save_model(os.path.join(out_dir, "model.ckpt"), model)
    print(f"C-index {report['c_index_mean']:.4f} +/- {report['c_index_std']:.4f} "
          f"over {cfg.k_folds} folds; report: {report_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config, cohort=args.cohort)
    model = load_model(args.model)
    cohort = load_cohort(cfg.paths.cohort)
    try:
        metrics = evaluate(model, cohort)
    except ValidationError as exc:   # a column block of the wrong width
        raise ValidationError(f"{cfg.paths.cohort}: {exc}") from exc
    result = {"kind": "eval_report", "tool_version": tool_version(),
              "model": args.model, "cohort": cfg.paths.cohort,
              "c_index": metrics["c_index"], "mean_loss": metrics["mean_loss"],
              "n_records": len(cohort), "timestamp": _timestamp()}
    if args.out:
        _write_json(os.path.join(args.out, "eval.json"), result, args.force)
    print(f"c_index {metrics['c_index']:.4f}  mean_loss {metrics['mean_loss']:.4f} "
          f"({len(cohort)} records)")
    return 0


def cmd_ablate(args) -> int:
    cfg = load_run_config(args.config, seed=args.seed, cohort=args.cohort,
                          cells=args.cells, out_dir=args.out)
    out_dir = cfg.paths.out_dir
    json_path = os.path.join(out_dir, "ablation.json")
    csv_path = os.path.join(out_dir, "ablation.csv")
    _refuse_existing(json_path, args.force)
    _refuse_existing(csv_path, args.force)
    cohort = load_cohort(cfg.paths.cohort)
    cells = load_cells(cfg.paths.cells)
    table = run_ablation(cohort, cells, cfg, jobs=args.jobs)
    table["timestamp"] = _timestamp()
    _write_json(json_path, table, args.force)
    _write_text(csv_path, (line + "\n" for line in ablation_csv_lines(table)),
                args.force)
    for row in table["rows"]:
        smooth = "smooth" if row["smoothing"] else "no-smooth"
        print(f"row {row['row']}: {smooth:10s} {row['fusion']:10s} "
              f"C-index {row['c_index_mean']:.4f} +/- {row['c_index_std']:.4f}")
    print(f"ablation table: {csv_path}")
    return 0


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    from .gradcheck import run_all   # only this command needs the module
    results = run_all(seed)
    failed = False
    for res in results:
        print(res.line())
        failed = failed or not res.passed
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


_COMMON_FLAGS = {
    "--config": dict(default=None, help="INI config file"),
    "--seed": dict(type=int, default=None, help="override the seed"),
    "--out": dict(default=None, help="output directory"),
    "--force": dict(action="store_true", help="overwrite existing outputs"),
}


def _add_common(sp, *flags: str) -> None:
    """Register the common flags the command reads: all four unless named."""
    for flag in flags or _COMMON_FLAGS:
        sp.add_argument(flag, **_COMMON_FLAGS[flag])


def _add_jobs(sp) -> None:
    sp.add_argument("--jobs", type=int, default=1,
                    help="processes that train folds, this one included (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="survfuse",
        description="Two-branch survival fusion: synthetic cohorts, latent "
                    "smoothing, Cox training with gradient modulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-cohort", help="generate a synthetic cohort CSV")
    _add_common(p)
    p.add_argument("--n-patients", type=int, default=None)
    p.add_argument("--noise-g", type=float, default=None)
    p.add_argument("--noise-p", type=float, default=None)
    p.add_argument("--censor-target", type=float, default=None)
    p.set_defaults(handler=cmd_gen_cohort)

    p = sub.add_parser("gen-cells", help="generate a synthetic cell corpus CSV")
    _add_common(p)
    p.add_argument("--n-cells", type=int, default=None)
    p.set_defaults(handler=cmd_gen_cells)

    p = sub.add_parser("pretrain-smooth",
                       help="stage 1: mixup-train MLP-A on the cell corpus")
    _add_common(p)
    p.add_argument("--cells", default=None, help="cell corpus CSV")
    p.set_defaults(handler=cmd_pretrain)

    p = sub.add_parser("train", help="k-fold cross-validated survival training")
    _add_common(p)
    _add_jobs(p)
    p.add_argument("--cohort", default=None, help="cohort CSV")
    p.add_argument("--stage1", default=None, help="stage-1 checkpoint")
    p.add_argument("--modulation", choices=("on", "off"), default=None)
    p.add_argument("--smoothing", choices=("on", "off"), default=None)
    p.add_argument("--fusion-mode", choices=("concat", "kronecker"), default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--k-folds", type=int, default=None)
    p.add_argument("--track-rho", action="store_true",
                   help="log contribution ratios even without modulation")
    p.add_argument("--image-probe", action="store_true",
                   help="also fit a linear Cox probe on the image features")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a cohort")
    _add_common(p, "--config", "--out", "--force")
    p.add_argument("--model", required=True, help="fusion-model checkpoint")
    p.add_argument("--cohort", default=None, help="cohort CSV")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("ablate", help="run the 6-row ablation grid")
    _add_common(p)
    _add_jobs(p)
    p.add_argument("--cohort", default=None)
    p.add_argument("--cells", default=None)
    p.set_defaults(handler=cmd_ablate)

    p = sub.add_parser("gradcheck",
                       help="finite-difference gradient verification suite")
    _add_common(p, "--seed")
    p.set_defaults(handler=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SurvfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, MemoryError) as exc:  # unreadable inputs, failed allocations
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
