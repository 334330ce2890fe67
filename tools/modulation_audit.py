"""Audit the shipped contribution-ratio modulation against controls.

For each seed s, on the cohort CohortSpec(seed=s) and the cell corpus
CellCorpusSpec(seed=0), with stage-1 smoothing on and the image probe fitted,
this runs k-fold cross-validation in one process (run_cross_validation,
jobs = 1) on six arms that share one stage-1 run:

    unmodulated     no modulation, contribution ratios tracked (track_rho)
    modulated       the shipped modulation (exp_numerator = false)
    exp_numerator   modulation with the softmax reading (exp_numerator = true)
    eta x 0.5       unmodulated at half the learning rate, ratios tracked
    eta x 0.25      unmodulated at a quarter of it, ratios tracked
    shuffled        modulation whose steps apply the modulated arm's own
                    (factor_g, factor_p) pairs in a seeded random order: the
                    same distribution of steps, with no link to rho

It prints one Markdown row per seed and arm: the mean held-out C-index, the
image probe's mean C-index, and the share of logged steps with rho_g < 0,
with factor_g < 0.01 and with factor_p < 0.01. Tracked arms log the shipped
reading (exp_numerator = false) without applying it. The shuffled arm's
rho_g is its own run's reading, and its factors are the ones it applied.

Every arm but the shuffled one is set through RunConfig fields alone. The
shuffled arm patches the `apply_modulation` name that
survfuse.fusion.train_survival calls, and restores it on exit.

    python3 tools/modulation_audit.py --seeds 0 1 2 3 4

The default seeds 0-4 take about two minutes on a 2-vCPU Intel Xeon. Only numpy
and this checkout's src/ are used.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# survfuse first: importing it sets the one-BLAS-thread default before numpy loads
from survfuse import fusion  # noqa: E402

import numpy as np  # noqa: E402
from survfuse.cohort import CohortSpec, generate_cohort  # noqa: E402
from survfuse.config import RunConfig, load_run_config  # noqa: E402
from survfuse.experiment import derive_seed, run_cross_validation, run_stage1  # noqa: E402
from survfuse.smoothing import CellCorpus, CellCorpusSpec, generate_cells  # noqa: E402

ARMS = ("unmodulated", "modulated", "exp_numerator", "eta x 0.5", "eta x 0.25", "shuffled")
COLUMNS = ("c_index", "image_probe", "rho_g_negative", "factor_g_small", "factor_p_small")
SMALL_FACTOR = 0.01
SHUFFLE_TAG = 0x5F1F   # derive_seed purpose tag of the shuffled arm's order


def arm_configs(cfg: RunConfig) -> dict[str, RunConfig]:
    """The arms set through RunConfig fields alone; cfg is the modulated arm's."""
    tracked = dataclasses.replace(
        cfg, modulation=dataclasses.replace(cfg.modulation, enabled=False), track_rho=True)
    return {
        "unmodulated": tracked,
        "modulated": cfg,
        "exp_numerator": dataclasses.replace(
            cfg, modulation=dataclasses.replace(cfg.modulation, exp_numerator=True)),
        "eta x 0.5": dataclasses.replace(tracked, eta=cfg.eta * 0.5),
        "eta x 0.25": dataclasses.replace(tracked, eta=cfg.eta * 0.25),
    }


@contextlib.contextmanager
def replayed_factors(factor_g, factor_p, seed: int):
    """Within the block, each step that train_survival modulates applies the
    next of the given (factor_g, factor_p) pairs, taken in a seeded random
    order, in place of its own report's. Yields the list of pairs applied
    so far."""
    order = np.random.default_rng(derive_seed(seed, SHUFFLE_TAG)).permutation(len(factor_g))
    original = fusion.apply_modulation
    applied: list[tuple[float, float]] = []

    def replay(report, genomic_group, image_group):
        i = order[len(applied)]
        applied.append((factor_g[i], factor_p[i]))
        original(dataclasses.replace(report, factor_g=factor_g[i], factor_p=factor_p[i]),
                 genomic_group, image_group)

    fusion.apply_modulation = replay
    try:
        yield applied
    finally:
        fusion.apply_modulation = original


def _share(mask: np.ndarray) -> float | None:
    return float(mask.mean()) if mask.size else None


def _row(report: dict, rho_g, factor_g, factor_p) -> dict:
    rho_g, factor_g, factor_p = (np.asarray(v, dtype=np.float64)
                                 for v in (rho_g, factor_g, factor_p))
    return {"c_index": report["c_index_mean"], "image_probe": report["image_probe_mean"],
            "rho_g_negative": _share(rho_g < 0.0),
            "factor_g_small": _share(factor_g < SMALL_FACTOR),
            "factor_p_small": _share(factor_p < SMALL_FACTOR)}


def audit_cohort(cohort, cells: CellCorpus, cfg: RunConfig) -> dict[str, dict]:
    """The six arms' rows on one cohort, in ARMS order; cfg is the modulated
    arm's config, with smoothing and the image probe on."""
    stage1 = run_stage1(cells, cfg)
    rows = {}
    for arm, arm_cfg in arm_configs(cfg).items():
        outputs = run_cross_validation(cohort, arm_cfg, stage1)
        stream = outputs.contribution_stream
        rows[arm] = _row(outputs.report, stream["rho_g"], stream["factor_g"],
                         stream["factor_p"])
        if arm == "modulated":
            shipped = stream
    with replayed_factors(shipped["factor_g"], shipped["factor_p"], cfg.seed) as applied:
        outputs = run_cross_validation(cohort, cfg, stage1)
    rows["shuffled"] = _row(outputs.report, outputs.contribution_stream["rho_g"],
                            [g for g, _ in applied], [p for _, p in applied])
    return {arm: rows[arm] for arm in ARMS}


def audit(seeds, base: RunConfig | None = None, cells: CellCorpus | None = None,
          cohort_spec: CohortSpec | None = None) -> list[dict]:
    """One row per seed and arm. base (default: the shipped modulated run
    with the image probe) is the modulated arm's config, reseeded per seed;
    cells defaults to CellCorpusSpec(seed=0)'s corpus, and cohort_spec,
    reseeded per seed, to CohortSpec()."""
    if base is None:
        base = load_run_config(None, modulation_enabled=True, image_probe=True)
    if cells is None:
        cells = generate_cells(CellCorpusSpec(seed=0))
    cohort_spec = CohortSpec() if cohort_spec is None else cohort_spec
    table = []
    for seed in seeds:
        cohort = generate_cohort(dataclasses.replace(cohort_spec, seed=seed))
        rows = audit_cohort(cohort, cells, dataclasses.replace(base, seed=seed))
        table.extend({"seed": seed, "arm": arm, **row} for arm, row in rows.items())
    return table


HEADER = ("| seed | arm | C | image-probe C | steps with rho_g < 0 "
          "| steps with factor_g < 0.01 | steps with factor_p < 0.01 |\n"
          "| --- | --- | --- | --- | --- | --- | --- |")


def markdown_row(row: dict) -> str:
    """One table row as a Markdown line under HEADER."""
    cells = [str(row["seed"]), row["arm"]]
    for key in COLUMNS:
        value = row[key]
        if value is None:
            cells.append("-")
        else:
            cells.append(f"{value:.4f}" if key in ("c_index", "image_probe") else f"{value:.0%}")
    return "| " + " | ".join(cells) + " |"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4],
                        help="cohort and run seeds (default 0-4)")
    args = parser.parse_args(argv)
    print(HEADER, flush=True)
    for seed in args.seeds:   # a seed's rows print as soon as it is done
        for row in audit([seed]):
            print(markdown_row(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
