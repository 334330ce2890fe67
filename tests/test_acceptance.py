"""Acceptance gate: nine criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
pass. Criteria 5-7 share one 3-arm x 5-seed protocol (no smoothing /
smoothing / smoothing+modulation on the default cohort), built once per
session; the rest are standalone.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from survfuse.cli import main
from survfuse.cohort import Cohort, CohortSpec, generate_cohort, save_cohort
from survfuse.config import load_run_config
from survfuse.errors import ConcordanceUndefinedError
from survfuse.experiment import run_cross_validation, run_stage1
from survfuse.gradcheck import run_all
from survfuse.modulation import ModulationConfig, contribution_ratio, modulation_factor
from survfuse.smoothing import CellCorpusSpec, generate_cells
from survfuse.survival import CoxBatch, concordance_index, cox_gradient, cox_loss

N_SEEDS = 5


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    line = f"[A{criterion}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared 3-arm protocol for criteria 5-7


@pytest.fixture(scope="session")
def protocol():
    """Per seed: arm A (no smoothing), arm B (smoothing, ratios tracked),
    arm C (smoothing + modulation). Arms B and C share one stage-1 run."""
    cells = generate_cells(CellCorpusSpec(seed=0))
    rows = []
    timings = {"a5": 0.0, "a6": 0.0}
    for seed in range(N_SEEDS):
        records = generate_cohort(CohortSpec(seed=seed))
        cfg_a = load_run_config(None, seed=seed, smoothing_enabled=False)
        cfg_b = load_run_config(None, seed=seed, track_rho=True, image_probe=True)
        # tracking-only arm logs the softmax (share-of-risk-set) reading;
        # the raw per-sample statistic is shift-sensitive and Cox scores
        # have no anchored location, so its median carries no sign
        cfg_b = dataclasses.replace(
            cfg_b, modulation=ModulationConfig(enabled=False, exp_numerator=True))
        cfg_c = load_run_config(None, seed=seed, modulation_enabled=True,
                                image_probe=True)

        t0 = time.monotonic()
        stage1_a = run_stage1(cells, cfg_a)     # encoder only
        stage1_bc = run_stage1(cells, cfg_b)    # shared by B and C
        out_a = run_cross_validation(records, cfg_a, stage1_a)
        out_b = run_cross_validation(records, cfg_b, stage1_bc)
        t1 = time.monotonic()
        out_c = run_cross_validation(records, cfg_c, stage1_bc)
        t2 = time.monotonic()
        timings["a5"] += t1 - t0          # stage 1 + arms A and B
        timings["a6"] += (t1 - t0) + (t2 - t1)  # arm B is also A6's baseline

        rows.append({
            "seed": seed,
            "gap_before": stage1_bc.report["gap_before"],
            "gap_after": stage1_bc.report["gap_after"],
            "c_plain": out_a.report["c_index_mean"],
            "c_smooth": out_b.report["c_index_mean"],
            "c_mod": out_c.report["c_index_mean"],
            "probe_smooth": out_b.report["image_probe_mean"],
            "probe_mod": out_c.report["image_probe_mean"],
            "rho_median": float(np.median(out_b.contribution_stream["rho_g"])),
        })
    return rows, timings


def _median_of(rows, key):
    return float(np.median([r[key] for r in rows]))


def _median_delta(rows, a, b):
    return float(np.median([r[a] - r[b] for r in rows]))


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def test_a1_gradient_correctness():
    t0 = time.monotonic()
    results = {r.name: r for r in run_all(seed=0)}
    elapsed = time.monotonic() - t0
    cox = next(r for n, r in results.items() if "cox" in n)
    fusion = [r for n, r in results.items() if "fusion" in n]
    ok = (cox.passed and cox.instances == 100 and cox.tolerance == 1e-6
          and all(f.passed and f.tolerance == 1e-4 for f in fusion)
          and all(r.passed for r in results.values())
          and elapsed < 30.0)
    _verdict(1, ok, f"gradcheck max errs cox {cox.max_rel_err:.2e} (tol 1e-6), "
                    f"fusion {max(f.max_rel_err for f in fusion):.2e} "
                    f"(tol 1e-4), {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# criterion 2: concordance vs brute force


def _brute_force_c(theta, times, events):
    conc = ties = comp = 0
    n = len(times)
    for i in range(n):
        for j in range(n):
            if times[i] < times[j] and events[i]:
                comp += 1
                if theta[i] > theta[j]:
                    conc += 1
                elif theta[i] == theta[j]:
                    ties += 1
    if comp == 0:
        raise ConcordanceUndefinedError("no comparable pairs")
    return (conc + 0.5 * ties) / comp


def test_a2_concordance_matches_brute_force():
    rng = np.random.default_rng(2024)
    exact = 0
    undefined = 0
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        # coarse grids force plenty of time and score ties
        times = rng.integers(1, 6, size=n).astype(np.float64)
        theta = rng.integers(-2, 3, size=n).astype(np.float64)
        events = rng.uniform(size=n) < 0.6
        try:
            expected = _brute_force_c(theta, times, events)
        except ConcordanceUndefinedError:
            with pytest.raises(ConcordanceUndefinedError):
                concordance_index(theta, times, events)
            undefined += 1
            continue
        if concordance_index(theta, times, events) == expected:
            exact += 1
    ok = exact + undefined == 1000
    _verdict(2, ok, f"{exact} exact matches + {undefined} agreed-undefined "
                    f"over 1000 instances (n <= 20, ties included)")


# ---------------------------------------------------------------------------
# criterion 3: modulation algebra


def test_a3_modulation_algebra():
    rng = np.random.default_rng(3)
    cfg = ModulationConfig()
    worst_product = 0.0
    one_suppressed = True
    factors_in_range = True
    for _ in range(10_000):
        n = int(rng.integers(1, 17))
        times = rng.uniform(0.1, 5.0, size=n)
        events = rng.uniform(size=n) < 0.7
        if not events.any():
            events[int(rng.integers(0, n))] = True
        batch = CoxBatch(times, events)
        report = contribution_ratio(rng.normal(size=n), rng.normal(size=n),
                                    batch, cfg)
        worst_product = max(worst_product,
                            abs(report.rho_g * report.rho_p - 1.0))
        one_suppressed &= max(report.factor_g, report.factor_p) == 1.0
        factors_in_range &= (0.0 < report.factor_g <= 1.0
                             and 0.0 < report.factor_p <= 1.0)
    factor_two_err = abs(modulation_factor(2.0) - (1.0 - np.tanh(1.0)))
    ok = (worst_product <= 1e-9
          and modulation_factor(1.0) == 1.0
          and factor_two_err <= 1e-12
          and one_suppressed and factors_in_range)
    _verdict(3, ok, f"10k vectors: max |rho_g*rho_p - 1| = {worst_product:.2e} "
                    f"(tol 1e-9); factor(1)=1, |factor(2)-(1-tanh 1)| = "
                    f"{factor_two_err:.1e} (tol 1e-12); one branch suppressed")


# ---------------------------------------------------------------------------
# criterion 4: closed-form spot checks


def test_a4_closed_form_spot_checks():
    batch = CoxBatch(np.array([1.0, 2.0, 3.0]),
                     np.array([True, True, True]))
    ln6_err = abs(cox_loss(np.zeros(3), batch) - np.log(6.0))

    rng = np.random.default_rng(4)
    worst_shift = 0.0
    worst_grad_sum = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 17))
        times = rng.uniform(0.1, 5.0, size=n)
        events = rng.uniform(size=n) < 0.7
        if not events.any():
            events[0] = True
        b = CoxBatch(times, events)
        theta = rng.normal(size=n)
        shift = float(rng.uniform(-50, 50))
        worst_shift = max(worst_shift,
                          abs(cox_loss(theta + shift, b) - cox_loss(theta, b)))
        worst_grad_sum = max(worst_grad_sum, abs(cox_gradient(theta, b).sum()))
    ok = ln6_err <= 1e-12 and worst_shift <= 1e-9 and worst_grad_sum <= 1e-9
    _verdict(4, ok, f"|loss(0,0,0) - ln 6| = {ln6_err:.1e} (tol 1e-12); "
                    f"shift invariance {worst_shift:.1e} (tol 1e-9); "
                    f"grad sum {worst_grad_sum:.1e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# criteria 5-7: protocol-backed directional effects


def test_a5_smoothing_effect(protocol):
    rows, timings = protocol
    gap_ratio = float(np.median([r["gap_after"] / r["gap_before"] for r in rows]))
    gap_ok = all(r["gap_after"] < r["gap_before"] for r in rows)
    delta_c = _median_delta(rows, "c_smooth", "c_plain")
    ok = gap_ok and delta_c >= 0.0 and timings["a5"] < 300.0
    _verdict(5, ok, f"gap shrinks on {N_SEEDS}/{N_SEEDS} seeds (median ratio "
                    f"{gap_ratio:.3f}); median C gain with smoothing "
                    f"{delta_c:+.4f} >= 0; {timings['a5']:.0f}s < 300s")


def test_a6_modulation_effect(protocol):
    rows, timings = protocol
    delta_c = _median_delta(rows, "c_mod", "c_smooth")
    delta_probe = _median_delta(rows, "probe_mod", "probe_smooth")
    ok = delta_c >= 0.005 and delta_probe > 0.0 and timings["a6"] < 900.0
    _verdict(6, ok, f"median C gain with modulation {delta_c:+.4f} >= 0.005; "
                    f"image probe gain {delta_probe:+.4f} > 0; "
                    f"{timings['a6']:.0f}s < 900s")


def test_a7_genomic_dominance_exhibited(protocol):
    rows, _ = protocol
    per_seed = [r["rho_median"] for r in rows]
    ok = float(np.median(per_seed)) > 1.0 and per_seed[0] > 1.0
    _verdict(7, ok, "unmodulated rho_g trajectory medians per seed: "
                    + "/".join(f"{v:.2f}" for v in per_seed) + " (> 1)")


# ---------------------------------------------------------------------------
# criteria 8-9: CLI determinism and degenerate handling


TINY_INI = """\
[run]
seed = 0
epochs = 2
batch_size = 16
hidden_dim = 16
k_folds = 3
snn_dim = 8
gen_dim = 8
img_dim = 8

[smoothing]
stage1_epochs = 1
steps_per_epoch = 10
feature_dim = 8
embed_dim = 8

[cohort]
n_patients = 45
dim_cnv_mut = 8
dim_rna = 16
dim_image = 8

[cells]
n_cells = 40
gene_dim = 16
num_types = 5

[paths]
cohort = {dir}/cohort.csv
cells = {dir}/cells.csv
stage1 = {dir}/stage1.ckpt
out_dir = {dir}/run
"""


@pytest.fixture(scope="session")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_cli")
    ini = root / "tiny.ini"
    ini.write_text(TINY_INI.format(dir=root))
    cfg = ["--config", str(ini)]
    assert main(["gen-cells", *cfg]) == 0
    assert main(["gen-cohort", *cfg]) == 0
    assert main(["pretrain-smooth", *cfg]) == 0
    assert main(["train", *cfg]) == 0
    return root, cfg


def test_a8_train_determinism(cli_workspace):
    root, cfg = cli_workspace

    def outputs():
        report = json.loads((root / "run" / "report.json").read_text())
        stamped = report.pop("timestamp") is not None
        return (stamped, json.dumps(report, sort_keys=True),
                (root / "run" / "metrics.jsonl").read_bytes(),
                (root / "run" / "model.ckpt").read_bytes())

    first = outputs()
    assert main(["train", *cfg, "--force", "--jobs", "1"]) == 0
    rerun = outputs()
    assert main(["train", *cfg, "--force", "--jobs", "2"]) == 0
    pooled = outputs()
    ok = first[0] and first == rerun == pooled
    _verdict(8, ok, "train reruns with --jobs 1 and --jobs 2 byte-identical modulo the "
                    "timestamp key (report, metrics stream, model checkpoint)")


def test_a9_degenerate_handling(cli_workspace, capsys):
    root, cfg = cli_workspace

    # all-censored batch: zero loss, skipped, counted
    batch = CoxBatch(np.array([1.0, 2.0]), np.array([False, False]))
    loss_zero = cox_loss(np.array([0.3, -0.7]), batch) == 0.0

    from survfuse.config import RunConfig
    from survfuse.fusion import build_model, train_survival
    from survfuse.smoothing import default_encoder
    rng = np.random.default_rng(9)
    rows = [(rng.normal(size=4), rng.normal(size=6), rng.normal(size=4)) for _ in range(6)]
    recs = Cohort([f"p{i}" for i in range(6)], np.arange(1.0, 7.0), np.arange(6) == 0,
                  *zip(*rows))
    model = build_model(RunConfig(snn_dim=4, gen_dim=4, img_dim=4, hidden_dim=8), 4, 4,
                        default_encoder(gene_dim=6, embed_dim=4, seed=0))
    # 6 rows, batch 5: the event lands in one batch, the other must be skipped
    result = train_survival(model, recs, RunConfig(epochs=1, batch_size=5, seed=0))
    skip_counted = result.skipped_batches == 1

    # no comparable pairs at evaluation: explicit error, nonzero exit
    rows = [(rng.normal(size=8), rng.normal(size=16), rng.normal(size=8))
            for _ in range(10)]
    degenerate = Cohort([f"d{i}" for i in range(10)], np.arange(1.0, 11.0),
                        np.zeros(10, dtype=bool), *zip(*rows))
    degen_path = root / "degenerate.csv"
    save_cohort(str(degen_path), degenerate)
    code = main(["eval", *cfg, "--model", str(root / "run" / "model.ckpt"),
                 "--cohort", str(degen_path)])
    err = capsys.readouterr().err
    eval_refused = code == 1 and "comparable" in err

    ok = loss_zero and skip_counted and eval_refused
    _verdict(9, ok, "all-censored batch gives loss 0 and is skip-counted; "
                    "no-comparable-pairs eval exits nonzero with an explicit error")
