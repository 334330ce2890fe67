"""INI configuration loading and the command-line surface."""

import dataclasses
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import survfuse
from survfuse import experiment
from survfuse.cli import _write_json, main
from survfuse.cohort import (CohortSpec, default_hazard_coef, generate_cohort,
                             load_cohort, save_cohort)
from survfuse.config import (RunConfig, SmoothingConfig, config_echo, load_cells_spec,
                             load_cohort_spec, load_run_config)
from survfuse.errors import ConfigError, NumericalError, ValidationError
from survfuse.fusion import FUSION_MODES, load_model
from survfuse.modulation import ModulationConfig
from survfuse.nnet import load_checkpoint, save_checkpoint
from survfuse.smoothing import CellCorpusSpec, Stage1Result, load_stage1

# ---------------------------------------------------------------------------
# config files


def test_missing_file_means_defaults():
    cfg = load_run_config(None)
    assert cfg == RunConfig()


def test_ini_values_override_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\nseed = 5\neta = 0.02\nk_folds = 4\ntrack_rho = yes\n"
        "[modulation]\nenabled = true\nrho_min = 0.2\nrho_max = 8\n"
        "[smoothing]\nenabled = off\nstage1_epochs = 3\n"
        "[paths]\nout_dir = elsewhere\n")
    cfg = load_run_config(str(path))
    assert cfg.seed == 5 and cfg.eta == 0.02 and cfg.k_folds == 4
    assert cfg.track_rho is True
    assert cfg.modulation.enabled is True
    assert (cfg.modulation.rho_min, cfg.modulation.rho_max) == (0.2, 8.0)
    assert cfg.smoothing.enabled is False
    assert cfg.smoothing.stage1_epochs == 3
    assert cfg.paths.out_dir == "elsewhere"


def test_unknown_keys_and_sections_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nseeed = 5\n")
    with pytest.raises(ConfigError, match="unknown key 'seeed'"):
        load_run_config(str(path))
    path.write_text("[runn]\nseed = 5\n")
    with pytest.raises(ConfigError, match=r"unknown config section \[runn\]"):
        load_run_config(str(path))
    path.write_text("[modulation]\nclamp = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_run_config(str(path))


def test_bad_literals_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nseed = five\n")
    with pytest.raises(ConfigError):
        load_run_config(str(path))
    path.write_text("[run]\ntrack_rho = maybe\n")
    with pytest.raises(ConfigError, match="expected a boolean"):
        load_run_config(str(path))


def test_keyword_overrides_beat_the_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 5\n[paths]\nout_dir = from_file\n")
    cfg = load_run_config(str(path), seed=9, out_dir="from_flag",
                          modulation_enabled=True, epochs=None)
    assert cfg.seed == 9
    assert cfg.paths.out_dir == "from_flag"
    assert cfg.modulation.enabled is True
    assert cfg.epochs == RunConfig().epochs  # None means "not given"
    with pytest.raises(ConfigError, match="unknown override"):
        load_run_config(str(path), banana=1)


def test_modulation_needs_concat_mode():
    with pytest.raises(ConfigError):
        load_run_config(None, fusion_mode="kronecker", modulation_enabled=True)


def test_track_rho_needs_concat_mode(tmp_path):
    with pytest.raises(ConfigError, match="track_rho requires fusion_mode = concat"):
        load_run_config(None, fusion_mode="kronecker", track_rho=True)
    path = tmp_path / "run.ini"
    path.write_text("[run]\nfusion_mode = kronecker\ntrack_rho = yes\n")
    with pytest.raises(ConfigError, match="track_rho"):
        load_run_config(str(path))


def test_stage1_settings_are_checked_when_the_config_loads(tmp_path):
    path = tmp_path / "run.ini"
    for key, value in [("hidden_dim", 0), ("snn_dim", 0), ("snn_dim", -1), ("gen_dim", 0),
                       ("gen_dim", -1), ("img_dim", 0), ("img_dim", -1)]:
        path.write_text(f"[run]\n{key} = {value}\n[smoothing]\nenabled = off\n")
        message = rf"^\[run\] {key}: {key} must be positive, got {value}$"
        with pytest.raises(ConfigError, match=message):
            load_run_config(str(path))


@pytest.mark.parametrize("command", ["gen-cohort", "train"])
@pytest.mark.parametrize("key", ["snn_dim", "gen_dim", "img_dim"])
def test_a_width_below_1_is_refused_when_the_config_loads(tmp_path, capsys, command, key):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[run]\n{key} = 0\n[paths]\ncohort = {tmp_path}/cohort.csv\n")
    assert main([command, "--config", str(ini), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: [run] {key}: {key} must be positive, got 0\n"
    assert list(tmp_path.iterdir()) == [ini]


def test_cohort_spec_hazard_parsing(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[cohort]\nlatent_dim = 4\nhazard_coef = 0.1, 0.2 0.3,0.4\n"
                    "censor_fraction = 0.25\n")
    spec = load_cohort_spec(str(path))
    assert spec.hazard_coef.tolist() == [0.1, 0.2, 0.3, 0.4]
    assert spec.censor_fraction == 0.25


def test_cohort_spec_rederives_default_hazard(tmp_path):
    # shrinking latent_dim without pinning hazard_coef must re-derive the
    # window-weighted default at the new width
    path = tmp_path / "c.ini"
    path.write_text("[cohort]\nlatent_dim = 4\n")
    spec = load_cohort_spec(str(path))
    assert np.array_equal(spec.hazard_coef, default_hazard_coef(4))


def test_cells_spec_section_and_override(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[cells]\nn_cells = 99\ngene_dim = 10\n")
    spec = load_cells_spec(str(path), seed=3)
    assert spec.n_cells == 99 and spec.gene_dim == 10 and spec.seed == 3


def test_config_echo_is_json_ready():
    echo = config_echo(load_run_config(None))
    text = json.dumps(echo, sort_keys=True)
    assert json.loads(text) == echo
    assert (echo["modulation"]["rho_min"], echo["modulation"]["rho_max"]) == (0.1, 10.0)


# ---------------------------------------------------------------------------
# CLI pipeline (in-process, tiny geometry)


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


def _source_env() -> dict:
    """The environment for a new interpreter that imports this source's survfuse."""
    src = str(Path(survfuse.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-cells + gen-cohort + pretrain-smooth + train, once, shared."""
    root = tmp_path_factory.mktemp("cli")
    ini = root / "tiny.ini"
    ini.write_text(TINY_INI.format(dir=root))
    cfg = ["--config", str(ini)]
    assert main(["gen-cells", *cfg]) == 0
    assert main(["gen-cohort", *cfg]) == 0
    assert main(["pretrain-smooth", *cfg]) == 0
    assert main(["train", *cfg]) == 0
    return root, cfg


def test_pipeline_products_exist(pipeline):
    root, _ = pipeline
    for name in ("cells.csv", "cohort.csv", "stage1.ckpt", "stage1_report.json"):
        assert (root / name).exists()
    for name in ("report.json", "metrics.jsonl", "contributions.jsonl",
                 "model.ckpt"):
        assert (root / "run" / name).exists()


def test_report_shape_and_aggregates(pipeline):
    root, _ = pipeline
    report = json.loads((root / "run" / "report.json").read_text())
    assert report["kind"] == "cv_report"
    assert report["k_folds"] == 3
    assert len(report["per_fold"]) == 3
    c = np.array([row["c_index"] for row in report["per_fold"]])
    assert abs(report["c_index_mean"] - c.mean()) <= 1e-12
    assert abs(report["c_index_std"] - c.std(ddof=1)) <= 1e-12
    assert "timestamp" in report
    assert report["config"]["seed"] == 0
    # train loads stage 1 from its checkpoint; the gap lives in the
    # pretrain-smooth report instead (direction is only calibrated for the
    # default geometry — here just check the fields)
    s1 = json.loads((root / "stage1_report.json").read_text())
    assert s1["kind"] == "stage1_report"
    assert s1["steps"] == 10
    assert s1["gap_before"] > 0 and s1["gap_after"] > 0


def test_metrics_stream_covers_every_fold_epoch(pipeline):
    root, _ = pipeline
    rows = [json.loads(line)
            for line in (root / "run" / "metrics.jsonl").read_text().splitlines()]
    # fold order, then epoch order
    assert [(r["fold"], r["epoch"]) for r in rows] == [
        (f, e) for f in range(3) for e in range(2)]
    assert all(set(r) == {"fold", "epoch", "loss", "c_index", "rho_g", "factor_g",
                          "factor_p"} for r in rows)


def test_eval_consumes_trained_model(pipeline, capsys):
    root, cfg = pipeline
    model = str(root / "run" / "model.ckpt")
    assert main(["eval", *cfg, "--model", model]) == 0
    out = capsys.readouterr().out
    assert "c_index" in out


def test_eval_writes_report_when_out_given(pipeline):
    root, cfg = pipeline
    model = str(root / "run" / "model.ckpt")
    out_dir = root / "evalout"
    assert main(["eval", *cfg, "--model", model, "--out", str(out_dir)]) == 0
    result = json.loads((out_dir / "eval.json").read_text())
    assert result["kind"] == "eval_report"
    assert 0.0 <= result["c_index"] <= 1.0


def test_eval_rejects_wrong_checkpoint_kind(pipeline, capsys):
    root, cfg = pipeline
    bad = str(root / "stage1.ckpt")
    assert main(["eval", *cfg, "--model", bad]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("letter, width, expected", [("g", "dim_cnv_mut", 8),
                                                      ("r", "dim_rna", 16),
                                                      ("p", "dim_image", 8)])
def test_eval_names_the_file_and_columns_of_a_width_mismatch(pipeline, tmp_path, capsys,
                                                             letter, width, expected):
    # the model was trained on 8 g, 16 r and 8 p columns
    root, cfg = pipeline
    dims = dict(dim_cnv_mut=8, dim_rna=16, dim_image=8) | {width: 10}
    path = str(tmp_path / "cohort.csv")
    save_cohort(path, generate_cohort(CohortSpec(n_patients=12, **dims)))
    argv = ["eval", *cfg, "--model", str(root / "run" / "model.ckpt"), "--cohort", path]
    assert main(argv) == 1
    assert capsys.readouterr().err == (f"error: {path}: the cohort has 10 '{letter}' "
                                       f"columns, the model expects {expected}\n")


def test_train_names_the_columns_a_stage1_encoder_does_not_fit(pipeline, tmp_path, capsys):
    # the stage-1 encoder was built for 16 genes
    root, cfg = pipeline
    path = str(tmp_path / "cohort.csv")
    save_cohort(path, generate_cohort(CohortSpec(n_patients=45, dim_cnv_mut=8, dim_rna=10,
                                                 dim_image=8)))
    argv = ["train", *cfg, "--cohort", path, "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    assert capsys.readouterr().err == ("error: fold 0: the cohort has 10 'r' columns, "
                                       "the model expects 16\n")


def _damage_checkpoint(lines, kind):
    lines = list(lines)
    head = next(i for i, line in enumerate(lines) if line.startswith("tensor "))
    if kind == "non_integer_dim":
        parts = lines[head].split()
        parts[3] += ".5"
        lines[head] = " ".join(parts)
    elif kind == "bad_meta_json":
        lines[1] = "meta {not json"
    elif kind == "truncated_before_end":
        del lines[head + 1:]
    elif kind == "nan_value":
        lines[head + 1] = "nan " + lines[head + 1].split(" ", 1)[1]
    elif kind == "missing_tensor":
        at = next(i for i, line in enumerate(lines) if line.startswith("tensor head.weight "))
        del lines[at:at + 2]
    elif kind in META_EDITS:
        meta = json.loads(lines[1][len("meta "):])
        META_EDITS[kind](meta)
        lines[1] = "meta " + json.dumps(meta)
    return lines


META_EDITS = {  # kind -> in-place edit of the checkpoint's meta object
    "missing_meta_key": lambda meta: meta.pop("fusion_mode"),
    "activations_not_object": lambda meta: meta.update(activations=[]),
    "group_activations_not_list": lambda meta: meta["activations"].update(snn="selu"),
    "mlp_a_activations_not_list": lambda meta: meta.update(mlp_a_activations={"0": "tanh"}),
}


def _cut(name: str, keep: slice):
    def edit(tensors):
        tensors[name] = tensors[name][keep]
    return edit


TENSOR_EDITS = {  # kind -> (in-place edit of the tensors, the tensor the error names)
    "g2_mean_one_value": (_cut("g2_norm.mean", slice(0, 1)), "g2_norm.mean"),
    "g2_mean_five_values": (_cut("g2_norm.mean", slice(0, 5)), "g2_norm.mean"),
    "g2_std_one_short": (_cut("g2_norm.std", slice(0, -1)), "g2_norm.std"),
    "layer_dims_do_not_chain": (_cut("mlp_b.1.weight", np.s_[:, 1:]), "mlp_b.1.weight"),
    "mlp_b_input_width": (_cut("mlp_b.0.weight", np.s_[:, 1:]), "mlp_b.0.weight"),
    "head_input_width": (_cut("head.weight", np.s_[:, 1:]), "head.weight"),
    "bias_length": (_cut("snn.0.bias", slice(0, -1)), "snn.0.bias"),
    "encoder_bias_length": (_cut("encoder.bias", slice(0, -1)), "encoder bias"),
}


@pytest.mark.parametrize("kind", ["non_integer_dim", "bad_meta_json", "truncated_before_end",
                                  "nan_value", "missing_tensor", *META_EDITS, *TENSOR_EDITS])
def test_damaged_checkpoint_is_a_clean_error(pipeline, capsys, kind):
    root, cfg = pipeline
    good = root / "run" / "model.ckpt"
    bad = root / f"damaged_{kind}.ckpt"
    match = re.escape(str(bad))
    if kind in TENSOR_EDITS:
        edit, tensor = TENSOR_EDITS[kind]
        meta, tensors = load_checkpoint(str(good))
        edit(tensors)
        save_checkpoint(str(bad), tensors, meta)
        match += ".*" + re.escape(tensor)
    else:
        bad.write_text("\n".join(_damage_checkpoint(good.read_text().splitlines(), kind)) + "\n")
    with pytest.raises(ValidationError, match=match):
        load_model(str(bad))
    assert main(["eval", *cfg, "--model", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_stage1_meta_of_wrong_type_is_a_clean_error(pipeline, capsys):
    root, cfg = pipeline
    lines = (root / "stage1.ckpt").read_text().splitlines()
    meta = json.loads(lines[1][len("meta "):])
    meta["mlp_a_activations"] = "tanh"
    lines[1] = "meta " + json.dumps(meta)
    bad = root / "damaged_stage1.ckpt"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=f"{bad}: meta 'mlp_a_activations'"):
        load_stage1(str(bad))
    argv = ["train", *cfg, "--stage1", str(bad), "--out", str(root / "run_bad")]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_existing_outputs_refused_without_force(pipeline, capsys):
    root, cfg = pipeline
    assert main(["gen-cells", *cfg]) == 1
    assert "already exists" in capsys.readouterr().err
    assert main(["gen-cells", *cfg, "--force"]) == 0


@pytest.mark.parametrize("name", ["model.ckpt", "metrics.jsonl"])
def test_train_refuses_every_existing_output_before_it_runs(pipeline, tmp_path, capsys,
                                                            name):
    _, cfg = pipeline
    out = tmp_path / "run"
    out.mkdir()
    existing = out / name
    existing.write_text("kept\n")
    assert main(["train", *cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {existing} already exists (pass --force to overwrite)\n")
    assert existing.read_text() == "kept\n"
    assert sorted(p.name for p in out.iterdir()) == [name]


def test_eval_refuses_an_existing_report_before_it_reads_the_model(tmp_path, capsys):
    (tmp_path / "eval.json").write_text("{}\n")
    argv = ["eval", "--model", str(tmp_path / "missing.ckpt"), "--out", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'eval.json'} already exists (pass --force to overwrite)\n")


def test_gen_cells_refuses_fewer_cells_than_types(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["gen-cells", "--n-cells", "3", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_cells = 3 is fewer than num_types = 17\n"
    assert not out.exists()


def test_train_is_deterministic_modulo_timestamp(pipeline):
    root, cfg = pipeline
    before_metrics = (root / "run" / "metrics.jsonl").read_bytes()
    before_report = json.loads((root / "run" / "report.json").read_text())
    assert main(["train", *cfg, "--force"]) == 0
    after_metrics = (root / "run" / "metrics.jsonl").read_bytes()
    after_report = json.loads((root / "run" / "report.json").read_text())
    assert before_metrics == after_metrics
    before_report.pop("timestamp")
    after_report.pop("timestamp")
    assert before_report == after_report


def test_train_seed_changes_the_fit(pipeline):
    root, cfg = pipeline
    baseline = json.loads((root / "run" / "report.json").read_text())
    out2 = str(root / "run_seed1")
    assert main(["train", *cfg, "--seed", "1", "--out", out2]) == 0
    other = json.loads((root / "run_seed1" / "report.json").read_text())
    assert other["config"]["seed"] == 1
    assert other["per_fold"][0]["c_index"] != baseline["per_fold"][0]["c_index"]


def test_ablate_emits_six_fixed_rows(pipeline, capsys):
    root, cfg = pipeline
    out = str(root / "abl")
    assert main(["ablate", *cfg, "--out", out]) == 0
    capsys.readouterr()
    table = json.loads((root / "abl" / "ablation.json").read_text())
    rows = table["rows"]
    assert [r["row"] for r in rows] == [1, 2, 3, 4, 5, 6]
    assert [r["smoothing"] for r in rows] == [False] * 3 + [True] * 3
    assert [r["fusion"] for r in rows] == ["concat", "kronecker", "modulation"] * 2
    csv_lines = (root / "abl" / "ablation.csv").read_text().splitlines()
    assert csv_lines[0] == "row,smoothing,fusion,c_index_mean,c_index_std"
    assert len(csv_lines) == 7


def test_an_allocation_that_fails_is_a_clean_error(tmp_path, capsys):
    # 10^15 patients need petabytes: the first array allocation fails at once
    argv = ["gen-cohort", "--n-patients", "1000000000000000", "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "allocate" in err
    assert not os.listdir(tmp_path)


def test_gradcheck_command_passes(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 5
    assert all(l.startswith("PASS") for l in lines)


def test_gradcheck_refuses_a_negative_seed(capsys):
    assert main(["gradcheck", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be non-negative, got -1\n"
    assert captured.out == ""


def test_missing_inputs_exit_nonzero(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.ini")]) == 1
    assert main(["gen-cohort", "--config", str(tmp_path / "nope.ini")]) == 1
    capsys.readouterr()


def test_bad_config_exits_nonzero(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[run]\nepochs = 0\n")
    assert main(["gen-cohort", "--config", str(ini)]) == 1
    assert "error:" in capsys.readouterr().err


def test_kronecker_track_rho_train_is_refused(pipeline, capsys):
    root, cfg = pipeline
    out = root / "run_kron_rho"
    argv = ["train", *cfg, "--out", str(out), "--fusion-mode", "kronecker", "--track-rho"]
    assert main(argv) == 1
    assert "error: track_rho requires fusion_mode = concat" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("rho_max", "1000"), ("rho_min", "0.001")])
def test_clamp_with_zero_factor_stops_train_before_any_fold(
        pipeline, tmp_path, monkeypatch, capsys, key, value):
    root, _ = pipeline
    folds = []
    monkeypatch.setattr(experiment, "run_single_fold",
                        lambda *args: folds.append(args) or {})
    ini = tmp_path / "clamp.ini"
    ini.write_text(TINY_INI.format(dir=root) + f"\n[modulation]\n{key} = {value}\n")
    out = tmp_path / "run"
    argv = ["train", "--config", str(ini), "--out", str(out),
            "--smoothing", "off", "--modulation", "on"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} = ")
    assert folds == []
    assert not out.exists()


def test_a_diverging_run_names_the_fold_epoch_and_step(pipeline, tmp_path, capsys):
    root, _ = pipeline
    ini = tmp_path / "eta.ini"
    ini.write_text(TINY_INI.format(dir=root).replace("[run]\n", "[run]\neta = 1e6\n"))
    argv = ["train", "--config", str(ini), "--out", str(tmp_path / "run"),
            "--smoothing", "off", "--modulation", "on"]
    assert main(argv) == 1
    assert re.fullmatch(r"error: fold 0: epoch 0, step \d+: contribution ratio is not "
                        r"finite: rho_g = \S+, rho_p = \S+\n", capsys.readouterr().err)
    cfg = load_run_config(str(ini), smoothing_enabled=False, modulation_enabled=True)
    cohort = load_cohort(cfg.paths.cohort)
    stage1 = Stage1Result(cfg.smoothing.frozen_encoder(cohort.x_rna.shape[1]))
    with pytest.raises(NumericalError, match=r"^final fit: epoch 0, step \d+: "):
        experiment.run_final_fit(cohort, cfg, stage1)


def _small_ini(tmp_path) -> str:
    ini = tmp_path / "small.ini"
    ini.write_text(f"[run]\nepochs = 1\n[cohort]\nn_patients = 40\n"
                   f"[paths]\ncohort = {tmp_path}/cohort.csv\nout_dir = {tmp_path}/run\n")
    return str(ini)


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_small_cohorts_whose_split_drew_a_fold_without_a_comparable_pair_train(
        tmp_path, capsys, seed):
    # the shuffle gives fold 4, 13 and 13 of 15 no event before its latest
    # time; the split swaps one in, so every held-out C-index is defined
    ini = _small_ini(tmp_path)
    assert main(["gen-cohort", "--config", ini, "--seed", str(seed)]) == 0
    assert main(["train", "--config", ini, "--smoothing", "off", "--seed", str(seed)]) == 0
    assert capsys.readouterr().err == ""
    folds = json.loads((tmp_path / "run" / "report.json").read_text())["per_fold"]
    assert len(folds) == 15 and all(0.0 <= fold["c_index"] <= 1.0 for fold in folds)


def test_a_cohort_no_fold_plan_can_score_is_refused_before_any_fold(
        tmp_path, monkeypatch, capsys):
    # only the two latest times are events: the fold that holds the earlier
    # one has no event before its latest time, and no other fold has one
    ini = _small_ini(tmp_path)
    assert main(["gen-cohort", "--config", ini]) == 0
    cohort = load_cohort(str(tmp_path / "cohort.csv"))
    cohort.events[:] = cohort.times >= np.sort(cohort.times)[-2]
    save_cohort(str(tmp_path / "cohort.csv"), cohort)
    folds = []
    monkeypatch.setattr(experiment, "run_single_fold",
                        lambda *args: folds.append(args) or {})
    capsys.readouterr()
    assert main(["train", "--config", ini, "--smoothing", "off", "--k-folds", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: k_folds = 2: no fold plan found that gives every held-out fold a "
        "comparable pair (an event before its latest time) from 40 rows with 2 events; "
        "lower k_folds\n")
    assert folds == []
    assert not (tmp_path / "run").exists()


def test_a_cohort_scaled_past_the_feature_bound_is_refused_when_it_loads(
        pipeline, tmp_path, capsys):
    # scaled by 1e200, the image columns used to train until the contribution
    # ratio overflowed; the loader names the first value past the bound
    root, _ = pipeline
    cohort = load_cohort(str(root / "cohort.csv"))
    cohort.x_img *= 1e200
    path = tmp_path / "scaled.csv"
    save_cohort(str(path), cohort)
    argv = ["train", "--config", str(root / "tiny.ini"), "--cohort", str(path),
            "--out", str(tmp_path / "run"), "--smoothing", "off", "--modulation", "on"]
    assert main(argv) == 1
    assert re.fullmatch(rf"error: {re.escape(str(path))}: row 2: column 'p\d+' is "
                        r"-?\d\.\d+e\+2\d\d, past the feature bound 1000\n",
                        capsys.readouterr().err)


def test_a_diverging_stage1_writes_one_error_line(pipeline, tmp_path):
    # a new interpreter, so numpy's overflow warnings would print as they do
    # for a user rather than raise as they do under pytest
    root, _ = pipeline
    ini = tmp_path / "eta.ini"
    ini.write_text(TINY_INI.format(dir=root).replace("[smoothing]\n",
                                                     "[smoothing]\nstage1_eta = 1e9\n"))
    run = subprocess.run([sys.executable, "-m", "survfuse.cli", "pretrain-smooth",
                          "--config", str(ini), "--out", str(tmp_path / "out")],
                         env=_source_env(), capture_output=True, text=True)
    assert run.returncode == 1
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: stage 1, step "), run.stderr


def test_pretrain_smooth_without_epochs_prints_no_final_loss(pipeline, tmp_path, capsys):
    root, _ = pipeline
    ini = tmp_path / "zero.ini"
    ini.write_text(TINY_INI.format(dir=root).replace("stage1_epochs = 1", "stage1_epochs = 0"))
    out = tmp_path / "out"
    assert main(["pretrain-smooth", "--config", str(ini), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("stage-1 done: gap ")
    report = json.loads((out / "stage1_report.json").read_text())
    assert report["final_loss"] is None and report["steps"] == 0


def test_ablate_with_track_rho_tracks_the_concat_rows(pipeline, capsys):
    root, _ = pipeline
    ini = root / "tiny_rho.ini"
    ini.write_text(TINY_INI.format(dir=root).replace("[run]\n", "[run]\ntrack_rho = true\n"))
    out = root / "abl_rho"
    assert main(["ablate", "--config", str(ini), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads((out / "ablation.json").read_text())["rows"]
    for row in rows:
        tracked = row["fusion"] != "kronecker"
        assert row["report"]["config"]["track_rho"] is tracked
        assert (row["report"]["rho_g_median"] is not None) is tracked


@pytest.mark.parametrize("kind, offset", [("config", 7), ("cohort", 20000), ("cells", 3000)])
def test_non_utf8_inputs_are_clean_errors(pipeline, tmp_path, capsys, kind, offset):
    # the cohort's bad byte lies past the first 8 KiB a text reader decodes
    root, cfg = pipeline
    source = {"config": root / "tiny.ini", "cohort": root / "cohort.csv",
              "cells": root / "cells.csv"}[kind]
    bad = tmp_path / source.name
    data = bytearray(source.read_bytes())
    data[offset] = 0xFF
    bad.write_bytes(bytes(data))
    out = ["--out", str(tmp_path / "run")]
    argv = {"config": ["train", "--config", str(bad), *out],
            "cohort": ["train", *cfg, "--cohort", str(bad), *out],
            "cells": ["pretrain-smooth", *cfg, "--cells", str(bad), *out]}[kind]
    assert main(argv) == 1
    assert f"error: {bad}: byte {offset}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("pretrain-smooth", "encoder_scale", "-1"),
    ("pretrain-smooth", "encoder_scale", "nan"),
    ("train", "encoder_scale", "-1"),
    ("train", "encoder_scale", "nan"),
    ("pretrain-smooth", "weight_decay", "nan"),
    ("pretrain-smooth", "weight_decay", "inf"),
    ("pretrain-smooth", "stage1_eta", "nan"),
    ("pretrain-smooth", "stage1_eta", "inf"),
    ("train", "stage1_eta", "inf"),
    ("gen-cohort", "weight_decay", "nan"),
    ("pretrain-smooth", "stage1_epochs", "-1"),
    ("train", "steps_per_epoch", "0"),
    ("gen-cells", "batch_pairs", "0"),
    ("pretrain-smooth", "feature_dim", "0"),
    ("gen-cohort", "embed_dim", "0"),
    ("train", "embed_dim", "0"),
])
def test_bad_smoothing_values_are_clean_errors(pipeline, tmp_path, capsys,
                                               command, key, value):
    root, _ = pipeline
    ini = tmp_path / "bad.ini"
    # a key TINY_INI sets is replaced, not repeated (configparser refuses that)
    ini.write_text(re.sub(rf"(?m)^{key} = .*\n", "", TINY_INI.format(dir=root)).replace(
        "[smoothing]\n", f"[smoothing]\n{key} = {value}\n"))
    out = tmp_path / "out"
    extra = ["--smoothing", "off"] if command == "train" else []
    assert main([command, "--config", str(ini), "--out", str(out), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [smoothing] {key}: ") and "Traceback" not in err
    assert not out.exists()


def test_removed_num_cell_types_key_is_refused(pipeline, tmp_path, capsys):
    root, _ = pipeline
    ini = tmp_path / "old.ini"
    ini.write_text(TINY_INI.format(dir=root).replace("[run]\n", "[run]\nnum_cell_types = 5\n"))
    with pytest.raises(ConfigError, match=r"\[run\] unknown key 'num_cell_types'"):
        load_run_config(str(ini))
    assert main(["pretrain-smooth", "--config", str(ini), "--out", str(tmp_path)]) == 1
    assert "error: [run] unknown key 'num_cell_types'" in capsys.readouterr().err


@pytest.mark.parametrize("last_type", ["3", str(10 ** 12)])
def test_cell_type_gap_is_a_clean_cli_error(pipeline, tmp_path, capsys, last_type):
    root, cfg = pipeline
    bad = tmp_path / "cells.csv"
    lines = (root / "cells.csv").read_text().splitlines()
    header, rows = lines[0], [line.rsplit(",", 1)[0] for line in lines[1:4]]
    bad.write_text(f"{header}\n{rows[0]},0\n{rows[1]},1\n{rows[2]},{last_type}\n")
    out = tmp_path / "out"
    argv = ["pretrain-smooth", *cfg, "--cells", str(bad), "--out", str(out)]
    assert main(argv) == 1
    assert (f"error: {bad}: row 4: cell_type {last_type}, but no cell has type 2"
            in capsys.readouterr().err)
    assert not out.exists()


# ---------------------------------------------------------------------------
# boundary values of every numeric INI key

_SWEEP_BASE = {"run": {"k_folds": "2", "epochs": "1", "hidden_dim": "8"},
               "smoothing": {"stage1_epochs": "1"},
               "cohort": {"n_patients": "40"}, "cells": {"n_cells": "20"}}
_SWEEP_SECTIONS = {"run": RunConfig(), "modulation": ModulationConfig(),
                   "smoothing": SmoothingConfig(), "cohort": CohortSpec(),
                   "cells": CellCorpusSpec()}
_FLOAT_BOUNDARIES = ("0", "1", "5e-324", "1e300", "inf", "-inf", "nan", "-1")
_INT_BOUNDARIES = ("0", "1", "-1")


def _sweep_cases():
    for section, defaults in _SWEEP_SECTIONS.items():
        for field in dataclasses.fields(defaults):
            like = getattr(defaults, field.name)
            if isinstance(like, bool) or not isinstance(like, (int, float)):
                continue
            for value in _FLOAT_BOUNDARIES if isinstance(like, float) else _INT_BOUNDARIES:
                yield pytest.param(section, field.name, value,
                                   id=f"{section}.{field.name}={value}")


@pytest.mark.parametrize("section, key, value", _sweep_cases())
def test_numeric_ini_boundary_ends_cleanly(tmp_path, capsys, section, key, value):
    """One numeric INI key at a boundary value, the others as in a tiny run,
    through gen-cells, gen-cohort, pretrain-smooth, a modulated train and
    ablate, in process: each command exits 0 with nothing on stderr, or the
    first that fails exits 1 with one `error:` line, which names the stage
    and step of a divergence; gen-cohort refuses a noise scale that training
    could not take, naming its key; no `.partial` file is left. Stage 1 trains one
    epoch, so the 171 cases take about 8 s. Huge ints are left out: `epochs =
    10**9` runs without end, and the size keys would allocate without bound."""
    sections = {name: dict(keys) for name, keys in _SWEEP_BASE.items()}
    sections.setdefault(section, {})[key] = value
    sections["paths"] = {"cohort": f"{tmp_path}/cohort.csv", "cells": f"{tmp_path}/cells.csv",
                         "stage1": f"{tmp_path}/stage1.ckpt", "out_dir": f"{tmp_path}/run"}
    ini = tmp_path / "sweep.ini"
    ini.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for name, keys in sections.items()))
    cfg = ["--config", str(ini)]
    for argv in (["gen-cells", *cfg], ["gen-cohort", *cfg], ["pretrain-smooth", *cfg],
                 ["train", *cfg, "--modulation", "on"],
                 ["ablate", *cfg, "--out", str(tmp_path / "ablate")]):
        code = main(argv)
        err = capsys.readouterr().err
        assert not list(tmp_path.rglob("*.partial")), argv
        if code != 0:
            assert code == 1 and re.fullmatch(r"error: [^\n]*\n", err), (argv, code, err)
            if section == "cohort" and key.startswith("noise_"):
                # a feature scale training cannot take is the generator's to refuse
                assert argv[0] == "gen-cohort" and err.startswith(
                    f"error: {key} must lie in [0, 100], got "), (argv, err)
            if re.search(r"non-finite|not finite|decays to 0", err):
                assert re.search(r"(stage 1|epoch \d+), (step \d+|epoch-end forward): ",
                                 err), err
            return
        assert err == "", argv


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_cli_leaves_no_partial_file_and_writes_strict_json(tmp_path, capsys):
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_INI.format(dir=tmp_path / "data"))   # data/ does not exist yet
    cfg = ["--config", str(ini)]
    model = str(tmp_path / "data" / "run" / "model.ckpt")
    for argv in (["gen-cells", *cfg], ["gen-cohort", *cfg], ["pretrain-smooth", *cfg],
                 ["train", *cfg, "--modulation", "on"],
                 ["eval", *cfg, "--model", model, "--out", str(tmp_path / "eval")],
                 ["ablate", *cfg, "--out", str(tmp_path / "abl")]):
        assert main(argv) == 0, argv
        assert not list(tmp_path.rglob("*.partial")), argv
    capsys.readouterr()
    json_files = sorted(tmp_path.rglob("*.json"))
    jsonl_files = sorted(tmp_path.rglob("*.jsonl"))
    assert len(json_files) == 4 and len(jsonl_files) == 2
    for path in json_files:
        _strict_json(path.read_text())
    for path in jsonl_files:
        for line in path.read_text().splitlines():
            _strict_json(line)


def test_json_report_streams_the_text_json_dumps_gives(tmp_path):
    obj = {"b": [1.5, float("nan"), None, {"z": True, "a": "\u00e9"}], "a": {}, "c": [],
           "d": -0.0}
    path = tmp_path / "report.json"
    _write_json(str(path), obj, force=False)
    assert path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


# Twenty forwards of each inference path, in the fusion mode given in argv,
# with MLP-A on the frozen path, at hidden widths 128 and 256 and at 600 and
# 1,100 patients; prints the minor page faults each took. No allocator
# setting is made.
_FAULT_PROBE = """
import resource
import sys
import numpy as np
from survfuse.cohort import CohortSpec, generate_cohort
from survfuse.config import RunConfig
from survfuse.fusion import build_model, image_branch_features, predict_theta
from survfuse.nnet import make_mlp
from survfuse.smoothing import default_encoder
mode = sys.argv[1]
full = generate_cohort(CohortSpec(n_patients=1100, seed=0))
for hidden in (128, 256):
    mlp_a = make_mlp(32, 32, hidden_dim=hidden, n_hidden=2, activation="relu",
                     rng=np.random.default_rng(0))
    model = build_model(RunConfig(hidden_dim=hidden, fusion_mode=mode), 32, 32,
                        default_encoder(seed=0), mlp_a)
    model.fit_g2_normalization(full.x_rna)
    for n in (600, 1100):
        cohort = full.take(np.arange(n))
        paths = {"predict_theta": lambda: predict_theta(model, cohort),
                 "image_branch_features": lambda: image_branch_features(model, cohort),
                 "frozen_rna_features": lambda: model.frozen_rna_features(cohort.x_rna)}
        for name, forward in paths.items():
            forward()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(20):
                forward()
            print(mode, hidden, n, name,
                  resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the fault bound was measured with glibc malloc only")
def test_cli_process_reuses_the_memory_inference_forwards_free():
    # each mode in a fresh interpreter: a mode run before it would have moved
    # glibc's dynamic mmap threshold and hidden its faults
    faults = {}
    for mode in FUSION_MODES:
        out = subprocess.run([sys.executable, "-c", _FAULT_PROBE, mode], env=_source_env(),
                             capture_output=True, text=True, check=True).stdout
        faults.update((tuple(line.split()[:4]), int(line.split()[4]))
                      for line in out.splitlines())
    assert len(faults) == 24
    # one forward's n x 128 activations span ~150 pages each; without the
    # model's inference workspace glibc's default thresholds faulted them in
    # afresh on every forward
    assert all(count < 20 * 50 for count in faults.values()), faults
