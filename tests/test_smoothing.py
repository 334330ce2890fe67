"""Mixup construction, the frozen encoder, and stage-1 pretraining."""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survfuse.errors import NumericalError, ShapeError, ValidationError
from survfuse.nnet import DenseLayer, mlp_forward, save_checkpoint
from survfuse.smoothing import (CellCorpus, CellCorpusSpec, FrozenEncoder,
                                Stage1Config, Stage1Result, _stack_mixes,
                                default_encoder, gap_probe_pairs,
                                generate_cells, interpolation_gap, load_cells,
                                load_stage1, pretrain_mlp_a, save_cells,
                                save_stage1)


def _corpus(rows, types):
    return CellCorpus(np.asarray(rows, dtype=np.float64), types)


def _hot(*types, num_types=4):
    return np.eye(num_types)[list(types)]


# ---------------------------------------------------------------------------
# mixup (the batched mixing pretrain_mlp_a runs on every step)


def _mix_one(a, b, lam):
    """Mix the cells a and b, each an (expression, type) pair, with weight
    lam on a."""
    expr = np.array([a[0], b[0]], dtype=np.float64)
    mixed, target = _stack_mixes(expr, _hot(a[1], b[1]), np.array([0]), np.array([1]),
                                 np.array([lam], dtype=np.float64))
    return mixed[0], target[0]


def test_mix_endpoints_recover_inputs():
    a = ([1.0, 2.0], 0)
    b = ([5.0, 7.0], 2)
    mixed, target = _mix_one(a, b, 1.0)
    assert mixed.tolist() == a[0]
    assert np.array_equal(target, _hot(0)[0])
    mixed, target = _mix_one(a, b, 0.0)
    assert mixed.tolist() == b[0]
    assert np.array_equal(target, _hot(2)[0])


def test_mix_arithmetic_oracle():
    a = ([4.0, 0.0], 1)
    b = ([0.0, 8.0], 3)
    mixed, target = _mix_one(a, b, 0.25)
    assert mixed.tolist() == [1.0, 6.0]
    assert target.tolist() == [0.0, 0.25, 0.0, 0.75]


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(0, 2 ** 31 - 1))
def test_mix_symmetry_and_simplex(lam, seed):
    rng = np.random.default_rng(seed)
    a = (rng.uniform(0, 3, size=5), int(rng.integers(0, 4)))
    b = (rng.uniform(0, 3, size=5), int(rng.integers(0, 4)))
    fwd_mixed, fwd_target = _mix_one(a, b, lam)
    rev_mixed, rev_target = _mix_one(b, a, 1.0 - lam)
    assert np.allclose(fwd_mixed, rev_mixed, atol=1e-12)
    assert np.allclose(fwd_target, rev_target, atol=1e-12)
    assert fwd_target.sum() == pytest.approx(1.0, abs=1e-12)
    assert (fwd_target >= 0).all()


def test_stacked_mixes_pair_rows_by_index():
    rng = np.random.default_rng(4)
    cells = _corpus(rng.uniform(0, 3, size=(4, 3)), [0, 1, 2, 3])
    expr, types = cells.expression, cells.types
    idx_a, idx_b = np.array([0, 2, 3]), np.array([1, 1, 0])
    lams = np.array([0.5, 0.25, 1.0])
    mixed, target = _stack_mixes(expr, _hot(*types), idx_a, idx_b, lams)
    for row, (i, j, lam) in enumerate(zip(idx_a, idx_b, lams)):
        want_mixed, want_target = _mix_one((expr[i], types[i]), (expr[j], types[j]), lam)
        assert np.array_equal(mixed[row], want_mixed)
        assert np.array_equal(target[row], want_target)


def test_mix_rejects_bad_lambda_and_shapes():
    # interpolation_gap is where caller-chosen lambdas and pairs are mixed
    enc = default_encoder(gene_dim=1, embed_dim=2, seed=0)
    mlp = [DenseLayer.from_params(np.zeros((2, 2)), np.zeros(2), "identity")]
    cells = _corpus([[1.0], [2.0]], [0, 1])
    with pytest.raises(ValidationError):
        interpolation_gap(enc, mlp, cells, [(0, 1)], [1.5])
    with pytest.raises(ValidationError):
        interpolation_gap(enc, mlp, cells, [(0, 1)], [-0.1])
    with pytest.raises(ValidationError, match=r"pair rows must lie in \[0, 2\)"):
        interpolation_gap(enc, mlp, cells, [(0, 2)], [0.5])
    with pytest.raises(ShapeError):
        interpolation_gap(enc, mlp, cells, [(0, 1, 0)], [0.5])


def test_profile_validation():
    # the rules load_cells applies, named by the cell's row in the matrix
    with pytest.raises(ValidationError, match=r"^cell 1: gene_0 = -1.0: expression must"):
        _corpus([[1.0], [-1.0]], [0, 0])
    with pytest.raises(ValidationError, match=r"^cell 0: cell_type -1 is negative"):
        _corpus([[1.0]], [-1])
    with pytest.raises(ValidationError, match=r"^cell 1: cell_type 2, but no cell has type 1"):
        _corpus([[1.0], [1.0]], [0, 2])
    with pytest.raises(ValidationError, match=rf"^cell 1: cell_type {2 ** 64}, but no"):
        _corpus([[1.0], [1.0]], [0, 2 ** 64])
    for rows, types in (([[1.0], [1.0]], [0]), (np.zeros((0, 3)), []), ([1.0], [0])):
        with pytest.raises(ShapeError):
            _corpus(rows, types)
    cells = _corpus([[0.0, 1.5], [2.0, 0.0], [1.0, 1.0]], [1, 0, 1])
    assert len(cells) == 3
    assert cells.types.dtype == np.intp


# ---------------------------------------------------------------------------
# frozen encoder


def test_default_encoder_is_seed_deterministic():
    e1 = default_encoder(gene_dim=8, embed_dim=4, seed=3)
    e2 = default_encoder(gene_dim=8, embed_dim=4, seed=3)
    e3 = default_encoder(gene_dim=8, embed_dim=4, seed=4)
    assert np.array_equal(e1.weight, e2.weight)
    assert np.array_equal(e1.bias, e2.bias)
    assert not np.array_equal(e1.weight, e3.weight)


def test_encoder_zero_input_yields_tanh_bias():
    enc = default_encoder(gene_dim=6, embed_dim=3, seed=0)
    out = enc.apply(np.zeros((2, 6)))
    assert np.allclose(out, np.tanh(enc.bias), atol=1e-15)


def test_encoder_parameters_are_write_locked():
    enc = default_encoder(gene_dim=4, embed_dim=2, seed=0)
    with pytest.raises(ValueError):
        enc.weight[0, 0] = 99.0
    with pytest.raises(ValueError):
        enc.bias[0] = 99.0


def test_pickled_encoder_is_equal_and_write_locked():
    enc = default_encoder(gene_dim=4, embed_dim=2, seed=0)
    back = pickle.loads(pickle.dumps(enc))   # as sent to or from a pool worker
    assert np.array_equal(back.weight, enc.weight)
    assert np.array_equal(back.bias, enc.bias)
    assert back.activation == enc.activation
    with pytest.raises(ValueError):
        back.weight[0, 0] = 99.0
    with pytest.raises(ValueError):
        back.bias[0] = 99.0


def test_encoder_vector_and_matrix_agree():
    # one sample is a (1, gene_dim) row; it encodes as its row in a batch
    enc = default_encoder(gene_dim=5, embed_dim=3, seed=1)
    x = np.random.default_rng(0).normal(size=(4, 5))
    batch = enc.apply(x)
    for i in range(4):
        assert np.allclose(batch[i], enc.apply(x[i:i + 1])[0], rtol=0.0, atol=1e-15)


def test_encoder_shape_and_activation_errors():
    with pytest.raises(ShapeError):
        FrozenEncoder(np.zeros(3), np.zeros(3))
    with pytest.raises(ShapeError):
        FrozenEncoder(np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ValidationError):
        FrozenEncoder(np.zeros((2, 3)), np.zeros(2), activation="relu")
    enc = default_encoder(gene_dim=4, embed_dim=2, seed=0)
    with pytest.raises(ShapeError):
        enc.apply(np.zeros((1, 5)))
    with pytest.raises(ShapeError):   # one sample is a (1, gene_dim) row
        enc.apply(np.zeros(4))


def test_encoder_checkpoint_round_trip(tmp_path):
    enc = default_encoder(gene_dim=7, embed_dim=4, seed=9)
    rng = np.random.default_rng(9)
    result = Stage1Result(enc, mlp_a=[DenseLayer(4, 3, "relu", rng=rng)],
                          classifier=DenseLayer(3, 2, rng=rng))
    path = str(tmp_path / "stage1.ckpt")
    save_stage1(path, result)
    back = load_stage1(path).encoder
    assert np.array_equal(back.weight, enc.weight)
    assert np.array_equal(back.bias, enc.bias)
    assert back.activation == enc.activation


# ---------------------------------------------------------------------------
# synthetic corpus


def test_generate_cells_smoke():
    spec = CellCorpusSpec(n_cells=40, gene_dim=6, num_types=5, seed=2)
    cells = generate_cells(spec)
    assert len(cells) == 40 and cells.expression.shape == (40, 6)
    assert cells.types.tolist() == [i % 5 for i in range(40)]
    assert (cells.expression >= 0).all()
    again = generate_cells(spec)
    assert np.array_equal(cells.expression, again.expression)


def test_corpus_spec_validation():
    with pytest.raises(ValidationError):
        CellCorpusSpec(n_cells=1)
    with pytest.raises(ValidationError):
        CellCorpusSpec(num_types=1)
    with pytest.raises(ValidationError):
        CellCorpusSpec(noise_scale=-0.5)


def test_corpus_spec_needs_a_cell_per_type():
    assert CellCorpusSpec(n_cells=17, num_types=17).n_cells == 17
    with pytest.raises(ValidationError, match=r"^n_cells = 16 is fewer than num_types = 17$"):
        CellCorpusSpec(n_cells=16, num_types=17)


def test_cells_csv_round_trip(tmp_path):
    spec = CellCorpusSpec(n_cells=12, gene_dim=4, num_types=3, seed=5)
    cells = generate_cells(spec)
    path = str(tmp_path / "cells.csv")
    save_cells(path, cells)
    back = load_cells(path)
    assert np.array_equal(back.expression, cells.expression)  # repr round-trip is exact
    assert np.array_equal(back.types, cells.types)
    save_cells(str(tmp_path / "cells2.csv"), back)
    assert (tmp_path / "cells.csv").read_bytes() == (tmp_path / "cells2.csv").read_bytes()


def test_load_cells_reports_offending_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("gene_0,gene_1,cell_type\n1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(ValidationError, match="row 3"):
        load_cells(str(path))
    path.write_text("gene_0,gene_1,cell_type\n1.0,2.0,9\n")
    with pytest.raises(ValidationError, match="row 2"):
        load_cells(str(path))
    path.write_text("gene_0,gene_1,cell_type\n1.0,0\n")
    with pytest.raises(ValidationError, match="row 2"):
        load_cells(str(path))
    for header in ("wrong,header\n", "cell_type\n", "\n"):
        path.write_text(header + "0\n")
        with pytest.raises(ValidationError, match="header"):
            load_cells(str(path))


def test_load_cells_rejects_a_gap_in_cell_types(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("gene_0,cell_type\n1.0,0\n2.0,2\n3.0,0\n")
    with pytest.raises(ValidationError, match=rf"{path}: row 3: cell_type 2, "
                                              "but no cell has type 1"):
        load_cells(str(path))
    path.write_text("gene_0,cell_type\n1.0,1\n2.0,-1\n")
    with pytest.raises(ValidationError, match=rf"{path}: row 3: cell_type -1 is negative"):
        load_cells(str(path))


def test_load_cells_huge_cell_type_is_a_clean_error_in_small_memory(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("gene_0,cell_type\n1.0,0\n2.0,1\n3.0,1000000000000\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=rf"{path}: row 4: cell_type "
                                                  "1000000000000, but no cell has type 2"):
            load_cells(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000   # a one-hot row this wide alone would be 8 TB


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
def test_load_cells_rejects_non_finite_and_negative_values(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"gene_0,gene_1,cell_type\n1.0,2.0,0\n1.0,{value},1\n")
    with pytest.raises(ValidationError, match=rf"{path}: row 3: gene_1 = {value}:"):
        load_cells(str(path))


@pytest.mark.parametrize("later", [b"1.0,oops,1", b"1.0,2.0,x", b"1.0,1", b"1.0,2.0,7"],
                         ids=["bad-value", "bad-type", "short-row", "type-gap"])
@pytest.mark.parametrize("bad, message", [
    (b"1.0,-0.5,1", "gene_1 = -0.5: expression must be finite and non-negative"),
    (b"1.0,2.0,-1", "cell_type -1 is negative")], ids=["value", "type"])
def test_load_cells_names_the_earliest_bad_row(tmp_path, later, bad, message):
    # a corpus rule broken at row 3 outranks whatever row 5 breaks
    path = tmp_path / "bad.csv"
    path.write_bytes(b"gene_0,gene_1,cell_type\n1.0,2.0,0\n" + bad + b"\n1.0,2.0,1\n"
                     + later + b"\n1.0,2.0,1\n")
    with pytest.raises(ValidationError, match=rf"^{path}: row 3: {message}$"):
        load_cells(str(path))


# ---------------------------------------------------------------------------
# stage-1 pretraining


@pytest.fixture(scope="module")
def trained_stage1():
    # default geometry: the gap comparison is calibrated for this regime
    cells = generate_cells(CellCorpusSpec(seed=0))
    encoder = default_encoder(seed=0)
    cfg = Stage1Config(seed=0)
    result = pretrain_mlp_a(cells, encoder, cfg)
    return cells, encoder, cfg, result


def test_zero_epochs_returns_untouched_init():
    cells = generate_cells(CellCorpusSpec(n_cells=10, gene_dim=4, num_types=3, seed=1))
    encoder = default_encoder(gene_dim=4, embed_dim=3, seed=1)
    cfg = Stage1Config(epochs=0, hidden_dim=8, feature_dim=3, seed=7)
    r1 = pretrain_mlp_a(cells, encoder, cfg)
    r2 = pretrain_mlp_a(cells, encoder, cfg)
    assert r1.loss_history == []
    for la, lb in zip(r1.mlp_a, r2.mlp_a):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)


# the dense layers overflow without a warning; the first non-finite check
# names the step
@pytest.mark.parametrize("setting", [dict(eta=1e9), dict(weight_decay=1e6)])
def test_a_diverging_stage1_step_names_its_step(setting):
    cells = generate_cells(CellCorpusSpec(n_cells=40, gene_dim=16, num_types=5))
    encoder = default_encoder(gene_dim=16, embed_dim=8)
    cfg = Stage1Config(epochs=1, steps_per_epoch=10, hidden_dim=16, feature_dim=8,
                       **setting)
    with pytest.raises(NumericalError, match=r"^stage 1, step \d+: "):
        pretrain_mlp_a(cells, encoder, cfg)


def test_pretrain_is_deterministic(trained_stage1):
    cells, encoder, cfg, result = trained_stage1
    rerun = pretrain_mlp_a(cells, encoder, cfg)
    assert rerun.loss_history == result.loss_history
    for la, lb in zip(rerun.mlp_a, result.mlp_a):
        assert np.array_equal(la.weight, lb.weight)


def test_pretrain_leaves_encoder_untouched(trained_stage1):
    cells, encoder, cfg, _ = trained_stage1
    w_before = encoder.weight.copy()
    b_before = encoder.bias.copy()
    pretrain_mlp_a(cells, encoder, cfg)
    assert np.array_equal(encoder.weight, w_before)
    assert np.array_equal(encoder.bias, b_before)


def test_pretrain_input_validation():
    encoder = default_encoder(gene_dim=4, embed_dim=3, seed=0)
    cfg = Stage1Config(epochs=1, hidden_dim=8, feature_dim=3)
    for types in ([0], [0, 0]):   # one cell, or one type
        with pytest.raises(ValidationError, match="at least 2 distinct cell types"):
            pretrain_mlp_a(_corpus([[1.0] * 4] * len(types), types), encoder, cfg)
    with pytest.raises(ValidationError):
        Stage1Config(eta=0.0)
    with pytest.raises(ValidationError):
        Stage1Config(weight_decay=-0.1)


def test_epoch_mean_loss_decreases(trained_stage1):
    _, _, cfg, result = trained_stage1
    per_step = np.array(result.loss_history)
    epoch_means = per_step.reshape(cfg.epochs, cfg.steps_per_epoch).mean(axis=1)
    assert all(b < a for a, b in zip(epoch_means, epoch_means[1:]))


def test_pure_cell_classification_accuracy(trained_stage1):
    # unmixed cells are the lambda = 1 corner of the mixup region
    cells, encoder, _, result = trained_stage1
    feats = mlp_forward(result.mlp_a, encoder.apply(cells.expression))
    pred = result.classifier.forward(feats).argmax(axis=1)
    assert (pred == cells.types).mean() >= 0.9


def test_training_shrinks_interpolation_gap(trained_stage1):
    cells, encoder, cfg, result = trained_stage1
    pairs, lams = gap_probe_pairs(cells, n_pairs=128, seed=100)
    fresh = pretrain_mlp_a(cells, encoder, Stage1Config(epochs=0, seed=cfg.seed))
    before = interpolation_gap(encoder, fresh.mlp_a, cells, pairs, lams)
    after = interpolation_gap(encoder, result.mlp_a, cells, pairs, lams)
    assert after < before


def test_stage1_checkpoint_round_trip(tmp_path, trained_stage1):
    cells, encoder, _, result = trained_stage1
    path = str(tmp_path / "stage1.ckpt")
    save_stage1(path, result)
    back = load_stage1(path)
    x = cells.expression[:5]
    want = mlp_forward(result.mlp_a, encoder.apply(x))
    got = mlp_forward(back.mlp_a, back.encoder.apply(x))
    assert np.array_equal(want, got)
    assert np.array_equal(back.classifier.weight, result.classifier.weight)
    assert back.loss_history == [] and back.report is None


def test_load_stage1_rejects_other_kinds(tmp_path):
    path = str(tmp_path / "other.ckpt")
    save_checkpoint(path, {"weight": np.zeros((2, 4))}, meta={"kind": "fusion_model"})
    with pytest.raises(ValidationError, match="not a stage-1 checkpoint"):
        load_stage1(path)


# ---------------------------------------------------------------------------
# interpolation gap


def test_gap_zero_at_lambda_corners():
    cells = generate_cells(CellCorpusSpec(n_cells=6, gene_dim=4, num_types=3, seed=3))
    encoder = default_encoder(gene_dim=4, embed_dim=3, seed=3)
    mlp = pretrain_mlp_a(cells, encoder,
                         Stage1Config(epochs=0, hidden_dim=8, feature_dim=3)).mlp_a
    assert interpolation_gap(encoder, mlp, cells, [(0, 1), (2, 3)], [0.0, 1.0]) == 0.0


def test_gap_zero_for_linear_embedding():
    # identity encoder composed with identity layers is affine, so the
    # latent path through any mix is exactly the chord
    d = 4
    enc = FrozenEncoder(np.eye(d), np.zeros(d), activation="identity")
    mlp = [DenseLayer.from_params(np.eye(d), np.zeros(d), "identity")]
    cells = _corpus([[1.0, 0.0, 2.0, 0.5], [0.0, 3.0, 1.0, 2.5]], [0, 1])
    gap = interpolation_gap(enc, mlp, cells, [(0, 1)], [0.37])
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_gap_validation():
    enc = default_encoder(gene_dim=4, embed_dim=2, seed=0)
    mlp = [DenseLayer.from_params(np.zeros((2, 2)), np.zeros(2), "identity")]
    cells = _corpus([[1.0] * 4, [2.0] * 4], [0, 1])
    with pytest.raises(ValidationError):
        interpolation_gap(enc, mlp, cells, [], [])
    with pytest.raises(ShapeError):
        interpolation_gap(enc, mlp, cells, [(0, 1)], [0.5, 0.6])
    with pytest.raises(ValidationError):
        interpolation_gap(enc, mlp, cells, [(0, 1)], [1.5])


def test_gap_probe_pairs_deterministic():
    cells = generate_cells(CellCorpusSpec(n_cells=20, gene_dim=4, num_types=3, seed=0))
    p1, l1 = gap_probe_pairs(cells, n_pairs=10, seed=42)
    p2, l2 = gap_probe_pairs(cells, n_pairs=10, seed=42)
    assert np.array_equal(l1, l2)
    assert np.array_equal(p1, p2)
    assert p1.shape == (10, 2) and 0 <= p1.min() and p1.max() < 20
