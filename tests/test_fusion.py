"""Two-branch fusion model: architecture, fusion ops, training loop."""

import dataclasses
import pickle
import sys
import tracemalloc

import numpy as np
import pytest

from survfuse.cohort import Cohort, CohortSpec, generate_cohort
from survfuse.config import RunConfig
from survfuse.errors import (ConfigError, NumericalError, ShapeError,
                             StateError, ValidationError)
from survfuse import fusion
from survfuse.fusion import (FUSION_MODES, FusionSpec, build_model, evaluate,
                             image_branch_features, load_model, predict_theta,
                             save_model, train_survival)
from survfuse.modulation import ModulationConfig, median
from survfuse.nnet import (layer_group, make_mlp, mlp_forward, save_checkpoint,
                           sgd_step)
from survfuse.smoothing import (CellCorpusSpec, Stage1Config, default_encoder,
                                generate_cells, pretrain_mlp_a)
from survfuse.survival import concordance_index

DIMS = dict(dim_cnv_mut=6, dim_rna=8, dim_image=6)


def _small_spec(**kw):
    base = dict(DIMS, snn_dim=4, gen_dim=4, img_dim=4, hidden_dim=8)
    base.update(kw)
    return FusionSpec(**base)


def _small_model(seed=0, **kw):
    enc = default_encoder(gene_dim=DIMS["dim_rna"], embed_dim=5, seed=seed)
    return build_model(_small_spec(**kw), enc, seed=seed)


def _cohort(n=24, seed=0):
    rng = np.random.default_rng(seed)
    rows = [(rng.uniform(0.5, 5.0), rng.uniform() < 0.7 or i == 0,
             rng.normal(size=DIMS["dim_cnv_mut"]), rng.normal(size=DIMS["dim_rna"]),
             rng.normal(size=DIMS["dim_image"])) for i in range(n)]
    return Cohort([f"p{i:03d}" for i in range(n)], *zip(*rows))


def _zero_stack(layers):
    for layer in layers:
        layer.weight[:] = 0.0
        layer.bias[:] = 0.0


# ---------------------------------------------------------------------------
# spec / construction


def test_spec_validation():
    with pytest.raises(ValidationError):
        _small_spec(snn_dim=0)
    with pytest.raises(ValidationError):
        _small_spec(image_hidden=-1)
    enc = default_encoder(gene_dim=DIMS["dim_rna"], embed_dim=5, seed=0)
    with pytest.raises(ConfigError, match="attention"):
        build_model(_small_spec(fusion_mode="attention"), enc, seed=0)


def test_build_model_checks_encoder_dims():
    enc = default_encoder(gene_dim=99, embed_dim=5, seed=0)
    with pytest.raises(ShapeError):
        build_model(_small_spec(), enc, seed=0)


def test_build_model_is_seed_deterministic():
    m1, m2 = _small_model(seed=3), _small_model(seed=3)
    assert np.array_equal(m1.head.weight, m2.head.weight)
    assert np.array_equal(m1.snn[0].weight, m2.snn[0].weight)


def test_depth_knobs_control_stack_sizes():
    m = _small_model(snn_hidden=0, mlp_b_hidden=2, image_hidden=3)
    assert len(m.snn) == 1
    assert len(m.mlp_b) == 3
    assert len(m.image_encoder) == 4


def test_param_groups_partition():
    m = _small_model()
    groups = m.param_groups()
    assert set(groups) == {"genomic", "image", "head"}

    def tensors(layers):
        return np.concatenate([t.ravel() for l in layers for t in (l.weight, l.bias)])

    # each group's buffer holds its layers' parameters, all of them and no other
    assert np.array_equal(groups["genomic"].flat_params, tensors(m.snn + m.mlp_b))
    assert np.array_equal(groups["image"].flat_params, tensors(m.image_encoder))
    assert np.array_equal(groups["head"].flat_params, tensors([m.head]))
    _assert_groups_alias_layers(m, groups)


def _assert_groups_alias_layers(model, groups):
    stacks = {"genomic": model.snn + model.mlp_b, "image": model.image_encoder,
              "head": [model.head]}
    for name, layers in stacks.items():
        for layer in layers:
            assert layer.weight.base is groups[name].flat_params
            assert layer.bias.base is groups[name].flat_params
            assert layer.grad_weight.base is groups[name].flat_grads
            assert layer.grad_bias.base is groups[name].flat_grads


def test_param_groups_alias_layers_across_calls_pickling_and_stage1():
    m = _small_model()
    first, second = m.param_groups(), m.param_groups()
    _assert_groups_alias_layers(m, first)
    _assert_groups_alias_layers(m, second)
    assert all(second[k].flat_params is first[k].flat_params for k in first)
    m.image_encoder[0].grad_bias[:] = 1.0
    before = m.image_encoder[0].bias.copy()
    sgd_step(list(first.values()), eta=0.25)
    assert np.array_equal(m.image_encoder[0].bias, before - 0.25)

    back = pickle.loads(pickle.dumps(m))
    _assert_groups_alias_layers(back, back.param_groups())
    for a, b in zip(m.snn + m.mlp_b + m.image_encoder + [m.head],
                    back.snn + back.mlp_b + back.image_encoder + [back.head]):
        assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)

    # MLP-A trains through its own group in stage 1, then stays frozen
    cells = generate_cells(CellCorpusSpec(n_cells=12, gene_dim=DIMS["dim_rna"],
                                          num_types=3, seed=0))
    enc = default_encoder(gene_dim=DIMS["dim_rna"], embed_dim=5, seed=0)
    stage1 = pretrain_mlp_a(cells, enc, Stage1Config(epochs=1, steps_per_epoch=3,
                                                    hidden_dim=8, feature_dim=4))
    assert layer_group("mlp_a", stage1.mlp_a).flat_params is stage1.mlp_a[0].weight.base
    frozen = [layer.weight.copy() for layer in stage1.mlp_a]
    smoothed = build_model(_small_spec(), enc, stage1.mlp_a, seed=1)
    train_survival(smoothed, _cohort(), RunConfig(epochs=1, batch_size=8))
    _assert_groups_alias_layers(smoothed, smoothed.param_groups())
    assert all(np.array_equal(layer.weight, w) for layer, w in zip(stage1.mlp_a, frozen))


# ---------------------------------------------------------------------------
# hazard head


def _pin_branch_outputs(m, G, P):
    """Zero the last layer of MLP-B and of the image encoder and set their
    biases, so every row's G and P are exactly the given vectors."""
    for layer, value in ((m.mlp_b[-1], G), (m.image_encoder[-1], P)):
        layer.weight[:] = 0.0
        layer.bias[:] = value


def test_fused_hazard_hand_oracle():
    m = _small_model(gen_dim=2, img_dim=2)
    m.head.weight[0] = [1.0, 2.0, -1.0, 0.5]
    m.head.bias[0] = 0.25
    _pin_branch_outputs(m, [2.0, 4.0], [8.0, 16.0])
    rng = np.random.default_rng(0)
    theta, G, P = m.forward_batch(rng.normal(size=(3, DIMS["dim_cnv_mut"])),
                                  m.frozen_rna_features(rng.normal(size=(3, 8))),
                                  rng.normal(size=(3, DIMS["dim_image"])))
    assert G.tolist() == [[2.0, 4.0]] * 3 and P.tolist() == [[8.0, 16.0]] * 3
    # powers of two keep the arithmetic exact
    assert theta.tolist() == [2.0 + 8.0 - 8.0 + 8.0 + 0.25] * 3


def test_head_block_views_alias_the_weight_row():
    m = _small_model(gen_dim=3, img_dim=2)
    m.head.weight[0] = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert m.head_Wg.tolist() == [1.0, 2.0, 3.0]
    assert m.head_Wp.tolist() == [4.0, 5.0]
    m.head_Wg[0] = 9.0  # views write through
    assert m.head.weight[0, 0] == 9.0


def test_fused_hazard_matches_batch_forward():
    m = _small_model()
    rng = np.random.default_rng(1)
    x_cnv = rng.normal(size=(4, DIMS["dim_cnv_mut"]))
    x_rna = rng.normal(size=(4, DIMS["dim_rna"]))
    x_img = rng.normal(size=(4, DIMS["dim_image"]))
    theta, G, P = m.forward_batch(x_cnv, m.frozen_rna_features(x_rna), x_img)
    blocks = G @ m.head_Wg + P @ m.head_Wp + m.head_b
    assert np.allclose(blocks, theta, rtol=0.0, atol=1e-12)


def test_fused_hazard_requires_concat():
    m = _small_model(fusion_mode="kronecker")
    with pytest.raises(StateError):
        m.head_Wg
    with pytest.raises(StateError):
        m.head_Wp


def test_fused_hazard_shape_check():
    m = _small_model()
    g2 = m.frozen_rna_features(np.zeros((2, DIMS["dim_rna"])))
    with pytest.raises(ShapeError):
        m.forward_batch(np.zeros((2, DIMS["dim_cnv_mut"] - 1)), g2,
                        np.zeros((2, DIMS["dim_image"])))
    with pytest.raises(ShapeError):
        m.forward_batch(np.zeros((2, DIMS["dim_cnv_mut"])), g2,
                        np.zeros((2, DIMS["dim_image"] + 1)))


def test_zeroed_mlp_b_silences_genomic_branch():
    m = _small_model()
    _zero_stack(m.mlp_b)
    rng = np.random.default_rng(2)
    _, G, _ = m.forward_batch(rng.normal(size=(3, 6)),
                              m.frozen_rna_features(rng.normal(size=(3, 8))),
                              rng.normal(size=(3, 6)))
    assert np.array_equal(G, np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# kronecker fusion


def _outer_features(G, P):
    """Reference: row i is the flat row-major outer product of [G_i || 1] and
    [P_i || 1], the input the kronecker head's weights are laid out for."""
    ones = np.ones((G.shape[0], 1))
    g_ext = np.concatenate([G, ones], axis=1)
    p_ext = np.concatenate([P, ones], axis=1)
    return (g_ext[:, :, None] * p_ext[:, None, :]).reshape(G.shape[0], -1)


def test_kronecker_frozen_oracles():
    m = _small_model(fusion_mode="kronecker", gen_dim=1, img_dim=1)
    m.head.weight[0] = [1.0, 2.0, 4.0, 8.0]
    m.head.bias[0] = 0.5
    _pin_branch_outputs(m, [2.0], [3.0])
    theta, _, _ = m.forward_batch(np.zeros((2, 6)), m.frozen_rna_features(np.zeros((2, 8))),
                                  np.zeros((2, 6)))
    # W . flat([2, 1] outer [3, 1]) + b = 1*6 + 2*2 + 4*3 + 8*1 + 0.5, exact in binary
    assert theta.tolist() == [30.5, 30.5]


def _kronecker_batch(seed, n=6):
    m = _small_model(seed=seed, fusion_mode="kronecker", gen_dim=3, img_dim=2)
    m.head.bias[0] = 0.75
    rng = np.random.default_rng(seed)
    theta, G, P = m.forward_batch(*_batch(rng, n), train=True)
    return m, theta, G, P, rng.normal(size=n)


def test_kronecker_shape_law():
    m, theta, G, P, dtheta = _kronecker_batch(3)
    dG, dP = fusion._kronecker_backward(m.head, dtheta[:, None], m.gen_dim)
    assert theta.shape == (6,)
    assert (dG.shape, dP.shape) == (G.shape, P.shape) == ((6, 3), (6, 2))
    assert m.head.grad_weight.shape == (1, (3 + 1) * (2 + 1))


def test_kronecker_features_match_per_row():
    """The bilinear theta and its gradients against the outer-product head."""
    for seed in (0, 3):
        _assert_kronecker_matches_outer_product(seed)


def _assert_kronecker_matches_outer_product(seed):
    m, theta, G, P, dtheta = _kronecker_batch(seed)
    fused = _outer_features(G, P)
    w = m.head.weight[0]
    for i in range(6):
        want = np.outer(np.append(G[i], 1.0), np.append(P[i], 1.0)).reshape(-1) @ w + 0.75
        assert np.isclose(theta[i], want, rtol=1e-12, atol=1e-12)
    dG, dP = fusion._kronecker_backward(m.head, dtheta[:, None], m.gen_dim)
    assert np.allclose(m.head.grad_weight[0], dtheta @ fused, rtol=1e-12, atol=1e-12)
    assert m.head.grad_bias[0] == pytest.approx(dtheta.sum(), rel=1e-12)
    d_outer = (dtheta[:, None] * w).reshape(6, 4, 3)   # d theta / d fused, per row
    ones = np.ones((6, 1))
    want_dG = (d_outer * np.concatenate([P, ones], axis=1)[:, None, :]).sum(axis=2)[:, :3]
    want_dP = (d_outer * np.concatenate([G, ones], axis=1)[:, :, None]).sum(axis=1)[:, :2]
    assert np.allclose(dG, want_dG, rtol=1e-12, atol=1e-12)
    assert np.allclose(dP, want_dP, rtol=1e-12, atol=1e-12)


def test_kronecker_head_checks_theta_and_its_upstream_gradient():
    m, _, _, _, dtheta = _kronecker_batch(1)
    with pytest.raises(ShapeError):
        fusion._kronecker_backward(m.head, dtheta[:5, None], m.gen_dim)
    dtheta[2] = np.nan
    with pytest.raises(NumericalError, match="upstream gradient"):
        m.backward_batch(dtheta)
    m.head.weight[0, -1] = np.inf
    with pytest.raises(NumericalError, match="non-finite output"):
        m.forward_batch(*_batch(np.random.default_rng(1), 3))


def test_kronecker_head_width():
    m = _small_model(fusion_mode="kronecker", gen_dim=3, img_dim=2)
    assert m.head.in_dim == (3 + 1) * (2 + 1)
    theta, _, _ = m.forward_batch(np.zeros((2, 6)),
                                  m.frozen_rna_features(np.zeros((2, 8))),
                                  np.zeros((2, 6)))
    assert theta.shape == (2,)


def _assert_kronecker_refuses(cfg):
    m = _small_model(fusion_mode="kronecker")
    layers = m.snn + m.mlp_b + m.image_encoder + [m.head]
    before = [layer.weight.copy() for layer in layers]
    with pytest.raises(StateError, match="concat"):
        train_survival(m, _cohort(), cfg)
    # raised on the first step, before any parameter moved
    assert all(np.array_equal(layer.weight, w) for layer, w in zip(layers, before))


def test_modulation_rejects_kronecker_mode():
    _assert_kronecker_refuses(RunConfig(epochs=1, batch_size=8, seed=0,
                                        modulation=ModulationConfig(enabled=True)))


def test_track_rho_rejects_kronecker_mode():
    _assert_kronecker_refuses(RunConfig(epochs=1, batch_size=8, seed=0, track_rho=True))


# ---------------------------------------------------------------------------
# training behaviour


def test_training_leaves_frozen_path_untouched():
    m = _small_model()
    w_before = m.encoder.weight.copy()
    train_survival(m, _cohort(), RunConfig(epochs=2, batch_size=8, seed=0))
    assert np.array_equal(m.encoder.weight, w_before)


def test_zeroed_head_image_block_blocks_image_gradients():
    m = _small_model()
    m.head.weight[0, m.gen_dim:] = 0.0
    rng = np.random.default_rng(4)
    theta, _, _ = m.forward_batch(rng.normal(size=(5, 6)),
                                  m.frozen_rna_features(rng.normal(size=(5, 8))),
                                  rng.normal(size=(5, 6)), train=True)
    m.backward_batch(np.ones_like(theta))
    assert all(np.array_equal(l.grad_weight, np.zeros_like(l.grad_weight))
               for l in m.image_encoder)
    assert np.abs(m.mlp_b[-1].grad_weight).sum() > 0


def test_rho_tracking_does_not_perturb_training():
    cohort = _cohort()
    plain = _small_model(seed=5)
    tracked = _small_model(seed=5)
    train_survival(plain, cohort, RunConfig(epochs=2, batch_size=8, seed=5))
    result = train_survival(tracked, cohort,
                            RunConfig(epochs=2, batch_size=8, seed=5, track_rho=True))
    assert np.array_equal(plain.head.weight, tracked.head.weight)
    assert np.array_equal(plain.image_encoder[0].weight, tracked.image_encoder[0].weight)
    assert list(result.step_log) == ["epoch", "step", "rho_g", "rho_p", "rho_g_clamped",
                                      "factor_g", "factor_p"]
    assert result.step_log["step"]  # reports were collected


def test_modulation_within_warmup_is_inert():
    cohort = _cohort()
    plain = _small_model(seed=6)
    warm = _small_model(seed=6)
    train_survival(plain, cohort, RunConfig(epochs=1, batch_size=8, seed=6))
    train_survival(warm, cohort, RunConfig(
        epochs=1, batch_size=8, seed=6,
        modulation=ModulationConfig(enabled=True, warmup_steps=10**6)))
    assert np.array_equal(plain.head.weight, warm.head.weight)
    assert np.array_equal(plain.snn[0].weight, warm.snn[0].weight)


def test_modulation_changes_the_fit_after_warmup():
    cohort = _cohort()
    plain = _small_model(seed=6)
    mod = _small_model(seed=6)
    train_survival(plain, cohort, RunConfig(epochs=1, batch_size=8, seed=6))
    train_survival(mod, cohort, RunConfig(
        epochs=1, batch_size=8, seed=6,
        modulation=ModulationConfig(enabled=True, warmup_steps=0)))
    assert not np.array_equal(plain.snn[0].weight, mod.snn[0].weight)


def test_all_censored_batches_are_skipped_not_fatal():
    rng = np.random.default_rng(7)
    cohort = Cohort([f"p{i}" for i in range(6)], times=np.arange(1.0, 7.0),
                  events=np.arange(6) == 0, x_cnv=rng.normal(size=(6, 6)),
                  x_rna=rng.normal(size=(6, 8)), x_img=rng.normal(size=(6, 6)))
    m = _small_model()
    # batch_size 5 over 6 rows: one batch holds the event, the other cannot
    result = train_survival(m, cohort, RunConfig(epochs=1, batch_size=5, seed=0))
    assert result.skipped_batches == 1
    assert result.epoch_log["epoch"] == [0]


# the columns of contributions.jsonl after its fold column, as written
STEP_LOG_TYPECODES = {"epoch": "q", "step": "q", "rho_g": "d", "rho_p": "d",
                      "rho_g_clamped": "d", "factor_g": "d", "factor_p": "d"}


def test_step_log_holds_one_typed_entry_per_reported_step():
    rng = np.random.default_rng(3)
    n = 12
    cohort = Cohort([f"p{i}" for i in range(n)], times=rng.uniform(0.5, 5.0, n),
                    events=np.isin(np.arange(n), [0, 5, 9]), x_cnv=rng.normal(size=(n, 6)),
                    x_rna=rng.normal(size=(n, 8)), x_img=rng.normal(size=(n, 6)))
    cfg = RunConfig(epochs=3, batch_size=3, seed=0, track_rho=True)
    result = train_survival(_small_model(), cohort, cfg)
    log = result.step_log
    assert {key: column.typecode for key, column in log.items()} == STEP_LOG_TYPECODES
    assert list(log) == list(STEP_LOG_TYPECODES)
    assert all(column.itemsize == 8 for column in log.values())
    # 4 steps per epoch, 3 events: some batches hold no event and are skipped
    assert result.skipped_batches > 0
    assert all(len(column) == 12 - result.skipped_batches for column in log.values())
    assert list(log["step"]) == sorted(set(log["step"]))
    assert list(log["epoch"]) == [step // 4 for step in log["step"]]
    epochs = np.array(log["epoch"])
    assert max(np.bincount(epochs)) > 2   # some epoch's median is of several reports
    assert result.epoch_log["epoch"] == [0, 1, 2]
    for key in ("rho_g", "factor_g", "factor_p"):
        assert result.epoch_log[key] == [median(np.array(log[key])[epochs == epoch])
                                         for epoch in range(3)]

    plain = train_survival(_small_model(), cohort, dataclasses.replace(cfg, track_rho=False))
    assert {key: c.typecode for key, c in plain.step_log.items()} == STEP_LOG_TYPECODES
    assert not any(plain.step_log.values())
    assert all(plain.epoch_log[key] == [None] * 3 for key in ("rho_g", "factor_g", "factor_p"))


def test_a_diverging_step_names_its_epoch_and_step():
    # eta = 1e6 throws the branch scores so far from zero that the
    # contribution ratio overflows a step later
    cfg = RunConfig(epochs=2, batch_size=12, seed=0, eta=1e6, track_rho=True)
    with pytest.raises(NumericalError,
                       match=r"^epoch 0, step \d+: contribution ratio is not finite"):
        train_survival(_small_model(), _cohort(), cfg)


def test_an_overflow_at_the_epoch_end_forward_names_its_epoch():
    # one step per epoch: the step runs on the initial weights, and its
    # update at eta = 1e300 first overflows in the epoch-end C-index forward
    cohort = _cohort()
    cfg = RunConfig(epochs=1, batch_size=len(cohort), seed=0, eta=1e300)
    with pytest.raises(NumericalError, match=r"^epoch 0, epoch-end forward: layer forward "
                                             r"produced non-finite output"):
        train_survival(_small_model(), cohort, cfg)


def test_an_underflowing_rate_names_its_epoch_and_step():
    cfg = RunConfig(epochs=3, batch_size=12, seed=0, eta=5e-324)
    with pytest.raises(NumericalError, match=r"^epoch 1, step 2: eta = 5e-324 decays to 0"):
        train_survival(_small_model(), _cohort(), cfg)


def test_an_overflowing_layer_names_its_epoch_and_step():
    # without contribution reports the overflow reaches a dense layer, and its
    # non-finite check, not a numpy RuntimeWarning, ends the run
    cfg = RunConfig(epochs=2, batch_size=12, seed=0, eta=1e6)
    with pytest.raises(NumericalError, match=r"^epoch \d+, step \d+: layer forward produced "
                                             r"non-finite output"):
        train_survival(_small_model(), _cohort(), cfg)


def test_an_overflowing_inference_forward_raises_numerical_error():
    model = _small_model()
    for layer in model.image_encoder:
        layer.weight *= 1e200
    with pytest.raises(NumericalError, match="layer forward produced non-finite output"):
        predict_theta(model, _cohort())


def test_g2_standardization_fitted_during_training():
    m = _small_model()
    cohort = _cohort()
    assert m.g2_mean is None
    train_survival(m, cohort, RunConfig(epochs=1, batch_size=8, seed=0))
    assert m.g2_mean is not None
    feats = m.frozen_rna_features(cohort.x_rna)
    assert np.abs(feats.mean(axis=0)).max() < 1e-9
    spread = feats.std(axis=0)
    assert np.allclose(spread[spread > 1e-6], 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# training and inference forwards


def _batch(rng, n):
    return (rng.normal(size=(n, DIMS["dim_cnv_mut"])), rng.normal(size=(n, 5)),
            rng.normal(size=(n, DIMS["dim_image"])))


def _caches(m):
    layers = m.snn + m.mlp_b + m.image_encoder + [m.head]
    return [(layer._cached_input, layer._cached_preact) for layer in layers]


@pytest.mark.parametrize("mode", ["concat", "kronecker"])
def test_inference_forward_leaves_backward_caches_unchanged(mode):
    m = _small_model(fusion_mode=mode)
    rng = np.random.default_rng(0)
    m.forward_batch(*_batch(rng, 5), train=True)
    layer_caches = _caches(m)
    saved = [(x.copy(), z.copy()) for x, z in layer_caches]
    m.forward_batch(*_batch(rng, 7))
    after = _caches(m)
    for (x, z), (x0, z0), (x1, z1) in zip(after, layer_caches, saved):
        assert x is x0 and z is z0
        assert np.array_equal(x, x1) and np.array_equal(z, z1)


@pytest.mark.parametrize("mode", ["concat", "kronecker"])
def test_backward_after_only_inference_forwards_is_an_error(mode):
    m = _small_model(fusion_mode=mode)
    rng = np.random.default_rng(1)
    theta, _, _ = m.forward_batch(*_batch(rng, 5))
    predict_theta(m, _cohort(6))
    assert _caches(m) == [(None, None)] * 9
    with pytest.raises(StateError):
        m.backward_batch(np.ones_like(theta))


@pytest.mark.parametrize("mode", ["concat", "kronecker"])
def test_training_and_inference_forwards_agree_bit_for_bit(mode):
    m = _small_model(fusion_mode=mode)
    x_cnv, g2, x_img = _batch(np.random.default_rng(2), 9)
    trained = m.forward_batch(x_cnv, g2, x_img, train=True)
    inferred = m.forward_batch(x_cnv, g2, x_img)
    for a, b in zip(trained, inferred):
        assert a.tobytes() == b.tobytes()


def _default_width_model(cohort, fusion_mode="concat"):
    """A model at the default widths (hidden 128), MLP-A on the frozen path."""
    rna_dim = cohort.x_rna.shape[1]
    mlp_a = make_mlp(32, 32, hidden_dim=128, n_hidden=2, activation="relu",
                     rng=np.random.default_rng(0))
    spec = FusionSpec(dim_cnv_mut=cohort.x_cnv.shape[1], dim_rna=rna_dim,
                      dim_image=cohort.x_img.shape[1], fusion_mode=fusion_mode)
    return build_model(spec, default_encoder(rna_dim, 32, seed=0), mlp_a, seed=0)


# 0, 255, 256, 257, 389: no rows, the most run in one piece, then two and
# three chunks whose last one takes the tail
_CHUNK = fusion.INFERENCE_CHUNK
CHUNK_BOUNDARY_ROWS = [0, 2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1, 3 * _CHUNK + 5]


@pytest.fixture(scope="module")
def boundary_cohort():
    return generate_cohort(CohortSpec(n_patients=max(CHUNK_BOUNDARY_ROWS), seed=0))


def _one_pass(model, cohort):
    """Reference: each stack run over all rows at once, layer by layer; returns
    the frozen-path features, P and theta."""
    feats = mlp_forward(model.mlp_a, model.encoder.apply(cohort.x_rna))
    if model.g2_mean is not None:
        feats = (feats - model.g2_mean) / model.g2_std
    theta, _, P = model.forward_batch(cohort.x_cnv, feats, cohort.x_img)
    return feats, P, theta


@pytest.mark.parametrize("n", CHUNK_BOUNDARY_ROWS)
@pytest.mark.parametrize("mode", FUSION_MODES)
def test_chunked_inference_matches_one_pass(boundary_cohort, mode, n):
    cohort = boundary_cohort.take(np.arange(n))
    model = _default_width_model(cohort, mode)
    model.fit_g2_normalization(boundary_cohort.x_rna)
    feats, P, theta = _one_pass(model, cohort)
    assert np.array_equal(model.frozen_rna_features(cohort.x_rna), feats)
    assert np.array_equal(image_branch_features(model, cohort), P)
    assert np.array_equal(predict_theta(model, cohort), theta)
    # the epoch-end forward, which reads the features training computed once
    assert np.array_equal(fusion._chunked_theta(model, cohort, feats), theta)


@pytest.mark.parametrize("n", CHUNK_BOUNDARY_ROWS[1:])   # no epoch without rows
@pytest.mark.parametrize("mode", FUSION_MODES)
def test_epoch_end_forward_matches_one_pass(boundary_cohort, monkeypatch, mode, n):
    cohort = boundary_cohort.take(np.arange(n))
    model = _default_width_model(cohort, mode)
    scored = []

    def c_index(theta, times, events):
        scored.append(theta)
        return concordance_index(theta, times, events)

    monkeypatch.setattr(fusion, "concordance_index", c_index)
    train_survival(model, cohort, RunConfig(epochs=1, seed=0))
    assert np.array_equal(scored[-1], _one_pass(model, cohort)[2])


@pytest.mark.parametrize("n", [600, 1000])
@pytest.mark.parametrize("mode", FUSION_MODES)
def test_inference_bits_do_not_depend_on_the_chunk_size(cohort_4000, monkeypatch, mode, n):
    """At 1,000 rows a one-pass Kronecker theta differs in its last bits, so
    this compares chunkings with each other, not with one pass."""
    cohort = cohort_4000.take(np.arange(n))
    model = _default_width_model(cohort, mode)
    model.fit_g2_normalization(cohort.x_rna)

    def outputs(chunk):
        monkeypatch.setattr(fusion, "INFERENCE_CHUNK", chunk)
        return (predict_theta(model, cohort), image_branch_features(model, cohort),
                model.frozen_rna_features(cohort.x_rna))

    for at_default, at_64 in zip(outputs(_CHUNK), outputs(64)):
        assert np.array_equal(at_default, at_64)


def test_inference_workspace_follows_the_layers_and_is_reused(boundary_cohort):
    """The buffers take the widest hidden layer, here MLP-A's 200, not the
    stacks' hidden_dim of 16; every chunked inference path reuses them."""
    cohort = boundary_cohort
    mlp_a = make_mlp(32, 32, hidden_dim=200, n_hidden=2, activation="relu",
                     rng=np.random.default_rng(0))
    spec = FusionSpec(dim_cnv_mut=cohort.x_cnv.shape[1], dim_rna=cohort.x_rna.shape[1],
                      dim_image=cohort.x_img.shape[1], hidden_dim=16)
    model = build_model(spec, default_encoder(cohort.x_rna.shape[1], 32, seed=0), mlp_a,
                        seed=0)
    theta = predict_theta(model, cohort)
    buffers = model._buffers
    assert [b.size for b in buffers] == [(2 * _CHUNK - 1) * 200] * 2
    image_branch_features(model, cohort)
    model.frozen_rna_features(cohort.x_rna)
    assert model._buffers is buffers
    assert np.array_equal(predict_theta(model, cohort), theta)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.fixture(scope="module")
def cohort_4000():
    return generate_cohort(CohortSpec(n_patients=4000, seed=0))


def test_evaluate_memory_is_a_few_hidden_activations(cohort_4000):
    model = _default_width_model(cohort_4000)
    activation_bytes = len(cohort_4000) * 128 * 8
    # keeping every layer's input and pre-activation measured 11.7x
    assert _peak_bytes(evaluate, model, cohort_4000) < 6 * activation_bytes


@pytest.mark.parametrize("mode", FUSION_MODES)
def test_evaluate_memory_does_not_grow_with_the_cohort(cohort_4000, mode):
    """The cohort's arrays exist before tracing starts, so the peak is what
    evaluate adds: n-long vectors and one chunk's activations. 3,000 more rows
    of one 128-wide activation would add 2.9 MiB."""
    model = _default_width_model(cohort_4000, mode)
    small = cohort_4000.take(np.arange(1000))
    evaluate(model, small)   # lazy set-up outside the measurement
    growth = _peak_bytes(evaluate, model, cohort_4000) - _peak_bytes(evaluate, model, small)
    assert growth < 2**20


# the tracemalloc peaks below were measured on CPython 3.11 with numpy 2.4
_MEASURED_PEAKS = sys.version_info[:2] == (3, 11) and np.__version__.startswith("2.4.")


@pytest.mark.parametrize("mode", FUSION_MODES)
def test_inference_chunk_temporaries_stay_small(cohort_4000, mode):
    """A steady-state predict_theta of 600 rows (its last chunk 216 rows) peaks
    under 1.7 hidden activations of the largest chunk (255 rows): it measured
    333 KiB (concat) and 396 KiB (Kronecker) against 434. A Kronecker product
    built out of place, or G1 held until the head, took the Kronecker peak to
    450 KiB. How much a chunk allocates decides whether glibc keeps it on the
    heap, so this is the margin of the page faults test_config_cli's probe
    counts.

    The path's large arrays are all written through out= or in place, so no
    peak here hangs on numpy's temporary elision; but the 9% margin was
    measured on one interpreter and numpy only. Elsewhere the bound is two
    activations, which still fails a chunk that keeps one more."""
    cohort = cohort_4000.take(np.arange(600))
    model = _default_width_model(cohort, mode)
    model.fit_g2_normalization(cohort.x_rna)
    predict_theta(model, cohort)   # the workspace is allocated outside the measurement
    activations = 1.7 if _MEASURED_PEAKS else 2.0
    peak = _peak_bytes(predict_theta, model, cohort)
    # shown under `pytest -s`, so each interpreter's margin reaches the log
    print(f"chunk temporaries [{mode}]: Python {sys.version.split()[0]}, numpy "
          f"{np.__version__}: {peak / ((2 * _CHUNK - 1) * 128 * 8):.3f} activations, "
          f"bound {activations}")
    assert peak < activations * (2 * _CHUNK - 1) * 128 * 8


def test_save_model_memory_does_not_grow_with_the_file(tmp_path):
    cohort = generate_cohort(CohortSpec(n_patients=100, seed=0))
    model = _default_width_model(cohort)
    model.fit_g2_normalization(cohort.x_rna)
    path = tmp_path / "model.ckpt"
    peak = _peak_bytes(save_model, str(path), model)
    assert path.stat().st_size > 1_500_000
    assert peak < 500_000   # building the text whole measured 3x the file


# ---------------------------------------------------------------------------
# end-to-end fit quality and evaluation


@pytest.fixture(scope="module")
def trained_on_cohort():
    cohort = generate_cohort(CohortSpec(n_patients=200, seed=0))
    enc = default_encoder(seed=0)
    spec = FusionSpec(dim_cnv_mut=32, dim_rna=64, dim_image=32)
    model = build_model(spec, enc, seed=0)
    result = train_survival(model, cohort, RunConfig(epochs=6, seed=0))
    return cohort, model, result


def test_fit_learns_informative_cohort(trained_on_cohort):
    cohort, model, result = trained_on_cohort
    assert result.epoch_log["c_index"][-1] > 0.65


def test_epoch_log_holds_one_entry_per_epoch(trained_on_cohort):
    _, _, result = trained_on_cohort
    assert fusion.EPOCH_LOG_FIELDS == ("epoch", "loss", "c_index", "rho_g", "factor_g",
                                       "factor_p")
    assert list(result.epoch_log) == list(fusion.EPOCH_LOG_FIELDS)
    assert result.epoch_log["epoch"] == list(range(6))
    assert all(len(column) == 6 for column in result.epoch_log.values())
    # tracking was off: no reports, so no medians
    for key in ("rho_g", "factor_g", "factor_p"):
        assert result.epoch_log[key] == [None] * 6


def test_evaluate_matches_manual_composition(trained_on_cohort):
    cohort, model, _ = trained_on_cohort
    out = evaluate(model, cohort)
    theta = predict_theta(model, cohort)
    assert out["c_index"] == concordance_index(theta, cohort.times, cohort.events)
    assert 0.0 < out["mean_loss"]


def test_evaluate_constant_scores_give_chance_c(trained_on_cohort):
    cohort, _, _ = trained_on_cohort
    m = _small_model()
    spec = FusionSpec(dim_cnv_mut=32, dim_rna=64, dim_image=32)
    m = build_model(spec, default_encoder(seed=0), seed=0)
    for stack in (m.snn, m.mlp_b, m.image_encoder, [m.head]):
        _zero_stack(stack)
    assert evaluate(m, cohort)["c_index"] == 0.5


@pytest.mark.parametrize("letter,block", [("g", "x_cnv"), ("r", "x_rna"), ("p", "x_img")])
def test_inference_names_the_block_of_a_width_mismatch(letter, block):
    cohort = _cohort(n=6)
    narrow = dataclasses.replace(cohort, **{block: getattr(cohort, block)[:, :3]})
    want = DIMS[{"g": "dim_cnv_mut", "r": "dim_rna", "p": "dim_image"}[letter]]
    message = f"the cohort has 3 '{letter}' columns, the model expects {want}"
    for infer in (predict_theta, evaluate, image_branch_features):
        with pytest.raises(ValidationError, match=message):
            infer(_small_model(), narrow)


def test_image_branch_features_shape(trained_on_cohort):
    cohort, model, _ = trained_on_cohort
    feats = image_branch_features(model, cohort)
    assert feats.shape == (len(cohort), model.img_dim)


# ---------------------------------------------------------------------------
# checkpoints


def test_model_checkpoint_round_trip(tmp_path, trained_on_cohort):
    cohort, model, _ = trained_on_cohort
    path = str(tmp_path / "model.ckpt")
    save_model(path, model)
    back = load_model(path)
    assert back.fusion_mode == model.fusion_mode
    assert np.array_equal(back.g2_mean, model.g2_mean)
    assert np.array_equal(back.g2_std, model.g2_std)
    assert np.array_equal(predict_theta(back, cohort), predict_theta(model, cohort))


def test_load_model_rejects_other_kinds(tmp_path):
    path = str(tmp_path / "other.ckpt")
    save_checkpoint(path, {"weight": np.zeros((2, 4))}, meta={"kind": "stage1"})
    with pytest.raises(ValidationError, match="not a fusion-model checkpoint"):
        load_model(path)


def test_train_config_validation():
    with pytest.raises(ConfigError, match="epochs must be >= 1"):
        RunConfig(epochs=0)
    with pytest.raises(ConfigError, match="batch_size must be >= 2"):
        RunConfig(batch_size=1)
    for eta in (-0.1, float("inf")):
        with pytest.raises(ConfigError, match="eta must be positive and finite"):
            RunConfig(eta=eta)
