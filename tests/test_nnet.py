"""Dense layers, MLP stacks, optimizer, losses, checkpoint format."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survfuse.errors import (NumericalError, ShapeError, StateError,
                             ValidationError)
from survfuse.nnet import (SELU_ALPHA, SELU_LAMBDA, DenseLayer, ParamGroup,
                           layer_group, load_checkpoint, make_mlp,
                           mlp_backward, mlp_forward, mse_loss,
                           save_checkpoint, sgd_step, step_decay_eta)


def _layer(weight, bias, activation="identity"):
    return DenseLayer.from_params(np.asarray(weight, dtype=np.float64),
                                  np.asarray(bias, dtype=np.float64), activation)


# ---------------------------------------------------------------------------
# forward


def test_identity_forward_is_affine():
    layer = _layer([[1.0, 2.0], [0.0, -1.0]], [0.5, 0.0])
    out = layer.forward(np.array([[1.0, 1.0]]))
    assert out.tolist() == [[3.5, -1.0]]


def test_relu_forward_clamps_negatives():
    layer = _layer([[1.0], [-1.0]], [0.0, 0.0], "relu")
    out = layer.forward(np.array([[2.0]]))
    assert out.tolist() == [[2.0, 0.0]]


def test_selu_forward_matches_constants():
    layer = _layer([[1.0]], [0.0], "selu")
    x = np.array([[2.0], [-1.0]])
    out = layer.forward(x)
    assert out[0, 0] == pytest.approx(SELU_LAMBDA * 2.0, abs=1e-15)
    assert out[1, 0] == pytest.approx(
        SELU_LAMBDA * SELU_ALPHA * (np.exp(-1.0) - 1.0), abs=1e-15)


def test_tanh_forward():
    layer = _layer([[1.0]], [0.0], "tanh")
    assert layer.forward(np.array([[0.5]]))[0, 0] == pytest.approx(
        np.tanh(0.5), abs=1e-15)


def test_unknown_activation_rejected():
    with pytest.raises(ValidationError):
        _layer([[1.0]], [0.0], "softplus")


def test_forward_shape_mismatch():
    layer = _layer([[1.0, 0.0]], [0.0])
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# backward: hand-computed oracle on a 1-layer identity net


def test_backward_gradients_match_hand_calc():
    # y = W x + b with W=[[2, -1]], b=[0.5]; x=[1, 3]; upstream dL/dy = [2]
    layer = _layer([[2.0, -1.0]], [0.5])
    layer.forward(np.array([[1.0, 3.0]]))
    dx = layer.backward(np.array([[2.0]]))
    assert layer.grad_weight.tolist() == [[2.0, 6.0]]   # dL/dW = dy^T x
    assert layer.grad_bias.tolist() == [2.0]
    assert dx.tolist() == [[4.0, -2.0]]                 # dL/dx = dy W


def test_backward_accumulates_over_batch_rows():
    layer = _layer([[1.0]], [0.0])
    layer.forward(np.array([[1.0], [2.0]]))
    layer.backward(np.array([[1.0], [1.0]]))
    assert layer.grad_weight.tolist() == [[3.0]]
    assert layer.grad_bias.tolist() == [2.0]


def test_backward_before_forward_is_an_error():
    layer = _layer([[1.0]], [0.0])
    with pytest.raises(StateError):
        layer.backward(np.array([[1.0]]))


def test_pickled_layer_keeps_weights_and_drops_forward_cache():
    layer = DenseLayer(3, 4, "relu", rng=np.random.default_rng(0))
    layer.bias[:] = [0.1, -0.2, 0.3, 0.0]
    layer.forward(np.ones((200, 3)))
    back = pickle.loads(pickle.dumps(layer))
    assert np.array_equal(back.weight, layer.weight)
    assert np.array_equal(back.bias, layer.bias)
    assert back.activation == layer.activation
    assert layer._cached_input is not None   # the original keeps its cache
    with pytest.raises(StateError):
        back.backward(np.ones((200, 4)))


def test_relu_backward_masks_dead_units():
    layer = _layer([[1.0], [1.0]], [0.0, -5.0], "relu")  # second unit dead
    layer.forward(np.array([[1.0]]))
    layer.backward(np.array([[1.0, 1.0]]))
    assert layer.grad_weight[1, 0] == 0.0
    assert layer.grad_weight[0, 0] == 1.0


# ---------------------------------------------------------------------------
# optimizer


def test_sgd_step_arithmetic():
    layer = _layer([[1.0]], [0.0])
    layer.forward(np.array([[1.0]]))
    layer.backward(np.array([[1.0]]))    # grad_weight = 1
    sgd_step([layer_group("g", [layer])], eta=0.05)
    assert layer.weight[0, 0] == pytest.approx(0.95, abs=1e-15)


def test_sgd_step_zeroes_gradients():
    layer = _layer([[1.0]], [0.0])
    layer.forward(np.array([[1.0]]))
    layer.backward(np.array([[1.0]]))
    sgd_step([layer_group("g", [layer])], eta=0.1)
    assert layer.grad_weight[0, 0] == 0.0
    assert layer.grad_bias[0] == 0.0


def test_sgd_lr_scale_halves_the_step():
    layer = _layer([[1.0]], [0.0])
    group = layer_group("g", [layer])
    group.set_lr_scale(0.5)
    layer.forward(np.array([[1.0]]))
    layer.backward(np.array([[1.0]]))
    sgd_step([group], eta=0.1)
    assert layer.weight[0, 0] == pytest.approx(0.95, abs=1e-15)


def test_lr_scale_must_be_in_unit_interval():
    group = layer_group("g", [_layer([[1.0]], [0.0])])
    with pytest.raises(ValidationError):
        group.set_lr_scale(0.0)
    with pytest.raises(ValidationError):
        group.set_lr_scale(1.5)


def test_sgd_rejects_non_finite_gradients():
    layer = _layer([[1.0]], [0.0])
    layer.forward(np.array([[1.0]]))
    layer.backward(np.array([[1.0]]))
    layer.grad_weight[0, 0] = np.nan
    with pytest.raises(NumericalError):
        sgd_step([layer_group("g", [layer])], eta=0.1)


def test_step_decay_halves_at_each_third():
    total = 30
    etas = {step_decay_eta(1.0, s, total) for s in range(10)}
    assert etas == {1.0}
    assert step_decay_eta(1.0, 10, total) == 0.5
    assert step_decay_eta(1.0, 20, total) == 0.25
    assert step_decay_eta(1.0, 29, total) == 0.25


# ---------------------------------------------------------------------------
# mse


def test_mse_loss_value_and_gradient():
    loss, grad = mse_loss(np.array([[2.0]]), np.array([[1.0]]))
    assert loss == 1.0
    assert grad.tolist() == [[2.0]]


def test_mse_normalizes_by_total_element_count():
    pred = np.array([[1.0, 1.0], [1.0, 1.0]])
    target = np.zeros((2, 2))
    loss, grad = mse_loss(pred, target)
    assert loss == 1.0
    assert np.all(grad == 0.5)   # 2*diff/4


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        mse_loss(np.zeros((1, 2)), np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# stacks


def test_make_mlp_layer_structure():
    rng = np.random.default_rng(0)
    mlp = make_mlp(5, 3, hidden_dim=7, n_hidden=2, activation="relu", rng=rng)
    dims = [(layer.in_dim, layer.out_dim) for layer in mlp]
    assert dims == [(5, 7), (7, 7), (7, 3)]
    assert [layer.activation for layer in mlp] == ["relu", "relu", "identity"]


def test_make_mlp_zero_hidden_is_single_layer():
    mlp = make_mlp(4, 2, n_hidden=0, rng=np.random.default_rng(0))
    assert len(mlp) == 1
    assert mlp[0].activation == "identity"


def test_mlp_forward_backward_round_trip_shapes():
    rng = np.random.default_rng(1)
    mlp = make_mlp(4, 2, hidden_dim=6, n_hidden=1, rng=rng)
    x = rng.normal(size=(3, 4))
    out = mlp_forward(mlp, x)
    assert out.shape == (3, 2)
    dx = mlp_backward(mlp, np.ones((3, 2)))
    assert dx.shape == (3, 4)


def test_empty_stack_is_identity():
    x = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(mlp_forward([], x), x)
    assert np.array_equal(mlp_backward([], x), x)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_identity_mlp_is_linear_in_input(seed):
    rng = np.random.default_rng(seed)
    mlp = make_mlp(3, 2, hidden_dim=4, n_hidden=1, activation="identity", rng=rng)
    a = rng.normal(size=(1, 3))
    b = rng.normal(size=(1, 3))
    lhs = mlp_forward(mlp, a + b) + mlp_forward(mlp, np.zeros((1, 3)))
    rhs = mlp_forward(mlp, a) + mlp_forward(mlp, b)
    assert np.allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(7)
    tensors = {"a.weight": rng.normal(size=(3, 2)),
               "a.bias": rng.normal(size=3),
               "scalarish": np.array([1e-300, 1.5, -0.0])}
    meta = {"kind": "stage1", "note": "x"}
    path = str(tmp_path / "ck.ckpt")
    save_checkpoint(path, tensors, meta)
    meta2, tensors2 = load_checkpoint(path)
    assert meta2 == meta
    for key, value in tensors.items():
        assert np.array_equal(tensors2[key], value)
        assert tensors2[key].dtype == np.float64


def test_checkpoint_write_is_deterministic(tmp_path):
    tensors = {"w": np.array([[0.1, 0.2]])}
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(p1, tensors, {"kind": "t"})
    save_checkpoint(p2, tensors, {"kind": "t"})
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(ValidationError):
        load_checkpoint(str(path))


def test_checkpoint_leaves_no_partial_file(tmp_path):
    path = tmp_path / "ok.ckpt"
    save_checkpoint(str(path), {"w": np.zeros((1, 1))}, {"kind": "t"})
    assert not (tmp_path / "ok.ckpt.partial").exists()
