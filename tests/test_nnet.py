"""Dense layers, MLP stacks, optimizer, losses, checkpoint format."""

import csv
import io
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from survfuse import nnet
from survfuse.cohort import CohortSpec, generate_cohort, load_cohort, save_cohort
from survfuse.errors import (NumericalError, ShapeError, StateError,
                             ValidationError, csv_lines, write_text)
from survfuse.nnet import (SELU_ALPHA, SELU_LAMBDA, DenseLayer, ParamGroup,
                           _activate, _activation_backward, layer_group,
                           load_checkpoint, make_mlp, mlp_backward,
                           mlp_forward, mse_loss, save_checkpoint, sgd_step,
                           step_decay_eta)
from survfuse.smoothing import (CellCorpusSpec, generate_cells, load_cells,
                                save_cells)


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
# activation kernels against the np.where formulas they replace


def _where_activate(z, kind):
    if kind == "identity":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0)
    return SELU_LAMBDA * np.where(z > 0.0, z, SELU_ALPHA * np.expm1(z))


def _where_activation_grad(z, kind):
    if kind == "identity":
        return np.ones_like(z)
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    return SELU_LAMBDA * np.where(z > 0.0, 1.0, SELU_ALPHA * np.exp(z))


_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300,
          -30.0, -745.0, -800.0, -1e300, 710.0, 1e300]
_PREACTS = arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                  elements=st.one_of(st.sampled_from(_EDGES),
                                     st.floats(-50.0, 50.0, allow_nan=False)))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(z=_PREACTS, up_seed=st.integers(0, 2 ** 31 - 1),
       kind=st.sampled_from(["identity", "relu", "selu"]))
@example(z=np.array([_EDGES]), up_seed=0, kind="selu")
@example(z=np.array([_EDGES]), up_seed=1, kind="relu")
def test_activation_kernels_match_where_formulas_bit_for_bit(z, up_seed, kind):
    up = np.random.default_rng(up_seed).normal(size=z.shape)
    up.ravel()[::2] *= -1.0   # negative upstream times a zero slope gives -0.0
    with np.errstate(over="ignore"):   # the where forms overflow in the branch they drop
        expected_out = _where_activate(z, kind)
        expected_dz = up * _where_activation_grad(z, kind)
    assert _same_bits(_activate(z, kind, np.empty_like(z)), expected_out)
    in_place = z.copy()   # an inference forward writes the output over z
    assert _same_bits(_activate(in_place, kind, in_place), expected_out)
    assert _same_bits(_activation_backward(up, z, kind), expected_dz)


# ---------------------------------------------------------------------------
# backward: hand-computed oracle on a 1-layer identity net


def test_backward_gradients_match_hand_calc():
    # y = W x + b with W=[[2, -1]], b=[0.5]; x=[1, 3]; upstream dL/dy = [2]
    layer = _layer([[2.0, -1.0]], [0.5])
    layer.forward(np.array([[1.0, 3.0]]), train=True)
    dx = layer.backward(np.array([[2.0]]))
    assert layer.grad_weight.tolist() == [[2.0, 6.0]]   # dL/dW = dy^T x
    assert layer.grad_bias.tolist() == [2.0]
    assert dx.tolist() == [[4.0, -2.0]]                 # dL/dx = dy W


@pytest.mark.parametrize("input_cols", [0, 32, 60])
def test_backward_can_return_only_the_leading_input_columns(input_cols):
    rng = np.random.default_rng(4)
    layer = DenseLayer(60, 128, "relu", rng=rng)
    x, up = rng.normal(size=(32, 60)), rng.normal(size=(32, 128))
    layer.forward(x, train=True)
    full = layer.backward(up)
    grads = layer.grad_weight.copy(), layer.grad_bias.copy()
    part = layer.backward(up, input_cols=input_cols)
    assert part.shape == (32, input_cols)   # one row per sample, even with none
    assert _same_bits(part, np.ascontiguousarray(full[:, :input_cols]))
    assert _same_bits(layer.grad_weight, grads[0]) and _same_bits(layer.grad_bias, grads[1])
    net = [DenseLayer(60, 8, "selu", rng=rng), DenseLayer(8, 3, rng=rng)]
    mlp_forward(net, x, train=True)
    upstream = rng.normal(size=(32, 3))
    assert _same_bits(mlp_backward(net, upstream, input_cols=input_cols),
                      np.ascontiguousarray(mlp_backward(net, upstream)[:, :input_cols]))


def test_backward_accumulates_over_batch_rows():
    layer = _layer([[1.0]], [0.0])
    layer.forward(np.array([[1.0], [2.0]]), train=True)
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
    layer.forward(np.ones((200, 3)), train=True)
    back = pickle.loads(pickle.dumps(layer))
    assert np.array_equal(back.weight, layer.weight)
    assert np.array_equal(back.bias, layer.bias)
    assert back.activation == layer.activation
    assert layer._cached_input is not None   # the original keeps its cache
    with pytest.raises(StateError):
        back.backward(np.ones((200, 4)))


def test_pickled_layers_carry_parameters_only_and_train_in_a_group():
    rng = np.random.default_rng(0)
    layers = make_mlp(64, 32, hidden_dim=128, n_hidden=1, rng=rng)
    group = layer_group("original", layers)
    mlp_forward(layers, rng.normal(size=(8, 64)), train=True)
    mlp_backward(layers, rng.normal(size=(8, 32)))
    # protocol 5 (pickle's default from Python 3.14) unpickles an array as a
    # view of another ndarray, protocol 4 as a view of bytes
    copies = [pickle.loads(pickle.dumps(layers, protocol=protocol)) for protocol in (4, 5)]
    for back in copies:
        for a, b in zip(layers, back):
            assert len(pickle.dumps(a)) < 1.1 * (a.weight.nbytes + a.bias.nbytes)
            assert np.array_equal(b.weight, a.weight) and np.array_equal(b.bias, a.bias)
            assert b.weight.flags.owndata and b.bias.flags.owndata
            assert not b.grad_weight.any() and not b.grad_bias.any()
            assert b._cached_input is None and b._cached_preact is None
    # one more step on the same batch moves each copy exactly as the original
    nets = [(layers, group)] + [(back, layer_group(f"copy{i}", back))
                                for i, back in enumerate(copies)]
    x, up = rng.normal(size=(8, 64)), rng.normal(size=(8, 32))
    for net, grp in nets:
        mlp_forward(net, x, train=True)
        mlp_backward(net, up)
        sgd_step([grp], eta=0.1)
    for _, copy_group in nets[1:]:
        assert np.array_equal(copy_group.flat_params, group.flat_params)


@pytest.mark.parametrize("activation", ["identity", "relu", "selu", "tanh"])
def test_inference_forward_keeps_no_cache(activation):
    layer = DenseLayer(3, 4, activation, rng=np.random.default_rng(0))
    net = [layer, DenseLayer(4, 2, activation, rng=np.random.default_rng(1))]
    x = np.random.default_rng(2).normal(size=(5, 3))
    inferred = mlp_forward(net, x)
    assert all(l._cached_input is None and l._cached_preact is None for l in net)
    with pytest.raises(StateError):
        mlp_backward(net, np.ones((5, 2)))
    trained = mlp_forward(net, x, train=True)
    assert trained.tobytes() == inferred.tobytes()
    cached = [(l._cached_input, l._cached_preact) for l in net]
    mlp_forward(net, np.zeros((7, 3)))
    assert [(l._cached_input, l._cached_preact) for l in net] == cached
    assert net[1]._cached_preact.shape == (5, 2)   # still the training batch
    assert mlp_backward(net, np.ones((5, 2))).shape == (5, 3)


def test_relu_backward_masks_dead_units():
    layer = _layer([[1.0], [1.0]], [0.0, -5.0], "relu")  # second unit dead
    layer.forward(np.array([[1.0]]), train=True)
    layer.backward(np.array([[1.0, 1.0]]))
    assert layer.grad_weight[1, 0] == 0.0
    assert layer.grad_weight[0, 0] == 1.0


# ---------------------------------------------------------------------------
# optimizer


def test_sgd_step_arithmetic():
    layer = _layer([[1.0]], [0.0])
    layer.forward(np.array([[1.0]]), train=True)
    layer.backward(np.array([[1.0]]))    # grad_weight = 1
    sgd_step([layer_group("g", [layer])], eta=0.05)
    assert layer.weight[0, 0] == pytest.approx(0.95, abs=1e-15)


def test_sgd_step_zeroes_gradients():
    layer = _layer([[1.0]], [0.0])
    layer.forward(np.array([[1.0]]), train=True)
    layer.backward(np.array([[1.0]]))
    sgd_step([layer_group("g", [layer])], eta=0.1)
    assert layer.grad_weight[0, 0] == 0.0
    assert layer.grad_bias[0] == 0.0


def test_sgd_lr_scale_halves_the_step():
    layer = _layer([[1.0]], [0.0])
    group = layer_group("g", [layer])
    group.set_lr_scale(0.5)
    layer.forward(np.array([[1.0]]), train=True)
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
    layer.forward(np.array([[1.0]]), train=True)
    layer.backward(np.array([[1.0]]))
    layer.grad_weight[0, 0] = np.nan
    with pytest.raises(NumericalError):
        sgd_step([layer_group("g", [layer])], eta=0.1)


def _random_layers(rng, dims):
    return [DenseLayer(i, o, "identity", rng=rng) for i, o in dims]


def _tensors(layers):
    """The layers' parameter tensors and their gradient tensors, in order."""
    return ([t for layer in layers for t in (layer.weight, layer.bias)],
            [t for layer in layers for t in (layer.grad_weight, layer.grad_bias)])


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), eta=st.floats(1e-4, 1.0),
       scales=st.tuples(*[st.floats(0.01, 1.0)] * 3))
def test_sgd_step_on_flat_buffers_equals_per_array_update(seed, eta, scales):
    rng = np.random.default_rng(seed)
    stacks = [_random_layers(rng, [(3, 5), (5, 2)]), _random_layers(rng, [(4, 4)]),
              _random_layers(rng, [(2, 1)])]
    groups = [layer_group(f"g{i}", layers, scale)
              for i, (layers, scale) in enumerate(zip(stacks, scales))]
    for layers in stacks:
        for g in _tensors(layers)[1]:
            g[...] = rng.normal(size=g.shape) * 10.0 ** rng.integers(-8, 3)
    expected = [[p - eta * group.lr_scale * g for p, g in zip(*_tensors(layers))]
                for group, layers in zip(groups, stacks)]
    sgd_step(groups, eta)
    for layers, want in zip(stacks, expected):
        params, grads = _tensors(layers)
        for p, w, g in zip(params, want, grads):
            assert _same_bits(p, w)
            assert not g.any()


@pytest.mark.parametrize("bad_group", [0, 1, 2])
@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
def test_sgd_step_non_finite_gradient_in_any_group_moves_nothing(bad_group, bad_value):
    rng = np.random.default_rng(4)
    stacks = [_random_layers(rng, [(3, 4)]), _random_layers(rng, [(4, 4), (4, 2)]),
              _random_layers(rng, [(2, 1)])]
    groups = [layer_group(f"g{i}", layers) for i, layers in enumerate(stacks)]
    for group in groups:
        group.flat_grads[:] = rng.normal(size=group.flat_grads.size)
    stacks[bad_group][-1].grad_bias.flat[0] = bad_value
    before = [group.flat_params.copy() for group in groups]
    grads_before = [group.flat_grads.copy() for group in groups]
    with pytest.raises(NumericalError, match=f"g{bad_group}"):
        sgd_step(groups, eta=0.1)
    for group, p, g in zip(groups, before, grads_before):
        assert _same_bits(group.flat_params, p)
        assert np.array_equal(group.flat_grads, g, equal_nan=True)


def test_layer_group_aliases_layer_tensors_through_one_buffer():
    rng = np.random.default_rng(5)
    layers = _random_layers(rng, [(3, 4), (4, 2)])
    weights = [layer.weight.copy() for layer in layers]
    first = layer_group("g", layers)
    again = layer_group("g", layers)
    assert again.flat_params is first.flat_params
    assert again.flat_grads is first.flat_grads
    for layer, w in zip(layers, weights):
        assert np.array_equal(layer.weight, w)     # values kept by the move
        assert layer.weight.base is first.flat_params
        assert layer.grad_bias.base is first.flat_grads
    layers[1].forward(np.ones((2, 4)), train=True)
    layers[1].backward(np.ones((2, 2)))          # written into the shared buffer
    sgd_step([again], eta=0.5)
    assert np.array_equal(layers[1].bias, -1.0 * np.ones(2))
    assert not first.flat_grads.any()


def test_layers_of_one_group_cannot_join_another():
    layers = _random_layers(np.random.default_rng(6), [(3, 4), (4, 2)])
    layer_group("both", layers)
    with pytest.raises(StateError, match="another group"):
        layer_group("second only", layers[1:])


def test_layer_group_over_the_same_layers_in_another_order_shares_buffers():
    layers = _random_layers(np.random.default_rng(7), [(3, 4), (4, 2)])
    first = layer_group("forward", layers)
    reordered = layer_group("reversed", layers[::-1])
    assert reordered.flat_params is first.flat_params
    assert reordered.flat_grads is first.flat_grads
    layers[0].grad_weight[:] = 1.0
    before = first.flat_params.copy()
    sgd_step([reordered], eta=0.5)    # element by element: the order is immaterial
    assert np.array_equal(layers[0].weight.ravel(), before[:12] - 0.5)
    assert np.array_equal(first.flat_params[12:], before[12:])


def test_layer_group_of_no_layers_is_empty():
    group = layer_group("none", [])
    assert group.flat_params.shape == group.flat_grads.shape == (0,)
    sgd_step([group], eta=0.1)


def test_param_group_rejects_buffers_of_different_shapes():
    with pytest.raises(ShapeError, match="grads shape"):
        ParamGroup("g", np.zeros(5), np.zeros(4))


def test_step_decay_halves_at_each_third():
    total = 30
    etas = {step_decay_eta(1.0, s, total) for s in range(10)}
    assert etas == {1.0}
    assert step_decay_eta(1.0, 10, total) == 0.5
    assert step_decay_eta(1.0, 20, total) == 0.25
    assert step_decay_eta(1.0, 29, total) == 0.25


def test_a_rate_that_decays_to_zero_is_refused():
    # 5e-324 is positive and finite, but half of it rounds to 0
    assert step_decay_eta(5e-324, 9, 30) == 5e-324
    with pytest.raises(NumericalError, match=r"^eta = 5e-324 decays to 0 "):
        step_decay_eta(5e-324, 10, 30)
    assert step_decay_eta(2e-323, 29, 30) == 5e-324


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
    out = mlp_forward(mlp, x, train=True)
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


def test_checkpoint_lines_and_error_precedence_match_a_whole_file_read(tmp_path):
    path = tmp_path / "odd.ckpt"
    # str.splitlines() also ends a line at a form feed, so "2.0" is line 5
    path.write_bytes(b"survfuse-checkpoint v1\r\nmeta {}\ntensor w 1 2\n1.0\x0c2.0\nend\n")
    with pytest.raises(ValidationError, match="line 3: tensor 'w' needs 2 finite"):
        load_checkpoint(str(path))
    # a byte that is not UTF-8 past a malformed line, or past the end
    # marker, is what the error names
    for text in (b"survfuse-checkpoint v1\nmeta [\n", b"survfuse-checkpoint v1\nmeta {}\nend\n"):
        path.write_bytes(text + b"x" * 20000 + b"\xff\n")
        with pytest.raises(ValidationError, match=f"byte {len(text) + 20000}: not UTF-8"):
            load_checkpoint(str(path))


def test_checkpoint_text_keeps_one_line_per_tensor_across_pieces(tmp_path):
    rng = np.random.default_rng(3)
    tensors = {"long": rng.normal(size=1000), "rows": rng.normal(size=(3, 300)),
               "scalar": np.array(2.5), "empty": np.zeros((0, 4))}
    path = tmp_path / "pieces.ckpt"
    save_checkpoint(str(path), tensors, {"kind": "t"})
    lines = path.read_text().split("\n")
    assert lines[:2] == ["survfuse-checkpoint v1", 'meta {"kind": "t"}']
    assert lines[2::2][:4] == ["tensor long 1 1000", "tensor rows 2 3 300",
                               "tensor scalar 0", "tensor empty 2 0 4"]
    for line, a in zip(lines[3::2], tensors.values()):
        assert line == " ".join(repr(float(v)) for v in a.ravel())
    assert lines[-2:] == ["end", ""]


def test_a_long_tensor_line_is_parsed_in_bounded_slices(tmp_path):
    # a list of every token of the line would hold one str per value
    rng = np.random.default_rng(11)
    values = rng.normal(size=16384) * 10.0 ** rng.integers(-300, 300, size=16384)
    path = tmp_path / "long.ckpt"
    save_checkpoint(str(path), {"w": values}, {"kind": "t"})
    line = path.read_text().splitlines()[3]
    tracemalloc.start()
    try:
        tokens = line.split()
        _, whole_line_tokens = tracemalloc.get_traced_memory()
        del tokens
        tracemalloc.reset_peak()
        _, tensors = load_checkpoint(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < whole_line_tokens
    assert tensors["w"].tobytes() == values.tobytes()


def _parsed(parse, line):
    try:
        return parse(line).tobytes()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(st.one_of(st.floats().map(repr),
                                 st.sampled_from(["1e5", "-0", "+.5", "x1", "1,5"])),
                       max_size=12),
       gaps=st.lists(st.text(" \t\x0b\x0c\u3000\u2003", min_size=1, max_size=3),
                     min_size=13, max_size=13),
       width=st.integers(1, 30))
def test_value_slices_give_the_whole_line_split(tokens, gaps, width):
    # a slice ends at whitespace, so the slices' tokens are line.split()'s; a
    # token float() rejects gives float()'s message
    line = gaps[0] + "".join(tok + gap for tok, gap in zip(tokens, gaps[1:]))
    whole = _parsed(lambda text: np.array([float(tok) for tok in text.split()]), line)
    with mock.patch.object(nnet, "_CHARS_PER_SLICE", width):
        assert _parsed(nnet._parse_values, line) == whole
        assert _parsed(nnet._parse_values, line.strip()) == whole


def test_failed_write_leaves_neither_file_nor_partial(tmp_path):
    def chunks():
        yield "first line\n"
        raise RuntimeError("source failed")

    path = tmp_path / "out.txt"
    with pytest.raises(RuntimeError, match="source failed"):
        write_text(str(path), chunks())
    assert list(tmp_path.iterdir()) == []
    # a tensor that is not numeric fails after the first one was written
    with pytest.raises(ValueError):
        save_checkpoint(str(path), {"w": np.ones((300, 2)), "bad": ["x"]}, {"kind": "t"})
    assert list(tmp_path.iterdir()) == []


def test_csv_lines_quote_as_csv_writer_does():
    header = ["id", "value"]
    rows = [["a,b", "1.5"], ['say "hi"', ""], ["two\nlines", "-0.0"], [" pad ", 3]]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    assert "".join(csv_lines(header, rows)) == expected.getvalue()


def test_checkpoint_leaves_no_partial_file(tmp_path):
    path = tmp_path / "ok.ckpt"
    save_checkpoint(str(path), {"w": np.zeros((1, 1))}, {"kind": "t"})
    assert not (tmp_path / "ok.ckpt.partial").exists()


def test_writers_create_missing_directories(tmp_path):
    deep = tmp_path / "a" / "b"
    save_checkpoint(deep / "x.ckpt", {"w": np.ones((2, 1))}, {"kind": "t"})
    save_cohort(str(deep / "cohort.csv"),
                generate_cohort(CohortSpec(n_patients=6, latent_dim=2, dim_cnv_mut=2,
                                           dim_rna=2, dim_image=2, seed=0)))
    save_cells(str(deep / "cells.csv"),
               generate_cells(CellCorpusSpec(n_cells=4, gene_dim=2, num_types=2)))
    assert sorted(p.name for p in deep.iterdir()) == ["cells.csv", "cohort.csv", "x.ckpt"]
    assert load_checkpoint(deep / "x.ckpt")[1]["w"].tolist() == [[1.0], [1.0]]
    assert len(load_cohort(str(deep / "cohort.csv"))) == 6
    assert [c.cell_type for c in load_cells(str(deep / "cells.csv"))] == [0, 1, 0, 1]
