"""Minimal dense-network core.

Hand-derived forward/backward passes (no autodiff graph): each DenseLayer
caches its input and pre-activation on forward and fills its gradient
buffers on backward. Trainable tensors are float64 throughout. Parameters
are collected into named ParamGroup objects so the optimizer can scale the
effective learning rate per group, which is how branch-wise gradient
modulation is applied.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError, StateError, ValidationError

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

ACTIVATIONS = ("identity", "relu", "selu", "tanh")

CHECKPOINT_MAGIC = "survfuse-checkpoint v1"


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and validate finiteness."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise NumericalError(f"{name} contains non-finite entries")
    return a


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "identity":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "selu":
        return SELU_LAMBDA * np.where(z > 0.0, z, SELU_ALPHA * np.expm1(z))
    if kind == "tanh":
        return np.tanh(z)
    raise ValidationError(f"unknown activation '{kind}'")


def _activation_grad(z: np.ndarray, kind: str) -> np.ndarray:
    # Derivative w.r.t. the pre-activation. At the relu/selu kink (z == 0)
    # the left derivative is used; the kink has measure zero for the
    # continuous inputs this package generates.
    if kind == "identity":
        return np.ones_like(z)
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    if kind == "selu":
        return SELU_LAMBDA * np.where(z > 0.0, 1.0, SELU_ALPHA * np.exp(z))
    if kind == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    raise ValidationError(f"unknown activation '{kind}'")


class DenseLayer:
    """Fully-connected layer y = act(x @ W.T + b) with weight shape (out, in).

    forward() caches the input and pre-activation; backward() may only be
    called afterwards with a matching batch. Gradient buffers are written
    in place so ParamGroup aliases stay valid.
    """

    def __init__(self, in_dim: int, out_dim: int, activation: str = "identity",
                 rng: np.random.Generator | None = None):
        if in_dim <= 0 or out_dim <= 0:
            raise ValidationError(f"layer dims must be positive, got {in_dim}x{out_dim}")
        if activation not in ACTIVATIONS:
            raise ValidationError(f"unknown activation '{activation}'")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.activation = activation
        if rng is None:
            self.weight = np.zeros((out_dim, in_dim))
        else:
            bound = 1.0 / np.sqrt(in_dim)
            self.weight = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        self.bias = np.zeros(out_dim)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._cached_input: np.ndarray | None = None
        self._cached_preact: np.ndarray | None = None

    @classmethod
    def from_params(cls, weight, bias, activation: str = "identity") -> "DenseLayer":
        w = as_matrix(weight, "weight")
        layer = cls(w.shape[1], w.shape[0], activation)
        layer.weight[...] = w
        b = np.asarray(bias, dtype=np.float64).reshape(-1)
        if b.shape != (layer.out_dim,):
            raise ShapeError(f"bias has length {b.size}, layer expects {layer.out_dim}")
        layer.bias[...] = b
        return layer

    def __getstate__(self) -> dict:
        # the forward caches belong to the batch that filled them; a copy of
        # the layer (pickled to a worker, say) starts without one
        state = dict(self.__dict__)
        state["_cached_input"] = state["_cached_preact"] = None
        return state

    def forward(self, x) -> np.ndarray:
        x = as_matrix(x, "layer input")
        if x.shape[1] != self.in_dim:
            raise ShapeError(
                f"input has {x.shape[1]} columns, layer expects {self.in_dim}")
        z = x @ self.weight.T + self.bias
        self._cached_input = x
        self._cached_preact = z
        out = _activate(z, self.activation)
        if not np.isfinite(out).all():
            raise NumericalError("layer forward produced non-finite output")
        return out

    def backward(self, upstream) -> np.ndarray:
        if self._cached_input is None or self._cached_preact is None:
            raise StateError("backward called before forward")
        upstream = as_matrix(upstream, "upstream gradient")
        if upstream.shape != (self._cached_input.shape[0], self.out_dim):
            raise ShapeError(
                f"upstream gradient has shape {upstream.shape}, expected "
                f"{(self._cached_input.shape[0], self.out_dim)}")
        dz = upstream * _activation_grad(self._cached_preact, self.activation)
        self.grad_weight[...] = dz.T @ self._cached_input
        self.grad_bias[...] = dz.sum(axis=0)
        return dz @ self.weight


def make_mlp(in_dim: int, out_dim: int, *, hidden_dim: int = 128,
             n_hidden: int = 2, activation: str = "relu",
             out_activation: str = "identity",
             rng: np.random.Generator) -> list[DenseLayer]:
    """Build a dense stack in -> hidden^n_hidden -> out.

    The default (n_hidden=2) gives the three-dense-layer shape used for the
    branch MLPs; `activation` is applied on hidden layers only.
    """
    dims = [in_dim] + [hidden_dim] * n_hidden + [out_dim]
    layers = []
    for i in range(len(dims) - 1):
        act = activation if i < len(dims) - 2 else out_activation
        layers.append(DenseLayer(dims[i], dims[i + 1], act, rng=rng))
    return layers


def mlp_forward(net: list[DenseLayer], x) -> np.ndarray:
    """Run a batch through the stack; caches are populated for backward.

    An empty stack acts as the identity map.
    """
    out = as_matrix(x, "mlp input")
    for layer in net:
        out = layer.forward(out)
    return out


def mlp_backward(net: list[DenseLayer], upstream) -> np.ndarray:
    """Backpropagate, filling every layer's gradient buffers.

    Returns the gradient w.r.t. the stack's input.
    """
    grad = as_matrix(upstream, "upstream gradient")
    for layer in reversed(net):
        grad = layer.backward(grad)
    return grad


@dataclass
class ParamGroup:
    """Named parameter tensors with aliased gradient buffers and an lr scale."""

    name: str
    params: list[np.ndarray]
    grads: list[np.ndarray]
    lr_scale: float = 1.0

    def __post_init__(self):
        if len(self.params) != len(self.grads):
            raise ShapeError(
                f"group '{self.name}': {len(self.params)} params vs {len(self.grads)} grads")
        for p, g in zip(self.params, self.grads):
            if p.shape != g.shape:
                raise ShapeError(
                    f"group '{self.name}': param shape {p.shape} != grad shape {g.shape}")
        self._check_lr_scale()

    def _check_lr_scale(self):
        if not (0.0 < self.lr_scale <= 1.0):
            raise ValidationError(
                f"group '{self.name}': lr_scale must be in (0, 1], got {self.lr_scale}")

    def set_lr_scale(self, value: float) -> None:
        self.lr_scale = float(value)
        self._check_lr_scale()


def layer_group(name: str, layers: list[DenseLayer], lr_scale: float = 1.0) -> ParamGroup:
    """Collect layer weights/biases into one group; arrays are aliased, not copied."""
    params, grads = [], []
    for layer in layers:
        params.extend([layer.weight, layer.bias])
        grads.extend([layer.grad_weight, layer.grad_bias])
    return ParamGroup(name, params, grads, lr_scale)


def sgd_step(groups: list[ParamGroup], eta: float) -> None:
    """In-place SGD update: param -= eta * lr_scale * grad; grads are zeroed.

    Aborts without touching any parameter if any gradient is non-finite.
    """
    if not eta > 0.0:
        raise ValidationError(f"eta must be positive, got {eta}")
    for group in groups:
        for g in group.grads:
            if not np.isfinite(g).all():
                raise NumericalError(f"non-finite gradient in group '{group.name}'")
    for group in groups:
        for p, g in zip(group.params, group.grads):
            p -= eta * group.lr_scale * g
            g[...] = 0.0


def step_decay_eta(eta0: float, step: int, total_steps: int) -> float:
    """Step-decay schedule: x0.5 at each third of the run (two drops total)."""
    if total_steps <= 0:
        return eta0
    k = min(2, (3 * step) // total_steps)
    return eta0 * 0.5 ** k


def mse_loss(pred, target) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries and its gradient w.r.t. pred."""
    p = as_matrix(pred, "pred")
    t = as_matrix(target, "target")
    if p.shape != t.shape:
        raise ShapeError(f"pred shape {p.shape} != target shape {t.shape}")
    diff = p - t
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


# --- checkpoint format -------------------------------------------------
#
# Plain-text, self-describing, stable:
#
#   survfuse-checkpoint v1
#   meta <single-line JSON>
#   tensor <name> <ndim> <d0> <d1> ...
#   <row-major float64 values on one line, repr-formatted (exact round-trip)>
#   ...
#   end


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    lines = [CHECKPOINT_MAGIC, "meta " + json.dumps(meta or {}, sort_keys=True)]
    for name, arr in tensors.items():
        a = np.asarray(arr, dtype=np.float64)
        header = f"tensor {name} {a.ndim}"
        if a.ndim:
            header += " " + " ".join(str(d) for d in a.shape)
        lines.append(header)
        lines.append(" ".join(repr(float(v)) for v in a.ravel()))
    lines.append("end")
    tmp = f"{path}.partial"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint; malformed content raises ValidationError naming the line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ValidationError(f"{path}: not a survfuse checkpoint")
    if len(lines) < 2 or not lines[1].startswith("meta "):
        raise ValidationError(f"{path}: missing meta line")
    try:
        meta = json.loads(lines[1][len("meta "):])
    except ValueError as exc:
        raise ValidationError(f"{path}: line 2: bad meta JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise ValidationError(f"{path}: line 2: meta must be a JSON object")
    tensors: dict[str, np.ndarray] = {}
    i = 2
    while i + 1 < len(lines) and lines[i] != "end":
        try:
            tag, name, ndim, *dims = lines[i].split()
            shape = tuple(int(d) for d in dims)
            if tag != "tensor" or int(ndim) != len(shape) or min(shape, default=0) < 0:
                raise ValueError("expected 'tensor <name> <ndim> <dim>...'")
            values = np.array([float(tok) for tok in lines[i + 1].split()])
            if values.size != math.prod(shape) or not np.isfinite(values).all():
                raise ValueError(f"tensor '{name}' needs {math.prod(shape)} finite values")
        except ValueError as exc:
            raise ValidationError(f"{path}: line {i + 1}: {exc}") from exc
        tensors[name] = values.reshape(shape)
        i += 2
    if i >= len(lines) or lines[i] != "end":
        raise ValidationError(f"{path}: line {i + 1}: missing end marker")
    return meta, tensors


def meta_typed(path, key: str, value, kind: type):
    """Return a checkpoint meta value after checking its JSON type."""
    if not isinstance(value, kind):
        raise ValidationError(f"{path}: meta '{key}' is a {type(value).__name__}, "
                              f"expected a {kind.__name__}")
    return value
