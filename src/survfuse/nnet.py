"""Minimal dense-network core.

Hand-derived forward/backward passes (no autodiff graph): a training
forward (train=True) makes each DenseLayer cache its input and
pre-activation, and backward fills its gradient buffers from them; an
inference forward, the default, keeps nothing. Trainable tensors are
float64 throughout. Parameters are collected into named ParamGroup objects
so the optimizer can scale the effective learning rate per group, which is
how branch-wise gradient modulation is applied.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (NumericalError, ShapeError, StateError, ValidationError,
                     open_text, write_text)

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

ACTIVATIONS = ("identity", "relu", "selu", "tanh")

CHECKPOINT_MAGIC = "survfuse-checkpoint v1"


def _as_2d(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={a.ndim}")
    return a


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and validate finiteness."""
    a = _as_2d(x, name)
    if not np.isfinite(a).all():
        raise NumericalError(f"{name} contains non-finite entries")
    return a


# The kernels below compute the same floating-point operations, element for
# element, as the textbook selections
#   relu:  where(z > 0, z, 0)                       grad  where(z > 0, 1, 0)
#   selu:  lambda * where(z > 0, z, alpha * expm1(z))
#          grad  lambda * where(z > 0, 1, alpha * exp(z))
# without a masked selection, which costs more than the exp itself.


def _activate(z: np.ndarray, kind: str, out: np.ndarray,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """Write act(z) into out, which may be z itself, and return it. selu
    works in scratch, an array of z's shape (a fresh one if None)."""
    if kind == "identity":
        if out is not z:
            np.copyto(out, z)
    elif kind == "relu":
        np.maximum(z, 0.0, out=out)
    elif kind == "selu":
        # alpha * expm1(min(z, 0)) + max(z, 0): one of the terms is +-0, so
        # the sum is exactly the selected branch. s takes the sign of z (its
        # own but at z = -0.0) and hands it to the sum, which restores the
        # sign of z = -0.0 even where out has overwritten z
        s = np.minimum(z, 0.0, out=scratch)
        np.expm1(s, out=s)
        s *= SELU_ALPHA
        np.copysign(s, z, out=s)
        np.maximum(z, 0.0, out=out)
        out += s
        np.copysign(out, s, out=out)
        out *= SELU_LAMBDA
    elif kind == "tanh":
        np.tanh(z, out=out)
    else:
        raise ValidationError(f"unknown activation '{kind}'")
    return out


def _activation_backward(upstream: np.ndarray, z: np.ndarray, kind: str) -> np.ndarray:
    """upstream times the activation's derivative at the pre-activation z.

    At the relu/selu kink (z == 0) the left derivative is used; the kink has
    measure zero for the continuous inputs this package generates.
    """
    if kind == "identity":
        return upstream
    if kind == "relu":
        return upstream * (z > 0.0)
    if kind == "selu":
        # alpha * exp(min(z, 0)) is alpha where z > 0; adding 1 - alpha there
        # (exact, as is their sum) gives 1, adding -0.0 elsewhere changes nothing
        d = np.exp(np.minimum(z, 0.0))
        d *= SELU_ALPHA
        d += (z > 0.0) * (1.0 - SELU_ALPHA)
        d *= SELU_LAMBDA
        d *= upstream
        return d
    if kind == "tanh":
        t = np.tanh(z)
        return upstream * (1.0 - t * t)
    raise ValidationError(f"unknown activation '{kind}'")


class DenseLayer:
    """Fully-connected layer y = act(x @ W.T + b) with weight shape (out, in).

    forward(train=True) caches the input and pre-activation; backward() may
    only be called after one, with a matching batch. Gradient buffers are
    written in place so ParamGroup aliases stay valid.
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
        # a copy (pickled to a worker, say) gets no forward cache, which belongs
        # to the batch that filled it, and zero gradients, as after a sgd_step
        state = dict(self.__dict__)
        state["_cached_input"] = state["_cached_preact"] = None
        del state["grad_weight"], state["grad_bias"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # own the parameters (not the pickle's bytes), so the copy can join a group
        self.weight = np.require(self.weight, requirements="O")
        self.bias = np.require(self.bias, requirements="O")
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def forward(self, x, *, train: bool = False, out: np.ndarray | None = None,
                scratch: np.ndarray | None = None) -> np.ndarray:
        """act(x @ W.T + b); a non-finite output raises NumericalError.

        With train=True (a backward pass follows) the input and the
        pre-activation are cached for it, and the output is a fresh array;
        otherwise the caches are left as they were and the activation runs
        in place. An inference forward may pass `out`, an (n, out_dim) array
        that must not overlap x, to hold the pre-activation and then the
        output, and `scratch`, one more such array for selu. The input's
        finiteness is not checked here: mlp_forward checks a stack's input,
        and the package builds every other layer input from checked layer
        outputs.
        """
        x = _as_2d(x, "layer input")
        if x.shape[1] != self.in_dim:
            raise ShapeError(
                f"input has {x.shape[1]} columns, layer expects {self.in_dim}")
        z = np.matmul(x, self.weight.T, out=out)
        z += self.bias
        if train:
            self._cached_input = x
            self._cached_preact = z
        out = _activate(z, self.activation, np.empty_like(z) if train else z, scratch)
        if not np.isfinite(out).all():
            raise NumericalError("layer forward produced non-finite output")
        return out

    def backward(self, upstream, input_cols: int | None = None) -> np.ndarray:
        """Fill the gradient buffers from the last training forward; returns
        the gradient w.r.t. the input's first `input_cols` columns (all of
        them by default; 0 skips the product and returns an (n, 0) array)."""
        if self._cached_input is None or self._cached_preact is None:
            raise StateError("backward called before a training forward")
        upstream = as_matrix(upstream, "upstream gradient")
        if upstream.shape != (self._cached_input.shape[0], self.out_dim):
            raise ShapeError(
                f"upstream gradient has shape {upstream.shape}, expected "
                f"{(self._cached_input.shape[0], self.out_dim)}")
        dz = _activation_backward(upstream, self._cached_preact, self.activation)
        np.matmul(dz.T, self._cached_input, out=self.grad_weight)
        np.add.reduce(dz, axis=0, out=self.grad_bias)
        return dz @ self.weight[:, :input_cols]


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


def mlp_forward(net: list[DenseLayer], x, *, train: bool = False,
                buffers: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Run a batch through the stack; with train=True every layer caches
    what mlp_backward needs.

    An inference forward may pass `buffers`, two flat float64 arrays that
    each hold the batch's rows of the widest hidden layer: hidden layer i
    then writes into buffers[i % 2] and works in the other, so no hidden
    activation is allocated. The last layer's output is always a fresh
    array. An empty stack acts as the identity map.
    """
    out = as_matrix(x, "mlp input")
    rows = out.shape[0]
    for depth, layer in enumerate(net):
        if buffers is None or depth == len(net) - 1:
            out = layer.forward(out, train=train)
        else:
            shape, size = (rows, layer.out_dim), rows * layer.out_dim
            out = layer.forward(out, train=train,
                                out=buffers[depth % 2][:size].reshape(shape),
                                scratch=buffers[1 - depth % 2][:size].reshape(shape))
    return out


def mlp_backward(net: list[DenseLayer], upstream,
                 input_cols: int | None = None) -> np.ndarray:
    """Backpropagate, filling every layer's gradient buffers.

    Returns the gradient w.r.t. the stack's input, or its first `input_cols`
    columns (see DenseLayer.backward). Each layer checks the gradient it
    receives.
    """
    grad = _as_2d(upstream, "upstream gradient")
    for depth in range(len(net) - 1, -1, -1):
        grad = net[depth].backward(grad, input_cols if depth == 0 else None)
    return grad


@dataclass
class ParamGroup:
    """A named pair of flat buffers, the parameters of some layers and their
    gradients, with an lr scale.

    The layers' tensors are views of these buffers (build groups with
    layer_group), so sgd_step checks and updates a group in one operation each.
    """

    name: str
    flat_params: np.ndarray
    flat_grads: np.ndarray
    lr_scale: float = 1.0

    def __post_init__(self):
        if self.flat_params.shape != self.flat_grads.shape:
            raise ShapeError(f"group '{self.name}': params shape {self.flat_params.shape} "
                             f"!= grads shape {self.flat_grads.shape}")
        self._check_lr_scale()

    def _check_lr_scale(self):
        if not (0.0 < self.lr_scale <= 1.0):
            raise ValidationError(
                f"group '{self.name}': lr_scale must be in (0, 1], got {self.lr_scale}")

    def set_lr_scale(self, value: float) -> None:
        self.lr_scale = float(value)
        self._check_lr_scale()


def layer_group(name: str, layers: list[DenseLayer], lr_scale: float = 1.0) -> ParamGroup:
    """Collect layer weights/biases into one group; arrays are aliased, not copied.

    The first time, the layers' tensors move (values kept) into one flat
    parameter buffer and one flat gradient buffer, and the layers' attributes
    become views of them; a later group over the same layers, in any order,
    finds every tensor a view of two buffers that they fill exactly and shares
    them. Layers laid out for another group cannot join a different one:
    moving them would cut that group off. No layers give an empty group.
    """
    params = [t for layer in layers for t in (layer.weight, layer.bias)]
    grads = [t for layer in layers for t in (layer.grad_weight, layer.grad_bias)]
    if any(t.base is not None for t in params + grads):
        flat_params, flat_grads = params[0].base, grads[0].base
        size = sum(t.size for t in params)
        for flat, tensors in ((flat_params, params), (flat_grads, grads)):
            if (not isinstance(flat, np.ndarray) or flat.size != size
                    or any(t.base is not flat for t in tensors)):
                raise StateError(f"group '{name}': its layers are laid out for another group")
        return ParamGroup(name, flat_params, flat_grads, lr_scale)
    flat_params = np.concatenate([np.empty(0), *(t.ravel() for t in params)])
    flat_grads = np.concatenate([np.empty(0), *(t.ravel() for t in grads)])
    offset = 0
    for layer in layers:
        for attr, grad_attr in (("weight", "grad_weight"), ("bias", "grad_bias")):
            shape = getattr(layer, attr).shape
            end = offset + math.prod(shape)
            setattr(layer, attr, flat_params[offset:end].reshape(shape))
            setattr(layer, grad_attr, flat_grads[offset:end].reshape(shape))
            offset = end
    return ParamGroup(name, flat_params, flat_grads, lr_scale)


def sgd_step(groups: list[ParamGroup], eta: float) -> None:
    """In-place SGD update: param -= eta * lr_scale * grad; grads are zeroed.

    Aborts without touching any parameter if any gradient is non-finite.
    """
    if not eta > 0.0:
        raise ValidationError(f"eta must be positive, got {eta}")
    for group in groups:
        if not np.isfinite(group.flat_grads).all():
            raise NumericalError(f"non-finite gradient in group '{group.name}'")
    for group in groups:
        step = group.flat_grads   # zeroed below, so it can hold the step
        step *= eta * group.lr_scale
        group.flat_params -= step
        step.fill(0.0)


def step_decay_eta(eta0: float, step: int, total_steps: int) -> float:
    """Step-decay schedule: x0.5 at each third of the run (two drops total).
    A positive eta0 whose decayed rate rounds to 0 raises NumericalError."""
    if total_steps <= 0:
        return eta0
    eta = eta0 * 0.5 ** min(2, (3 * step) // total_steps)
    if eta == 0.0 and eta0 > 0.0:
        raise NumericalError(f"eta = {eta0} decays to 0 in the step-decay schedule")
    return eta


def mse_loss(pred, target) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries and its gradient w.r.t. pred."""
    p = _as_2d(pred, "pred")   # a layer output, checked where it was produced
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

# values per written piece of a tensor's line: the writer's memory stays
# bounded whatever the tensor's size
_VALUES_PER_CHUNK = 256


def _checkpoint_chunks(tensors: dict[str, np.ndarray], meta: dict | None):
    yield f"{CHECKPOINT_MAGIC}\nmeta {json.dumps(meta or {}, sort_keys=True)}\n"
    for name, arr in tensors.items():
        a = np.asarray(arr, dtype=np.float64)
        yield " ".join(["tensor", name, str(a.ndim), *map(str, a.shape)]) + "\n"
        flat = a.reshape(-1)
        for start in range(0, flat.size, _VALUES_PER_CHUNK):
            piece = " ".join(map(repr, flat[start:start + _VALUES_PER_CHUNK].tolist()))
            yield f" {piece}" if start else piece
        yield "\n"
    yield "end\n"


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    write_text(path, _checkpoint_chunks(tensors, meta))


# characters of a tensor's value line parsed per slice (about 700 values as
# the writer formats them): the reader holds one slice's tokens at a time,
# never a list of every token of a long line
_CHARS_PER_SLICE = 16384
_SPACE = re.compile(r"\s")   # what str.split() splits at, as str.isspace() says


def _parse_values(line: str) -> np.ndarray:
    """float() of each token of line.split(), one slice of the line at a time;
    a slice ends at whitespace, so no token is cut. A token float() rejects
    raises its ValueError."""
    pieces = [np.empty(0)]
    start = 0
    while start < len(line):
        space = _SPACE.search(line, start + _CHARS_PER_SLICE)
        stop = space.start() if space else len(line)
        pieces.append(np.array([float(tok) for tok in line[start:stop].split()]))
        start = stop
    return np.concatenate(pieces)


_BOUNDARY = re.compile("[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")   # splitlines()'s line ends


def _lines(fh):
    """The file's lines, as str.splitlines() splits the whole text, but each
    with the LF, CR or CRLF the file object ends it at: a line without another
    boundary is the file's own string, held once, and not during the next read."""
    for piece in fh:
        end = len(piece) - piece.endswith("\r\n") - piece.endswith(("\r", "\n"))
        yield from piece.splitlines() if _BOUNDARY.search(piece, 0, end) else (piece,)
        del piece


def _parse_checkpoint(path, lines) -> tuple[dict, dict[str, np.ndarray]]:
    first = next(lines, "").rstrip("\r\n")
    if first != CHECKPOINT_MAGIC:
        raise ValidationError(f"{path}: not a survfuse checkpoint")
    meta_line = next(lines, "").rstrip("\r\n")
    if not meta_line.startswith("meta "):
        raise ValidationError(f"{path}: missing meta line")
    try:
        meta = json.loads(meta_line[len("meta "):])
    except ValueError as exc:
        raise ValidationError(f"{path}: line 2: bad meta JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise ValidationError(f"{path}: line 2: meta must be a JSON object")
    tensors: dict[str, np.ndarray] = {}
    i = 2   # 0-based number of the next line
    header = next(lines, "").rstrip("\r\n")   # "" at the end of the file
    while header != "end":
        value_line = next(lines, None)
        if value_line is None:
            break
        try:
            tag, name, ndim, *dims = header.split()
            shape = tuple(int(d) for d in dims)
            if tag != "tensor" or int(ndim) != len(shape) or min(shape, default=0) < 0:
                raise ValueError("expected 'tensor <name> <ndim> <dim>...'")
            values = _parse_values(value_line)
            del value_line   # see _lines
            if values.size != math.prod(shape) or not np.isfinite(values).all():
                raise ValueError(f"tensor '{name}' needs {math.prod(shape)} finite values")
        except ValueError as exc:
            raise ValidationError(f"{path}: line {i + 1}: {exc}") from exc
        tensors[name] = values.reshape(shape)
        i += 2
        header = next(lines, "").rstrip("\r\n")
    if header != "end":
        raise ValidationError(f"{path}: line {i + 1}: missing end marker")
    return meta, tensors


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint one line at a time; malformed content raises
    ValidationError naming the line."""
    with open_text(path) as fh:
        lines = _lines(fh)
        try:
            return _parse_checkpoint(path, lines)
        finally:
            # a byte that is not UTF-8 anywhere in the file, even past a
            # malformed line or the end marker, is the error reported
            for _ in lines:
                pass


def meta_typed(path, key: str, value, kind: type):
    """Return a checkpoint meta value after checking its JSON type."""
    if not isinstance(value, kind):
        raise ValidationError(f"{path}: meta '{key}' is a {type(value).__name__}, "
                              f"expected a {kind.__name__}")
    return value


def stack_names(stack: str, n: int) -> list[str]:
    """Checkpoint names of an n-layer stack's layers: `<stack>.<i>`."""
    return [f"{stack}.{i}" for i in range(n)]


def add_layers(tensors: dict[str, np.ndarray], names: list[str],
               layers: list[DenseLayer]) -> list[str]:
    """Add each layer's `<name>.weight` and `<name>.bias` to tensors, in order;
    returns the activations. The inverse of checkpoint_layers."""
    for name, layer in zip(names, layers):
        tensors[f"{name}.weight"] = layer.weight
        tensors[f"{name}.bias"] = layer.bias
    return [layer.activation for layer in layers]


def checkpoint_layers(path, tensors: dict[str, np.ndarray], names: list[str],
                      activations: list, in_dim: int | None = None) -> list[DenseLayer]:
    """Rebuild a chain of layers from the tensors `<name>.weight`, `<name>.bias`.

    Each weight must be (out, in) with an (out,) bias, and take the previous
    layer's output width as its input (the first layer: `in_dim`, if given);
    a mismatch raises ValidationError naming the file and the tensor. A
    missing tensor raises KeyError.
    """
    layers = []
    for name, activation in zip(names, activations):
        weight, bias = tensors[f"{name}.weight"], tensors[f"{name}.bias"]
        if weight.ndim != 2 or bias.shape != weight.shape[:1]:
            raise ValidationError(
                f"{path}: tensor '{name}.weight' has shape {weight.shape} and "
                f"'{name}.bias' shape {bias.shape}; expected (out, in) and (out,)")
        if in_dim is not None and weight.shape[1] != in_dim:
            raise ValidationError(f"{path}: tensor '{name}.weight' takes {weight.shape[1]} "
                                  f"inputs, expected {in_dim}")
        layers.append(DenseLayer.from_params(weight, bias, activation))
        in_dim = layers[-1].out_dim
    return layers
