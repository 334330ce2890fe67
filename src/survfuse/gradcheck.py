"""Finite-difference verification of every hand-derived gradient.

Central differences with step h compare against the analytic backward
passes. Relative error is norm-based over all compared entries. relu/selu
introduce kinks: inputs are resampled until every kinked pre-activation
sits at least KINK_MARGIN away from zero, so an h-sized perturbation cannot
cross a kink and the comparison is on smooth ground. The Cox loss itself
is smooth in theta, no margin needed there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import RunConfig
from .errors import NumericalError
from .fusion import build_model
from .nnet import DenseLayer, make_mlp, mlp_backward, mlp_forward
from .smoothing import default_encoder
from .survival import CoxBatch, cox_gradient, cox_loss

FD_STEP = 1e-5
KINK_MARGIN = 1e-3
_KINKED = ("relu", "selu")


@dataclass
class CheckResult:
    name: str
    instances: int
    max_rel_err: float
    tolerance: float
    passed: bool
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name}: max rel err {self.max_rel_err:.3e} "
                f"(tol {self.tolerance:.0e}, {self.instances} instances, "
                f"{self.seconds:.2f}s)")


def relative_error(analytic, numeric) -> float:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(numeric, dtype=np.float64).ravel()
    scale = max(np.linalg.norm(a), np.linalg.norm(b))
    if scale < 1e-10:   # both effectively zero
        return 0.0
    return float(np.linalg.norm(a - b) / scale)


def fd_param_gradient(f, param: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central differences of the scalar f() w.r.t. an array f reads live."""
    grad = np.zeros_like(param)
    for ix in np.ndindex(param.shape):
        orig = param[ix]
        param[ix] = orig + h
        f_plus = f()
        param[ix] = orig - h
        f_minus = f()
        param[ix] = orig
        grad[ix] = (f_plus - f_minus) / (2.0 * h)
    return grad


def _timed(name: str, tol: float, errors) -> CheckResult:
    """Time a check that yields one relative error per instance; the worst
    is reported, and a NaN fails the check."""
    t0 = time.perf_counter()
    errors = list(errors)
    worst = float(np.max(errors))
    return CheckResult(name, len(errors), worst, tol, worst <= tol, time.perf_counter() - t0)


def _placed(draw, forward, layers: list[DenseLayer], tries: int):
    """Inputs from draw() whose training forward leaves every relu/selu
    pre-activation of `layers` at least KINK_MARGIN from zero, with that
    forward's output. The layers' caches hold that forward for a backward."""
    for _ in range(tries):
        inputs = draw()
        out = forward(*inputs, train=True)
        if all(np.abs(layer._cached_preact).min() > KINK_MARGIN
               for layer in layers if layer.activation in _KINKED):
            return inputs, out
    raise NumericalError(f"could not place inputs away from relu/selu kinks in {tries} draws")


def _fd_error(f, layers: list[DenseLayer], extra=()) -> float:
    """Relative error of the layers' gradient buffers (weight, then bias, each),
    then of the (gradient, array) pairs in `extra`, against central differences."""
    pairs = [pair for layer in layers for pair in
             ((layer.grad_weight, layer.weight), (layer.grad_bias, layer.bias))]
    pairs += extra
    analytic = np.concatenate([np.ravel(grad) for grad, _ in pairs])
    numeric = np.concatenate([fd_param_gradient(f, array).ravel()
                              for _, array in pairs])
    return relative_error(analytic, numeric)


# ---------------------------------------------------------------------------
# individual checks


def _random_batch(rng, n_max: int = 32) -> CoxBatch:
    n = int(rng.integers(2, n_max + 1))
    times = rng.uniform(0.1, 10.0, size=n)
    if rng.uniform() < 0.3:
        # quantize to force ties; keep strictly positive
        times = np.maximum(np.round(times * 2.0) / 2.0, 0.25)
    events = rng.uniform(size=n) < 0.7
    return CoxBatch(times, events)


def check_cox_gradient(seed: int = 0, instances: int = 100,
                       tol: float = 1e-6) -> CheckResult:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6C0]))

    def error() -> float:
        batch = _random_batch(rng)
        theta = rng.normal(0.0, 1.5, size=len(batch))
        return _fd_error(lambda: cox_loss(theta, batch), [],
                         [(cox_gradient(theta, batch), theta)])

    return _timed("cox gradient vs central differences", tol,
                  (error() for _ in range(instances)))


def _check_stacks(name: str, rng, stacks, tol: float, tries: int, input_grad: bool):
    """Each stack's gradients of sum(probe * output) on 3 random rows: its
    parameters', and with input_grad its input's too."""
    def error(net: list[DenseLayer]) -> float:
        probe = rng.normal(size=(3, net[-1].out_dim))
        (x,), _ = _placed(lambda: (rng.normal(size=(3, net[0].in_dim)),),
                          partial(mlp_forward, net), net, tries)
        dx = mlp_backward(net, probe)
        return _fd_error(lambda: float((probe * mlp_forward(net, x)).sum()), net,
                         [(dx, x)] if input_grad else [])

    return _timed(name, tol, map(error, stacks))


def check_dense_layer(seed: int = 0, instances: int = 8,
                      tol: float = 1e-6) -> CheckResult:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6C1]))
    stacks = ([DenseLayer(5, 4, activation, rng=rng)]
              for activation in ("identity", "relu", "selu", "tanh")
              for _ in range(instances))
    return _check_stacks("dense layer grads (all activations)", rng, stacks, tol, 200, True)


def check_mlp_stack(seed: int = 0, instances: int = 6,
                    tol: float = 1e-6) -> CheckResult:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6C2]))
    stacks = (make_mlp(4, 2, hidden_dim=5, n_hidden=2, activation="relu", rng=rng)
              for _ in range(instances))
    return _check_stacks("mlp stack grads", rng, stacks, tol, 300, False)


def check_fusion_end_to_end(fusion_mode: str, seed: int = 0, instances: int = 3,
                            tol: float = 1e-4) -> CheckResult:
    """Full-model parameter gradients of the Cox loss on tiny widths, at
    build_model's depths. The hidden width is 8: at 4, the three-layer relu
    image stack can have rows whose pre-activation is exactly 0, which no
    input placement moves off the kink."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6C3]))
    n = 6
    batch = CoxBatch(np.linspace(1.0, 2.0, n),
                     np.array([True, False, True, True, False, True]))

    def error(inst: int) -> float:
        cfg = RunConfig(seed=seed * 100 + inst, snn_dim=3, gen_dim=2, img_dim=2,
                        hidden_dim=8, fusion_mode=fusion_mode)
        encoder = default_encoder(4, 3, seed=cfg.seed)
        mlp_a = make_mlp(3, 2, hidden_dim=4, n_hidden=1, activation="relu", rng=rng)
        model = build_model(cfg, 3, 3, encoder, mlp_a)
        trainable = model.snn + model.mlp_b + model.image_encoder + [model.head]

        def draw():
            x_cnv, x_rna, x_img = (rng.normal(size=(n, d)) for d in (3, 4, 3))
            return x_cnv, model.frozen_rna_features(x_rna), x_img

        inputs, (theta, _, _) = _placed(draw, model.forward_batch, trainable, 300)
        model.backward_batch(cox_gradient(theta, batch))
        return _fd_error(lambda: cox_loss(model.forward_batch(*inputs)[0], batch),
                         trainable)

    return _timed(f"fusion end-to-end grads ({fusion_mode})", tol,
                  map(error, range(instances)))


def run_all(seed: int = 0) -> list[CheckResult]:
    return [
        check_cox_gradient(seed),
        check_dense_layer(seed),
        check_mlp_stack(seed),
        check_fusion_end_to_end("concat", seed),
        check_fusion_end_to_end("kronecker", seed),
    ]
