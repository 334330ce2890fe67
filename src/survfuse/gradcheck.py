"""Finite-difference verification of every hand-derived gradient.

Central differences with step h compare against the analytic backward
passes. Relative error is norm-based over all compared entries. relu/selu
introduce kinks: inputs are resampled until every kinked pre-activation
sits at least `margin` away from zero, so an h-sized perturbation cannot
cross a kink and the comparison is on smooth ground. The Cox loss itself
is smooth in theta, no margin needed there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .fusion import FusionSpec, build_model
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
    it = np.nditer(param, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        orig = param[ix]
        param[ix] = orig + h
        f_plus = f()
        param[ix] = orig - h
        f_minus = f()
        param[ix] = orig
        grad[ix] = (f_plus - f_minus) / (2.0 * h)
    return grad


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
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6C0]))
    worst = 0.0
    for _ in range(instances):
        batch = _random_batch(rng)
        theta = rng.normal(0.0, 1.5, size=len(batch))
        analytic = cox_gradient(theta, batch)
        numeric = fd_param_gradient(lambda: cox_loss(theta, batch), theta)
        worst = max(worst, relative_error(analytic, numeric))
    dt = time.perf_counter() - t0
    return CheckResult("cox gradient vs central differences", instances, worst,
                       tol, worst <= tol, dt)


def _margins_ok(layers: list[DenseLayer], margin: float = KINK_MARGIN) -> bool:
    for layer in layers:
        if layer.activation in _KINKED and layer._cached_preact is not None:
            if np.abs(layer._cached_preact).min() <= margin:
                return False
    return True


def check_dense_layer(seed: int = 0, instances: int = 8,
                      tol: float = 1e-6) -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6C1]))
    worst = 0.0
    count = 0
    for activation in ("identity", "relu", "selu", "tanh"):
        for _ in range(instances):
            layer = DenseLayer(5, 4, activation, rng=rng)
            probe = rng.normal(size=(3, 4))
            x = rng.normal(size=(3, 5))
            for _ in range(200):
                layer.forward(x, train=True)
                if _margins_ok([layer]):
                    break
                x = rng.normal(size=(3, 5))
            else:
                raise NumericalError("could not place layer inputs away from kinks")

            def f():
                return float((probe * layer.forward(x)).sum())

            layer.forward(x, train=True)
            dx = layer.backward(probe)
            analytic = np.concatenate([layer.grad_weight.ravel().copy(),
                                       layer.grad_bias.ravel().copy(),
                                       dx.ravel()])
            fd_w = fd_param_gradient(f, layer.weight)
            fd_b = fd_param_gradient(f, layer.bias)
            fd_x = fd_param_gradient(f, x)
            numeric = np.concatenate([fd_w.ravel(), fd_b.ravel(), fd_x.ravel()])
            worst = max(worst, relative_error(analytic, numeric))
            count += 1
    dt = time.perf_counter() - t0
    return CheckResult("dense layer grads (all activations)", count, worst, tol,
                       worst <= tol, dt)


def check_mlp_stack(seed: int = 0, instances: int = 6,
                    tol: float = 1e-6) -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6C2]))
    worst = 0.0
    for _ in range(instances):
        net = make_mlp(4, 2, hidden_dim=5, n_hidden=2, activation="relu", rng=rng)
        probe = rng.normal(size=(3, 2))
        x = rng.normal(size=(3, 4))
        for _ in range(300):
            mlp_forward(net, x, train=True)
            if _margins_ok(net):
                break
            x = rng.normal(size=(3, 4))
        else:
            raise NumericalError("could not place mlp inputs away from kinks")

        def f():
            return float((probe * mlp_forward(net, x)).sum())

        mlp_forward(net, x, train=True)
        mlp_backward(net, probe)
        analytic, numeric = [], []
        for layer in net:
            analytic.extend([layer.grad_weight.ravel().copy(),
                             layer.grad_bias.ravel().copy()])
        for layer in net:
            numeric.extend([fd_param_gradient(f, layer.weight).ravel(),
                            fd_param_gradient(f, layer.bias).ravel()])
        worst = max(worst, relative_error(np.concatenate(analytic),
                                          np.concatenate(numeric)))
    dt = time.perf_counter() - t0
    return CheckResult("mlp stack grads", instances, worst, tol, worst <= tol, dt)


def check_fusion_end_to_end(fusion_mode: str, seed: int = 0, instances: int = 3,
                            tol: float = 1e-4) -> CheckResult:
    """Full-model parameter gradients of the Cox loss on tiny shapes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6C3]))
    worst = 0.0
    for inst in range(instances):
        spec = FusionSpec(dim_cnv_mut=3, dim_rna=4, dim_image=3,
                          snn_dim=3, gen_dim=2, img_dim=2, hidden_dim=4,
                          snn_hidden=1, mlp_b_hidden=1, image_hidden=1,
                          fusion_mode=fusion_mode)
        encoder = default_encoder(4, 3, seed=seed * 100 + inst)
        mlp_a = make_mlp(3, 2, hidden_dim=4, n_hidden=1, activation="relu", rng=rng)
        model = build_model(spec, encoder, mlp_a, seed=seed * 100 + inst)

        n = 6
        times = np.linspace(1.0, 2.0, n)
        events = np.array([True, False, True, True, False, True])
        batch = CoxBatch(times, events)
        for _ in range(300):
            x_cnv = rng.normal(size=(n, 3))
            x_rna = rng.normal(size=(n, 4))
            x_img = rng.normal(size=(n, 3))
            g2 = model.frozen_rna_features(x_rna)
            model.forward_batch(x_cnv, g2, x_img, train=True)
            kinked = model.snn + model.mlp_b + model.image_encoder
            if _margins_ok(kinked):
                break
        else:
            raise NumericalError("could not place fusion inputs away from kinks")

        def f():
            theta, _, _ = model.forward_batch(x_cnv, g2, x_img)
            return cox_loss(theta, batch)

        theta, _, _ = model.forward_batch(x_cnv, g2, x_img, train=True)
        model.backward_batch(cox_gradient(theta, batch))
        trainable = model.snn + model.mlp_b + model.image_encoder + [model.head]
        analytic = np.concatenate(
            [np.concatenate([l.grad_weight.ravel(), l.grad_bias.ravel()])
             for l in trainable])
        numeric = np.concatenate(
            [np.concatenate([fd_param_gradient(f, l.weight).ravel(),
                             fd_param_gradient(f, l.bias).ravel()])
             for l in trainable])
        worst = max(worst, relative_error(analytic, numeric))
    dt = time.perf_counter() - t0
    return CheckResult(f"fusion end-to-end grads ({fusion_mode})", instances,
                       worst, tol, worst <= tol, dt)


def run_all(seed: int = 0) -> list[CheckResult]:
    return [
        check_cox_gradient(seed),
        check_dense_layer(seed),
        check_mlp_stack(seed),
        check_fusion_end_to_end("concat", seed),
        check_fusion_end_to_end("kronecker", seed),
    ]
