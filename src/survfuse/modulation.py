"""Contribution-discrepancy gradient modulation.

Per optimization step, each branch's contribution to the partial likelihood
is summarized by a per-event ratio

    r^G_k = s_g[k] / sum_{j in R(t_k)} exp(s_g[j])

(numerator deliberately NOT exponentiated; set ``exp_numerator`` for the
softmax-style reading), where s_g[k] = W^G . G_k + b/2 is the genomic half
of the fused score theta_k; the denominators come from the Cox loss's
kernel, CoxBatch.log_risk_denominators. The batch-level discrepancy

    rho_g = aggregate_k(r^G_k) / aggregate_k(r^P_k),    rho_p = 1 / rho_g

is clamped and mapped through min(1 - tanh(rho - 1), 1) to a learning-rate
factor in (0, 1]: the branch with rho > 1 (over-contributing) is slowed
down, the other keeps its full step.

rho is a ratio of per-branch aggregates rather than an aggregate of
per-sample ratios so that swapping the two branches inverts rho exactly
for every aggregation choice.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError
from .nnet import ParamGroup
from .survival import CoxBatch

_AGGREGATES = ("mean", "median")


@dataclass
class ModulationConfig:
    enabled: bool = True
    rho_min: float = 0.1    # rho_g is clamped to [rho_min, rho_max] before the factor
    rho_max: float = 10.0
    epsilon: float = 1e-8
    aggregate: str = "mean"
    exp_numerator: bool = False
    warmup_steps: int = 0

    def __post_init__(self):
        self.rho_min, self.rho_max = float(self.rho_min), float(self.rho_max)
        if not (0.0 < self.rho_min < 1.0 < self.rho_max):
            raise ConfigError("rho_min and rho_max must satisfy 0 < rho_min < 1 < rho_max, "
                              f"got ({self.rho_min}, {self.rho_max})")
        # 1 - tanh(rho - 1) rounds to 0 in float64 for rho above about 19.99
        for key, rho in (("rho_max", self.rho_max), ("rho_min", 1.0 / self.rho_min)):
            if not modulation_factor(rho) > 0.0:
                raise ConfigError(f"{key} = {getattr(self, key)} gives a learning-rate "
                                  "factor of 0; keep rho_max and 1 / rho_min below 19.99")
        if not 0.0 < self.epsilon < float("inf"):
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.aggregate not in _AGGREGATES:
            raise ConfigError(f"aggregate must be one of {_AGGREGATES}, got '{self.aggregate}'")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be >= 0")


@dataclass
class ContributionReport:
    """One step's discrepancy summary.

    rho_g / rho_p are pre-clamp (their product is exactly 1); rho_g_clamped
    is the value the factors are computed from (the image side uses its
    reciprocal).
    """

    rho_g: float
    rho_p: float
    rho_g_clamped: float
    factor_g: float
    factor_p: float
    degenerate: bool = False


NEUTRAL_REPORT = ContributionReport(
    rho_g=1.0, rho_p=1.0, rho_g_clamped=1.0, factor_g=1.0, factor_p=1.0,
    degenerate=True)


# A step log holds one typed column per field and one entry per reported
# step: 64-bit ints for the position, float64 for the report's values.
STEP_LOG_FIELDS = {"epoch": "q", "step": "q", "rho_g": "d", "rho_p": "d",
                   "rho_g_clamped": "d", "factor_g": "d", "factor_p": "d"}


def log_step(log: dict[str, array], epoch: int, step: int,
             report: ContributionReport) -> None:
    """Append one step's position and report values to a step log."""
    values = (epoch, step, report.rho_g, report.rho_p, report.rho_g_clamped,
              report.factor_g, report.factor_p)
    for column, value in zip(log.values(), values):
        column.append(value)


def with_fold(log: dict, fold: int) -> dict:
    """A step or epoch log with a leading fold column, as a run's streams hold it."""
    return {"fold": array("q", [fold]) * len(next(iter(log.values()))), **log}


def branch_scores(Wg, G, Wp, P, b: float):
    """Split theta into its genomic and image halves, bias shared equally.

    G and P hold one sample per row; returns (s_g, s_p) with
    s_g[k] + s_p[k] = theta_k.
    """
    Wg = np.asarray(Wg, dtype=np.float64).reshape(-1)
    Wp = np.asarray(Wp, dtype=np.float64).reshape(-1)
    G = np.asarray(G, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    if G.ndim != 2 or P.ndim != 2:
        raise ShapeError("G and P must be 2-D (rows = samples)")
    if G.shape[1] != Wg.size:
        raise ShapeError(f"G has {G.shape[1]} columns, Wg has {Wg.size} entries")
    if P.shape[1] != Wp.size:
        raise ShapeError(f"P has {P.shape[1]} columns, Wp has {Wp.size} entries")
    if G.shape[0] != P.shape[0]:
        raise ShapeError(f"G rows {G.shape[0]} != P rows {P.shape[0]}")
    half = float(b) / 2.0
    return G @ Wg + half, P @ Wp + half


def _signed_guard(x: float, eps: float) -> float:
    # keep the sign, bound the magnitude away from zero; NaN stays NaN
    return max(x, eps) if x >= 0.0 else min(x, -eps)


def _mean(values: np.ndarray) -> float:
    # the arithmetic np.mean does on a 1-D float64 array, without its dispatch
    return float(np.add.reduce(values) / values.size)


def median(values) -> float | None:
    """np.median of a 1-D sequence, bit for bit, NaN included; None if empty.

    np.median checks for NaN through a helper that imports numpy.ma (over a
    megabyte of resident memory per process); this partitions around the same
    kth (the middle index or indices, and the last one, where a NaN sorts)
    and returns that last value if it is NaN, else the mean of the middle.
    """
    a = np.asarray(values, dtype=np.float64).reshape(-1)
    if not a.size:
        return None
    half = a.size // 2
    middle = [half - 1, half] if a.size % 2 == 0 else [half]
    part = np.partition(a, [*middle, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return _mean(part[middle[0]:half + 1])


def contribution_ratio(s_g, s_p, batch: CoxBatch, cfg: ModulationConfig) -> ContributionReport:
    """Per-batch discrepancy ratios rho_g, rho_p and their learning-rate factors.

    Degenerate batches (no uncensored sample) yield the neutral report.
    Scores so far below zero that rho_g or rho_p is not finite raise
    NumericalError.
    """
    s_g = np.asarray(s_g, dtype=np.float64).reshape(-1)
    s_p = np.asarray(s_p, dtype=np.float64).reshape(-1)
    if s_g.size != len(batch) or s_p.size != len(batch):
        raise ShapeError(
            f"scores must align with batch: got {s_g.size}/{s_p.size} for batch of {len(batch)}")
    if not (np.isfinite(s_g).all() and np.isfinite(s_p).all()):
        raise NumericalError("branch scores contain non-finite entries")

    if batch.degenerate:
        return NEUTRAL_REPORT

    k = batch.event_indices
    lse_g = batch.log_risk_denominators(s_g)[k]
    lse_p = batch.log_risk_denominators(s_p)[k]
    agg = _mean if cfg.aggregate == "mean" else median
    # scores far below zero overflow exp(-lse); the check below names the result
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if cfg.exp_numerator:
            r_g = np.exp(s_g[k] - lse_g)
            r_p = np.exp(s_p[k] - lse_p)
        else:
            r_g = s_g[k] * np.exp(-lse_g)
            r_p = s_p[k] * np.exp(-lse_p)
        agg_g, agg_p = agg(r_g), agg(r_p)
    rho_g = _signed_guard(agg_g, cfg.epsilon) / _signed_guard(agg_p, cfg.epsilon)
    rho_p = 1.0 / rho_g if rho_g else np.inf
    if not (np.isfinite(rho_g) and np.isfinite(rho_p)):
        raise NumericalError(
            f"contribution ratio is not finite: rho_g = {rho_g}, rho_p = {rho_p}")

    rho_g_c = min(max(rho_g, cfg.rho_min), cfg.rho_max)
    return ContributionReport(
        rho_g=rho_g, rho_p=rho_p, rho_g_clamped=rho_g_c,
        factor_g=modulation_factor(rho_g_c),
        factor_p=modulation_factor(1.0 / rho_g_c))


def modulation_factor(rho: float) -> float:
    """min(1 - tanh(rho - 1), 1): identity-or-slowdown, never a speedup."""
    return min(1.0 - np.tanh(rho - 1.0), 1.0)


def apply_modulation(report: ContributionReport, genomic_group: ParamGroup,
                     image_group: ParamGroup) -> None:
    """Write the report's factors into the two branch groups' lr_scale.

    The fusion head's group must not be passed here — its step size is
    never modulated.
    """
    genomic_group.set_lr_scale(report.factor_g)
    image_group.set_lr_scale(report.factor_p)
