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
        if not self.epsilon > 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
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


def _signed_guard(x, eps: float):
    # keep the sign, bound the magnitude away from zero
    return np.where(x >= 0.0, np.maximum(x, eps), np.minimum(x, -eps))


def contribution_ratio(s_g, s_p, batch: CoxBatch, cfg: ModulationConfig) -> ContributionReport:
    """Per-batch discrepancy ratios rho_g, rho_p and their learning-rate factors.

    Degenerate batches (no uncensored sample) yield the neutral report.
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
    if cfg.exp_numerator:
        r_g = np.exp(s_g[k] - lse_g)
        r_p = np.exp(s_p[k] - lse_p)
    else:
        r_g = s_g[k] * np.exp(-lse_g)
        r_p = s_p[k] * np.exp(-lse_p)

    agg = np.mean if cfg.aggregate == "mean" else np.median
    rho_g = float(_signed_guard(agg(r_g), cfg.epsilon) / _signed_guard(agg(r_p), cfg.epsilon))
    rho_p = 1.0 / rho_g

    rho_g_c = min(max(rho_g, cfg.rho_min), cfg.rho_max)
    return ContributionReport(
        rho_g=rho_g, rho_p=rho_p, rho_g_clamped=rho_g_c,
        factor_g=modulation_factor(rho_g_c),
        factor_p=modulation_factor(1.0 / rho_g_c))


def modulation_factor(rho: float) -> float:
    """min(1 - tanh(rho - 1), 1): identity-or-slowdown, never a speedup."""
    return min(1.0 - np.tanh(rho - 1.0), 1.0)


def apply_modulation(report: ContributionReport, genomic_group: ParamGroup,
                     image_group: ParamGroup, cfg: ModulationConfig | None = None) -> None:
    """Write the report's factors into the two branch groups' lr_scale.

    The fusion head's group must not be passed here — its step size is
    never modulated. A disabled config resets both scales to 1.
    """
    if cfg is not None and not cfg.enabled:
        genomic_group.set_lr_scale(1.0)
        image_group.set_lr_scale(1.0)
        return
    genomic_group.set_lr_scale(report.factor_g)
    image_group.set_lr_scale(report.factor_p)
