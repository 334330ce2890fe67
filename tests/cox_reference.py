"""Reference Cox, contribution-ratio and concordance computations.

These are the explicit risk-set definitions the vectorised kernel in
`survfuse.survival.CoxBatch` must reproduce, one Python loop per event:

    R_k = { j : t_j >= t_k }   for every uncensored k (Breslow: ties share R_k)

and Harrell's C over explicit n x n pair matrices. Kept for tests only;
nothing in the package imports this module.
"""

import numpy as np

from survfuse.errors import ConcordanceUndefinedError
from survfuse.modulation import ContributionReport, modulation_factor


def _signed_guard(x: float, eps: float) -> float:
    # keep the sign, bound the magnitude away from zero
    if x >= 0.0:
        return max(x, eps)
    return min(x, -eps)


def risk_sets(batch) -> list[np.ndarray]:
    """risk_sets(batch)[m] holds R_k for the m-th event k = batch.event_indices[m]."""
    return [np.flatnonzero(batch.times >= batch.times[k]) for k in batch.event_indices]


def cox_loss(theta, batch) -> float:
    theta = np.asarray(theta, dtype=np.float64)
    total = 0.0
    for k, risk in zip(batch.event_indices, risk_sets(batch)):
        t = theta[risk]
        m = t.max()
        total += m + np.log(np.exp(t - m).sum()) - theta[k]
    return float(total)


def cox_gradient(theta, batch) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    grad = -batch.events.astype(np.float64)
    for risk in risk_sets(batch):
        t = theta[risk]
        w = np.exp(t - t.max())
        grad[risk] += w / w.sum()
    return grad


def linear_cox_hessian(x, theta, batch) -> np.ndarray:
    """Hessian of beta -> cox_loss(x @ beta) at theta = x @ beta: over each
    event's risk set, the covariance of x under the softmax of theta."""
    x = np.asarray(x, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    hess = np.zeros((x.shape[1], x.shape[1]))
    for risk in risk_sets(batch):
        t = theta[risk]
        w = np.exp(t - t.max())
        w /= w.sum()
        mean = w @ x[risk]
        hess += (x[risk].T * w) @ x[risk] - np.outer(mean, mean)
    return hess


def contribution_ratio(s_g, s_p, batch, cfg) -> ContributionReport:
    s_g = np.asarray(s_g, dtype=np.float64)
    s_p = np.asarray(s_p, dtype=np.float64)
    if batch.degenerate:
        return ContributionReport(rho_g=1.0, rho_p=1.0, rho_g_clamped=1.0,
                                  factor_g=1.0, factor_p=1.0, degenerate=True)
    n_ev = batch.n_events
    r_g = np.empty(n_ev)
    r_p = np.empty(n_ev)
    for m, (k, risk) in enumerate(zip(batch.event_indices, risk_sets(batch))):
        denom_g = np.exp(s_g[risk]).sum()
        denom_p = np.exp(s_p[risk]).sum()
        num_g = np.exp(s_g[k]) if cfg.exp_numerator else s_g[k]
        num_p = np.exp(s_p[k]) if cfg.exp_numerator else s_p[k]
        r_g[m] = num_g / denom_g
        r_p[m] = num_p / denom_p
    agg = np.mean if cfg.aggregate == "mean" else np.median
    rho_g = _signed_guard(float(agg(r_g)), cfg.epsilon) / _signed_guard(float(agg(r_p)), cfg.epsilon)
    rho_g_c = min(max(rho_g, cfg.rho_min), cfg.rho_max)
    return ContributionReport(
        rho_g=rho_g, rho_p=1.0 / rho_g, rho_g_clamped=rho_g_c,
        factor_g=modulation_factor(rho_g_c), factor_p=modulation_factor(1.0 / rho_g_c))


def concordance_index(theta, times, events) -> float:
    """Harrell's C from boolean pair matrices: O(n^2) time and memory."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    times = np.asarray(times, dtype=np.float64).reshape(-1)
    events = np.asarray(events).reshape(-1).astype(bool)
    comparable = (times[:, None] < times[None, :]) & events[:, None]
    n_comparable = int(comparable.sum())
    if n_comparable == 0:
        raise ConcordanceUndefinedError("no comparable pair")
    higher = theta[:, None] > theta[None, :]
    tied = theta[:, None] == theta[None, :]
    concordant = int((comparable & higher).sum())
    ties = int((comparable & tied).sum())
    return (concordant + 0.5 * ties) / n_comparable
