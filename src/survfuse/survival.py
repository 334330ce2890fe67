"""Cox partial-likelihood machinery.

Conventions used everywhere in this package:

* theta is the log hazard ratio per patient; larger theta = higher risk.
* The loss is the NEGATIVE partial log-likelihood (minimization form):
      L(theta) = sum over uncensored k of [ logsumexp(theta[R_k]) - theta_k ]
  where R_k = { j : t_j >= t_k } is the risk set at the k-th event time,
  with ties sharing full risk sets (Breslow convention). Each term is
  nonnegative because k belongs to its own risk set.
* The gradient of the minimization-form loss is
      dL/dtheta_i = sum over events k with i in R_k of softmax_i(theta[R_k])
                    - 1{event_i}
  and its entries sum to zero on any batch.

Risk sets are never materialised: sorted by descending time, every R_k is
a prefix ending at k's tie block, so one running log-sum-exp
(CoxBatch.log_risk_denominators) gives all risk-set denominators in O(n).
The loss, the gradient, the modulation ratios and the linear probe's
Newton steps are computed from it.
"""

from __future__ import annotations

import numpy as np

from .cohort import Cohort
from .errors import (ConcordanceUndefinedError, NumericalError, ShapeError,
                     ValidationError)
from .nnet import as_matrix


class CoxBatch:
    """A batch of (time, event) observations, sorted once by time; O(n) storage.

    `order` lists row indices by descending time (ties in row order).
    `block_start[p]`/`block_end[p]` bound sorted position p's tie block, so
    the risk set at p is sorted positions 0..block_end[p], and the row at p
    is in the risk set of every event at sorted position >= block_start[p].

    Times must be positive and finite. They are checked where they enter:
    Cohort checks its times and fit_linear_cox the times it is given, so a
    batch of another batch's rows is not checked again.
    """

    def __init__(self, times, events):
        times = np.asarray(times, dtype=np.float64).reshape(-1)
        events = np.asarray(events, dtype=bool).reshape(-1)
        if times.size == 0:
            raise ValidationError("empty batch")
        if times.shape != events.shape:
            raise ShapeError(f"times length {times.size} != events length {events.size}")
        self.times = times
        self.events = events
        self.event_indices = np.flatnonzero(events)
        self.order = np.argsort(-times, kind="stable")
        neg_sorted = -times[self.order]   # ascending, so searchsorted finds tie blocks
        self.block_start = np.searchsorted(neg_sorted, neg_sorted, side="left")
        self.block_end = np.searchsorted(neg_sorted, neg_sorted, side="right") - 1

    def __len__(self) -> int:
        return self.times.size

    @property
    def n_events(self) -> int:
        return self.event_indices.size

    @property
    def degenerate(self) -> bool:
        """True when the batch has no uncensored event (loss is identically 0)."""
        return self.n_events == 0

    def log_risk_denominators(self, scores: np.ndarray) -> np.ndarray:
        """log sum_{j : t_j >= t_i} exp(scores_j) for every row i, in row order.

        A running log-sum-exp over the time-sorted scores, read at the end of
        each row's tie block, so tied rows share the full risk set (Breslow).
        """
        lse = np.empty(self.times.size)
        lse[self.order] = np.logaddexp.accumulate(scores[self.order])[self.block_end]
        return lse


def build_risk_sets(cohort: Cohort) -> CoxBatch:
    """The CoxBatch of a cohort's times and event flags."""
    return CoxBatch(cohort.times, cohort.events)


def _scores(theta, batch: CoxBatch) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if theta.size != len(batch):
        raise ShapeError(f"theta length {theta.size} != batch size {len(batch)}")
    return theta


def cox_loss(theta, batch: CoxBatch, lse: np.ndarray | None = None) -> float:
    """Negative Cox partial log-likelihood (see module docstring).

    Degenerate batches (no uncensored event) contribute 0; check
    `batch.degenerate` to count them. Non-finite theta raises NumericalError.
    `lse` is `batch.log_risk_denominators(theta)` if the caller already has
    it (a training step passes the same one to cox_gradient).
    """
    theta = _scores(theta, batch)
    if not np.isfinite(theta).all():
        raise NumericalError("theta contains non-finite entries")
    if lse is None:
        lse = batch.log_risk_denominators(theta)
    k = batch.event_indices
    return float((lse[k] - theta[k]).sum())


def cox_gradient(theta, batch: CoxBatch, lse: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of cox_loss w.r.t. theta.

    Row i collects exp(theta_i - lse_k) over the events k at or after its tie
    block in sorted order: a suffix log-sum-exp of -lse_k, so nothing overflows.
    `lse` is `batch.log_risk_denominators(theta)`, computed here if not given.
    theta's finiteness is checked once, by cox_loss; a non-finite theta gives
    a non-finite gradient here, which sgd_step rejects before any update.
    """
    theta = _scores(theta, batch)
    if lse is None:
        lse = batch.log_risk_denominators(theta)
    order = batch.order
    ev = batch.events[order]
    neg_lse = np.where(ev, -lse[order], -np.inf)
    log_suffix = np.logaddexp.accumulate(neg_lse[::-1])[::-1]
    grad = np.empty(len(batch))
    grad[order] = np.exp(theta[order] + log_suffix[batch.block_start]) - ev
    return grad


def concordance_index(theta, times, events) -> float:
    """Harrell's concordance index.

    A pair (i, j) is comparable when t_i < t_j and sample i is uncensored.
    Concordant pairs (theta_i > theta_j) score 1, theta ties score 0.5.
    Raises ConcordanceUndefinedError when no pair is comparable.

    Pairs are counted as integers, in O(n log n) time and O(n) memory, over
    the rows in CoxBatch's order (descending time, ties in row order): the
    rows comparable with event i are the prefix before i's tie block.
    Tied pairs come from one sort of (score rank, position) keys; concordant
    pairs from a wavelet matrix over the score ranks, O(n) per rank bit.
    """
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    times = np.asarray(times, dtype=np.float64).reshape(-1)
    events = np.asarray(events).reshape(-1).astype(bool)
    if not (theta.size == times.size == events.size):
        raise ShapeError(
            f"length mismatch: theta {theta.size}, times {times.size}, events {events.size}")
    n = times.size
    if n == 0:   # CoxBatch refuses an empty batch
        raise ConcordanceUndefinedError("no comparable pair: no rows")
    batch = CoxBatch(times, events)
    order = batch.order
    n_later = batch.block_start   # rows with a later time
    event = events[order]
    n_comparable = int(n_later[event].sum())
    if n_comparable == 0:
        raise ConcordanceUndefinedError("no comparable pair (check censoring and time ties)")
    score = theta[order]
    _, rank = np.unique(score, return_inverse=True)   # nan ranks last
    query = event & ~np.isnan(score)   # a nan score is neither concordant nor tied
    end, own = n_later[query], rank[query]
    by_rank = np.sort(rank * n + np.arange(n))
    ties = int((np.searchsorted(by_rank, own * n + end)
                - np.searchsorted(by_rank, own * n)).sum())
    # Each event counts the rows of lower rank in its range [start, end),
    # first the prefix [0, end). Ranks are read bit by bit from the top: the
    # rows are split stably, bit 0 first, and each range moves to the part
    # holding its event's bit. Where that bit is 1, the range's rows with bit
    # 0 agree with the event on every higher bit and rank lower.
    concordant = 0
    start = np.zeros_like(end)
    ones = np.zeros(n + 1, dtype=np.int64)   # ones[i]: rows before i with the bit set
    level = rank
    for b in reversed(range(int(rank.max()).bit_length())):
        high = (level >> b) & 1 == 1
        np.cumsum(high, out=ones[1:])
        up = (own >> b) & 1 == 1
        ones_start, ones_end = ones[start], ones[end]
        concordant += int((end - ones_end - start + ones_start)[up].sum())
        n_zeros = n - ones[n]
        start = np.where(up, n_zeros + ones_start, start - ones_start)
        end = np.where(up, n_zeros + ones_end, end - ones_end)
        level = level[np.argsort(high, kind="stable")]
    return (concordant + 0.5 * ties) / n_comparable


# Damped Newton on the ridge objective stops when the Newton decrement
# grad . H^-1 grad, about twice the gap to the optimum, falls to NEWTON_TOL
# times max(1, |objective|): a test that does not depend on the scale of the
# features. It takes a handful of steps; the cap ends a fit that cannot
# converge. A step is halved until it gains ARMIJO of its predicted
# decrease, at most ARMIJO_HALVINGS times.
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
ARMIJO = 1e-4
ARMIJO_HALVINGS = 40


def _ridge_cox_objective(x, batch: CoxBatch, beta, l2: float):
    """cox_loss(x @ beta) + l2/2 |beta|^2, with theta = x @ beta and its
    log risk-set denominators."""
    theta = x @ beta
    lse = batch.log_risk_denominators(theta)
    return cox_loss(theta, batch, lse) + 0.5 * l2 * float(beta @ beta), theta, lse


def _linear_cox_hessian(x, theta, batch: CoxBatch, lse: np.ndarray, grad: np.ndarray):
    """Hessian of beta -> cox_loss(x @ beta) at theta = x @ beta: X^T diag(w) X - M^T M.

    `grad` is cox_gradient(theta, batch, lse), so w = grad + events is each
    row's summed softmax weight over the risk sets that hold it. Row k of M
    is the softmax-weighted mean of x over event k's risk set, from a running
    log-sum-exp of theta + log(x) over the time-sorted rows, read at the end
    of the event's tie block as log_risk_denominators reads its sums: tied
    rows share Breslow risk sets, and no weight underflows however far apart
    theta lies. The Hessian is a sum of risk-set covariances, so shifting x
    to nonnegative columns first leaves it unchanged.
    """
    x = x - x.min(axis=0)
    order = batch.order
    event = batch.events[order]
    with np.errstate(divide="ignore"):   # log(0) = -inf: the entry adds nothing
        log_terms = np.log(x[order]) + theta[order][:, None]
    means = np.exp(np.logaddexp.accumulate(log_terms, axis=0)[batch.block_end[event]]
                   - lse[order[event]][:, None])
    return (x.T * (grad + batch.events)) @ x - means.T @ means


def fit_linear_cox(x, times, events, l2: float = 1e-3) -> np.ndarray:
    """Ridge-penalized linear Cox fit: beta minimizing cox_loss(X beta) + l2/2 |beta|^2.

    Used as a standalone probe of how informative a feature block is. The
    objective is strictly convex; damped Newton from beta = 0 (see
    NEWTON_TOL) is deterministic, and a fit that does not converge within
    NEWTON_MAX_ITER steps raises NumericalError.
    """
    x = as_matrix(x, "probe features")
    batch = CoxBatch(times, events)
    if not np.isfinite(batch.times).all() or (batch.times <= 0.0).any():
        raise ValidationError("all observation times must be positive and finite")
    if x.shape[0] != len(batch):
        raise ShapeError(f"feature rows {x.shape[0]} != batch size {len(batch)}")
    if not l2 > 0.0:
        raise ValidationError(f"l2 must be positive, got {l2}")

    beta = np.zeros(x.shape[1])
    objective, theta, lse = _ridge_cox_objective(x, batch, beta, l2)
    for steps in range(NEWTON_MAX_ITER):
        d_theta = cox_gradient(theta, batch, lse)
        grad = x.T @ d_theta + l2 * beta
        hessian = _linear_cox_hessian(x, theta, batch, lse, d_theta)
        hessian[np.diag_indices_from(hessian)] += l2
        step = np.linalg.solve(hessian, grad)
        decrement = float(grad @ step)
        if decrement <= NEWTON_TOL * max(1.0, abs(objective)):
            return beta
        t = 1.0
        for _ in range(ARMIJO_HALVINGS):   # backtracking along -step
            trial = beta - t * step
            value, theta_t, lse_t = _ridge_cox_objective(x, batch, trial, l2)
            if value <= objective - ARMIJO * t * decrement:
                break
            t *= 0.5
        else:
            break   # no decrease along the Newton step
        beta, objective, theta, lse = trial, value, theta_t, lse_t
    raise NumericalError(f"linear Cox fit did not converge: Newton decrement "
                         f"{decrement:.3g} after {steps + 1} steps")


def probe_c_index(x_train, times_train, events_train, x_test, times_test, events_test,
                  l2: float = 1e-3) -> float:
    """Fit a linear Cox model on one feature block and score C on held-out data."""
    beta = fit_linear_cox(x_train, times_train, events_train, l2=l2)
    x_test = as_matrix(x_test, "held-out probe features")
    if x_test.shape[1] != beta.size:
        raise ShapeError(f"held-out probe features have {x_test.shape[1]} columns, "
                         f"the fit has {beta.size}")
    return concordance_index(x_test @ beta, times_test, events_test)
