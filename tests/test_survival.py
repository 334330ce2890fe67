"""Cox partial likelihood, risk sets, concordance, linear probe."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cox_reference as ref
from survfuse import survival
from survfuse.cohort import Cohort
from survfuse.errors import (ConcordanceUndefinedError, NumericalError,
                             ShapeError, ValidationError)
from survfuse.modulation import ModulationConfig, contribution_ratio
from survfuse.survival import (CoxBatch, build_risk_sets,
                               concordance_index, cox_gradient, cox_loss,
                               fit_linear_cox, probe_c_index)

LN2 = 0.6931471805599453
LN6 = 1.791759469228055


def _batch(times, events):
    return CoxBatch(np.asarray(times, dtype=np.float64),
                    np.asarray(events, dtype=bool))


def _assert_kernel_uses_reference_sets(batch):
    """The kernel's denominator at each event is the sum over its reference risk set."""
    scores = np.random.default_rng(0).normal(size=len(batch))
    lse = batch.log_risk_denominators(scores)
    for k, risk in zip(batch.event_indices, ref.risk_sets(batch)):
        assert lse[k] == pytest.approx(np.log(np.exp(scores[risk]).sum()), rel=1e-12)


def _risk_set_sizes(batch):
    """|R_k| per event, read from the kernel: with zero scores each denominator counts rows."""
    return np.exp(batch.log_risk_denominators(np.zeros(len(batch))))[batch.event_indices]


# ---------------------------------------------------------------------------
# risk sets


def test_risk_sets_use_observed_time_at_least_event_time():
    batch = _batch([3.0, 1.0, 2.0], [True, True, False])
    by_time = {batch.times[k]: set(risk)
               for k, risk in zip(batch.event_indices, ref.risk_sets(batch))}
    assert by_time[1.0] == {0, 1, 2}
    assert by_time[3.0] == {0}
    assert _risk_set_sizes(batch) == pytest.approx([1.0, 3.0], rel=1e-12)
    _assert_kernel_uses_reference_sets(batch)


def test_risk_sets_include_ties_breslow():
    batch = _batch([1.0, 1.0, 2.0], [True, True, True])
    assert sorted(rs.size for rs in ref.risk_sets(batch)) == [1, 3, 3]
    assert _risk_set_sizes(batch) == pytest.approx([3.0, 3.0, 1.0], rel=1e-12)
    _assert_kernel_uses_reference_sets(batch)


def test_censored_rows_join_risk_sets_but_not_events():
    batch = _batch([1.0, 2.0], [True, False])
    assert batch.n_events == 1
    assert set(ref.risk_sets(batch)[0]) == {0, 1}
    assert _risk_set_sizes(batch) == pytest.approx([2.0], rel=1e-12)
    _assert_kernel_uses_reference_sets(batch)


def test_degenerate_flag():
    assert _batch([1.0, 2.0], [False, False]).degenerate
    assert not _batch([1.0, 2.0], [True, False]).degenerate


# ---------------------------------------------------------------------------
# cox loss: frozen oracles


def test_cox_loss_zero_scores_three_events_is_ln6():
    batch = _batch([1.0, 2.0, 3.0], [True, True, True])
    assert cox_loss(np.zeros(3), batch) == pytest.approx(LN6, abs=1e-12)


def test_cox_loss_two_sample_oracle_ln2():
    batch = _batch([1.0, 2.0], [True, True])
    assert cox_loss(np.zeros(2), batch) == pytest.approx(LN2, abs=1e-12)


def test_cox_gradient_two_sample_oracle():
    batch = _batch([1.0, 2.0], [True, True])
    grad = cox_gradient(np.zeros(2), batch)
    assert grad == pytest.approx([-0.5, 0.5], abs=1e-12)


def test_cox_loss_all_censored_is_zero():
    batch = _batch([1.0, 2.0], [False, False])
    assert cox_loss(np.array([3.0, -1.0]), batch) == 0.0
    assert np.all(cox_gradient(np.array([3.0, -1.0]), batch) == 0.0)


def test_cox_loss_handles_large_scores():
    batch = _batch([1.0, 2.0, 3.0], [True, True, True])
    loss = cox_loss(np.array([800.0, 750.0, 700.0]), batch)
    assert np.isfinite(loss)


def test_cox_loss_score_length_mismatch():
    batch = _batch([1.0, 2.0], [True, True])
    with pytest.raises(ShapeError):
        cox_loss(np.zeros(3), batch)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(-20, 20))
def test_cox_loss_shift_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 16))
    times = rng.uniform(0.1, 5.0, size=n)
    events = rng.uniform(size=n) < 0.7
    if not events.any():
        events[0] = True
    theta = rng.normal(size=n)
    batch = _batch(times, events)
    assert cox_loss(theta + shift, batch) == pytest.approx(
        cox_loss(theta, batch), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_cox_gradient_sums_to_zero(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 16))
    times = rng.uniform(0.1, 5.0, size=n)
    events = rng.uniform(size=n) < 0.7
    if not events.any():
        events[0] = True
    theta = rng.normal(size=n)
    batch = _batch(times, events)
    assert abs(cox_gradient(theta, batch).sum()) < 1e-9


def test_cox_gradient_matches_finite_differences_spot():
    rng = np.random.default_rng(3)
    times = rng.uniform(0.1, 5.0, size=8)
    events = np.array([True, False, True, True, False, True, True, True])
    theta = rng.normal(size=8)
    batch = _batch(times, events)
    grad = cox_gradient(theta, batch)
    h = 1e-6
    for i in range(8):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd = (cox_loss(up, batch) - cox_loss(down, batch)) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-7)


# ---------------------------------------------------------------------------
# sorted risk-set kernel against the per-event reference loops

_KERNEL_CONFIGS = [ModulationConfig(aggregate=agg, exp_numerator=exp_num)
                   for agg in ("mean", "median") for exp_num in (False, True)]


def _close(new, old):
    new, old = np.asarray(new, dtype=np.float64), np.asarray(old, dtype=np.float64)
    assert new.shape == old.shape
    assert np.all(np.abs(new - old) <= 1e-10 * np.maximum(1.0, np.abs(old)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 40),
       times_kind=st.sampled_from(["continuous", "integer", "one_tie_block"]),
       censoring=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
       scale=st.sampled_from([1.0, 30.0, 500.0]))
@example(seed=0, n=1, times_kind="continuous", censoring=0.0, scale=1.0)
@example(seed=1, n=12, times_kind="integer", censoring=1.0, scale=1.0)
@example(seed=2, n=30, times_kind="one_tie_block", censoring=0.3, scale=500.0)
def test_kernel_matches_reference_loops(seed, n, times_kind, censoring, scale):
    rng = np.random.default_rng(seed)
    if times_kind == "continuous":
        times = rng.uniform(0.1, 5.0, size=n)
    elif times_kind == "integer":
        times = rng.integers(1, 4, size=n).astype(np.float64)
    else:
        times = np.full(n, 2.0)
    events = rng.uniform(size=n) >= censoring
    batch = _batch(times, events)
    theta, s_g, s_p = rng.uniform(-scale, scale, size=(3, n))

    _close(cox_loss(theta, batch), ref.cox_loss(theta, batch))
    _close(cox_gradient(theta, batch), ref.cox_gradient(theta, batch))
    # a training step hands both the log-denominators it computed once
    lse = batch.log_risk_denominators(theta)
    assert cox_loss(theta, batch, lse) == cox_loss(theta, batch)
    assert cox_gradient(theta, batch, lse).tobytes() == cox_gradient(theta, batch).tobytes()
    for cfg in _KERNEL_CONFIGS:
        new = contribution_ratio(s_g, s_p, batch, cfg)
        old = ref.contribution_ratio(s_g, s_p, batch, cfg)
        assert new.degenerate == old.degenerate
        for name in ("rho_g", "rho_p", "rho_g_clamped", "factor_g", "factor_p"):
            _close(getattr(new, name), getattr(old, name))


# ---------------------------------------------------------------------------
# concordance


def _brute_force_c(theta, times, events):
    conc = ties = comp = 0
    n = len(times)
    for i in range(n):
        for j in range(n):
            if times[i] < times[j] and events[i]:
                comp += 1
                if theta[i] > theta[j]:
                    conc += 1
                elif theta[i] == theta[j]:
                    ties += 1
    if comp == 0:
        raise ConcordanceUndefinedError("no comparable pairs")
    return (conc + 0.5 * ties) / comp


def test_concordance_perfect_and_reversed():
    times = np.array([1.0, 2.0, 3.0])
    events = np.array([True, True, True])
    assert concordance_index(np.array([3.0, 2.0, 1.0]), times, events) == 1.0
    assert concordance_index(np.array([1.0, 2.0, 3.0]), times, events) == 0.0


def test_concordance_one_third_oracle():
    times = np.array([1.0, 2.0, 3.0])
    events = np.array([True, True, True])
    c = concordance_index(np.array([1.0, 3.0, 2.0]), times, events)
    assert c == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_concordance_all_tied_scores_is_half():
    times = np.array([1.0, 2.0, 3.0])
    events = np.array([True, True, False])
    assert concordance_index(np.zeros(3), times, events) == 0.5


def test_concordance_censoring_rules():
    # censored earlier row is not comparable to later rows
    times = np.array([1.0, 2.0])
    events = np.array([False, True])
    with pytest.raises(ConcordanceUndefinedError):
        concordance_index(np.array([1.0, 0.0]), times, events)


def test_concordance_matches_brute_force_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 20))
        times = rng.choice([1.0, 2.0, 3.0, 4.0], size=n)  # force time ties
        events = rng.uniform(size=n) < 0.6
        theta = rng.choice([-1.0, 0.0, 1.0, 2.0], size=n)  # force score ties
        try:
            expected = _brute_force_c(theta, times, events)
        except ConcordanceUndefinedError:
            with pytest.raises(ConcordanceUndefinedError):
                concordance_index(theta, times, events)
            continue
        assert concordance_index(theta, times, events) == expected


_SCORES = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0]),   # forced score ties
                    st.floats(-1e6, 1e6, allow_nan=False),
                    st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def _c_index_inputs(draw):
    n = draw(st.integers(1, 60))
    n_times = draw(st.integers(1, 6))   # few distinct times: many time ties
    theta = draw(st.lists(_SCORES, min_size=n, max_size=n))
    times = draw(st.lists(st.integers(1, n_times), min_size=n, max_size=n))
    events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(theta), np.array(times, dtype=np.float64), np.array(events)


@settings(max_examples=300, deadline=None)
@given(inputs=_c_index_inputs())
@example(inputs=(np.array([0.5]), np.array([1.0]), np.array([True])))
@example(inputs=(np.arange(5.0), np.arange(1.0, 6.0), np.zeros(5, dtype=bool)))
@example(inputs=(np.zeros(4), np.array([1.0, 1.0, 2.0, 2.0]), np.ones(4, dtype=bool)))
def test_concordance_matches_pair_matrix_oracle(inputs):
    # exact equality: both count pairs as integers and divide once
    theta, times, events = inputs
    try:
        expected = ref.concordance_index(theta, times, events)
    except ConcordanceUndefinedError:
        with pytest.raises(ConcordanceUndefinedError):
            concordance_index(theta, times, events)
        return
    assert concordance_index(theta, times, events) == expected


def test_concordance_memory_is_linear_in_n():
    rng = np.random.default_rng(3)
    n = 6000
    theta = rng.normal(size=n)
    times = rng.exponential(size=n) + 0.01
    events = rng.uniform(size=n) < 0.6
    tracemalloc.start()
    try:
        c = concordance_index(theta, times, events)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000   # one n x n boolean matrix alone is 36 MB
    assert c == ref.concordance_index(theta, times, events)


# ---------------------------------------------------------------------------
# cohorts


def _cohort(times, events):
    n = len(times)
    return Cohort(ids=[f"p{i}" for i in range(n)], times=times, events=events,
                  x_cnv=np.zeros((n, 2)), x_rna=np.zeros((n, 2)), x_img=np.zeros((n, 2)))


def test_survival_record_validation():
    # a cohort's times enter CoxBatch unchecked, so the cohort checks them
    for bad in (0.0, np.inf):
        with pytest.raises(ValidationError, match="record 'p0': time must be positive"):
            _cohort([bad], [True])


def test_build_risk_sets_from_records():
    batch = build_risk_sets(_cohort([2.0, 1.0], [True, False]))
    assert batch.times.tolist() == [2.0, 1.0]
    assert batch.n_events == 1


# ---------------------------------------------------------------------------
# linear probe


def test_fit_linear_cox_recovers_ranking():
    rng = np.random.default_rng(5)
    n = 300
    X = rng.normal(size=(n, 4))
    h = X @ np.array([1.0, -0.5, 0.0, 0.25])
    times = rng.exponential(scale=np.exp(-h))
    events = np.ones(n, dtype=bool)
    beta = fit_linear_cox(X, times, events)
    c_fit = concordance_index(X @ beta, times, events)
    c_true = concordance_index(h, times, events)   # information ceiling
    assert c_fit > 0.5 + 0.8 * (c_true - 0.5)      # most of the ceiling reached
    assert c_fit > 0.7


def test_probe_c_index_splits_train_and_test():
    rng = np.random.default_rng(6)
    n = 400
    X = rng.normal(size=(n, 3))
    h = X @ np.array([1.2, 0.0, -0.8])
    times = rng.exponential(scale=np.exp(-h))
    events = np.ones(n, dtype=bool)
    c = probe_c_index(X[:200], times[:200], events[:200],
                      X[200:], times[200:], events[200:])
    assert 0.7 < c <= 1.0


def test_probe_on_pure_noise_sits_near_chance():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(400, 3))
    times = rng.exponential(size=400)
    events = np.ones(400, dtype=bool)
    c = probe_c_index(X[:200], times[:200], events[:200],
                      X[200:], times[200:], events[200:])
    assert abs(c - 0.5) < 0.1


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_fit_linear_cox_rejects_times_that_are_not_positive_and_finite(bad):
    # CoxBatch leaves times to its callers; fit_linear_cox takes them from outside
    times = np.array([1.0, 2.0, bad, 3.0])
    with pytest.raises(ValidationError, match="positive and finite"):
        fit_linear_cox(np.eye(4), times, np.ones(4, dtype=bool))


@pytest.mark.parametrize("x, l2, error, match", [
    (np.ones(4), 1e-3, ShapeError, "probe features must be 2-D"),
    (np.array([[1.0], [2.0], [np.nan], [3.0]]), 1e-3, NumericalError, "probe features"),
    (np.eye(4), 0.0, ValidationError, "l2 must be positive"),
])
def test_fit_linear_cox_rejects_bad_features_and_penalties(x, l2, error, match):
    times = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(error, match=match):
        fit_linear_cox(x, times, np.ones(4, dtype=bool), l2=l2)


@pytest.mark.parametrize("x_test, error, match", [
    (np.ones((4, 2)), ShapeError, "have 2 columns, the fit has 1"),
    (np.array([[1.0], [np.nan], [2.0], [3.0]]), NumericalError, "held-out probe features"),
])
def test_probe_c_index_rejects_bad_held_out_features(x_test, error, match):
    times, events = np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4, dtype=bool)
    with pytest.raises(error, match=match):
        probe_c_index(np.array([[0.5], [1.0], [-1.0], [2.0]]), times, events,
                      x_test, times, events)


def _tied_probe_data(seed=8, n=40):
    """n rows over 6 distinct times, a third of them censored."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3)) * [1.0, 10.0, 0.1] + [0.0, 5.0, -2.0]
    times = rng.integers(1, 7, size=n).astype(np.float64)
    events = rng.uniform(size=n) < 0.67
    return x, times, events


@pytest.mark.parametrize("time_slope", [0.0, 200.0])
def test_linear_cox_hessian_matches_the_risk_set_sums(time_slope):
    # with time_slope 200 theta falls by 200 per unit of time: the later risk
    # sets' weights, shifted by one global maximum, would underflow
    x, times, events = _tied_probe_data()
    batch = _batch(times, events)
    theta = x @ np.array([0.7, -0.2, 1.5]) - time_slope * times
    lse = batch.log_risk_denominators(theta)
    hess = survival._linear_cox_hessian(x, theta, batch, lse,
                                        cox_gradient(theta, batch, lse))
    expected = ref.linear_cox_hessian(x, theta, batch)
    assert np.allclose(hess, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max())


def test_linear_cox_hessian_matches_central_differences():
    x, times, events = _tied_probe_data()
    batch = _batch(times, events)
    beta, h = np.array([0.3, -0.05, 0.8]), 1e-5
    theta = x @ beta
    lse = batch.log_risk_denominators(theta)
    hess = survival._linear_cox_hessian(x, theta, batch, lse, cox_gradient(theta, batch, lse))
    columns = [(x.T @ cox_gradient(x @ (beta + h * e), batch)
                - x.T @ cox_gradient(x @ (beta - h * e), batch)) / (2 * h)
               for e in np.eye(3)]
    assert np.allclose(hess, np.column_stack(columns), rtol=1e-6, atol=1e-6)


def test_fit_linear_cox_stops_below_the_newton_decrement_tolerance():
    x, times, events = _tied_probe_data(n=120)
    l2 = 1e-3
    beta = fit_linear_cox(x, times, events, l2=l2)
    batch = _batch(times, events)
    theta = x @ beta
    objective = ref.cox_loss(theta, batch) + 0.5 * l2 * beta @ beta
    grad = x.T @ ref.cox_gradient(theta, batch) + l2 * beta
    hess = ref.linear_cox_hessian(x, theta, batch) + l2 * np.eye(3)
    decrement = grad @ np.linalg.solve(hess, grad)
    assert decrement <= survival.NEWTON_TOL * max(1.0, abs(objective))


def test_fit_linear_cox_is_deterministic():
    x, times, events = _tied_probe_data(n=120)
    assert np.array_equal(fit_linear_cox(x, times, events), fit_linear_cox(x, times, events))


def test_fit_linear_cox_raises_at_its_iteration_cap(monkeypatch):
    x, times, events = _tied_probe_data(n=120)
    monkeypatch.setattr(survival, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NumericalError, match="did not converge: Newton decrement .* after 1 steps"):
        fit_linear_cox(x, times, events)
