"""Contribution ratios (Eq.-5 style scores) and learning-rate factors."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survfuse.errors import ConfigError, NumericalError, ShapeError
from survfuse.modulation import (ModulationConfig, apply_modulation,
                                 branch_scores, contribution_ratio, median,
                                 modulation_factor)
from survfuse.nnet import DenseLayer, layer_group
from survfuse.survival import CoxBatch

RHO_SINGLE_EVENT = 1.2130613194252668      # (1/e) / (0.5*e^-0.5)
FACTOR_AT_TWO = 0.23840584404423515        # 1 - tanh(1)


def _cfg(**kw):
    return ModulationConfig(**kw)


def _batch(times, events):
    return CoxBatch(np.asarray(times, dtype=np.float64),
                    np.asarray(events, dtype=bool))


def _random_scores(rng, n):
    return rng.normal(size=n), rng.normal(size=n)


# ---------------------------------------------------------------------------
# branch scores


def test_branch_scores_bias_split():
    G = np.zeros((3, 2))
    P = np.zeros((3, 2))
    s_g, s_p = branch_scores(np.zeros(2), G, np.zeros(2), P, 0.8)
    assert np.all(s_g == 0.4)
    assert np.all(s_p == 0.4)


def test_branch_scores_dot_product():
    s_g, _ = branch_scores(np.array([1.0, 0.0]), np.array([[2.0, 5.0]]),
                           np.array([0.0]), np.array([[0.0]]), 0.0)
    assert s_g.tolist() == [2.0]


def test_branch_scores_sum_to_theta():
    rng = np.random.default_rng(0)
    G = rng.normal(size=(16, 5))
    P = rng.normal(size=(16, 3))
    Wg = rng.normal(size=5)
    Wp = rng.normal(size=3)
    b = 0.37
    s_g, s_p = branch_scores(Wg, G, Wp, P, b)
    theta = G @ Wg + P @ Wp + b
    assert np.allclose(s_g + s_p, theta, atol=1e-12)


def test_branch_scores_shape_mismatch():
    with pytest.raises(ShapeError):
        branch_scores(np.zeros(3), np.zeros((2, 2)), np.zeros(2),
                      np.zeros((2, 2)), 0.0)


# ---------------------------------------------------------------------------
# contribution ratio


def test_single_event_frozen_oracle():
    # R = {k}, s_g = 1, s_p = 0.5
    batch = _batch([1.0], [True])
    report = contribution_ratio(np.array([1.0]), np.array([0.5]), batch, _cfg())
    assert report.rho_g == pytest.approx(RHO_SINGLE_EVENT, abs=1e-12)
    assert report.rho_p == pytest.approx(1.0 / RHO_SINGLE_EVENT, abs=1e-12)


def test_equal_scores_give_unit_ratio():
    rng = np.random.default_rng(1)
    s = rng.normal(size=8)
    batch = _batch(np.arange(1.0, 9.0), [True] * 8)
    report = contribution_ratio(s, s.copy(), batch, _cfg())
    assert report.rho_g == pytest.approx(1.0, abs=1e-12)
    assert report.rho_p == pytest.approx(1.0, abs=1e-12)


def test_all_censored_is_neutral_and_flagged():
    batch = _batch([1.0, 2.0], [False, False])
    report = contribution_ratio(np.zeros(2), np.zeros(2), batch, _cfg())
    assert report.degenerate
    assert report.rho_g == 1.0
    assert report.rho_p == 1.0
    assert report.factor_g == 1.0
    assert report.factor_p == 1.0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_rho_product_is_one_pre_clamp(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 24))
    s_g, s_p = _random_scores(rng, n)
    times = rng.uniform(0.1, 5.0, size=n)
    events = rng.uniform(size=n) < 0.7
    if not events.any():
        events[0] = True
    report = contribution_ratio(s_g, s_p, _batch(times, events), _cfg())
    assert report.rho_g * report.rho_p == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_swapping_modalities_inverts_rho(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 24))
    s_g, s_p = _random_scores(rng, n)
    times = rng.uniform(0.1, 5.0, size=n)
    events = rng.uniform(size=n) < 0.7
    if not events.any():
        events[0] = True
    batch = _batch(times, events)
    fwd = contribution_ratio(s_g, s_p, batch, _cfg())
    rev = contribution_ratio(s_p, s_g, batch, _cfg())
    assert rev.rho_g == pytest.approx(1.0 / fwd.rho_g, rel=1e-9)


def test_clamp_bounds_respected():
    batch = _batch([1.0], [True])
    # ratio far above 10: r_g = 1/e against r_p = 0.001/e^0.001
    report = contribution_ratio(np.array([1.0]), np.array([0.001]), batch, _cfg())
    assert report.rho_g > 100.0
    assert report.rho_g_clamped == 10.0
    assert report.factor_g == modulation_factor(10.0)
    # the image side reads the reciprocal, clamped at 0.1: never sped up
    assert report.factor_p == modulation_factor(1.0 / 10.0) == 1.0


def test_median_aggregate_supported():
    rng = np.random.default_rng(2)
    n = 12
    s_g, s_p = _random_scores(rng, n)
    batch = _batch(np.arange(1.0, n + 1.0), [True] * n)
    report = contribution_ratio(s_g, s_p, batch, _cfg(aggregate="median"))
    assert np.isfinite(report.rho_g)


_MEDIAN_ELEMENTS = st.one_of(
    st.floats(-4.0, 4.0),                                              # ordinary
    st.builds(lambda m, e: m * 2.0 ** e, st.floats(-1.0, 1.0),
              st.integers(-1074, 1023)),                               # extreme exponents
    st.integers(-4, 4).map(lambda i: i / 2.0),                         # rounded, tied
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308]))


@settings(max_examples=500, deadline=None)
@given(values=st.lists(_MEDIAN_ELEMENTS, min_size=1, max_size=40))
def test_median_is_np_median_bit_for_bit(values):
    # sign bit and NaN included: the same partition, then the same mean
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.median(np.array(values))
        got = median(values)
    assert isinstance(got, float)
    assert struct.pack("<d", got) == struct.pack("<d", want)


def test_exp_numerator_reading_is_softmax_share():
    # two rows, one event at t=1 with R={0,1}: r = softmax(s)[0] per branch
    batch = _batch([1.0, 2.0], [True, False])
    s_g = np.array([1.0, 0.0])
    s_p = np.array([0.0, 1.0])
    report = contribution_ratio(s_g, s_p, batch, _cfg(exp_numerator=True))
    r_g = np.exp(1.0) / (np.exp(1.0) + 1.0)
    r_p = 1.0 / (1.0 + np.exp(1.0))
    assert report.rho_g == pytest.approx(r_g / r_p, rel=1e-12)


@pytest.mark.parametrize("genomic_offset", [-800.0, 0.0])
@pytest.mark.parametrize("aggregate", ["mean", "median"])
def test_overflowing_scores_raise_numerical_error(genomic_offset, aggregate):
    # exp(-lse) overflows at scores near -800: with both branches there, rho_g
    # is -inf / -inf = nan; with the image branch alone, rho_g is -0.0 and
    # rho_p = 1 / rho_g has no value. Under the error::RuntimeWarning filter an
    # unguarded overflow would surface as a RuntimeWarning instead.
    rng = np.random.default_rng(7)
    n = 16
    s_g = genomic_offset + rng.normal(size=n)
    s_p = -800.0 + rng.normal(size=n)
    batch = _batch(np.arange(1.0, n + 1.0), [True] * n)
    with pytest.raises(NumericalError, match="rho_g"):
        contribution_ratio(s_g, s_p, batch, _cfg(aggregate=aggregate))


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(rho_min=1.5)    # lower bound must sit below 1
    with pytest.raises(ConfigError):
        _cfg(rho_max=0.9)    # upper bound must sit above 1
    with pytest.raises(ConfigError):
        _cfg(epsilon=0.0)
    with pytest.raises(ConfigError, match="^epsilon must be positive and finite, got inf"):
        _cfg(epsilon=float("inf"))   # every ratio would be inf / inf
    with pytest.raises(ConfigError):
        _cfg(aggregate="mode")


@pytest.mark.parametrize("key, rho_min, rho_max", [
    ("rho_max", 0.1, 1000.0), ("rho_max", 0.1, 20.0),
    ("rho_min", 0.001, 10.0), ("rho_min", 0.05, 10.0)])
def test_clamp_whose_factor_rounds_to_zero_is_refused(key, rho_min, rho_max):
    # 1 - tanh(rho - 1) is an exact float64 zero past rho ~ 19.99, which
    # would stop training later with a zero learning-rate scale
    with pytest.raises(ConfigError, match=f"^{key} = "):
        _cfg(rho_min=rho_min, rho_max=rho_max)


@pytest.mark.parametrize("rho_min, rho_max", [(0.1, 10.0), (0.2, 8.0)])
def test_usable_clamps_are_accepted(rho_min, rho_max):
    cfg = _cfg(rho_min=rho_min, rho_max=rho_max)
    assert (cfg.rho_min, cfg.rho_max) == (rho_min, rho_max)


# ---------------------------------------------------------------------------
# factors


def test_factor_frozen_values():
    assert modulation_factor(1.0) == 1.0
    assert modulation_factor(2.0) == pytest.approx(FACTOR_AT_TWO, abs=1e-12)
    assert modulation_factor(0.5) == 1.0   # 1 - tanh(-0.5) > 1, capped


@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 100.0))
def test_factor_in_unit_interval(rho):
    f = modulation_factor(rho)
    assert 0.0 <= f <= 1.0


@settings(max_examples=100, deadline=None)
@given(st.floats(0.1, 10.0))
def test_factor_positive_within_clamp_range(rho):
    # tanh saturates; past rho ~ 19 the factor underflows to an exact
    # float64 zero, but clamped ratios never reach that regime.
    assert modulation_factor(rho) > 0.0


def test_factor_monotone_non_increasing():
    grid = np.linspace(0.05, 12.0, 400)
    vals = [modulation_factor(r) for r in grid]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_exactly_one_branch_suppressed(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 24))
    s_g, s_p = _random_scores(rng, n)
    times = rng.uniform(0.1, 5.0, size=n)
    events = rng.uniform(size=n) < 0.7
    if not events.any():
        events[0] = True
    report = contribution_ratio(s_g, s_p, _batch(times, events), _cfg())
    assert max(report.factor_g, report.factor_p) == 1.0
    assert min(report.factor_g, report.factor_p) <= 1.0


# ---------------------------------------------------------------------------
# applying to parameter groups


def _groups():
    rng = np.random.default_rng(0)
    gen = layer_group("genomic", [DenseLayer(2, 2, "identity", rng=rng)])
    img = layer_group("image", [DenseLayer(2, 2, "identity", rng=rng)])
    return gen, img


def test_apply_balanced_report_is_noop():
    batch = _batch([1.0], [True])
    report = contribution_ratio(np.array([1.0]), np.array([1.0]), batch, _cfg())
    gen, img = _groups()
    apply_modulation(report, gen, img)
    assert gen.lr_scale == 1.0
    assert img.lr_scale == 1.0


def test_apply_suppresses_dominant_genomic():
    gen, img = _groups()
    batch = _batch([1.0], [True])
    # rho_g clamps to 10 -> genomic crushed, image untouched
    report = contribution_ratio(np.array([5.0]), np.array([0.01]), batch, _cfg())
    apply_modulation(report, gen, img)
    assert gen.lr_scale == pytest.approx(modulation_factor(report.rho_g_clamped))
    assert img.lr_scale == 1.0

