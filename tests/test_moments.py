import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtri
from scipy.stats import norm

from tiebreak.designs import (AssignmentDistribution, IntervalRule,
                              SlidingScale, ThreeLevelRule, TieBreaker)
from tiebreak.errors import DomainError
from tiebreak.moments import (central_zx_mean, design_moments,
                              gaussian_zx_mean, sliding_moments)

from helpers import (balanced_monotone_scale, central_zx3_mean,
                     interval_moments, three_level_zx_mean)

GAUSSIAN = AssignmentDistribution.standard_gaussian()


def quad_window_moment(rule, k, gaussian=False):
    """E[z x^k] of a window rule by adaptive quadrature."""
    if isinstance(rule, IntervalRule):
        lo, hi, levels = rule.a, rule.b, (0.0, rule.p, 1.0)
    else:
        upper = (1.0 + rule.delta) / 2.0
        hi = (rule.delta if not gaussian else
              NormalDist().inv_cdf(upper) if upper < 1.0 else math.inf)
        lo = -hi
        levels = ((0.0, rule.p, 1.0) if isinstance(rule, TieBreaker)
                  else (rule.epsilon, 0.5, 1.0 - rule.epsilon))

    def integrand(x):
        level = levels[2] if x >= hi else levels[0] if x <= lo else levels[1]
        dens = math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) if gaussian else 0.5
        return dens * x ** k * (2.0 * level - 1.0)

    ends = (-math.inf, math.inf) if gaussian else (-1.0, 1.0)
    cuts = [ends[0]] + [c for c in (lo, hi) if ends[0] < c < ends[1]] + [ends[1]]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        val, err = quad(integrand, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert err < 1e-10
        total += val
    return total


def test_central_moments_frozen():
    assert central_zx_mean(0.0) == 0.5
    assert central_zx_mean(1.0) == 0.0
    assert central_zx_mean(0.5) == 0.375
    for delta, zx3 in ((0.0, 0.25), (1.0, 0.0), (0.5, 0.234375)):
        _, w = design_moments(TieBreaker(delta))
        assert w[3] == pytest.approx(zx3, abs=1e-16)
        assert w[1] == central_zx_mean(delta)


def test_central_moments_vectorize_and_validate():
    grid = np.linspace(0, 1, 11)
    np.testing.assert_allclose(central_zx_mean(grid), (1 - grid ** 2) / 2)
    np.testing.assert_allclose(
        [design_moments(TieBreaker(d))[1][3] for d in grid],
        (1 - grid ** 4) / 4, atol=1e-16)
    for fn in (central_zx_mean, gaussian_zx_mean):
        for bad in (-0.2, 1.2, np.nan):
            with pytest.raises(DomainError, match=r"delta must lie in \[0, 1\]"):
                fn(bad)


def test_gaussian_zx_mean_frozen():
    assert gaussian_zx_mean(0.0) == pytest.approx(np.sqrt(2 / np.pi), abs=1e-15)
    assert gaussian_zx_mean(0.5) == pytest.approx(0.635553145368214, abs=1e-12)
    assert gaussian_zx_mean(1.0) == 0.0


def test_gaussian_zx_mean_against_quadrature():
    # E[zx] = 2 int_tau^inf x phi(x) dx = 2 phi(tau) for the fair coin
    for delta in (0.2, 0.5, 0.8):
        tau = ndtri((1 + delta) / 2)
        val, err = quad(lambda x: 2 * x * norm.pdf(x), tau, np.inf)
        assert gaussian_zx_mean(delta) == pytest.approx(val, abs=1e-10)


def test_interval_moments_against_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = np.sort(rng.uniform(-1, 1, size=2))
        p = rng.uniform(0.05, 0.95)
        rule = IntervalRule(a, b, p)
        _, w = design_moments(rule)
        for k in range(5):
            assert w[k] == pytest.approx(quad_window_moment(rule, k), abs=1e-12)


def test_interval_moments_central_reduction():
    for d in (0.0, 0.3, 0.7, 1.0):
        _, w = design_moments(IntervalRule(-d, d, 0.5))
        assert w[0] == 0.0
        assert w[1] == pytest.approx(central_zx_mean(d), abs=1e-15)
        assert w[2] == 0.0


def test_three_level_zx_mean():
    # epsilon = 0 recovers the tie-breaker moment
    for d in (0.0, 0.4, 1.0):
        assert design_moments(ThreeLevelRule(d, 0.0))[1][1] == pytest.approx(
            central_zx_mean(d), abs=1e-16)
    assert design_moments(ThreeLevelRule(0.0, 0.1))[1][1] == pytest.approx(
        0.4, abs=1e-15)
    # Nearly-fair outer coins carry almost no signal
    assert design_moments(ThreeLevelRule(0.3, 0.499))[1][1] == pytest.approx(
        0.00091, abs=1e-12)
    with pytest.raises(DomainError):
        ThreeLevelRule(0.3, 0.5)
    with pytest.raises(DomainError):
        ThreeLevelRule(0.3, -0.1)


def test_three_level_moment_against_quadrature():
    rule = ThreeLevelRule(0.45, 0.15)
    _, w = design_moments(rule)
    for k in range(5):
        assert w[k] == pytest.approx(quad_window_moment(rule, k), abs=1e-12)
    assert w[1] == pytest.approx(three_level_zx_mean(0.45, 0.15), abs=1e-15)


def test_sliding_moments_of_step_scale():
    scale = SlidingScale.from_rule(TieBreaker(0.5))
    mom = sliding_moments(scale)
    assert mom.z_mean == pytest.approx(0.0, abs=1e-15)
    assert mom.zx_mean == pytest.approx(0.375, abs=1e-15)
    assert mom.zx2_mean == pytest.approx(0.0, abs=1e-15)


def test_sliding_moments_against_quadrature():
    rng = np.random.default_rng(5)
    scale = balanced_monotone_scale(rng)
    mom = sliding_moments(scale)
    for k, got in ((0, mom.z_mean), (1, mom.zx_mean), (2, mom.zx2_mean)):
        ref, err = quad(lambda x: 0.5 * x ** k * (2 * scale(x) - 1.0),
                        -1, 1, points=list(scale.breakpoints), limit=400)
        assert got == pytest.approx(ref, abs=1e-13)


@pytest.mark.parametrize("slope, shift", [(7.523, -0.226), (7.517, -0.068)])
def test_sliding_moments_smooth_scale_against_scipy(slope, shift):
    # Logistic scales without breakpoints, on which an adaptive Simpson
    # rule once stopped early, 1e-11 from the answer.
    scale = SlidingScale.from_callable(
        lambda t: 1.0 / (1.0 + math.exp(-slope * (t - shift))))
    mom = sliding_moments(scale)
    for k, got in ((0, mom.z_mean), (1, mom.zx_mean), (2, mom.zx2_mean)):
        ref, _ = quad(lambda x: 0.5 * x ** k * (2 * scale(x) - 1.0), -1, 1,
                      epsabs=1e-14, epsrel=1e-14, limit=400)
        assert abs(got - ref) <= 1e-13


def test_sliding_moments_need_declared_jumps():
    # p = 1{x > 0.3}: E[z] = -0.3, E[zx] = 0.455, E[zx^2] = -0.009. Declared,
    # the jump bounds a panel and the moments are exact; undeclared, it
    # falls inside a panel, halving the panels moves the moments by about
    # 6e-4, and the segment is refused by name.
    def step(t):
        return 1.0 if t > 0.3 else 0.0

    mom = sliding_moments(SlidingScale.from_callable(step, breakpoints=(0.3,)))
    err = np.subtract((mom.z_mean, mom.zx_mean, mom.zx2_mean), (-0.3, 0.455, -0.009))
    assert np.all(np.abs(err) <= 1e-15)
    with pytest.raises(DomainError, match=r"segment \[-1, 1\]"):
        sliding_moments(SlidingScale.from_callable(step))


def test_sliding_moments_absolute_value_scale():
    scale = SlidingScale.from_callable(abs, breakpoints=(0.0,))
    mom = sliding_moments(scale)
    assert mom.z_mean == pytest.approx(0.0, abs=1e-15)
    assert mom.zx_mean == pytest.approx(0.0, abs=1e-15)
    assert mom.zx2_mean == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_rule_moments_dispatch():
    tie_x, tie_w = design_moments(TieBreaker(0.5))
    window_x, window_w = design_moments(IntervalRule(-0.5, 0.5, 0.5))
    np.testing.assert_array_equal(tie_x, window_x)
    np.testing.assert_array_equal(tie_w[:3], window_w[:3])
    for a, b, p in ((-0.2, 0.6, 0.7), (-1.0, 0.3, 0.2), (0.9, 1.0, 0.5)):
        _, w = design_moments(IntervalRule(a, b, p))
        np.testing.assert_allclose(w[:3], interval_moments(a, b, p), rtol=0, atol=1e-15)
    x, w = design_moments(ThreeLevelRule(0.2, 0.05))
    assert w[1] == pytest.approx(three_level_zx_mean(0.2, 0.05), abs=1e-15)
    assert x[2] == 1.0 / 3.0
    # The outer arm levels 2 epsilon - 1 and 1 - 2 epsilon are exact
    # negatives, so the even moments cancel exactly on both scales.
    for dist in (None, GAUSSIAN):
        for delta, epsilon in ((0.5, 0.2), (0.2, 0.3), (0.2, 0.05), (0.0, 0.1),
                               (0.7, 0.45), (1.0, 0.3), (0.33, 0.1)):
            _, w = design_moments(ThreeLevelRule(delta, epsilon), dist)
            assert w[0] == 0.0 and w[2] == 0.0


def test_rule_moments_gaussian():
    x, w = design_moments(TieBreaker(0.5), GAUSSIAN)
    assert (w[0], w[2], x[2]) == (0.0, 0.0, 1.0)
    assert w[1] == pytest.approx(gaussian_zx_mean(0.5), abs=1e-15)
    for rule in (IntervalRule(-0.5, 0.8), TieBreaker(0.5, p=0.7),
                 ThreeLevelRule(0.3, 0.2), TieBreaker(0.0), TieBreaker(1.0, p=0.3),
                 TieBreaker(np.nextafter(1.0, 0.0))):
        x, w = design_moments(rule, GAUSSIAN)
        np.testing.assert_array_equal(x, [1.0, 0.0, 1.0, 0.0, 3.0])
        for k in range(5):
            assert w[k] == pytest.approx(
                quad_window_moment(rule, k, gaussian=True), abs=1e-12)
    with pytest.raises(DomainError):
        design_moments(SlidingScale.from_table([-1.0, 1.0], [0.0, 1.0]), GAUSSIAN)


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
unit = st.floats(0.0, 1.0)
coin = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@PROPERTY
@given(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), coin)
def test_interval_moments_match_closed_form(ends, p):
    a, b = min(ends), max(ends)
    _, w = design_moments(IntervalRule(a, b, p))
    np.testing.assert_allclose(w[:3], interval_moments(a, b, p), rtol=0, atol=4e-16)


@PROPERTY
@given(unit, st.floats(0.0, 0.5, exclude_max=True))
def test_three_level_and_central_moments_match_closed_form(delta, epsilon):
    _, w = design_moments(ThreeLevelRule(delta, epsilon))
    assert w[0] == 0.0 and w[2] == 0.0
    assert w[1] == pytest.approx(three_level_zx_mean(delta, epsilon),
                                 rel=1e-15, abs=1e-16)
    _, w = design_moments(TieBreaker(delta))
    assert w[3] == pytest.approx(central_zx3_mean(delta), rel=1e-15, abs=1e-16)
