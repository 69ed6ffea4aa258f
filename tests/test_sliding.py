import numpy as np
import pytest

from tiebreak.designs import SlidingScale, TieBreaker
from tiebreak.errors import DegenerateDesignError, DomainError
from tiebreak.moments import sliding_moments
from tiebreak.sliding import (equivalent_tiebreaker, full_covariance_sliding,
                              moment_determinant, symmetrize,
                              variances_sliding)
from tiebreak.covariance import _schur_pair
from tiebreak.twoline import covariance_uniform

from helpers import balanced_monotone_scale, sliding_variances

ABS_SCALE = SlidingScale.from_callable(abs, breakpoints=(0.0,))


def test_determinant_matches_schur():
    rng = np.random.default_rng(21)
    for _ in range(10):
        scale = balanced_monotone_scale(rng)
        mom = sliding_moments(scale)
        a = np.diag([1.0, 1.0 / 3.0])
        b = np.array([[mom.z_mean, mom.zx_mean], [mom.zx_mean, mom.zx2_mean]])
        var, _ = _schur_pair(a, b)
        assert moment_determinant(scale) == pytest.approx(1.0 / np.linalg.det(var),
                                                          abs=1e-12)


def test_determinant_of_window_scales():
    for d in (0.0, 0.5, 1.0):
        scale = SlidingScale.from_rule(TieBreaker(d))
        u = (1 - d * d) / 2
        assert moment_determinant(scale) == pytest.approx(
            (1 - 3 * u * u) * (1.0 / 3.0 - u * u), abs=1e-9)


def test_variances_match_full_covariance():
    rng = np.random.default_rng(33)
    for _ in range(8):
        scale = balanced_monotone_scale(rng)
        mom = sliding_moments(scale)
        level, slope = sliding_variances(mom.zx_mean, mom.zx2_mean)
        var = variances_sliding(scale)
        full = full_covariance_sliding(scale)
        assert var.var_level == pytest.approx(level, rel=1e-12)
        assert var.var_slope == pytest.approx(slope, rel=1e-12)
        assert full.var("beta2") == pytest.approx(level, rel=1e-12)
        assert full.var("beta3") == pytest.approx(slope, rel=1e-12)


def test_unbalanced_scale_rejected():
    # p rises from 0.5 to 0.9: E[z] = 0.4, E[zx] = 2/15, E[zx^2] = 2/15.
    lopsided = SlidingScale.from_table([-1.0, 1.0], [0.5, 0.9])
    mom = sliding_moments(lopsided)
    np.testing.assert_allclose((mom.z_mean, mom.zx_mean, mom.zx2_mean),
                               (0.4, 2.0 / 15.0, 2.0 / 15.0), rtol=0, atol=1e-15)
    with pytest.raises(DomainError):
        variances_sliding(lopsided)
    with pytest.raises(DomainError):
        moment_determinant(lopsided)
    # but the full covariance handles imbalance exactly
    full = full_covariance_sliding(lopsided)
    assert full.var("beta2") > 0


def test_absolute_value_scale_frozen():
    mom = sliding_moments(ABS_SCALE)
    assert mom.zx_mean == pytest.approx(0.0, abs=1e-9)
    assert mom.zx2_mean == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert moment_determinant(ABS_SCALE) == pytest.approx(0.25, abs=1e-9)
    var = variances_sliding(ABS_SCALE)
    assert var.var_level == pytest.approx(1.0, abs=1e-8)
    assert var.var_slope == pytest.approx(4.0, abs=1e-8)
    full = full_covariance_sliding(ABS_SCALE)
    assert full.cov("beta1", "beta3") == pytest.approx(-2.0, abs=1e-8)
    # with E[z] = E[zx] = 0 the level coefficients decouple entirely
    assert full.cov("beta0", "beta2") == pytest.approx(0.0, abs=1e-8)
    assert full.cov("beta0", "beta3") == pytest.approx(0.0, abs=1e-8)


def test_absolute_value_counterexample():
    """Symmetrizing helps the slopes but can hurt their sum.

    The even moment of |x| couples b1 and b3 with a negative sign, which
    happens to cancel inside Var(b1 + b3); removing it raises that
    variance from 4 to 6 even as both individual variances stay put.
    """
    w = np.array([0.0, 1.0, 0.0, 1.0])
    before = full_covariance_sliding(ABS_SCALE)
    after = full_covariance_sliding(symmetrize(ABS_SCALE))
    assert before.quadratic_form(w) == pytest.approx(4.0, abs=1e-8)
    assert after.quadratic_form(w) == pytest.approx(6.0, abs=1e-8)
    assert after.quadratic_form(w) > before.quadratic_form(w) + 1.0


def test_symmetrize_balances_and_helps():
    rng = np.random.default_rng(7)
    for _ in range(20):
        scale = balanced_monotone_scale(rng)
        sym = symmetrize(scale)
        mom = sliding_moments(scale)
        mom_sym = sliding_moments(sym)
        assert abs(mom_sym.z_mean) <= 1e-9
        assert abs(mom_sym.zx2_mean) <= 1e-9
        assert mom_sym.zx_mean == pytest.approx(mom.zx_mean, abs=1e-9)
        assert moment_determinant(sym) >= moment_determinant(scale) - 1e-10
        assert variances_sliding(sym).var_slope \
            <= variances_sliding(scale).var_slope + 1e-8


def test_equivalent_tiebreaker_roundtrip():
    for d in (0.0, 0.3, 0.6, 1.0):
        scale = SlidingScale.from_rule(TieBreaker(d))
        assert equivalent_tiebreaker(scale) == pytest.approx(
            d, abs=1e-7)


def test_equivalent_tiebreaker_matches_slope_variance():
    # A symmetrized scale has the same slope precision as its width-
    # equivalent window rule.
    rng = np.random.default_rng(50)
    for _ in range(5):
        sym = symmetrize(balanced_monotone_scale(rng))
        d = equivalent_tiebreaker(sym)
        assert variances_sliding(sym).var_slope == pytest.approx(
            covariance_uniform(d).var("beta3"), rel=1e-6)


def test_equivalent_tiebreaker_rejects_reversed_scales():
    reversed_scale = SlidingScale.from_table([-1.0, 1.0], [1.0, 0.0])
    with pytest.raises(DomainError):
        equivalent_tiebreaker(reversed_scale)


def test_symmetrize_type_check():
    with pytest.raises(DomainError):
        symmetrize(TieBreaker(0.5))


@pytest.mark.parametrize("call", [moment_determinant, variances_sliding,
                                  full_covariance_sliding, equivalent_tiebreaker,
                                  symmetrize])
@pytest.mark.parametrize("bad", [TieBreaker(0.5), (0.0, 0.25, 0.0), None])
def test_sliding_functions_take_only_scales(call, bad):
    with pytest.raises(DomainError, match="SlidingScale"):
        call(bad)


def test_one_arm_scale_is_degenerate():
    # Everyone treated: B = A, so the Schur complement vanishes.
    with pytest.raises(DegenerateDesignError):
        full_covariance_sliding(SlidingScale.from_table([-1, 1], [1, 1]))
