import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiebreak.designs import TieBreaker
from tiebreak.errors import DomainError
from tiebreak.moments import design_moments
from tiebreak.quadratic import covariance_quadratic, var_gain_quadratic

from helpers import (QUADRATIC_GROUPED_POSITION, quadratic_adjugate,
                     quadratic_block, quadratic_covariance)

# Natural-order positions of the even group (b0, b3, b4).
EVEN = (0, 3, 4)


def natural_order_gram(delta):
    """The 6x6 Gram over regressors ordered (1, x, z, zx, x^2, zx^2)."""
    grouped = np.zeros((6, 6))
    grouped[:3, :3] = grouped[3:, 3:] = quadratic_block(delta)
    pos = QUADRATIC_GROUPED_POSITION
    return grouped[np.ix_(pos, pos)]


def engine_block(delta):
    """The Gram block E over (1, zx, x^2) from the engine's moments."""
    x, w = design_moments(TieBreaker(delta))
    return np.array([[x[0], w[1], x[2]],
                     [w[1], x[2], w[3]],
                     [x[2], w[3], x[4]]])


def test_moment_block_is_hilbert_at_sharp_cutoff():
    hilbert = np.array([[1.0, 1 / 2, 1 / 3],
                        [1 / 2, 1 / 3, 1 / 4],
                        [1 / 3, 1 / 4, 1 / 5]])
    np.testing.assert_allclose(engine_block(0.0), hilbert, atol=1e-15)


def test_xtx_block_structure():
    # The inverse of the engine's covariance, in grouped order, is block
    # diagonal with the same block twice.
    pos = QUADRATIC_GROUPED_POSITION
    inv = np.empty((6, 6))
    inv[np.ix_(pos, pos)] = np.linalg.inv(covariance_quadratic(0.6).matrix)
    np.testing.assert_allclose(inv[:3, :3], inv[3:, 3:], atol=1e-12)
    np.testing.assert_allclose(inv[:3, 3:], 0.0, atol=1e-12)
    np.testing.assert_allclose(inv[:3, :3], quadratic_block(0.6), atol=1e-12)
    with pytest.raises(DomainError):
        covariance_quadratic(1.3)


def test_determinant_frozen_values():
    for delta, want in ((0.0, 1.0 / 2160.0), (1.0, 4.0 / 135.0)):
        assert quadratic_adjugate(delta)[1] == pytest.approx(want, abs=1e-15)
        assert np.linalg.det(engine_block(delta)) == pytest.approx(want, abs=1e-15)
        even = covariance_quadratic(delta).matrix[np.ix_(EVEN, EVEN)]
        assert 1.0 / np.linalg.det(even) == pytest.approx(want, rel=1e-12)


def test_adjugate_identity_on_grid():
    for delta in np.linspace(0.0, 1.0, 101):
        m, d = quadratic_adjugate(delta)
        np.testing.assert_allclose((m / d) @ engine_block(delta), np.eye(3),
                                   atol=1e-10)


def test_center_entry_constant():
    # The adjugate's centre entry is 4/45 at every width, so
    # N Var(b3) = 4 / (45 D).
    for delta in (0.0, 0.33, 0.77, 1.0):
        d = np.linalg.det(engine_block(delta))
        assert covariance_quadratic(delta).var("beta3") * d == pytest.approx(
            4.0 / 45.0, rel=1e-12)


def test_covariance_frozen_values():
    sharp = covariance_quadratic(0.0)
    assert sharp.var("beta3") == pytest.approx(192.0, abs=1e-9)
    rct = covariance_quadratic(1.0)
    assert rct.var("beta2") == pytest.approx(2.25, abs=1e-12)
    assert rct.var("beta3") == pytest.approx(3.0, abs=1e-12)
    assert rct.var("beta4") == pytest.approx(11.25, abs=1e-12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, 1.0))
def test_covariance_matches_adjugate_closed_form(delta):
    want = quadratic_covariance(delta)
    got = covariance_quadratic(delta).matrix
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())


def test_covariance_is_gram_inverse():
    for delta in (0.0, 0.2, 0.5, 0.9, 1.0):
        cov = covariance_quadratic(delta)
        np.testing.assert_allclose(cov.matrix @ natural_order_gram(delta),
                                   np.eye(6), atol=1e-9)


def test_group_couplings_only():
    cov = covariance_quadratic(0.4)
    # Coefficients couple within their symmetry group, never across.
    even = ("beta0", "beta3", "beta4")
    odd = ("beta2", "beta1", "beta5")
    for a in even:
        for b in odd:
            assert cov.cov(a, b) == 0.0


def test_var_gain_quadratic():
    assert var_gain_quadratic(1.0, 0.0) == pytest.approx(9.0, abs=1e-12)
    cov = covariance_quadratic(0.5)
    for x in (-0.8, 0.0, 0.3, 1.0):
        w = np.array([0.0, 0.0, 2.0, 2.0 * x, 0.0, 2.0 * x * x])
        assert var_gain_quadratic(0.5, x) == pytest.approx(
            cov.quadratic_form(w), rel=1e-12)
    out = var_gain_quadratic(0.5, np.array([0.0, 0.5]))
    assert out.shape == (2,)


def test_quadratic_variances_dominate_twoline():
    # Guarding against curvature costs precision at every window width.
    from tiebreak.twoline import covariance_uniform
    for delta in (0.0, 0.3, 0.7, 1.0):
        quad = covariance_quadratic(delta)
        two = covariance_uniform(delta, full=True)
        for label in ("beta0", "beta1", "beta2", "beta3"):
            assert quad.var(label) >= two.var(label) - 1e-12
