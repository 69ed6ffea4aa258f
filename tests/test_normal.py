"""The standard normal quantile as the package uses it.

The Gaussian scale takes its quantiles from `statistics.NormalDist` in
exactly two places: `AssignmentDistribution.points` (the midpoints
Phi^-1((i - 1/2)/n)) and `central_window` (tau = Phi^-1((1 + frac)/2)).
These tests hold both, and `gaussian_zx_mean` built on the window, to
independent oracles.
"""

import math

import numpy as np
import pytest
import scipy.special as sps

from tiebreak.designs import AssignmentDistribution
from tiebreak.errors import DomainError
from tiebreak.moments import gaussian_zx_mean

from helpers import bisect_normal_ppf

GAUSSIAN = AssignmentDistribution.standard_gaussian()


def _tau(frac):
    lo, hi = GAUSSIAN.central_window(frac)
    assert lo == -hi
    return hi


def test_ppf_against_bisection_oracle():
    for p in (0.01, 0.2, 0.5, 0.77, 0.975):
        tau = _tau(abs(2.0 * p - 1.0))
        z = tau if p >= 0.5 else -tau
        assert z == pytest.approx(bisect_normal_ppf(p), abs=2e-9)


def test_ppf_against_scipy_across_range():
    # Window edges reach into the upper tail up to the last float below 1.
    fracs = np.concatenate([
        np.linspace(0.0, 0.98, 500),
        1.0 - np.geomspace(2.3e-16, 2e-2, 200),
    ])
    ours = np.array([_tau(f) for f in fracs.tolist()])
    ref = sps.ndtri((1.0 + fracs) / 2.0)
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(ours), finite)
    scale = np.maximum(1.0, np.abs(ref[finite]))
    assert np.max(np.abs(ours[finite] - ref[finite]) / scale) < 1e-14
    # Design points reach into the lower tail down to 1/(2n).
    n = 4000
    pts = GAUSSIAN.points(n)
    ref = sps.ndtri((np.arange(1, n + 1) - 0.5) / n)
    assert np.max(np.abs(pts - ref) / np.maximum(1.0, np.abs(ref))) < 1e-14


def test_ppf_round_trip():
    # Above z of about 4.5, Phi(z) rounds to within an ulp of 1 and the
    # tail is unrecoverable from the fraction alone; below that the round
    # trip is limited only by the dp -> dz amplification 1/pdf(z).
    z = np.linspace(0.0, 4.0, 81)
    taus = [_tau(math.erf(v / math.sqrt(2.0))) for v in z.tolist()]
    np.testing.assert_allclose(taus, z, atol=2e-11)


def test_ppf_endpoints_and_center():
    assert GAUSSIAN.central_window(1.0) == (-math.inf, math.inf)
    assert GAUSSIAN.central_window(np.nextafter(1.0, 0.0)) == (-math.inf, math.inf)
    assert _tau(0.0) == 0.0
    assert GAUSSIAN.points(1)[0] == 0.0


def test_ppf_quartiles_symmetric():
    q = _tau(0.5)
    lower, upper = GAUSSIAN.points(2)
    assert lower == -upper == -q
    assert q == pytest.approx(0.6744897501960817, abs=1e-13)


def test_ppf_rejects_out_of_range():
    for bad in (-0.1, 1.1, np.nan):
        with pytest.raises(DomainError):
            GAUSSIAN.central_window(bad)
        with pytest.raises(DomainError):
            gaussian_zx_mean(bad)
    with pytest.raises(DomainError):
        gaussian_zx_mean(np.array([0.3, 2.0]))
    with pytest.raises(DomainError):
        GAUSSIAN.points(0)


def test_shapes_preserved():
    delta = np.array([[0.1, 0.5], [0.9, 0.3]])
    assert gaussian_zx_mean(delta).shape == (2, 2)
    assert isinstance(gaussian_zx_mean(0.3), float)
    assert all(isinstance(v, float) for v in GAUSSIAN.central_window(0.3))
    assert GAUSSIAN.points(7).shape == (7,)
