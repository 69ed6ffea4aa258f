"""Analysis of the two-curve quadratic outcome model.

Adding x^2 and z x^2 terms to the two-line model guards against
curvature masquerading as a treatment effect. The regressors split into
an even group (1, zx, x^2) and an odd group (z, x, zx^2) under the joint
sign flip of x and z, so for a symmetric fair-coin window b3 couples
only with b0 and b4, and b1 only with b2 and b5.
"""

from __future__ import annotations

import numpy as np

from .covariance import QUADRATIC, CoefCovariance, design_covariance
from .designs import TieBreaker, _check_finite
from .moments import _finite_result


def covariance_quadratic(delta: float) -> CoefCovariance:
    """Scaled covariance of (b0, ..., b5) for the fair-coin window."""
    return design_covariance(TieBreaker(float(delta)), model=QUADRATIC)


def var_gain_quadratic(delta: float, x) -> np.ndarray | float:
    """Scaled variance of the effect estimate 2(b2 + b3 x + b5 x^2),
    c' Sigma c with c = (0, 0, 2, 2x, 0, 2x^2), for every x at once; a
    non-finite x, or one so large that the variance overflows, raises
    DomainError."""
    cov = covariance_quadratic(delta).matrix
    x = _check_finite(x, "x")
    c = np.zeros(x.shape + (6,))
    c[..., 2] = 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        c[..., 3] = 2.0 * x
        c[..., 5] = 2.0 * x * x
        out = (c[..., None, :] @ cov @ c[..., :, None])[..., 0, 0]
    return _finite_result(out)
