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
from .designs import TieBreaker


def covariance_quadratic(delta: float) -> CoefCovariance:
    """Scaled covariance of (b0, ..., b5) for the fair-coin window."""
    return design_covariance(TieBreaker(float(delta)), model=QUADRATIC)


def var_gain_quadratic(delta: float, x) -> np.ndarray | float:
    """Scaled variance of the effect estimate 2(b2 + b3 x + b5 x^2)."""
    cov = covariance_quadratic(delta).matrix
    x = np.asarray(x, dtype=float)
    flat = np.atleast_1d(x).astype(float)
    out = np.empty(flat.shape)
    for i, xi in enumerate(flat):
        c = np.array([0.0, 0.0, 2.0, 2.0 * xi, 0.0, 2.0 * xi * xi])
        out[i] = c @ cov @ c
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)
