"""Large-sample analysis of the two-line outcome model.

The outcome is modelled as Y = b0 + b1 x + b2 z + b3 z x + noise, with x
the rank-transformed assignment variable and z in {-1, +1} the arm. The
treatment effect at x is 2(b2 + b3 x). With unit noise variance, the
scaled covariance N Var(bhat) of the least-squares fit depends on the
design only through the cross moments of (z, x), so every quantity here
is a short formula in those moments.

For the fair-coin tie-breaker the moments reduce to E[zx] = (1 - d^2)/2
and the covariance has short explicit entries; the scalar formulas below
(effect variance, efficiency, precision) are those entries. Every full
covariance comes from the one engine in covariance.py.
"""

from __future__ import annotations

import numpy as np

from .covariance import CoefCovariance, design_covariance
from .designs import (UNIFORM_RANK, AssignmentDistribution, IntervalRule,
                      TieBreaker, _check_finite)
from .errors import DomainError
from .moments import (_check_delta, _finite_result, central_zx_mean,
                      gaussian_zx_mean)

EFFECT_LABELS = ("beta2", "beta3")

_GAUSSIAN = AssignmentDistribution.standard_gaussian()


def _effects(cov: CoefCovariance, full: bool) -> CoefCovariance:
    """The whole covariance, or its (b2, b3) block, a principal block of
    an engine-built matrix and so exactly symmetric in turn."""
    return cov if full else CoefCovariance._trusted(EFFECT_LABELS, cov.matrix[2:, 2:].copy())


def covariance_uniform(delta: float, full: bool = False) -> CoefCovariance:
    """Scaled covariance for the fair-coin tie-breaker on uniform ranks.

    With f = (1 - delta^2)/2, the variances are N Var(b0) = N Var(b2)
    = 1/(1 - 3 f^2) and N Var(b1) = N Var(b3) = 3/(1 - 3 f^2); the only
    couplings are Cov(b0, b3) = Cov(b1, b2) = -3 f/(1 - 3 f^2). Pass
    full=True for the 4x4 matrix, otherwise the (b2, b3) block.
    """
    return _effects(design_covariance(TieBreaker(float(delta))), full)


def covariance_gaussian(delta: float, full: bool = False) -> CoefCovariance:
    """Scaled covariance when scores stay on their Gaussian scale.

    E[x^2] = 1 makes all four variances equal: N Var(b_j)
    = 1/(1 - f^2) with f = 2 phi(Phi^-1((1 + delta)/2)). The sharp
    cut-off (delta = 0) gives pi/(pi - 2), about 2.752, against 4 on the
    rank scale: Gaussian tails spread the forced arms further from the
    threshold and buy extrapolation leverage.
    """
    return _effects(design_covariance(TieBreaker(float(delta)), _GAUSSIAN), full)


def var_gain_at_x(delta, x, distribution: AssignmentDistribution | None = None):
    """Scaled variance of the estimated treatment effect 2(b2 + b3 x).

    On the rank scale this is 16 (1 + 3 x^2) / (1 + 3 delta^2 (2 - delta^2));
    on the Gaussian scale 4 (1 + x^2) / (1 - f^2). Broadcasts over delta
    and x; a non-finite x, or one so large that the variance overflows,
    raises DomainError.
    """
    delta = _check_delta(delta)
    x = _check_finite(x, "x")
    kind = (distribution or AssignmentDistribution.uniform_rank()).kind
    with np.errstate(over="ignore"):
        if kind == UNIFORM_RANK:
            out = (16.0 * (1.0 + 3.0 * x * x)
                   / (1.0 + 3.0 * delta * delta * (2.0 - delta * delta)))
        else:
            f = gaussian_zx_mean(delta)
            out = 4.0 * (1.0 + x * x) / (1.0 - f * f)
    return _finite_result(out)


def efficiency_vs_rdd(delta):
    """Variance of the sharp-cut-off effect estimate relative to width delta.

    Equals 1 + 3 delta^2 (2 - delta^2): randomizing everyone cuts the
    variance of the estimated effect fourfold, and a window of half the
    population already captures a factor 2.31.
    """
    delta = _check_delta(delta)
    return _finite_result(1.0 + 3.0 * delta * delta * (2.0 - delta * delta))


def gain(delta, beta3, beta0: float = 0.0):
    """Expected per-subject benefit of assignment, b0 + b3 (1 - delta^2)/2.

    The b3 term is the payoff from giving treatment preferentially to
    high scorers; widening the window erodes it. Broadcasts over its
    arguments; a non-finite b3 or b0, or a gain that overflows, raises
    DomainError.
    """
    delta = _check_delta(delta)
    beta3 = _check_finite(beta3, "beta3")
    beta0 = _check_finite(beta0, "beta0")
    with np.errstate(over="ignore"):
        return _finite_result(beta0 + beta3 * central_zx_mean(delta))


def experimentation_cost(delta, beta3, n: float = 1.0):
    """Shortfall of a width-delta window against the sharp cut-off, summed
    over n subjects: n b3 delta^2 / 2. Broadcasts over its arguments; a
    non-finite b3, an n that is not finite and positive, or a cost that
    overflows, raises DomainError."""
    delta = _check_delta(delta)
    beta3 = _check_finite(beta3, "beta3")
    n = _check_finite(n, "n")
    if np.any(n <= 0.0):
        raise DomainError("the cohort size n must be positive")
    with np.errstate(over="ignore"):
        return _finite_result(n * beta3 * delta * delta / 2.0)


def precision(delta):
    """Reciprocal of N Var(b3): 1/3 - ((1 - delta^2)/2)^2.

    Increases with delta; the fully randomized design attains 1/3.
    """
    delta = _check_delta(delta)
    f = central_zx_mean(delta)
    return _finite_result(1.0 / 3.0 - f * f)


def value(delta, beta3, lam, beta0: float = 0.0):
    """Gain plus lam times precision, the objective traded off by delta.
    Broadcasts over its arguments; a non-finite lam, or a value that
    overflows, raises DomainError."""
    lam = _check_finite(lam, "lam")
    if np.any(lam < 0.0):
        raise DomainError("the precision weight lam must be non-negative")
    with np.errstate(over="ignore"):
        return _finite_result(gain(delta, beta3, beta0) + lam * precision(delta))


def optimal_delta(beta3, lam):
    """Window width maximizing gain + lam * precision.

    The objective is quadratic in delta^2, giving a closed form: ratios
    r = b3/lam at or below 0 push to full randomization, r at or above 1
    to the sharp cut-off, and in between delta* = sqrt(1 - r), so
    delta* = sqrt(clip(1 - r, 0, 1)). Broadcasts over its arguments; a
    non-finite b3, or a lam that is not finite and positive, raises
    DomainError.
    """
    beta3 = _check_finite(beta3, "beta3")
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam) & (lam > 0.0)):
        raise DomainError("the precision weight lam must be positive")
    with np.errstate(over="ignore"):
        return _finite_result(np.sqrt(np.clip(1.0 - beta3 / lam, 0.0, 1.0)))


def min_delta_for_fraction(rho: float) -> float:
    """Smallest window giving at least rho of the attainable precision.

    precision(1) = 1/3 is the ceiling; solving precision(delta) = rho/3
    gives delta = sqrt(1 - 2 sqrt((1 - rho)/3)). Any rho below 1/4 is
    free, since even the sharp cut-off retains a quarter of the ceiling.
    """
    if not 0.25 <= rho <= 1.0:
        raise DomainError("rho must lie in [1/4, 1]")
    return float(np.sqrt(1.0 - 2.0 * np.sqrt((1.0 - rho) / 3.0)))


def noncentral_covariance(a: float, b: float, p: float = 0.5,
                          full: bool = False) -> CoefCovariance:
    """Scaled covariance for randomization on an arbitrary window (a, b).

    Off-centre windows make E[z] and E[z x^2] non-zero, which couples the
    two regression lines; the covariance comes from the Schur complement
    of the Gram matrix rather than a single scalar. Reduces exactly to
    covariance_uniform when a = -b and p = 1/2.
    """
    return _effects(design_covariance(IntervalRule(a, b, p)), full)
