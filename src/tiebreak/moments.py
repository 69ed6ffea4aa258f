"""Population moments of the running variable and of the expected arm.

Every large-sample covariance in this package is built from two moment
sequences, E[x^k] and E[w x^k] for k = 0..2 * degree, where w(x) =
2 p(x) - 1 is the expected arm at x. Window rules are integrated exactly
region by region: by antiderivatives on the uniform rank scale, and by
the truncated-normal recursion on Gaussian scores. Sliding scales use
one fixed composite Gauss-Legendre rule between breakpoints, which is
exact for tables and steps; halving the panels catches undeclared jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import (WINDOW_RULES, AssignmentDistribution, SlidingScale,
                      STANDARD_GAUSSIAN, ThreeLevelRule, UNIFORM_RANK, _check_distribution,
                      _step_levels)
from .errors import DomainError

# Each segment between breakpoints is split into _GL_PANELS equal panels
# with _GL_NODES.size Gauss-Legendre nodes each. A panel is exact for
# polynomials up to degree 15, so x^4 (2 p(x) - 1) is integrated exactly
# for tables (p linear between knots) and steps; smooth scales converge
# to rounding long before that.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_PANELS = 16
# A segment's moments move by rounding (under 1e-13) when a smooth scale's
# panels are halved, and by about a panel's mass across an undeclared jump.
_PANEL_TOL = 1e-10

# Highest moment order any model needs: the quadratic fit's Hankel
# matrices reach E[x^4].
_KMAX = 4

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class DesignMoments:
    """First cross moments of (z, x): E[z], E[zx] and E[zx^2]."""

    z_mean: float
    zx_mean: float
    zx2_mean: float


def _check_delta(delta) -> np.ndarray:
    """delta as an array, refused unless every entry lies in [0, 1]."""
    arr = np.asarray(delta, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise DomainError("delta must lie in [0, 1]")
    return arr


def _finite_result(out):
    """out, as a float for 0-d input, refused unless every entry is
    finite: finite arguments far outside the unit range can overflow."""
    out = np.asarray(out)
    if not np.isfinite(out).all():
        raise DomainError("the result overflows the float range")
    return float(out) if out.ndim == 0 else out


def central_zx_mean(delta):
    """E[zx] for a symmetric central window of width delta: (1 - delta^2)/2."""
    delta = _check_delta(delta)
    return _finite_result((1.0 - delta * delta) / 2.0)


def gaussian_zx_mean(delta):
    """E[zx] when x is standard Gaussian and the central fraction delta
    of subjects is randomized: 2 phi(tau), tau the window's upper edge."""
    delta = _check_delta(delta)
    gaussian = AssignmentDistribution.standard_gaussian()
    tau = np.array([gaussian.central_window(d)[1] for d in delta.ravel().tolist()])
    return _finite_result((2.0 * np.exp(-0.5 * tau * tau) / _SQRT2PI).reshape(delta.shape))


def _uniform_region(lo: float, hi: float) -> np.ndarray:
    """E[x^k; lo < x < hi] for x uniform on (-1, 1)."""
    return np.array([(hi ** (k + 1) - lo ** (k + 1)) / (2 * (k + 1))
                     for k in range(_KMAX + 1)])


def _gaussian_upper(t: float) -> np.ndarray:
    """E[x^k; x > t] for standard Gaussian x, by the recursion
    M_k(t) = t^(k-1) phi(t) + (k - 1) M_(k-2)(t)."""
    if math.isinf(t):
        if t > 0.0:
            return np.zeros(_KMAX + 1)
        return np.array([0.0 if k % 2 else float(math.prod(range(k - 1, 0, -2)))
                         for k in range(_KMAX + 1)])
    phi = math.exp(-0.5 * t * t) / _SQRT2PI
    out = [0.5 * math.erfc(t / _SQRT2), phi]
    for k in range(2, _KMAX + 1):
        out.append(t ** (k - 1) * phi + (k - 1) * out[k - 2])
    return np.array(out)


# Moments of the whole population on each scale, shared by every call.
_UNIFORM_FULL = _uniform_region(-1.0, 1.0)
_GAUSSIAN_FULL = _gaussian_upper(-math.inf)
_UNIFORM_FULL.setflags(write=False)
_GAUSSIAN_FULL.setflags(write=False)


def _panel_terms(scale: SlidingScale, cuts: np.ndarray, panels: int):
    """Nodes x and weights times w(x), shaped (node, segment, panel)."""
    steps = np.linspace(0.0, 1.0, panels + 1)
    edges = cuts[:-1, None] + (cuts[1:] - cuts[:-1])[:, None] * steps
    lo, hi = edges[:, :-1], edges[:, 1:]
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi) + half * _GL_NODES[:, None, None]
    arms = 2.0 * scale(x.ravel()).reshape(x.shape) - 1.0
    return x, half * _GL_WEIGHTS[:, None, None] * arms


def _segment_sums(x: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    """E[w x^k] on each segment, shape (segment, k)."""
    powers = np.multiply.accumulate([np.ones_like(x)] + [x] * _KMAX)
    return 0.5 * np.einsum("nsp,knsp->sk", weighted, powers)


def _scale_w_moments(scale: SlidingScale) -> np.ndarray:
    """E[w x^k] for x uniform on (-1, 1) under a sliding scale.

    A segment whose moments move by more than _PANEL_TOL when its panels
    are halved has an undeclared jump or kink and raises DomainError.
    Tables, linear between their knots, are exact and skip the check.
    """
    cuts = np.union1d([-1.0, 1.0], [b for b in scale.breakpoints if -1.0 < b < 1.0])
    sums = _segment_sums(*_panel_terms(scale, cuts, _GL_PANELS))
    if scale.table is None:
        gap = np.abs(sums - _segment_sums(
            *_panel_terms(scale, cuts, _GL_PANELS // 2))).max(axis=1)
        if np.any(gap > _PANEL_TOL):
            j = int(np.argmax(gap > _PANEL_TOL))
            raise DomainError(f"scale moments on segment [{cuts[j]:g}, {cuts[j + 1]:g}] "
                              f"move by {gap[j]:.2g} when the panels are halved; "
                              "declare its jumps and kinks as breakpoints")
    return sums.sum(axis=0)


def design_moments(rule, distribution: AssignmentDistribution | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(E[x^k], E[w x^k]) for k = 0..4, with w the expected arm.

    Covers the window rules on the uniform rank and standard-gaussian
    scales and sliding scales on the rank scale.
    """
    dist = _check_distribution(distribution)
    if isinstance(rule, SlidingScale):
        if dist.kind == STANDARD_GAUSSIAN:
            raise DomainError("a sliding scale is defined on the rank scale "
                              "[-1, 1] and has no moments on Gaussian scores")
        return _UNIFORM_FULL, _scale_w_moments(rule)
    if not isinstance(rule, WINDOW_RULES):
        raise DomainError(f"no moment formulas for {type(rule).__name__}")
    lo, hi, *levels = _step_levels(rule, dist)
    arms = [2.0 * level - 1.0 for level in levels]
    if isinstance(rule, ThreeLevelRule):
        # 1 - 2 epsilon, the exact negative of the bottom arm, so that the
        # even moments E[w], E[w x^2], E[w x^4] cancel to exactly 0.
        arms[2] = -arms[0]
    if dist.kind == UNIFORM_RANK:
        full = _UNIFORM_FULL
        regions = (_uniform_region(-1.0, lo), _uniform_region(lo, hi),
                   _uniform_region(hi, 1.0))
    else:
        full = _GAUSSIAN_FULL
        bottom = (-1.0) ** np.arange(_KMAX + 1) * _gaussian_upper(-lo)
        top = _gaussian_upper(hi)
        regions = (bottom, full - bottom - top, top)
    w = sum(arm * region for arm, region in zip(arms, regions))
    return full, w


def _scale_moments(scale):
    """(E[x^k], E[w x^k]) of a sliding scale, anything else refused."""
    if not isinstance(scale, SlidingScale):
        raise DomainError("expected a SlidingScale")
    return design_moments(scale)


def sliding_moments(scale: SlidingScale) -> DesignMoments:
    """Moments of a sliding scale on the uniform rank scale.

    The scale's breakpoints (knots of a table, window edges of a step
    rule) bound the Gauss-Legendre panels, so no node sits on a jump or
    kink; one left undeclared raises DomainError.
    """
    _, w = _scale_moments(scale)
    return DesignMoments(float(w[0]), float(w[1]), float(w[2]))
