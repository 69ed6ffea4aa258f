"""Two-line analysis under a sliding treatment probability p(x).

A scale that rises with x generalizes the window rules: the expected arm
at x is 2 p(x) - 1, and the fit's precision depends on the scale only
through its first three moments against powers of x. The central object
is the determinant of the (z, zx) moment matrix; symmetrizing a balanced
scale never shrinks it, and never hurts the slope variances, though it
can hurt other functionals of the fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CoefCovariance, moment_covariance
from .designs import SlidingScale
from .errors import DomainError
from .moments import _scale_moments

_BALANCE_TOL = 1e-6


def _require_balanced(w_mom: np.ndarray):
    if abs(w_mom[0]) > _BALANCE_TOL:
        raise DomainError(
            "scale allocates unequal arms (|E z| = %.3g); the closed forms "
            "assume a balanced scale" % abs(w_mom[0]))


def moment_determinant(scale: SlidingScale) -> float:
    """det of the (z, zx) moment matrix for a balanced scale.

    With u = E[zx] and v = E[zx^2] this is 1/3 - 2 u^2 - 3 v^2 + 3 u^4.
    Larger is better: both slope variances carry it in the denominator.
    """
    _, w_mom = _scale_moments(scale)
    _require_balanced(w_mom)
    u, v = float(w_mom[1]), float(w_mom[2])
    return 1.0 / 3.0 - 2.0 * u * u - 3.0 * v * v + 3.0 * u ** 4


@dataclass(frozen=True)
class SlidingVariances:
    """The two distinct scaled variances of a balanced sliding design."""

    var_level: float  # N Var(b0) = N Var(b2)
    var_slope: float  # N Var(b1) = N Var(b3)


def variances_sliding(scale: SlidingScale) -> SlidingVariances:
    """Scaled variances under a balanced scale.

    N Var(b1) = N Var(b3) = (1 - 3 u^2)/det and N Var(b0) = N Var(b2)
    = (1/3 - u^2 - 3 v^2)/det, with u = E[zx], v = E[zx^2], read off
    the full covariance.
    """
    x_mom, w_mom = _scale_moments(scale)
    _require_balanced(w_mom)
    cov = moment_covariance(x_mom, w_mom)
    return SlidingVariances(var_level=cov.var("beta0"), var_slope=cov.var("beta1"))


def full_covariance_sliding(scale: SlidingScale) -> CoefCovariance:
    """Full 4x4 scaled covariance of the two-line fit under a scale.

    design_covariance(scale): exact for any scale, balanced or not, via
    the Schur complement of the design Gram matrix. For balanced scales
    the diagonal reproduces variances_sliding; a non-zero E[zx^2] couples
    the slopes b1 and b3 (and the levels b0 and b2), which the variances
    alone do not show. A scale that puts everyone on one arm raises
    DegenerateDesignError.
    """
    return moment_covariance(*_scale_moments(scale))


def symmetrize(scale: SlidingScale) -> SlidingScale:
    """Replace p(x) by (p(x) + 1 - p(-x))/2.

    Forces exact arm balance and kills the even moment E[zx^2] while
    leaving E[zx] alone. For a balanced scale this weakly increases the
    moment determinant and weakly decreases both slope variances. It is
    not a free lunch for every target: with p(x) = |x| the variance of
    b1 + b3 rises from 4 to 6, because the coupling the even moment
    induced happened to help that particular sum.

    The result satisfies p(x) + p(-x) = 1 pointwise. A tabulated scale
    gives a table again, on the union of its knots and their reflections,
    where the identity is exact under linear interpolation.
    """
    if not isinstance(scale, SlidingScale):
        raise DomainError("symmetrize expects a SlidingScale")
    if scale.table is not None:
        knots = np.union1d(scale.table[0], -scale.table[0])
        vals = 0.5 * (scale(knots) + 1.0 - scale(-knots))
        return SlidingScale.from_table(knots, vals)
    return SlidingScale(lambda x: 0.5 * (scale(x) + 1.0 - scale(-np.asarray(x, dtype=float))),
                        breakpoints=scale.breakpoints + tuple(-b for b in scale.breakpoints))


def equivalent_tiebreaker(scale: SlidingScale) -> float:
    """Window width of the fair-coin tie-breaker with the same E[zx].

    Solving (1 - delta^2)/2 = E[zx] gives delta = sqrt(1 - 2 E[zx]).
    Defined for E[zx] in [0, 1/2]; scales that weight low scorers more
    than high ones have no window counterpart.
    """
    u = float(_scale_moments(scale)[1][1])
    if not 0.0 <= u <= 0.5 + 1e-12:
        raise DomainError("no equivalent window: E[zx] must lie in [0, 1/2]")
    return float(np.sqrt(max(0.0, 1.0 - 2.0 * min(u, 0.5))))
