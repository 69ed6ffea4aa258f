"""Shared oracles for the test suite.

Everything here is deliberately independent of the package internals:
least squares by modified Gram-Schmidt, Gram matrices by double loops,
the normal quantile by bisecting a Simpson-integrated CDF, random
monotone allocation scales built from scratch, the Monte Carlo replicate
loop fitted one replicate at a time, and the paper's hand-derived closed
forms for the window rules. Tests compare package
output against these, not against other package output.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from tiebreak import mc
from tiebreak.covariance import _schur_pair, model_spec
from tiebreak.designs import SlidingScale
from tiebreak.errors import DegenerateDesignError


def mgs_lstsq(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares via modified Gram-Schmidt QR."""
    a = np.array(design, dtype=float)
    n, k = a.shape
    q = np.zeros((n, k))
    r = np.zeros((k, k))
    for j in range(k):
        v = a[:, j].copy()
        for i in range(j):
            r[i, j] = q[:, i] @ v
            v -= r[i, j] * q[:, i]
        r[j, j] = np.linalg.norm(v)
        q[:, j] = v / r[j, j]
    rhs = q.T @ y
    out = np.zeros(k)
    for i in range(k - 1, -1, -1):
        out[i] = (rhs[i] - r[i, i + 1:] @ out[i + 1:]) / r[i, i]
    return out


def brute_weighted_gram(features: np.ndarray, weights: np.ndarray) -> np.ndarray:
    n, d = features.shape
    out = np.zeros((d, d))
    for i in range(n):
        for a in range(d):
            for b in range(d):
                out[a, b] += weights[i] * features[i, a] * features[i, b]
    return out


def brute_design(features: np.ndarray, theta, delta: float, p: float):
    """A threshold design from its definition: the expected arms w (+1 at
    or above delta, -1 at or below -delta, 2p - 1 between), the blocks
    A = F'F and B = F'(wF), and the inverse of the joint Gram
    [[A, B], [B, A]] (None when it is singular)."""
    f = np.asarray(features, dtype=float)
    s = f @ np.asarray(theta, dtype=float)
    w = np.where(s >= delta, 1.0, np.where(s <= -delta, -1.0, 2.0 * p - 1.0))
    a = f.T @ f
    b = f.T @ (w[:, None] * f)
    try:
        joint = np.linalg.inv(np.block([[a, b], [b, a]]))
    except np.linalg.LinAlgError:
        joint = None
    return w, a, b, joint


def loop_arms(rng: np.random.Generator, probs: np.ndarray, scheme: str) -> np.ndarray:
    """One replicate's arms, one uniform per subject, subject by subject:
    simple-random treats where the uniform is below Pr(z = +1 | x);
    stratified-pairs walks the fair-coin window pair by pair, the pair's
    first uniform treating its first member (and the second the control)
    or the other way round, and an odd window's last subject tosses its
    own coin."""
    us = rng.random(probs.size)
    if scheme == mc.SIMPLE_RANDOM:
        return np.where(us < probs, 1.0, -1.0)
    z = np.where(probs >= 1.0, 1.0, -1.0)
    idx = np.flatnonzero(probs == 0.5)
    for k in range(0, idx.size - 1, 2):
        first, second = idx[k], idx[k + 1]
        z[first], z[second] = (1.0, -1.0) if us[first] < 0.5 else (-1.0, 1.0)
    if idx.size % 2:
        z[idx[-1]] = 1.0 if us[idx[-1]] < 0.5 else -1.0
    return z


def loop_replicate_fits(config: mc.SimConfig):
    """The Monte Carlo replicate loop with one least-squares fit per replicate.

    Per replicate: a new Philox keyed (seed, rep), independent of the
    simulator's one re-keyed Philox per run, then the arm draw from
    the rule's probabilities by loop_arms, then the unit-noise draw (the
    outcomes; the simulator applies sigma only to its finished report), then the
    joint fit from F'(zF), F'y and (zF)'y through a 2-D Schur inverse, a
    refused design caught and marked. Returns the coefficients in natural
    order, by the model's permutation (NaN rows where degenerate), the
    degenerate mask, and the condition number of each realized Schur
    complement A - B A^-1 B.
    """
    x = config.distribution.points(config.n)
    f = mc.design_matrix(x, config.model)
    order = model_spec(config.model)[1]
    probs = mc._arm_probabilities(x, config.rule, config.distribution, config.scheme)
    a = f.T @ f
    d = f.shape[1]
    coefs = np.full((config.reps, 2 * d), np.nan)
    degenerate = np.zeros(config.reps, dtype=bool)
    schur_cond = np.empty(config.reps)
    for rep in range(config.reps):
        rng = np.random.Generator(np.random.Philox(key=[config.seed, rep]))
        z = loop_arms(rng, probs, config.scheme)
        y = rng.standard_normal(config.n)
        zf = z[:, None] * f
        b = f.T @ zf
        schur_cond[rep] = np.linalg.cond(a - b @ np.linalg.solve(a, b))
        try:
            var, cross = _schur_pair(a, b)
        except DegenerateDesignError:
            degenerate[rep] = True
            continue
        cf, cz = f.T @ y, zf.T @ y
        coef = np.concatenate([var @ cf + cross @ cz, cross.T @ cf + var @ cz])
        coefs[rep] = coef if order is None else coef[list(order)]
    return coefs, degenerate, schur_cond


def simpson_normal_cdf(z: float, panels: int = 400) -> float:
    """Phi(z) by composite Simpson over [0, z], plus one half."""
    if z == 0.0:
        return 0.5
    xs = np.linspace(0.0, z, 2 * panels + 1)
    pdf = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    h = (z - 0.0) / (2 * panels)
    total = pdf[0] + pdf[-1] + 4.0 * pdf[1:-1:2].sum() + 2.0 * pdf[2:-1:2].sum()
    return 0.5 + h * total / 3.0


def bisect_normal_ppf(p: float, tol: float = 1e-11) -> float:
    """Invert the Simpson CDF by bisection on [-12, 12]."""
    lo, hi = -12.0, 12.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if simpson_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_monotone_table(rng: np.random.Generator,
                          knots: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """A random non-decreasing probability table on knots inside (-1, 1)."""
    while True:
        xs = np.sort(rng.uniform(-1.0, 1.0, size=knots))
        if np.min(np.diff(xs)) > 1e-6:
            break
    steps = rng.uniform(size=knots)
    ps = np.concatenate([[0.0], np.cumsum(steps[1:])])
    ps = ps / ps[-1]
    lo = rng.uniform(0.0, 0.3)
    hi = rng.uniform(0.7, 1.0)
    return xs, lo + (hi - lo) * ps


def _clipped_table(xs, ps, shift):
    """Knots and values of clip(p + shift, 0, 1) on [-1, 1], with extra
    knots wherever a segment crosses 0 or 1, so the result is exactly
    piecewise linear on its knots."""
    base_x = np.concatenate([[-1.0], xs, [1.0]])
    base_q = np.concatenate([[ps[0]], ps, [ps[-1]]]) + shift
    out_x = [base_x[0]]
    for k in range(len(base_x) - 1):
        x0, x1 = base_x[k], base_x[k + 1]
        q0, q1 = base_q[k], base_q[k + 1]
        crossings = []
        for level in (0.0, 1.0):
            if (q0 - level) * (q1 - level) < 0.0:
                crossings.append(x0 + (x1 - x0) * (level - q0) / (q1 - q0))
        for t in sorted(crossings):
            if t > out_x[-1] + 1e-12:
                out_x.append(t)
        if x1 > out_x[-1] + 1e-12:
            out_x.append(x1)
    out_x = np.asarray(out_x)
    vals = np.clip(np.interp(out_x, base_x, base_q), 0.0, 1.0)
    return out_x, vals


def _allocation(xs, ps):
    """E[z] = integral of p over [-1, 1] minus 1, exact for a table."""
    return float(np.trapezoid(ps, xs)) - 1.0


def balanced_monotone_scale(rng: np.random.Generator) -> SlidingScale:
    """A random monotone scale projected to equal expected arms.

    Shifts the table by a constant (with clipping) and bisects the shift
    until the allocation integral vanishes; the clip crossings become
    table knots, so the projected scale is still an exact table.
    """
    xs, ps = random_monotone_table(rng)
    lo, hi = -1.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _allocation(*_clipped_table(xs, ps, mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    out_x, vals = _clipped_table(xs, ps, 0.5 * (lo + hi))
    return SlidingScale.from_table(out_x, vals)


# -- Hand-derived closed forms ------------------------------------------------
#
# The covariance engine inverts the Gram matrix numerically; these are the
# explicit formulas it must reproduce. Moments are E[z x^k] with z the arm
# and x uniform on (-1, 1) unless stated otherwise.

def interval_moments(a: float, b: float, p: float) -> tuple[float, float, float]:
    """(E[z], E[zx], E[zx^2]) for randomization on (a, b) with coin p,
    from E[z x^k] = (1/2)[int_b^1 x^k + (2p - 1) int_a^b x^k - int_-1^a x^k]."""
    q = 2.0 * p - 1.0
    return (-(a + b) / 2.0 + q * (b - a) / 2.0,
            0.5 - (a * a + b * b) / 4.0 + q * (b * b - a * a) / 4.0,
            -(a ** 3 + b ** 3) / 6.0 + q * (b ** 3 - a ** 3) / 6.0)


def three_level_zx_mean(delta: float, epsilon: float) -> float:
    """E[zx] of the three-level rule: (1 - 2 epsilon)(1 - delta^2)/2."""
    return (1.0 - 2.0 * epsilon) * (1.0 - delta * delta) / 2.0


def central_zx3_mean(delta: float) -> float:
    """E[zx^3] of a symmetric central window: (1 - delta^4)/4."""
    return (1.0 - delta ** 4) / 4.0


def sliding_variances(zx_mean: float, zx2_mean: float) -> tuple[float, float]:
    """(N Var(b0), N Var(b1)) under a balanced scale on ranks, with
    u = E[zx], v = E[zx^2] and det = 1/3 - 2 u^2 - 3 v^2 + 3 u^4:
    (1/3 - u^2 - 3 v^2)/det and (1 - 3 u^2)/det. By the arm symmetry
    N Var(b2) and N Var(b3) are the same two numbers."""
    u, v = zx_mean, zx2_mean
    det = 1.0 / 3.0 - 2.0 * u * u - 3.0 * v * v + 3.0 * u ** 4
    return (1.0 / 3.0 - u * u - 3.0 * v * v) / det, (1.0 - 3.0 * u * u) / det


def twoline_gram(z_moments, x2_mean: float = 1.0 / 3.0) -> np.ndarray:
    """Population Gram matrix of (1, x, z, zx) from (E z, E zx, E zx^2)."""
    z0, z1, z2 = z_moments
    d = np.array([[1.0, 0.0], [0.0, x2_mean]])
    c = np.array([[z0, z1], [z1, z2]])
    return np.block([[d, c], [c, d]])


def _two_line_entries(v_even: float, v_odd: float, coupling: float) -> np.ndarray:
    """N Var of (b0, b1, b2, b3) for a symmetric window: Var(b0) = Var(b2),
    Var(b1) = Var(b3), and Cov(b0, b3) = Cov(b1, b2) the only coupling."""
    mat = np.diag([v_even, v_odd, v_even, v_odd])
    mat[0, 3] = mat[3, 0] = mat[1, 2] = mat[2, 1] = coupling
    return mat


def uniform_tiebreaker_covariance(delta: float) -> np.ndarray:
    """The fair-coin window on ranks: with f = (1 - delta^2)/2, variances
    1/(1 - 3 f^2) and 3/(1 - 3 f^2), couplings -3 f/(1 - 3 f^2)."""
    f = (1.0 - delta * delta) / 2.0
    denom = 1.0 - 3.0 * f * f
    return _two_line_entries(1.0 / denom, 3.0 / denom, -3.0 * f / denom)


def gaussian_tiebreaker_covariance(delta: float) -> np.ndarray:
    """The fair-coin window on Gaussian scores: with f = 2 phi(Phi^-1(
    (1 + delta)/2)), every variance is 1/(1 - f^2), couplings -f/(1 - f^2)."""
    f = 0.0
    upper = (1.0 + delta) / 2.0
    # Just below delta = 1 the half-sum rounds to 1, where inv_cdf raises.
    if upper < 1.0:
        normal = NormalDist()
        f = 2.0 * normal.pdf(normal.inv_cdf(upper))
    denom = 1.0 - f * f
    return _two_line_entries(1.0 / denom, 1.0 / denom, -f / denom)


def quadratic_block(delta: float) -> np.ndarray:
    """The 3x3 Gram block E over (1, zx, x^2), equal to the one over
    (z, x, zx^2), for the fair-coin window; Hilbert at delta = 0."""
    f1, f3 = (1.0 - delta * delta) / 2.0, central_zx3_mean(delta)
    return np.array([[1.0, f1, 1.0 / 3.0],
                     [f1, 1.0 / 3.0, f3],
                     [1.0 / 3.0, f3, 1.0 / 5.0]])


def quadratic_adjugate(delta: float) -> tuple[np.ndarray, float]:
    """Adjugate M and determinant D of quadratic_block, so E^-1 = M / D.

    D shrinks from 4/135 at full randomization to the Hilbert
    determinant 1/2160 at the sharp cut-off.
    """
    f1, f3 = (1.0 - delta * delta) / 2.0, central_zx3_mean(delta)
    m = np.empty((3, 3))
    m[0, 0] = 1.0 / 15.0 - f3 * f3
    m[0, 1] = m[1, 0] = f3 / 3.0 - f1 / 5.0
    m[0, 2] = m[2, 0] = f1 * f3 - 1.0 / 9.0
    m[1, 1] = 4.0 / 45.0
    m[1, 2] = m[2, 1] = f1 / 3.0 - f3
    m[2, 2] = 1.0 / 3.0 - f1 * f1
    d = 4.0 / 135.0 - f1 * f1 / 5.0 - f3 * f3 + (2.0 / 3.0) * f1 * f3
    return m, d


# Where each coefficient of (b0, ..., b5) sits in the grouped order
# (1, zx, x^2 | z, x, zx^2): the even group carries (b0, b3, b4), the
# odd group (b2, b1, b5).
QUADRATIC_GROUPED_POSITION = (0, 4, 3, 1, 2, 5)


def quadratic_covariance(delta: float) -> np.ndarray:
    """N Var of (b0, ..., b5) for the fair-coin window: M / D in each
    symmetry group, permuted back to coefficient order."""
    m, d = quadratic_adjugate(delta)
    grouped = np.zeros((6, 6))
    grouped[:3, :3] = grouped[3:, 3:] = m / d
    pos = QUADRATIC_GROUPED_POSITION
    return grouped[np.ix_(pos, pos)]
