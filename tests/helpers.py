"""Shared oracles for the test suite.

Everything here is deliberately independent of the package internals:
least squares by modified Gram-Schmidt, Gram matrices by double loops,
the normal quantile by bisecting a Simpson-integrated CDF, and random
monotone allocation scales built from scratch. Tests compare package
output against these, not against other package output.
"""

from __future__ import annotations

import math

import numpy as np

from tiebreak.designs import SlidingScale


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
