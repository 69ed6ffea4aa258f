"""Output checks that are deterministic for a seed and independent of timing.

Each check returns a list of problems (empty when the output is right).
Every check is also run on a deliberately perturbed or permuted copy of
the output, its negative control, which it must reject; a check that
accepts its control would pass anything and invalidates the run.

The oracles never call the package. The search oracle recomputes the
design search in plain numpy. The closed-form oracles build the
population Gram matrix E[f f'] of the regressors from moments of x and
of z against powers of x, and invert it: N Var(b-hat) = E[f f']^-1. The
moments come from antiderivatives for window rules, from the standard
library's normal quantile on the Gaussian scale, and from Gauss-Legendre
quadrature between a sliding scale's breakpoints, which is exact for
step and tabulated (piecewise linear) scales.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

SEARCH_RTOL = 1e-10
# Feasibility is decided by cond(S) > CONDITION_LIMIT. Within this band
# around the limit, rounding differences between correct implementations
# decide it, so such candidates are left out of the comparison.
CONDITION_LIMIT = 1e12
BORDERLINE_COND = (1e10, 1e14)
COND_RTOL = 1e-15  # an inverse is only as accurate as its cond * eps
MATRIX_RTOL = 1e-12
# sliding_moments asks its quadrature for an absolute 1e-10. That is met
# on tables and step rules, where each piece between breakpoints is
# integrated exactly. On a smooth scale without breakpoints, adaptive
# Simpson stops when its error estimate is small, and the estimate now and
# then cancels by chance: errors of 1e-9 to 1.2e-8 turned up in 15 of
# 23 000 random logistic scales, a tail that falls off about like 1/error.
# Smooth scales are therefore held to SMOOTH_MOMENT_ATOL, and their
# controls are moved by SMOOTH_CONTROL_SHIFT, which every such tolerance
# stays below.
MOMENT_ATOL = 1e-9
SMOOTH_MOMENT_ATOL = 1e-6
CONTROL_SHIFT = 1e-5
SMOOTH_CONTROL_SHIFT = 1e-3


@dataclass
class CheckResult:
    name: str
    problems: list[str]
    control_rejected: bool

    @property
    def ok(self) -> bool:
        return not self.problems and self.control_rejected


def run_check(name: str, check, output, control) -> CheckResult:
    """Apply check to the output and to its negative control."""
    return CheckResult(name, check(output), bool(check(control)))


def summarize(results: list[CheckResult]) -> dict:
    """Fold repeated runs of each check into one entry per name."""
    out: dict = {}
    for res in results:
        entry = out.setdefault(res.name, {"runs": 0, "passed": True,
                                          "control_rejected": True, "problems": []})
        entry["runs"] += 1
        entry["passed"] &= not res.problems
        entry["control_rejected"] &= res.control_rejected
        entry["problems"] = (entry["problems"] + res.problems)[:5]
    return out


def perturbed(items, shift: float = CONTROL_SHIFT):
    """Negative control of (label, got, want) items: the first entry of
    the first output moved by shift times the output's largest entry (or
    absolutely, when every entry is below 1)."""
    label, got, want = items[0]
    moved = np.array(got, dtype=float)
    moved.flat[0] += shift * max(1.0, float(np.max(np.abs(moved))))
    return [(label, moved, want)] + list(items[1:])


def check_close(items, cond_rtol: float = COND_RTOL, atol: float = 0.0) -> list[str]:
    """items: (label, output, oracle). Each output must match its oracle
    within atol + (MATRIX_RTOL + cond_rtol * cond) * max|oracle|, where
    cond is the oracle's condition number if it is a matrix."""
    problems = []
    for label, got, want in items:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        cond = np.linalg.cond(want) if want.ndim == 2 else 1.0
        tol = atol + (MATRIX_RTOL + cond_rtol * cond) * np.max(np.abs(want))
        if got.shape != want.shape or np.max(np.abs(got - want)) > tol:
            problems.append(f"{label} differs from the oracle")
    return problems


def check_moments(items, atol: float = MOMENT_ATOL) -> list[str]:
    return check_close(items, cond_rtol=0.0, atol=atol)


def check_sliding_covariance(items, atol: float = MOMENT_ATOL) -> list[str]:
    """The inverse of a Gram matrix whose moments are accurate to atol is
    accurate to about cond * atol, relative."""
    return check_close(items, cond_rtol=10.0 * atol)


# -- design search --------------------------------------------------------

@dataclass(frozen=True)
class Ranked:
    """One ranked search result as plain data: value, indices, Var(g-hat),
    and cond(S) where the reference computed it."""

    value: float
    ti: int
    di: int
    pi: int
    var: np.ndarray
    cond: float = 0.0

    @property
    def key(self) -> tuple[int, int, int]:
        return self.ti, self.di, self.pi


def ranked_from_results(results) -> list[Ranked]:
    return [Ranked(float(r.value), r.theta_index, r.delta_index, r.p_index,
                   np.array(r.evaluation.var_interaction, dtype=float))
            for r in results]


def reference_search(f: np.ndarray, thetas, deltas, ps):
    """The trace-criterion search, recomputed from its definition.

    Expected arm w = +1 at or above delta, -1 at or below -delta, 2p - 1
    between; A = F'F, B = F'(wF), Var(g-hat) = (A - B A^-1 B)^-1.
    Returns the ranking of the candidates with cond(S) below the
    borderline band, and the keys of the candidates inside the band.
    """
    f = np.asarray(f, dtype=float)
    a = f.T @ f
    out, borderline = [], set()
    if np.linalg.cond(a) > CONDITION_LIMIT:
        return out, borderline
    for ti, theta in enumerate(thetas):
        s = f @ np.asarray(theta, dtype=float)
        for di, delta in enumerate(deltas):
            for pi, p in enumerate(ps):
                w = np.where(s >= delta, 1.0, np.where(s <= -delta, -1.0, 2.0 * p - 1.0))
                if np.all(w <= -1.0) or np.all(w >= 1.0):
                    continue
                b = f.T @ (w[:, None] * f)
                schur = a - b @ np.linalg.solve(a, b)
                schur = 0.5 * (schur + schur.T)
                cond = np.linalg.cond(schur)
                if cond >= BORDERLINE_COND[0]:
                    if cond <= BORDERLINE_COND[1]:
                        borderline.add((ti, di, pi))
                    continue
                var = np.linalg.inv(schur)
                var = 0.5 * (var + var.T)
                out.append(Ranked(float(np.trace(var)), ti, di, pi, var, float(cond)))
    out.sort(key=lambda r: (r.value, r.ti, r.di, r.pi))
    return out, borderline


def sample_ranks(count: int, rng: np.random.Generator, top: int = 5,
                 extra: int = 10) -> list[int]:
    """The top ranks plus a seeded sample of the rest."""
    head = list(range(min(top, count)))
    rest = np.arange(len(head), count)
    picked = rng.choice(rest, size=min(extra, rest.size), replace=False) if rest.size else []
    return head + sorted(int(k) for k in picked)


def _close(x, y, rtol) -> bool:
    return abs(x - y) <= rtol * max(abs(x), abs(y), 1e-300)


def check_search(ranked: list[Ranked], reference: list[Ranked], borderline: set,
                 ranks: list[int]) -> list[str]:
    """Compare a search's ranking with the reference.

    Outside the borderline band the feasible candidates must be the same;
    at each sampled rank of the reference, the value and Var(g-hat) must
    match within SEARCH_RTOL (or cond(S) * COND_RTOL, if larger), and the
    candidate must be the same unless the two are tied within that
    tolerance. Ranked values must not decrease, and exact ties must keep
    candidate order.
    """
    problems = []
    got_all = ranked
    ranked = [r for r in ranked if r.key not in borderline]
    extra = {r.key for r in ranked} - {r.key for r in reference}
    if len(ranked) != len(reference) or extra:
        problems.append(f"feasible count {len(ranked)} != reference {len(reference)}, "
                        f"{len(extra)} not feasible in the reference")
        return problems
    for k in ranks:
        got, ref = ranked[k], reference[k]
        rtol = max(SEARCH_RTOL, ref.cond * COND_RTOL)
        if not _close(got.value, ref.value, rtol):
            problems.append(f"rank {k}: value {got.value!r} != {ref.value!r}")
        scale = float(np.max(np.abs(ref.var)))
        if got.var.shape != ref.var.shape or \
                np.max(np.abs(got.var - ref.var)) > rtol * scale:
            problems.append(f"rank {k}: Var(g-hat) differs from the reference")
        if got.key != ref.key:
            twin = next((r for r in reference if r.key == got.key), None)
            if twin is None or not _close(twin.value, ref.value, rtol):
                problems.append(f"rank {k}: candidate {got.key} where the "
                                f"reference ranks {ref.key}")
    for prev, cur in zip(got_all, got_all[1:]):
        if (cur.value, cur.key) < (prev.value, prev.key):
            problems.append(f"ranking out of order at {(cur.value, cur.key)}")
            break
    return problems


def search_control(ranked: list[Ranked]) -> list[Ranked]:
    """The ranking with its first two distinct values swapped."""
    out = list(ranked)
    for k in range(1, len(out)):
        if out[k].value != out[0].value:
            out[0], out[k] = out[k], out[0]
            return out
    # Every value tied: perturb the first instead.
    first = out[0]
    out[0] = Ranked(first.value * (1 + CONTROL_SHIFT), first.ti, first.di, first.pi,
                    first.var)
    return out


def check_same_table(pair) -> list[str]:
    """pair: (table parsed from the CSV, values the CSV was written from)."""
    parsed, written = pair
    if not np.array_equal(parsed, written):
        return ["the parsed feature table differs from the one written"]
    return []


# -- closed forms ---------------------------------------------------------

# Regressors as (power of z, power of x), in coefficient order.
TWOLINE = ((0, 0), (0, 1), (1, 0), (1, 1))                  # 1, x, z, zx
QUADRATIC = ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 2))  # ..., x^2, zx^2


def uniform_x_moments(kmax: int) -> np.ndarray:
    """E[x^k] for x uniform on [-1, 1]."""
    return np.array([1.0 / (k + 1) if k % 2 == 0 else 0.0 for k in range(kmax + 1)])


def gaussian_x_moments(kmax: int) -> np.ndarray:
    """E[x^k] for x standard Gaussian: (k - 1)!! for even k."""
    return np.array([float(np.prod(np.arange(k - 1, 0, -2))) if k % 2 == 0 else 0.0
                     for k in range(kmax + 1)])


def window_z_moments(a: float, b: float, p: float, kmax: int) -> np.ndarray:
    """E[z x^k] on the uniform scale: z = +1 above b, -1 below a, and a
    p-coin in between, so E[z | x] = 2p - 1 there."""
    q = 2.0 * p - 1.0

    def seg(lo, hi, k):
        return (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)

    return np.array([0.5 * (seg(b, 1.0, k) - seg(-1.0, a, k) + q * seg(a, b, k))
                     for k in range(kmax + 1)])


def gaussian_tiebreaker_z_moments(delta: float) -> np.ndarray:
    """E[z x^k], k = 0..2, on the Gaussian scale with the central fraction
    delta randomized by a fair coin: (0, 2 phi(c), 0), c = Phi^-1((1 + delta)/2)."""
    if delta >= 1.0:
        return np.zeros(3)
    c = statistics.NormalDist().inv_cdf((1.0 + delta) / 2.0)
    return np.array([0.0, 2.0 * math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi), 0.0])


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def scale_z_moments(scale, kmax: int = 2) -> np.ndarray:
    """E[z x^k] = (1/2) int_{-1}^{1} x^k (2 p(x) - 1) dx for a sliding scale,
    by 64-point Gauss-Legendre on each piece between its breakpoints."""
    edges = [-1.0, *sorted(b for b in scale.breakpoints if -1.0 < b < 1.0), 1.0]
    out = np.zeros(kmax + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        half = 0.5 * (hi - lo)
        x = lo + half * (_GL_NODES + 1.0)
        g = half * _GL_WEIGHTS * (2.0 * np.asarray(scale(x), dtype=float) - 1.0)
        out += np.array([np.sum(g * x ** k) for k in range(kmax + 1)])
    return 0.5 * out


def gram(x_moments: np.ndarray, z_moments: np.ndarray, regressors=TWOLINE) -> np.ndarray:
    """E[f f'] for f = (z^a x^k) over the regressors, with z^2 = 1."""
    size = len(regressors)
    out = np.empty((size, size))
    for i, (za, ka) in enumerate(regressors):
        for j, (zb, kb) in enumerate(regressors):
            source = z_moments if (za + zb) % 2 else x_moments
            out[i, j] = source[ka + kb]
    return out


def covariance(x_moments, z_moments, regressors=TWOLINE) -> np.ndarray:
    """N Var(b-hat) = E[f f']^-1 with unit noise variance."""
    return np.linalg.inv(gram(x_moments, z_moments, regressors))


def uniform_identity(delta: float) -> np.ndarray:
    """N Var of (b0, b1, b2, b3) for the fair-coin window, from the paper:
    1/(1-3f^2), 3/(1-3f^2) on the diagonal, -3f/(1-3f^2) coupling b0-b3
    and b1-b2, with f = (1 - delta^2)/2."""
    f = (1.0 - delta * delta) / 2.0
    den = 1.0 - 3.0 * f * f
    mat = np.diag([1.0, 3.0, 1.0, 3.0]) / den
    mat[0, 3] = mat[3, 0] = mat[1, 2] = mat[2, 1] = -3.0 * f / den
    return mat


def effect_variance(cov: np.ndarray, x: np.ndarray) -> np.ndarray:
    """N Var of the effect estimate 2 (b2 + b3 x) at each x."""
    return 4.0 * (cov[2, 2] + 2.0 * x * cov[2, 3] + x * x * cov[3, 3])


# -- Monte Carlo ----------------------------------------------------------

def check_bit_identical(pair) -> list[str]:
    """pair: (first empirical matrix, repeated empirical matrix)."""
    first, again = (np.asarray(m) for m in pair)
    if first.dtype != again.dtype or first.shape != again.shape \
            or first.tobytes() != again.tobytes():
        return ["repeating the configuration with its seed changed the "
                "empirical covariance"]
    return []


def bit_control(pair):
    """The repeated matrix with one entry moved by one unit in the last place."""
    first, again = pair
    moved = np.array(again, dtype=float)
    moved.flat[0] = np.nextafter(moved.flat[0], np.inf)
    return first, moved
