"""The covariance engine against invariances and high-precision arithmetic."""

import mpmath
import numpy as np
from hypothesis import given, settings, strategies as st

from tiebreak import (AssignmentDistribution, DegenerateDesignError, IntervalRule,
                      design_covariance)
from tiebreak.covariance import QUADRATIC, TWOLINE, schur_inverse

EPS = np.finfo(float).eps

# Reflecting x -> -x and z -> -z flips the sign of every regressor odd
# in x plus z: x and z in the two-line model, and also z x^2 in the
# quadratic one (natural order: 1, x, z, zx, then x^2, zx^2).
MIRROR_SIGNS = {TWOLINE: np.diag([1.0, -1.0, -1.0, 1.0]),
                QUADRATIC: np.diag([1.0, -1.0, -1.0, 1.0, 1.0, -1.0])}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2), st.floats(0.01, 0.99),
       st.sampled_from([AssignmentDistribution.uniform_rank(),
                        AssignmentDistribution.standard_gaussian()]),
       st.sampled_from(sorted(MIRROR_SIGNS)))
def test_mirrored_window_flips_the_odd_coefficients(edges, p, distribution, model):
    # The window [a, b] treating with probability p, mirrored to
    # [-b, -a] with probability 1 - p, is the same design seen with x and
    # z negated, so its covariance is S Sigma S. Both scales are
    # symmetric about 0. Rounding is amplified by cond(Sigma): probed at
    # most 0.43 cond eps of the largest entry over 300 windows, so 8
    # leaves a margin.
    a, b = sorted(edges)
    try:
        sigma = design_covariance(IntervalRule(a, b, p), distribution, model).matrix
    except DegenerateDesignError:
        return
    mirrored = design_covariance(IntervalRule(-b, -a, 1.0 - p), distribution, model).matrix
    signs = MIRROR_SIGNS[model]
    bound = 8.0 * np.linalg.cond(sigma) * EPS * np.abs(sigma).max()
    assert np.abs(mirrored - signs @ sigma @ signs).max() <= bound


def _mp_schur_inverse(a, b):
    """V = (A - B A^-1 B)^-1 and the complement S, at 50 digits, from the
    float blocks taken as exact."""
    with mpmath.workdps(50):
        a, b = mpmath.matrix(a.tolist()), mpmath.matrix(b.tolist())
        schur = a - b * mpmath.inverse(a) * b
        var = mpmath.inverse(schur)
        return (np.array(var.tolist(), dtype=float),
                np.array(schur.tolist(), dtype=float))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(100, 300), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2 ** 32),
       st.booleans())
def test_schur_inverse_matches_50_digits(n, d, k, seed, off_centre):
    # A stack of k threshold designs on one random n x d table, with
    # shared A = F'F and B = F'(wF) for the expected arms w, on centred
    # scores or about a cut-off off the centre. Each V errs from the
    # 50-digit inverse by rounding amplified by cond(S), and by how much
    # of A forming S = A - B A^-1 B cancels: probed at most 1.0 cond(S)
    # max(1, |A| / |S|) eps of V's largest entry over 24 438 items of
    # 10 000 stacks (n 10-300, half of them off centre, where |A| ran up to
    # 101 |S|), so 8 leaves a margin. Without the |A| / |S| factor the
    # same items reached 24.6 cond(S) eps.
    rng = np.random.default_rng(seed)
    f = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, (n, d - 1))])
    stack = []
    for _ in range(k):
        scores = (f[:, 1:] @ rng.standard_normal(d - 1) if d > 1
                  else rng.uniform(-1.0, 1.0, n))
        if off_centre:
            scores = scores - rng.uniform(-1.0, 1.0)
        delta, p = rng.uniform(0.0, 1.5), rng.uniform(0.05, 0.95)
        w = np.where(scores >= delta, 1.0, np.where(scores <= -delta, -1.0, 2.0 * p - 1.0))
        stack.append(f.T @ (w[:, None] * f))
    a = f.T @ f
    var, _, codes = schur_inverse(a, np.array(stack))
    for item, b in enumerate(stack):
        if codes[item]:
            continue
        want, schur = _mp_schur_inverse(a, b)
        cancel = max(1.0, np.abs(a).max() / np.abs(schur).max())
        bound = 8.0 * np.linalg.cond(schur) * cancel * EPS * np.abs(want).max()
        assert np.abs(var[item] - want).max() <= bound
