"""The covariance engine and its labeled result.

The joint fit regresses the outcome on [F | zF], with F = [1, x] (two
lines) or [1, x, x^2] (two quadratics). Its Gram matrix is
[[A, B], [B, A]] with A = E[F F'] and B = E[w F F'], w the expected arm,
and its inverse is [[V, C], [C', V]] with V the inverse of the Schur
complement A - B A^-1 B and C = -A^-1 B V. Every analytic covariance in
this package is that inverse, reported on the N-scaled convention:
entries are N * Var(coefficient estimate) in units of sigma^2, so they
are finite limits independent of the sample size. The design evaluator,
the fully randomized floor and the Monte Carlo refit call the same
Schur inverse with sample sums, under the same degeneracy rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .designs import AssignmentDistribution
from .errors import DegenerateDesignError, DomainError
from .moments import design_moments

TWOLINE = "twoline"
QUADRATIC = "quadratic"

TWOLINE_LABELS = ("beta0", "beta1", "beta2", "beta3")
QUADRATIC_LABELS = ("beta0", "beta1", "beta2", "beta3", "beta4", "beta5")

# The joint fit solves for the baseline coefficients first and the arm
# interactions second; this maps the quadratic fit order
# (b0, b1, b4, b2, b3, b5) back to natural order.
_QUADRATIC_FIT_TO_NATURAL = (0, 1, 3, 4, 2, 5)
_QUADRATIC_PERMUTATION = np.ix_(_QUADRATIC_FIT_TO_NATURAL, _QUADRATIC_FIT_TO_NATURAL)

# Hankel index of the largest model: entry (i, j) of A and B is the
# moment of order i + j; a model with d baseline terms takes [:d, :d].
_HANKEL = np.add.outer(np.arange(3), np.arange(3))

# A Gram block or Schur complement with a larger condition number is
# treated as singular: the design carries no usable information.
CONDITION_LIMIT = 1e12

# Population moments are scaled by 15 before the Schur inverse, and the
# result scaled back. On the rank scale E[x^k] = 1/(k + 1) for even k, so
# the Gram entries 1, 1/3, 1/5 become the integers 15, 5, 3, and the
# paper's endpoint designs (sharp cut-off, full randomization) come out
# exact: N Var(b3) = 12 at the cut-off, not 12 plus a rounding error.
_MOMENT_SCALE = 15.0

_SYM_TOL = 1e-12

# Why schur_inverse refuses a design, in the order of its tests.
_SCHUR_REASONS = ("feature Gram matrix is ill-conditioned", "singular normal equations",
                  "design is ill-conditioned: expected arms nearly reproduce the features")


def _check_finite(m: np.ndarray):
    if not np.isfinite(m).all():
        raise DegenerateDesignError("covariance contains non-finite entries")


def _check_definite(m: np.ndarray):
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] <= 1e-14 * max(1.0, eigs[-1]):
        raise DegenerateDesignError(
            "covariance is not positive definite (degenerate design)")


@dataclass(frozen=True, eq=False)
class CoefCovariance:
    """Symmetric positive-definite N * Var matrix with coefficient labels."""

    labels: tuple[str, ...]
    matrix: np.ndarray
    n_scaled: bool = field(default=True)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        labels = tuple(str(s) for s in self.labels)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("covariance matrix must be square")
        if len(labels) != m.shape[0]:
            raise DomainError("label count must equal matrix dimension")
        _check_finite(m)
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > _SYM_TOL * scale:
            raise DomainError("covariance matrix is not symmetric")
        m = 0.5 * (m + m.T)
        _check_definite(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _trusted(cls, labels: tuple[str, ...], matrix: np.ndarray) -> "CoefCovariance":
        """An engine-built covariance: labels a tuple of str, matrix a
        fresh, exactly symmetric square array that nothing else holds.

        Copying, the symmetry test and 0.5 (m + m') are identities on such
        a matrix and are skipped; the finiteness and positive-definiteness
        tests run as in the public constructor. The matrix becomes
        read-only.
        """
        _check_finite(matrix)
        _check_definite(matrix)
        matrix.setflags(write=False)
        cov = object.__new__(cls)
        object.__setattr__(cov, "labels", labels)
        object.__setattr__(cov, "matrix", matrix)
        object.__setattr__(cov, "n_scaled", True)
        return cov

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DomainError(f"unknown coefficient label {label!r}") from None

    def var(self, label: str) -> float:
        i = self.index(label)
        return float(self.matrix[i, i])

    def cov(self, label_a: str, label_b: str) -> float:
        return float(self.matrix[self.index(label_a), self.index(label_b)])

    def quadratic_form(self, weights) -> float:
        """N * Var of the linear combination sum_j weights[j] * coef_j."""
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.dim,):
            raise DomainError("weight vector length must equal dimension")
        return float(w @ self.matrix @ w)

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "n_scaled": self.n_scaled,
            "matrix": [[float(v) for v in row] for row in self.matrix],
        }


def model_labels(model: str) -> tuple[str, ...]:
    if model == TWOLINE:
        return TWOLINE_LABELS
    if model == QUADRATIC:
        return QUADRATIC_LABELS
    raise DomainError(f"unknown model {model!r}")


def schur_inverse(a: np.ndarray, b: np.ndarray):
    """(V, C) of the joint fit with Gram [[A, B], [B, A]].

    V = (A - B A^-1 B)^-1 is the covariance of the interaction
    coefficients and C = -A^-1 B V their covariance with the baseline
    ones. Raises DegenerateDesignError, with the reason, when A or the
    Schur complement is ill-conditioned, singular or negligible next to A.
    The condition number of A comes from its singular values; that of
    the complement, which is symmetrized first, from the magnitudes of
    its eigenvalues, which are its singular values.
    A stack b (k, d, d), with a shared or stacked A, gives (V, C, reasons),
    each item as its own 2-D call: reasons[i] is None or why V[i] is NaN.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim == 2:
        return _schur_pair(np.asarray(a, dtype=float), b)
    d = b.shape[-1]
    a = np.asarray(a, dtype=float).reshape(-1, d, d)
    b = b.reshape(-1, d, d)
    # Degenerate items become the identity before each LAPACK call, which
    # would otherwise fail the whole stack. cond is s_max / s_min: singular
    # values of A (the caller's, so maybe not symmetric), and of the
    # symmetrized Schur complement its eigenvalue magnitudes.
    a_max = np.abs(a).max(axis=(1, 2))
    gram_bad = ~((a_max > 0.0) & (a_max < np.inf))
    if np.count_nonzero(gram_bad):
        a = np.where(gram_bad[:, None, None], np.eye(d), a)
    sv = np.linalg.svd(a, compute_uv=False)
    gram_bad = gram_bad | (sv[:, -1] * CONDITION_LIMIT < sv[:, 0])
    if np.count_nonzero(gram_bad):
        a = np.where(gram_bad[:, None, None], np.eye(d), a)
    a_inv_b = np.linalg.solve(a, b)
    schur = a - b @ a_inv_b
    schur = 0.5 * (schur + schur.transpose(0, 2, 1))
    schur_max = np.abs(schur).max(axis=(1, 2))
    singular = ~np.isfinite(schur_max)
    if np.count_nonzero(singular):
        schur = np.where(singular[:, None, None], np.eye(d), schur)
    mags = np.abs(np.linalg.eigvalsh(schur))
    # cond is blind to scale: B = +-A (one arm for all) leaves a noise complement.
    bad = (gram_bad | singular | (mags.min(axis=1) * CONDITION_LIMIT < mags.max(axis=1))
           | (schur_max * CONDITION_LIMIT <= a_max))
    degenerate = np.count_nonzero(bad) > 0
    if degenerate:
        schur = np.where(bad[:, None, None], np.eye(d), schur)
    var = np.linalg.inv(schur)
    var = 0.5 * (var + var.transpose(0, 2, 1))
    cross = -a_inv_b @ var
    reasons = [None] * len(b)
    if degenerate:
        var[bad] = cross[bad] = np.nan
        codes = np.where(gram_bad, 0, np.where(singular, 1, 2))
        for i in np.flatnonzero(bad):
            reasons[i] = _SCHUR_REASONS[codes[i]]
    return var, cross, reasons


def _schur_pair(a: np.ndarray, b: np.ndarray):
    """schur_inverse of one (A, B) pair: the stacked body's LAPACK calls
    and tests on one item, raising at the first test that fails."""
    a_max = float(np.abs(a).max())
    if not 0.0 < a_max < math.inf:
        raise DegenerateDesignError(_SCHUR_REASONS[0])
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] * CONDITION_LIMIT < sv[0]:
        raise DegenerateDesignError(_SCHUR_REASONS[0])
    a_inv_b = np.linalg.solve(a, b)
    schur = a - b @ a_inv_b
    schur = 0.5 * (schur + schur.T)
    schur_max = float(np.abs(schur).max())
    if not math.isfinite(schur_max):
        raise DegenerateDesignError(_SCHUR_REASONS[1])
    mags = [abs(v) for v in np.linalg.eigvalsh(schur).tolist()]
    if min(mags) * CONDITION_LIMIT < max(mags) or schur_max * CONDITION_LIMIT <= a_max:
        raise DegenerateDesignError(_SCHUR_REASONS[2])
    var = np.linalg.inv(schur)
    var = 0.5 * (var + var.T)
    return var, -a_inv_b @ var


def moment_covariance(x_moments, w_moments, model: str = TWOLINE) -> CoefCovariance:
    """Covariance of the joint fit from E[x^k] and E[w x^k], k = 0..2 * degree.

    A and B are the Hankel matrices of the two sequences, which may run
    past 2 * degree (the extra terms are unused); the result is in
    natural label order.
    """
    labels = model_labels(model)
    d = len(labels) // 2
    idx = _HANKEL[:d, :d]
    var, cross = schur_inverse(_MOMENT_SCALE * np.asarray(x_moments, dtype=float)[idx],
                               _MOMENT_SCALE * np.asarray(w_moments, dtype=float)[idx])
    full = np.empty((2 * d, 2 * d))
    full[:d, :d] = full[d:, d:] = _MOMENT_SCALE * var
    full[:d, d:] = _MOMENT_SCALE * cross
    full[d:, :d] = full[:d, d:].T
    if model == QUADRATIC:
        full = full[_QUADRATIC_PERMUTATION]
    # var is symmetrized by schur_inverse and the cross blocks are each
    # other's transposes, so full is exactly symmetric.
    return CoefCovariance._trusted(labels, full)


def design_covariance(rule, distribution: AssignmentDistribution | None = None,
                      model: str = TWOLINE) -> CoefCovariance:
    """N-scaled covariance of the two-line or quadratic fit under a rule.

    Covers every rule design_moments covers: window rules on the uniform
    rank and standard-gaussian scales, sliding scales on the rank scale.
    """
    return moment_covariance(*design_moments(rule, distribution), model)
