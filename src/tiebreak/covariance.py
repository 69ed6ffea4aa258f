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
from dataclasses import dataclass

import numpy as np

from .designs import AssignmentDistribution
from .errors import DegenerateDesignError, DomainError
from .moments import design_moments

TWOLINE = "twoline"
QUADRATIC = "quadratic"

TWOLINE_LABELS = ("beta0", "beta1", "beta2", "beta3")
QUADRATIC_LABELS = ("beta0", "beta1", "beta2", "beta3", "beta4", "beta5")

# Each model's labels, in natural order, and the permutation from the
# joint fit's regressor order [F | zF] to natural order, None where the
# two agree: the quadratic fit solves for (b0, b1, b4, b2, b3, b5).
_MODELS = {TWOLINE: (TWOLINE_LABELS, None),
           QUADRATIC: (QUADRATIC_LABELS, (0, 1, 3, 4, 2, 5))}

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

# Why a design is refused, by refusal code: 0 accepts it, schur_inverse's
# tests give 1 to 3 in their order, and the design search's arm checks 4
# and 5.
REFUSALS = (None, "feature Gram matrix is ill-conditioned", "singular normal equations",
            "design is ill-conditioned: expected arms nearly reproduce the features",
            "no treated subjects", "no control subjects")
GRAM_REFUSED, SINGULAR, ARMS_REFUSED, NO_TREATED, NO_CONTROL = range(1, len(REFUSALS))


def _check_finite(m: np.ndarray):
    if not np.isfinite(m).all():
        raise DegenerateDesignError("covariance contains non-finite entries")


def _check_definite(m: np.ndarray):
    eigs = np.linalg.eigvalsh(m)
    if not eigs[0] > 1e-14 * eigs[-1]:
        raise DegenerateDesignError(
            "covariance is not positive definite (degenerate design)")


@dataclass(frozen=True, eq=False)
class CoefCovariance:
    """Symmetric positive-definite N * Var matrix with coefficient labels."""

    labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        labels = tuple(str(s) for s in self.labels)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("covariance matrix must be square")
        if len(labels) != m.shape[0]:
            raise DomainError("label count must equal matrix dimension")
        _check_finite(m)
        # Checked on its own scale, times the power of two that puts the largest
        # entry in [0.5, 1): exact, so the stored mean is bitwise 0.5 m + 0.5 m'.
        largest, exponent = math.frexp(float(np.abs(m).max()))
        m = np.ldexp(m, -exponent)
        if np.abs(m - m.T).max() > _SYM_TOL * largest:
            raise DomainError("covariance matrix is not symmetric")
        m = 0.5 * m + 0.5 * m.T
        _check_definite(m)
        if len(set(labels)) != len(labels):
            raise DomainError("coefficient labels must be distinct")
        m = np.ldexp(m, exponent)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _trusted(cls, labels: tuple[str, ...], matrix: np.ndarray) -> "CoefCovariance":
        """An engine-built covariance: labels a tuple of str, matrix a
        fresh, exactly symmetric square array that nothing else holds.

        Copying, the label and symmetry tests and 0.5 (m + m') are identities
        on such a matrix and are skipped; the finiteness and definiteness
        tests run unscaled, which decides alike when the largest eigenvalue
        is at least 1, as for every engine-built one. The matrix is read-only.
        """
        _check_finite(matrix)
        _check_definite(matrix)
        matrix.setflags(write=False)
        cov = object.__new__(cls)
        object.__setattr__(cov, "labels", labels)
        object.__setattr__(cov, "matrix", matrix)
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
        """N * Var of the linear combination sum_j weights[j] * coef_j.
        Weights that are not finite, or so large that the form overflows,
        raise DomainError."""
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.dim,):
            raise DomainError("weight vector length must equal dimension")
        with np.errstate(over="ignore", invalid="ignore"):
            form = float(w @ self.matrix @ w)
        if not math.isfinite(form):
            raise DomainError("weights must be finite, and the form must not overflow")
        return form

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "matrix": [[float(v) for v in row] for row in self.matrix],
        }


def model_spec(model: str) -> tuple[tuple[str, ...], tuple[int, ...] | None]:
    """(labels, fit-to-natural permutation or None) of a model."""
    try:
        return _MODELS[model]
    except (KeyError, TypeError):
        raise DomainError(f"unknown model {model!r}") from None


def schur_inverse(a: np.ndarray, b: np.ndarray):
    """(V, C, codes) of the joint fits with Gram [[A, B_i], [B_i, A]], for
    one d x d A and a stack b (k, d, d).

    V_i = (A - B_i A^-1 B_i)^-1 is the covariance of the interaction
    coefficients and C_i = -A^-1 B_i V_i their covariance with the
    baseline ones. codes[i] is 0, or the index in REFUSALS of why V_i and
    C_i are NaN: A or the Schur complement is ill-conditioned, singular or
    negligible next to A. A refused A refuses every item. The condition
    number of A comes from its singular values; that of a complement,
    which is symmetrized first, from the magnitudes of its eigenvalues,
    which are its singular values. _schur_pair is the one-item body.
    """
    a_max = _gram_scale(a)
    if a_max is None:
        refused = np.full(b.shape, np.nan)
        return refused, refused.copy(), np.full(len(b), GRAM_REFUSED)
    d = b.shape[-1]
    a_inv_b = np.linalg.solve(a, b)
    schur = a - b @ a_inv_b
    schur = 0.5 * (schur + schur.transpose(0, 2, 1))
    schur_max = np.abs(schur).max(axis=(1, 2))
    # Degenerate items become the identity before each LAPACK call, which
    # would otherwise fail the whole stack.
    singular = ~np.isfinite(schur_max)
    schur = np.where(singular[:, None, None], np.eye(d), schur)
    mags = np.abs(np.linalg.eigvalsh(schur))
    # cond is blind to scale: B = +-A (one arm for all) leaves a noise complement.
    ill = ((mags.min(axis=1) * CONDITION_LIMIT < mags.max(axis=1))
           | (schur_max * CONDITION_LIMIT <= a_max))
    codes = np.where(singular, SINGULAR, np.where(ill, ARMS_REFUSED, 0))
    bad = codes > 0
    var = np.linalg.inv(np.where(bad[:, None, None], np.eye(d), schur))
    var = 0.5 * (var + var.transpose(0, 2, 1))
    cross = -a_inv_b @ var
    var[bad] = cross[bad] = np.nan
    return var, cross, codes


def _gram(vals: np.ndarray) -> np.ndarray:
    """A = F'F, refused when finite but huge features overflow it."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = vals.T @ vals
    if not np.isfinite(gram).all():
        raise DomainError("features are too large: F'F overflows")
    return gram


def _gram_scale(a: np.ndarray) -> float | None:
    """max |A| of a usable Gram block A, else None: A is zero, not finite,
    or its singular values (A may not be symmetric) exceed the cond limit."""
    a_max = float(np.abs(a).max())
    if not 0.0 < a_max < math.inf:
        return None
    sv = np.linalg.svd(a, compute_uv=False)
    return None if sv[-1] * CONDITION_LIMIT < sv[0] else a_max


def _schur_pair(a: np.ndarray, b: np.ndarray):
    """(V, C) of one (A, B) pair, for the closed forms: schur_inverse's
    LAPACK calls and tests on one item, the tests on Python scalars, which
    is faster than a stack of one. Raises DegenerateDesignError with the
    REFUSALS message of the first test that fails."""
    a_max = _gram_scale(a)
    if a_max is None:
        raise DegenerateDesignError(REFUSALS[GRAM_REFUSED])
    a_inv_b = np.linalg.solve(a, b)
    schur = a - b @ a_inv_b
    schur = 0.5 * (schur + schur.T)
    schur_max = float(np.abs(schur).max())
    if not math.isfinite(schur_max):
        raise DegenerateDesignError(REFUSALS[SINGULAR])
    mags = [abs(v) for v in np.linalg.eigvalsh(schur).tolist()]
    if min(mags) * CONDITION_LIMIT < max(mags) or schur_max * CONDITION_LIMIT <= a_max:
        raise DegenerateDesignError(REFUSALS[ARMS_REFUSED])
    var = np.linalg.inv(schur)
    var = 0.5 * (var + var.T)
    return var, -a_inv_b @ var


def moment_covariance(x_moments, w_moments, model: str = TWOLINE) -> CoefCovariance:
    """Covariance of the joint fit from E[x^k] and E[w x^k], k = 0..2 * degree.

    A and B are the Hankel matrices of the two sequences, which may run
    past 2 * degree (the extra terms are unused); the result is in
    natural label order.
    """
    labels, order = model_spec(model)
    d = len(labels) // 2
    idx = _HANKEL[:d, :d]
    var, cross = _schur_pair(_MOMENT_SCALE * np.asarray(x_moments, dtype=float)[idx],
                             _MOMENT_SCALE * np.asarray(w_moments, dtype=float)[idx])
    full = np.empty((2 * d, 2 * d))
    full[:d, :d] = full[d:, d:] = _MOMENT_SCALE * var
    full[:d, d:] = _MOMENT_SCALE * cross
    full[d:, :d] = full[:d, d:].T
    if order is not None:
        full = full[np.ix_(order, order)]
    # var is symmetrized by _schur_pair and the cross blocks are each
    # other's transposes, so full is exactly symmetric.
    return CoefCovariance._trusted(labels, full)


def design_covariance(rule, distribution: AssignmentDistribution | None = None,
                      model: str = TWOLINE) -> CoefCovariance:
    """N-scaled covariance of the two-line or quadratic fit under a rule.

    Covers every rule design_moments covers: window rules on the uniform
    rank and standard-gaussian scales, sliding scales on the rank scale.
    """
    return moment_covariance(*design_moments(rule, distribution), model)
