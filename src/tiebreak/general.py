"""Threshold designs on multivariate eligibility scores.

Here each subject carries a feature vector F_i (first entry 1), the
outcome model is Y = F'b + z F'g + noise, and assignment follows a
tie-breaker on the scalar score theta'F: deterministic arms beyond a
distance delta from the cut-off, a p-coin inside. The precision of the
interaction coefficients g depends on the rule only through the expected
arm per subject, so candidate rules can be ranked without simulating.

Fully randomizing (an infinitely wide window) zeroes the expected arms
and is optimal in the positive semidefinite order; everything else pays
for targeting with variance, and the search quantifies how much.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covariance import schur_inverse
from .designs import ScoreThresholdRule, _read_table, _step
from .errors import DegenerateDesignError, DomainError, NoFeasibleDesignError

CRITERIA = ("trace", "log-det", "contrast")


@dataclass(frozen=True)
class FeatureMatrix:
    """A named n x d feature array whose first column is the intercept."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] == 0 or vals.shape[1] == 0:
            raise DomainError("features must form a non-empty 2-d array")
        if len(self.names) != vals.shape[1]:
            raise DomainError("need one name per feature column")
        if not np.all(np.isfinite(vals)):
            raise DomainError("features must all be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "names", tuple(str(s) for s in self.names))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_array(cls, values, names: Sequence[str] | None = None,
                   add_intercept: bool = False) -> "FeatureMatrix":
        vals = np.atleast_2d(np.asarray(values, dtype=float))
        if add_intercept:
            vals = np.hstack([np.ones((vals.shape[0], 1)), vals])
            names = ("intercept",) + tuple(names) if names else None
        if names is None:
            names = ("intercept",) + tuple(f"f{j}" for j in range(1, vals.shape[1]))
        fm = cls(tuple(names), vals)
        if not np.all(fm.values[:, 0] == 1.0):
            raise DomainError("first feature column must be an all-ones "
                              "intercept (or pass add_intercept=True)")
        return fm

    @classmethod
    def from_csv(cls, path, add_intercept: bool = False) -> "FeatureMatrix":
        """Read a feature table: CSV with a header row, numeric columns."""
        names, values = _read_table(path)
        return cls.from_array(values, names=names, add_intercept=add_intercept)


def _feature_values(features) -> np.ndarray:
    if isinstance(features, FeatureMatrix):
        return features.values
    vals = np.ascontiguousarray(features, dtype=float)
    if vals.ndim != 2:
        raise DomainError("features must form a 2-d array")
    return vals


def expected_weights(features, rule: ScoreThresholdRule) -> np.ndarray:
    """Expected arm E[z_i] for each subject under the threshold rule:
    +1 / -1 outside the window, 2p - 1 inside."""
    vals = _feature_values(features)
    theta = rule.theta_array
    if theta.size != vals.shape[1]:
        raise DomainError(f"theta has {theta.size} entries for "
                          f"{vals.shape[1]} feature columns")
    scores = vals @ theta
    return _step(scores, -rule.delta, rule.delta, -1.0, 2.0 * rule.p - 1.0, 1.0)


def assemble_blocks(features, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram blocks of the joint fit: A = sum F F' and B = sum w F F'."""
    vals = _feature_values(features)
    w = np.ascontiguousarray(weights, dtype=float)
    if w.shape != (vals.shape[0],):
        raise DomainError("need one weight per subject")
    return vals.T @ vals, vals.T @ (w[:, None] * vals)


@dataclass(frozen=True)
class DesignEvaluation:
    """Outcome of evaluating one threshold rule on a feature matrix.

    var_interaction is Var(g-hat) per unit noise variance (so it scales
    like 1/n; multiply by n to compare against population formulas).
    cov_cross is Cov(b-hat, g-hat). Infeasible evaluations carry a
    reason instead of matrices.
    """

    rule: ScoreThresholdRule
    n: int
    feasible: bool
    reason: str | None = None
    var_interaction: np.ndarray | None = None
    cov_cross: np.ndarray | None = None

    def _require_feasible(self) -> np.ndarray:
        if not self.feasible or self.var_interaction is None:
            raise DomainError(f"design is infeasible: {self.reason}")
        return self.var_interaction

    def trace(self) -> float:
        return float(np.trace(self._require_feasible()))

    def log_det(self) -> float:
        sign, logdet = np.linalg.slogdet(self._require_feasible())
        if sign <= 0:
            raise DomainError("interaction covariance is not positive definite")
        return float(logdet)

    def contrast_variance(self, contrast: Sequence[float]) -> float:
        var = self._require_feasible()
        c = np.asarray(contrast, dtype=float)
        if c.shape != (var.shape[0],):
            raise DomainError(f"contrast must have {var.shape[0]} entries")
        return float(c @ var @ c)

    def criterion_value(self, criterion: str,
                        contrast: Sequence[float] | None = None) -> float:
        if criterion == "trace":
            return self.trace()
        if criterion == "log-det":
            return self.log_det()
        if criterion == "contrast":
            if contrast is None:
                raise DomainError("the contrast criterion needs a contrast vector")
            return self.contrast_variance(contrast)
        raise DomainError(f"unknown criterion {criterion!r}; "
                          f"choose from {', '.join(CRITERIA)}")


def _infeasible(rule, n, reason) -> DesignEvaluation:
    return DesignEvaluation(rule=rule, n=n, feasible=False, reason=reason)


def evaluate_design(features, rule: ScoreThresholdRule) -> DesignEvaluation:
    """Precision of the interaction fit under one threshold rule.

    Var(g-hat) = (A - B A^-1 B)^-1 and Cov(b-hat, g-hat)
    = -A^-1 B Var(g-hat), per unit noise variance. Degenerate rules
    (everyone on one arm, or a collapsed Gram matrix) come back
    infeasible with a reason; nothing here raises for a bad design.
    """
    vals = _feature_values(features)
    n = vals.shape[0]
    w = expected_weights(vals, rule)
    if np.all(w <= -1.0):
        return _infeasible(rule, n, "no treated subjects")
    if np.all(w >= 1.0):
        return _infeasible(rule, n, "no control subjects")
    try:
        var_gamma, cov_cross = schur_inverse(*assemble_blocks(vals, w))
    except DegenerateDesignError as exc:
        return _infeasible(rule, n, str(exc))
    return DesignEvaluation(rule=rule, n=n, feasible=True,
                            var_interaction=var_gamma, cov_cross=cov_cross)


def fully_randomized_covariance(features) -> np.ndarray:
    """Var(g-hat) for the fair coin on everyone: B = 0, so A^-1, the PSD
    floor. Collinear features raise DegenerateDesignError."""
    vals = _feature_values(features)
    a = vals.T @ vals
    return schur_inverse(a, np.zeros_like(a))[0]


@dataclass(frozen=True)
class SearchResult:
    """One feasible candidate from a design search, with its rank value."""

    value: float
    theta_index: int
    delta_index: int
    p_index: int
    evaluation: DesignEvaluation


def design_search(features, thetas: Sequence[Sequence[float]],
                  deltas: Sequence[float], ps: Sequence[float] = (0.5,),
                  criterion: str = "trace",
                  contrast: Sequence[float] | None = None) -> list[SearchResult]:
    """Rank every (theta, delta, p) candidate by a precision criterion.

    Returns feasible candidates sorted ascending (smaller is better),
    ties broken by candidate order. Raises NoFeasibleDesignError when
    nothing survives, so callers can distinguish an empty ranking from
    a bad argument.
    """
    if criterion not in CRITERIA:
        raise DomainError(f"unknown criterion {criterion!r}; "
                          f"choose from {', '.join(CRITERIA)}")
    vals = _feature_values(features)
    results: list[SearchResult] = []
    for ti, theta in enumerate(thetas):
        for di, delta in enumerate(deltas):
            for pi, p in enumerate(ps):
                rule = ScoreThresholdRule(tuple(theta), float(delta), float(p))
                ev = evaluate_design(vals, rule)
                if not ev.feasible:
                    continue
                value = ev.criterion_value(criterion, contrast=contrast)
                results.append(SearchResult(value, ti, di, pi, ev))
    if not results:
        raise NoFeasibleDesignError(
            "no feasible design among the candidates")
    results.sort(key=lambda r: (r.value, r.theta_index, r.delta_index, r.p_index))
    return results
