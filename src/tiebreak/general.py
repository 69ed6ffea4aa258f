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

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covariance import schur_inverse
from .designs import ScoreThresholdRule, _read_table, _step
from .errors import DomainError, NoFeasibleDesignError

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


def _scores(vals: np.ndarray, theta: np.ndarray) -> np.ndarray:
    if theta.size != vals.shape[1]:
        raise DomainError(f"theta has {theta.size} entries for "
                          f"{vals.shape[1]} feature columns")
    return vals @ theta


def expected_weights(features, rule: ScoreThresholdRule) -> np.ndarray:
    """Expected arm E[z_i] for each subject under the threshold rule:
    +1 / -1 outside the window, 2p - 1 inside."""
    vals = _feature_values(features)
    scores = _scores(vals, rule.theta_array)
    return _step(scores, -rule.delta, rule.delta, -1.0, 2.0 * rule.p - 1.0, 1.0)


def _window_blocks(vals: np.ndarray, scores: np.ndarray, grid: np.ndarray,
                   coins: np.ndarray, gram: np.ndarray):
    """B = sum_i w_i F_i F_i' as (len(grid), len(coins), d, d), for each
    half-width in grid (sorted, distinct) and inside arm 2p - 1 in coins,
    and whether no subject is treated (row 0) or a control (row 1).

    As in _step, a subject is outside at delta iff |score| >= delta, on
    arm +1 iff score >= 0. Binned by how many grid values are at or below
    |score|, the subjects in bins above t are outside at grid[t]: B sums
    the arm-signed bins above t and 2p - 1 times the plain bins up to t,
    or is exactly (2p - 1) gram when everyone is inside.
    """
    n, d = vals.shape
    m = grid.size
    rows, cols = np.triu_indices(d)
    # Bins 0..m hold the control arm, bins m+1..2m+1 the treated one.
    bins = np.searchsorted(grid, np.abs(scores), side="right")
    np.add(bins, m + 1, out=bins, where=scores >= 0.0)
    counts = np.bincount(bins, minlength=2 * (m + 1)).reshape(2, m + 1)
    sums = np.stack([np.bincount(bins, vals[:, r] * vals[:, c], 2 * (m + 1))
                     for r, c in zip(rows, cols)], axis=-1).reshape(2, m + 1, -1)
    outside = np.cumsum((sums[1] - sums[0])[::-1], axis=0)[-2::-1]
    packed = outside[:, None] + coins[:, None] * np.cumsum(sums.sum(axis=0), axis=0)[:m, None]
    n_inside = np.cumsum(counts.sum(axis=0))[:m]
    packed[n_inside == n] = coins[:, None] * gram[rows, cols]
    blocks = np.empty((m, coins.size, d, d))
    blocks[..., rows, cols] = blocks[..., cols, rows] = packed
    n_outside = np.cumsum(counts[:, ::-1], axis=1)[:, -2::-1]
    # Nobody inside and nobody outside on the treated (control) arm.
    return blocks, n_inside + n_outside[::-1] == 0


def _evaluations(vals: np.ndarray, thetas, deltas, ps) -> list["DesignEvaluation"]:
    """Every (theta, delta, p) candidate, p varying fastest: A = F'F once,
    one pass over the subjects per theta, one stacked Schur inverse."""
    rules = [ScoreThresholdRule(tuple(theta), float(delta), float(p))
             for theta in thetas for delta in deltas for p in ps]
    if not rules:
        return []
    n, d = vals.shape
    grid, pick = np.unique(np.asarray(deltas, dtype=float), return_inverse=True)
    coins = 2.0 * np.asarray(ps, dtype=float) - 1.0
    gram = vals.T @ vals
    blocks, empty = zip(*(_window_blocks(vals, _scores(vals, rules[t].theta_array),
                                         grid, coins, gram)
                          for t in range(0, len(rules), len(deltas) * len(ps))))
    var, cross, reasons = schur_inverse(gram, np.stack(blocks)[:, pick].reshape(-1, d, d))
    empty = np.stack(empty)[:, :, pick].swapaxes(1, 2).reshape(-1, 2)
    out = []
    for i, rule in enumerate(rules):
        no_treated, no_control = empty[i // len(ps)]
        reason = ("no treated subjects" if no_treated else
                  "no control subjects" if no_control else reasons[i])
        out.append(DesignEvaluation(rule=rule, n=n, feasible=False, reason=reason)
                   if reason else
                   DesignEvaluation(rule=rule, n=n, feasible=True,
                                    var_interaction=var[i], cov_cross=cross[i]))
    return out


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
        return self.criterion_value("trace")

    def log_det(self) -> float:
        return self.criterion_value("log-det")

    def contrast_variance(self, contrast: Sequence[float]) -> float:
        return self.criterion_value("contrast", contrast)

    def criterion_value(self, criterion: str,
                        contrast: Sequence[float] | None = None) -> float:
        return float(_criterion(self._require_feasible(), criterion, contrast))


def _criterion(var: np.ndarray, criterion: str, contrast=None):
    """A precision criterion of Var(g-hat), for one matrix or a stack."""
    if criterion == "trace":
        return np.trace(var, axis1=-2, axis2=-1)
    if criterion == "log-det":
        sign, logdet = np.linalg.slogdet(var)
        if np.any(sign <= 0):
            raise DomainError("interaction covariance is not positive definite")
        return logdet
    if criterion == "contrast":
        if contrast is None:
            raise DomainError("the contrast criterion needs a contrast vector")
        c = np.asarray(contrast, dtype=float)
        if c.shape != (var.shape[-1],):
            raise DomainError(f"contrast must have {var.shape[-1]} entries")
        return c @ var @ c
    raise DomainError(f"unknown criterion {criterion!r}; "
                      f"choose from {', '.join(CRITERIA)}")


def evaluate_design(features, rule: ScoreThresholdRule) -> DesignEvaluation:
    """Precision of the interaction fit under one threshold rule.

    Var(g-hat) = (A - B A^-1 B)^-1 and Cov(b-hat, g-hat)
    = -A^-1 B Var(g-hat), per unit noise variance. Degenerate rules
    (everyone on one arm, or a collapsed Gram matrix) come back
    infeasible with a reason; nothing here raises for a bad design.
    """
    return _evaluations(_feature_values(features), [rule.theta], [rule.delta],
                        [rule.p])[0]


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
    evaluations = _evaluations(_feature_values(features), thetas, deltas, ps)
    feasible = [i for i, ev in enumerate(evaluations) if ev.feasible]
    if not feasible:
        failed = Counter(ev.reason.split(":")[0] for ev in evaluations)
        detail = ", ".join(f"{k} {reason}" for reason, k in failed.items())
        raise NoFeasibleDesignError(f"no feasible design among {len(evaluations)} "
                                    "candidates" + (f": {detail}" if detail else ""))
    values = _criterion(np.array([evaluations[i].var_interaction for i in feasible]),
                        criterion, contrast)
    per_theta = len(deltas) * len(ps)
    results = [SearchResult(float(value), i // per_theta, i % per_theta // len(ps),
                            i % len(ps), evaluations[i])
               for i, value in zip(feasible, values)]
    results.sort(key=lambda r: (r.value, r.theta_index, r.delta_index, r.p_index))
    return results
