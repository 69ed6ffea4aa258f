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

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covariance import schur_inverse
from .designs import ScoreThresholdRule, _read_table, _score_rule_axes, _step
from .errors import DomainError, NoFeasibleDesignError

CRITERIA = ("trace", "log-det", "contrast")


@dataclass(frozen=True, eq=False)
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


def _scores(vals: np.ndarray, thetas) -> np.ndarray:
    """Scores F theta of a block of directions, (T, n). Each row is its
    own vals @ theta, which one product over the block might round
    otherwise; a block of one direction is a view of its row, not a copy."""
    for theta in thetas:
        if len(theta) != vals.shape[1]:
            raise DomainError(f"theta has {len(theta)} entries for "
                              f"{vals.shape[1]} feature columns")
    rows = [vals @ np.asarray(theta, dtype=float) for theta in thetas]
    return rows[0][None] if len(rows) == 1 else np.stack(rows)


def expected_weights(features, rule: ScoreThresholdRule) -> np.ndarray:
    """Expected arm E[z_i] for each subject under the threshold rule:
    +1 / -1 outside the window, 2p - 1 inside."""
    scores = _scores(_feature_values(features), [rule.theta])[0]
    return _step(scores, -rule.delta, rule.delta, -1.0, 2.0 * rule.p - 1.0, 1.0)


# Subject-directions binned per _window_blocks call: a 500-row table bins
# all of a search's directions at once, a 200 000-row one one at a time.
_BIN_CELLS = 1 << 18


def _window_blocks(vals: np.ndarray, scores: np.ndarray, grid: np.ndarray,
                   coins: np.ndarray, gram: np.ndarray):
    """B = sum_i w_i F_i F_i' as (len(grid), len(coins), d, d), for each
    half-width in grid (sorted, distinct) and inside arm 2p - 1 in coins,
    and whether no subject is treated (row 0) or a control (row 1). Scores
    of shape (T, n), one row per direction, put a leading T axis on both.

    As in _step, a subject is outside at delta iff |score| >= delta, on
    arm +1 iff score >= 0. Binned by how many grid values are at or below
    |score|, the subjects in bins above t are outside at grid[t]: B sums
    the arm-signed bins above t and 2p - 1 times the plain bins up to t,
    or is exactly (2p - 1) gram when everyone is inside. Each direction's
    bins are offset by its row, so one bincount per column pair bins the
    whole block, and every (direction, bin) cell sums its subjects in row
    order, as a call per direction would.
    """
    n, d = vals.shape
    m = grid.size
    lead = scores.shape[:-1]
    rows, cols = np.triu_indices(d)
    # Bins 0..m hold the control arm, bins m+1..2m+1 the treated one.
    bins = np.searchsorted(grid, np.abs(scores), side="right")
    np.add(bins, m + 1, out=bins, where=scores >= 0.0)
    directions = math.prod(lead)
    cells = 2 * (m + 1) * directions
    if directions > 1:
        bins += np.arange(0, cells, 2 * (m + 1))[:, None]
    bins = bins.ravel()
    counts = np.bincount(bins, minlength=cells).reshape(lead + (2, m + 1))

    def column(r, c):
        """F_r F_c, repeated for each direction of the block."""
        product = vals[:, r] * vals[:, c]
        return np.tile(product, directions) if directions > 1 else product

    sums = np.stack([np.bincount(bins, column(r, c), cells) for r, c in zip(rows, cols)],
                    axis=-1).reshape(lead + (2, m + 1, -1))
    outside = np.cumsum((sums[..., 1, :, :] - sums[..., 0, :, :])[..., ::-1, :],
                        axis=-2)[..., -2::-1, :]
    packed = (outside[..., None, :] + coins[:, None]
              * np.cumsum(sums.sum(axis=-3), axis=-2)[..., :m, None, :])
    n_inside = np.cumsum(counts.sum(axis=-2), axis=-1)[..., :m]
    packed[n_inside == n] = coins[:, None] * gram[rows, cols]
    blocks = np.empty(lead + (m, coins.size, d, d))
    blocks[..., rows, cols] = blocks[..., cols, rows] = packed
    n_outside = np.cumsum(counts[..., ::-1], axis=-1)[..., -2::-1]
    # Nobody inside and nobody outside on the treated (control) arm.
    return blocks, n_inside[..., None, :] + n_outside[..., ::-1, :] == 0


def _candidates(vals: np.ndarray, thetas, deltas, ps):
    """Every (theta, delta, p) candidate, p varying fastest: the checked
    axes, then Var(g-hat), Cov(b-hat, g-hat) and why each is infeasible
    (None where it is feasible). A = F'F once, blocks of directions binned
    per pass over the subjects, one stacked Schur inverse."""
    axes = thetas, deltas, ps = _score_rule_axes(thetas, deltas, ps)
    if not thetas:
        return axes, None, None, []
    n, d = vals.shape
    grid, pick = np.unique(np.asarray(deltas), return_inverse=True)
    coins = 2.0 * np.asarray(ps) - 1.0
    gram = vals.T @ vals
    step = max(1, _BIN_CELLS // max(n, 1))
    blocks, empty = zip(*(_window_blocks(vals, _scores(vals, thetas[t:t + step]),
                                         grid, coins, gram)
                          for t in range(0, len(thetas), step)))
    var, cross, reasons = schur_inverse(
        gram, np.concatenate(blocks)[:, pick].reshape(-1, d, d))
    empty = np.concatenate(empty)[:, :, pick].swapaxes(1, 2).reshape(-1, 2)
    no_treated, no_control = np.repeat(empty, len(ps), axis=0).T.tolist()
    reasons = ["no treated subjects" if none_treated else
               "no control subjects" if none_control else reason
               for none_treated, none_control, reason in zip(no_treated, no_control,
                                                             reasons)]
    return axes, var, cross, reasons


def _evaluations(vals: np.ndarray, thetas, deltas, ps) -> list["DesignEvaluation"]:
    """The evaluation of every (theta, delta, p) candidate, p varying fastest."""
    (thetas, deltas, ps), var, cross, reasons = _candidates(vals, thetas, deltas, ps)
    n = vals.shape[0]
    rules = (ScoreThresholdRule._trusted(theta, delta, p)
             for theta in thetas for delta in deltas for p in ps)
    return [DesignEvaluation(rule=rule, n=n, feasible=False, reason=reason)
            if reason else
            DesignEvaluation(rule=rule, n=n, feasible=True,
                             var_interaction=var[i], cov_cross=cross[i])
            for i, (rule, reason) in enumerate(zip(rules, reasons))]


@dataclass(frozen=True, eq=False)
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
    vals = _feature_values(features)
    (thetas, deltas, ps), var, cross, reasons = _candidates(vals, thetas, deltas, ps)
    feasible = np.array([i for i, reason in enumerate(reasons) if reason is None],
                        dtype=np.intp)
    if not feasible.size:
        failed = Counter(reason.split(":")[0] for reason in reasons)
        detail = ", ".join(f"{k} {reason}" for reason, k in failed.items())
        raise NoFeasibleDesignError(f"no feasible design among {len(reasons)} "
                                    "candidates" + (f": {detail}" if detail else ""))
    values = _criterion(var[feasible], criterion, contrast)
    theta_index, rest = np.divmod(feasible, len(deltas) * len(ps))
    delta_index, p_index = np.divmod(rest, len(ps))
    # Ascending by the key (value, theta, delta, p), which is total.
    order = np.lexsort((p_index, delta_index, theta_index, values))
    n = vals.shape[0]
    results = []
    for value, i, t, j, k in zip(*(column[order].tolist() for column in (
            values, feasible, theta_index, delta_index, p_index))):
        rule = ScoreThresholdRule._trusted(thetas[t], deltas[j], ps[k])
        evaluation = DesignEvaluation(rule=rule, n=n, feasible=True,
                                      var_interaction=var[i], cov_cross=cross[i])
        results.append(SearchResult(value, t, j, k, evaluation))
    return results
