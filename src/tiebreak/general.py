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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covariance import (NO_CONTROL, NO_TREATED, REFUSALS, _gram, _schur_pair,
                         schur_inverse)
from .designs import ScoreThresholdRule, _read_table, _score_rule_axes, _step
from .errors import DegenerateDesignError, DomainError, NoFeasibleDesignError

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
        if not np.all(vals[:, 0] == 1.0):
            raise DomainError("first feature column must be an all-ones "
                              "intercept (or pass add_intercept=True)")
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
            vals = np.insert(vals, 0, 1.0, axis=-1)
            names = ("intercept",) + tuple(names) if names else None
        if names is None:
            names = ("intercept",) + tuple(f"f{j}" for j in range(1, vals.shape[1]))
        return cls(tuple(names), vals)

    @classmethod
    def from_csv(cls, path, add_intercept: bool = False) -> "FeatureMatrix":
        """Read a feature table: CSV with a header row, numeric columns."""
        names, values = _read_table(path)
        return cls.from_array(values, names=names, add_intercept=add_intercept)


def _feature_values(features) -> np.ndarray:
    """The values of a FeatureMatrix, or of a raw 2-d array after the same
    checks, intercept column included."""
    if isinstance(features, FeatureMatrix):
        return features.values
    if np.ndim(features) != 2:
        raise DomainError("features must form a 2-d array")
    return FeatureMatrix.from_array(features).values


def _scores(vals: np.ndarray, thetas) -> np.ndarray:
    """Scores F theta of a block of directions, (T, n). Each row is its
    own vals @ theta, which one product over the block might round
    otherwise; a block of one direction is a view of its row, not a copy.
    A score that overflows raises DomainError."""
    for theta in thetas:
        if len(theta) != vals.shape[1]:
            raise DomainError(f"theta has {len(theta)} entries for "
                              f"{vals.shape[1]} feature columns")
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [vals @ np.asarray(theta, dtype=float) for theta in thetas]
    scores = rows[0][None] if len(rows) == 1 else np.stack(rows)
    if not np.isfinite(scores).all():
        raise DomainError("scores are too large: F theta overflows")
    return scores


def _check_score_rule(rule):
    """Refuse any rule but a ScoreThresholdRule, which assigns on a
    feature score; the other rules assign on x."""
    if not isinstance(rule, ScoreThresholdRule):
        raise DomainError(f"cannot assign a feature table by a {type(rule).__name__}: "
                          "it takes a ScoreThresholdRule")


def expected_weights(features, rule: ScoreThresholdRule) -> np.ndarray:
    """Expected arm E[z_i] for each subject under the threshold rule:
    +1 / -1 outside the window, 2p - 1 inside."""
    _check_score_rule(rule)
    scores = _scores(_feature_values(features), [rule.theta])[0]
    return _step(scores, -rule.delta, rule.delta, -1.0, 2.0 * rule.p - 1.0, 1.0)


# Subject-directions binned per _window_blocks call: a 500-row table bins
# all of a search's directions at once, a 200 000-row one one at a time.
_BIN_CELLS = 1 << 18
# Longest grid whose bins _window_blocks counts, one comparison per grid
# value, instead of a binary search per subject. Timed at 32 000 and
# 200 000 subjects on a 2-vCPU Xeon VM, counting breaks even somewhere
# between 190 and 250 values, so 160 keeps a margin; it must stay within
# 255, the uint8 counts.
_COUNT_GRID = 160


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
    or is exactly (2p - 1) gram when everyone is inside. A grid of at most
    _COUNT_GRID values is counted, |score| >= value for each value, which
    for finite scores gives the integers searchsorted(grid, |score|,
    side="right") gives for a longer grid. Each direction's bins are offset
    by its row, so one bincount per column pair bins the whole block, and
    every (direction, bin) cell sums its subjects in row order, as a call
    per direction would.

    Column 0 of vals must be exactly 1.0, as FeatureMatrix guarantees: the
    (0, 0) sums are then the bin counts and the (0, c) sums weight by
    column c itself, bit for bit the sums of the products.
    """
    n, d = vals.shape
    m = grid.size
    lead = scores.shape[:-1]
    rows, cols = np.triu_indices(d)
    # Bins 0..m hold the control arm, bins m+1..2m+1 the treated one.
    size = np.abs(scores)
    if m <= _COUNT_GRID:
        small = np.zeros(scores.shape, np.uint8)
        for value in grid:
            small += size >= value
        bins = small.astype(np.intp)
    else:
        bins = np.searchsorted(grid, size, side="right")
    bins += (m + 1) * (scores >= 0.0)
    directions = math.prod(lead)
    cells = 2 * (m + 1) * directions
    if directions > 1:
        bins += np.arange(0, cells, 2 * (m + 1))[:, None]
    bins = bins.ravel()
    counts = np.bincount(bins, minlength=cells)

    def column_sums(r, c):
        """Bin sums of F_r F_c, its column repeated for each direction."""
        if c == 0:
            return counts.astype(float)
        product = vals[:, c] if r == 0 else vals[:, r] * vals[:, c]
        if directions > 1:
            product = np.tile(product, directions)
        return np.bincount(bins, product, cells)

    sums = np.stack([column_sums(r, c) for r, c in zip(rows, cols)],
                    axis=-1).reshape(lead + (2, m + 1, -1))
    counts = counts.reshape(lead + (2, m + 1))
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
    axes, then Var(g-hat), Cov(b-hat, g-hat) and refusal codes (0 where
    feasible, else an index in REFUSALS). A = F'F once, blocks of directions
    binned per pass over the subjects, one stacked Schur inverse."""
    axes = thetas, deltas, ps = _score_rule_axes(thetas, deltas, ps)
    if not thetas:
        return axes, None, None, np.zeros(0, np.intp)
    n, d = vals.shape
    grid, pick = np.unique(np.asarray(deltas), return_inverse=True)
    coins = 2.0 * np.asarray(ps) - 1.0
    gram = _gram(vals)
    step = max(1, _BIN_CELLS // max(n, 1))
    blocks, empty = zip(*(_window_blocks(vals, _scores(vals, thetas[t:t + step]),
                                         grid, coins, gram)
                          for t in range(0, len(thetas), step)))
    var, cross, codes = schur_inverse(
        gram, np.concatenate(blocks)[:, pick].reshape(-1, d, d))
    empty = np.concatenate(empty)[:, :, pick].swapaxes(1, 2).reshape(-1, 2)
    no_treated, no_control = np.repeat(empty, len(ps), axis=0).T
    return axes, var, cross, np.where(no_treated, NO_TREATED,
                                      np.where(no_control, NO_CONTROL, codes))


@dataclass(frozen=True, eq=False)
class DesignEvaluation:
    """Precision of one feasible threshold rule on a feature matrix.

    var_interaction is Var(g-hat) per unit noise variance (so it scales
    like 1/n; multiply by n to compare against population formulas).
    cov_cross is Cov(b-hat, g-hat).
    """

    rule: ScoreThresholdRule
    n: int
    var_interaction: np.ndarray
    cov_cross: np.ndarray

    def criterion_value(self, criterion: str,
                        contrast: Sequence[float] | None = None) -> float:
        return float(_criterion(self.var_interaction, criterion, contrast))


def _criterion(var: np.ndarray, criterion: str, contrast=None):
    """A precision criterion of Var(g-hat), for one matrix or a stack."""
    if contrast is not None and criterion in ("trace", "log-det"):
        raise DomainError(f"the {criterion} criterion takes no contrast vector")
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
        if not np.isfinite(c).all():
            raise DomainError("contrast must be finite")
        return c @ var @ c
    raise DomainError(f"unknown criterion {criterion!r}; "
                      f"choose from {', '.join(CRITERIA)}")


def evaluate_design(features, rule: ScoreThresholdRule) -> DesignEvaluation:
    """Precision of the interaction fit under one threshold rule.

    Var(g-hat) = (A - B A^-1 B)^-1 and Cov(b-hat, g-hat)
    = -A^-1 B Var(g-hat), per unit noise variance. A degenerate rule
    (everyone on one arm, or a collapsed Gram matrix) raises
    DegenerateDesignError with the reason the search counts it under,
    and features so large that F'F or a score overflows raise
    DomainError, as does any rule but a ScoreThresholdRule.
    """
    _check_score_rule(rule)
    vals = _feature_values(features)
    _, var, cross, (code,) = _candidates(vals, [rule.theta], [rule.delta], [rule.p])
    if code:
        raise DegenerateDesignError(REFUSALS[code])
    return DesignEvaluation(rule, vals.shape[0], var[0], cross[0])


def fully_randomized_covariance(features) -> np.ndarray:
    """Var(g-hat) for the fair coin on everyone: B = 0, so A^-1, the PSD
    floor. Collinear features raise DegenerateDesignError, and features
    so large that F'F overflows DomainError."""
    a = _gram(_feature_values(features))
    return _schur_pair(a, np.zeros_like(a))[0]


@dataclass(frozen=True)
class SearchResult:
    """One feasible candidate from a design search, with its rank value."""

    value: float
    theta_index: int
    delta_index: int
    p_index: int
    evaluation: DesignEvaluation


@dataclass(frozen=True, eq=False)
class SearchReport:
    """The feasible candidates of a design search, best first, as arrays.

    values and the theta_index, delta_index and p_index into the checked
    axes thetas, deltas and ps hold one entry per feasible candidate;
    var_interaction and cov_cross stack their Var(g-hat) and Cov(b-hat,
    g-hat), (k, d, d), for n subjects. refused counts the other candidates
    by reason, in the order each reason first occurs. report[i] builds the
    i-th SearchResult, so list(report) is the whole ranking.
    """

    values: np.ndarray
    theta_index: np.ndarray
    delta_index: np.ndarray
    p_index: np.ndarray
    var_interaction: np.ndarray
    cov_cross: np.ndarray
    thetas: tuple[tuple[float, ...], ...]
    deltas: tuple[float, ...]
    ps: tuple[float, ...]
    n: int
    refused: dict[str, int]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i) -> SearchResult:
        t, j, k = (int(index[i]) for index in (self.theta_index, self.delta_index,
                                                self.p_index))
        rule = ScoreThresholdRule(self.thetas[t], self.deltas[j], self.ps[k])
        return SearchResult(float(self.values[i]), t, j, k, DesignEvaluation(
            rule, self.n, self.var_interaction[i], self.cov_cross[i]))


def design_search(features, thetas: Sequence[Sequence[float]],
                  deltas: Sequence[float], ps: Sequence[float] = (0.5,),
                  criterion: str = "trace",
                  contrast: Sequence[float] | None = None) -> SearchReport:
    """Rank every (theta, delta, p) candidate by a precision criterion.

    Returns the feasible candidates sorted ascending (smaller is better),
    ties broken by candidate order. Raises NoFeasibleDesignError when
    nothing survives, so callers can distinguish an empty ranking from
    a bad argument, and DomainError, as evaluate_design does, for
    features so large that F'F or a score overflows.
    """
    vals = _feature_values(features)
    # An empty stack checks the criterion and its contrast, as
    # criterion_value does, before any candidate is evaluated.
    _criterion(np.empty((0, vals.shape[1], vals.shape[1])), criterion, contrast)
    (thetas, deltas, ps), var, cross, codes = _candidates(vals, thetas, deltas, ps)
    # Counted by refusal, in the order each refusal first occurs.
    failed, first, counts = np.unique(codes[codes != 0], return_index=True,
                                      return_counts=True)
    refused = {REFUSALS[failed[i]].split(":")[0]: int(counts[i]) for i in np.argsort(first)}
    feasible = np.flatnonzero(codes == 0)
    if not feasible.size:
        detail = ", ".join(f"{count} {reason}" for reason, count in refused.items())
        raise NoFeasibleDesignError(f"no feasible design among {len(codes)} "
                                    "candidates" + (f": {detail}" if detail else ""))
    values = _criterion(var[feasible], criterion, contrast)
    theta_index, rest = np.divmod(feasible, len(deltas) * len(ps))
    delta_index, p_index = np.divmod(rest, len(ps))
    # Ascending by the key (value, theta, delta, p), which is total.
    order = np.lexsort((p_index, delta_index, theta_index, values))
    ranked = feasible[order]
    return SearchReport(values[order], theta_index[order], delta_index[order],
                        p_index[order], var[ranked], cross[ranked], tuple(thetas),
                        tuple(deltas), tuple(ps), vals.shape[0], refused)
