"""Assignment distributions, treatment rules, and sliding allocation scales.

The analysis operates on a rank-transformed assignment variable: the N
subjects' scores are replaced by the equispaced grid x_i = (2i - N - 1)/N,
which is uniform on (-1, 1) in the large-N limit. Rules decide the
treatment arm z in {-1, +1} from x: deterministic arms outside a window,
randomization inside it, or a probability p(x) that slides with x.
Feature tables and scale files are read by one CSV table reader.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
import statistics
import string
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DomainError

UNIFORM_RANK = "uniform-rank"
STANDARD_GAUSSIAN = "standard-gaussian"

# The package's one standard normal: Gaussian design points and window
# edges are its quantiles (Wichura's AS 241, within 1e-15 of scipy's ndtri).
_GAUSSIAN = statistics.NormalDist()


def _check_finite(value, name: str) -> np.ndarray:
    """value as an array, refused unless every entry is finite."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    return arr


def subject_ranks(scores: Sequence[float]) -> np.ndarray:
    """Rank value per input subject, ties broken by original index (stable).

    Sorted, the values are x_i = (2i - N - 1)/N for i = 1..N, the
    uniform-rank grid, which depends on the scores only through N.
    """
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("scores must be a non-empty one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise DomainError("scores must all be finite")
    out = np.empty(arr.size)
    out[np.argsort(arr, kind="stable")] = AssignmentDistribution.uniform_rank().points(arr.size)
    return out


@dataclass(frozen=True)
class AssignmentDistribution:
    """Distribution of the assignment variable x.

    kind is "uniform-rank" (the default analysis scale: scores replaced
    by their ranks) or "standard-gaussian" (scores kept on their
    original N(0,1) scale).
    """

    kind: str

    def __post_init__(self):
        if self.kind not in (UNIFORM_RANK, STANDARD_GAUSSIAN):
            raise DomainError(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def uniform_rank(cls) -> "AssignmentDistribution":
        return cls(UNIFORM_RANK)

    @classmethod
    def standard_gaussian(cls) -> "AssignmentDistribution":
        return cls(STANDARD_GAUSSIAN)

    def points(self, n: int) -> np.ndarray:
        """Fixed design points for n subjects, sorted ascending.

        Uniform ranks use the equispaced grid x_i = (2i - n - 1)/n, the
        Gaussian case the quantile midpoints Phi^-1((i - 1/2)/n).
        """
        if not isinstance(n, numbers.Integral) or n < 1:
            raise DomainError("n must be a positive integer")
        if self.kind == UNIFORM_RANK:
            return (2.0 * np.arange(1, n + 1) - n - 1) / n
        # Every midpoint directly: mirroring the lower half moves points
        # by up to 5e-13, as 1 - q is not the complement of the float q.
        mids = (np.arange(1, n + 1) - 0.5) / n
        return np.array([_GAUSSIAN.inv_cdf(q) for q in mids.tolist()])

    def central_window(self, frac: float) -> tuple[float, float]:
        """Window (lo, hi) that randomizes the central fraction frac of mass."""
        if not 0.0 <= frac <= 1.0:
            raise DomainError("experimented fraction must lie in [0, 1]")
        if self.kind == STANDARD_GAUSSIAN:
            # Just below frac = 1 the half-sum already rounds to 1.
            upper = (1.0 + frac) / 2.0
            tau = math.inf if upper >= 1.0 else _GAUSSIAN.inv_cdf(upper)
            return (-tau, tau)
        return (-frac, frac)


@dataclass(frozen=True)
class TieBreaker:
    """Randomize the central fraction delta; treat the top, control the bottom.

    delta = 0 is the regression discontinuity design, delta = 1 the fully
    randomized trial. Subjects with x >= delta are treated, x <= -delta are
    controls, and the strict inside is randomized with treatment
    probability p.
    """

    delta: float
    p: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise DomainError("delta must lie in [0, 1]")
        _check_p(self.p)


@dataclass(frozen=True)
class IntervalRule:
    """Randomize on (a, b) with probability p; treat x >= b, control x <= a."""

    a: float
    b: float
    p: float = 0.5

    def __post_init__(self):
        if not (-1.0 <= self.a <= self.b <= 1.0):
            raise DomainError("window must satisfy -1 <= a <= b <= 1")
        _check_p(self.p)


@dataclass(frozen=True)
class ThreeLevelRule:
    """Treatment probabilities epsilon / 0.5 / 1 - epsilon by region.

    The bottom region (x <= -delta) is treated with probability epsilon,
    the central window is a fair coin, and the top region is treated with
    probability 1 - epsilon.
    """

    delta: float
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise DomainError("delta must lie in [0, 1]")
        if not 0.0 <= self.epsilon < 0.5:
            raise DomainError("epsilon must lie in [0, 1/2)")


# The window rules: deterministic arms outside a window, a coin inside.
WINDOW_RULES = (TieBreaker, IntervalRule, ThreeLevelRule)


@dataclass(frozen=True)
class ScoreThresholdRule:
    """Tie-breaker on a linear score: randomize where |theta . F| < delta.

    Rows with theta . F >= delta are treated, rows with theta . F <= -delta
    are controls, and the strict inside is randomized with probability p.
    """

    theta: tuple[float, ...]
    delta: float
    p: float = 0.5

    def __post_init__(self):
        theta = _score_theta(self.theta)
        _score_delta(self.delta)
        _check_p(self.p)
        object.__setattr__(self, "theta", theta)

    @property
    def theta_array(self) -> np.ndarray:
        return np.asarray(self.theta, dtype=float)


def _score_theta(theta) -> tuple[float, ...]:
    theta = tuple(np.asarray(theta, dtype=float).ravel().tolist())
    if not theta or not all(map(math.isfinite, theta)):
        raise DomainError("theta must be a non-empty finite vector")
    if not any(v != 0.0 for v in theta):
        raise DomainError("theta must not be the zero vector")
    return theta


def _score_delta(delta):
    if not (math.isfinite(delta) and delta >= 0.0):
        raise DomainError("delta must be a finite non-negative real")
    return delta


def _check_p(p):
    if not 0.0 < p < 1.0:
        raise DomainError("p must lie strictly inside (0, 1)")
    return p


def _score_rule_axes(thetas, deltas, ps):
    """The checked axes (thetas, deltas, ps) of a grid of ScoreThresholdRule
    candidates, each value checked once: thetas as tuples of floats, the
    rest as floats.

    Candidates run theta-major with p fastest, so a bad value raises what
    the first candidate holding it raises when built by the public
    constructor: the first candidate in full, then each further p, delta
    and theta in turn. Any empty axis makes an empty grid, with nothing
    checked.
    """
    thetas = list(thetas)
    deltas = list(deltas) if thetas else []
    ps = list(ps) if deltas else []
    if not ps:
        return [], [], []
    first = ScoreThresholdRule(tuple(thetas[0]), float(deltas[0]), float(ps[0]))
    ps = [first.p] + [_check_p(float(p)) for p in ps[1:]]
    deltas = [first.delta] + [_score_delta(float(d)) for d in deltas[1:]]
    thetas = [first.theta] + [_score_theta(tuple(t)) for t in thetas[1:]]
    return thetas, deltas, ps


class SlidingScale:
    """Treatment probability p(x) on [-1, 1], analytic or tabulated.

    Tabulated scales are evaluated by linear interpolation between knots
    with constant extension beyond the first and last knot. Values must
    lie in [0, 1]; monotonicity is typical for real designs but not
    required (the |x| scale is a useful counterexample). Every scale is
    probed when built, and every value it returns is checked: one
    probability per x, finite and in [0, 1] up to 1e-12, or DomainError.
    A value within that slack comes back clipped to [0, 1].
    """

    def __init__(self, func: Callable[[np.ndarray], np.ndarray],
                 breakpoints: Sequence[float] = ()):
        self._func = func
        self._breakpoints = tuple(sorted(float(b) for b in breakpoints))
        if not all(map(math.isfinite, self._breakpoints)):
            raise DomainError("scale breakpoints must be finite")
        self._table = None
        probe = np.union1d(np.linspace(-1.0, 1.0, 257), self._breakpoints)
        self(probe[(probe >= -1.0) & (probe <= 1.0)])

    @classmethod
    def from_callable(cls, func: Callable, breakpoints: Sequence[float] = ()) -> "SlidingScale":
        """A scale from a scalar function of x.

        Every jump or kink of func must be declared as a breakpoint: the
        moments integrate each piece between breakpoints with a fixed
        Gauss-Legendre rule and refuse a piece on which func is not smooth.
        """
        return cls(np.vectorize(func, otypes=[float]), breakpoints)

    @classmethod
    def from_table(cls, x: Sequence[float], p: Sequence[float]) -> "SlidingScale":
        xs = np.asarray(x, dtype=float)
        ps = np.asarray(p, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or xs.shape != ps.shape:
            raise DomainError("a tabulated scale needs matching x and p columns "
                              "with at least two knots")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ps))):
            raise DomainError("table entries must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise DomainError("table x values must be strictly increasing")
        if ps.min() < 0.0 or ps.max() > 1.0:
            raise DomainError("table p values must lie in [0, 1]")
        xs = xs.copy()
        ps = ps.copy()
        xs.setflags(write=False)
        ps.setflags(write=False)
        scale = cls(lambda t: np.interp(t, xs, ps), xs)
        scale._table = (xs, ps)
        return scale

    @classmethod
    def from_csv(cls, path) -> "SlidingScale":
        """Read a two-column CSV "x,p" with a header row."""
        names, values = _read_table(path)
        if len(names) != 2:
            raise DomainError(f"{path}: a scale file has two columns x, p, "
                              f"not {len(names)}")
        return cls.from_table(values[:, 0], values[:, 1])

    @classmethod
    def from_rule(cls, rule) -> "SlidingScale":
        """Express a window rule as its (step) probability scale."""
        if not isinstance(rule, WINDOW_RULES):
            raise DomainError(f"cannot express {type(rule).__name__} as a scale")
        levels = _step_levels(rule)
        return cls(lambda x: _step(x, *levels), breakpoints=levels[:2])

    def __call__(self, x):
        arr = _check_finite(x, "x")
        out = np.asarray(self._func(arr), dtype=float)
        if out.shape != arr.shape:
            raise DomainError("a scale must return one probability per x")
        if out.size and not (out.min() >= 0.0 and out.max() <= 1.0):
            if not (out.min() >= -1e-12 and out.max() <= 1.0 + 1e-12):
                raise DomainError("scale produced non-finite probabilities"
                                  if not np.isfinite(out).all()
                                  else "scale values must lie in [0, 1]")
            out = np.clip(out, 0.0, 1.0)
        return float(out) if arr.ndim == 0 else out

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self._breakpoints

    @property
    def table(self) -> tuple[np.ndarray, np.ndarray] | None:
        return self._table


DesignRule = Union[TieBreaker, IntervalRule, ThreeLevelRule, SlidingScale, ScoreThresholdRule]


def _step(x, lo, hi, bottom, mid, top):
    """The three-region rule: top for x >= hi, bottom for x <= lo, mid between."""
    return np.where(x >= hi, top, np.where(x <= lo, bottom, mid))


def _step_levels(rule, distribution: AssignmentDistribution | None = None):
    """(lo, hi, bottom, mid, top) of a window rule's treatment probability."""
    if isinstance(rule, (TieBreaker, ThreeLevelRule)):
        dist = distribution or AssignmentDistribution.uniform_rank()
        lo, hi = dist.central_window(rule.delta)
        if isinstance(rule, TieBreaker):
            return lo, hi, 0.0, rule.p, 1.0
        return lo, hi, rule.epsilon, 0.5, 1.0 - rule.epsilon
    if isinstance(rule, IntervalRule):
        return rule.a, rule.b, 0.0, rule.p, 1.0
    if isinstance(rule, ScoreThresholdRule):
        return -rule.delta, rule.delta, 0.0, rule.p, 1.0
    raise DomainError(f"unknown rule type {type(rule).__name__}")


def treatment_probability(x, rule: DesignRule,
                          distribution: AssignmentDistribution | None = None):
    """Pr(z = +1 | x) under a rule, on the distribution's own x scale.

    The central window of a TieBreaker or ThreeLevelRule is a fraction of
    the population, so its x-space location depends on the distribution
    (plus or minus delta on the rank scale, quantiles of the Gaussian).
    IntervalRule and ScoreThresholdRule windows are literal x thresholds.
    A SlidingScale is defined on the rank scale [-1, 1], so applying one
    to standard-gaussian scores raises DomainError, as does a non-finite x.
    """
    arr = _check_finite(x, "x")
    if isinstance(rule, SlidingScale):
        if distribution is not None and distribution.kind == STANDARD_GAUSSIAN:
            raise DomainError("a sliding scale is defined on the rank scale "
                              "[-1, 1] and cannot assign standard-gaussian scores")
        out = rule(arr)
    else:
        out = _step(arr, *_step_levels(rule, distribution))
    return float(out) if arr.ndim == 0 else np.asarray(out, dtype=float)


# Characters of a data row that holds no value: rows made only of these
# (blank rows, rows of empty or quoted-empty cells) are skipped.
_EMPTY_ROW = string.whitespace + ',"'


def _parse_rows(lines) -> np.ndarray:
    """The one data-row parser: comma-separated numbers, quotes allowed,
    and no comments (a '#' in a data row makes it non-numeric)."""
    return np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2)


def _read_table(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Header names and data rows of a CSV table of numbers.

    The header row is read with csv and every data row by one np.loadtxt
    call. Blank rows and rows of empty cells are skipped; whitespace
    around cells, quoted cells and CRLF line ends are accepted. A ragged
    or non-numeric row raises DomainError naming its line in the file.
    """
    with open(path, newline="") as handle:
        header = next(csv.reader(handle), None)
        if not header:
            raise DomainError(f"{path}: expected a header row")
        rows = (line for line in handle if line.strip(_EMPTY_ROW))
        first = next(rows, None)
        if first is None:
            raise DomainError(f"{path}: no data rows")
        try:
            values = _parse_rows(itertools.chain([first], rows))
        except ValueError:
            values = None
    names = tuple(cell.strip() for cell in header)
    if values is None or values.shape[1] != len(names):
        raise DomainError(f"{path}: {_bad_row(path, len(names))}")
    return names, values


def _bad_row(path, width: int) -> str:
    """Where a table's data rows go wrong: the first record that is not
    width columns wide or not numeric, named by its first line (a quoted
    cell may span lines), found by walking the records with csv after
    the whole-table parse has failed."""
    with open(path, newline="") as handle:
        # The physical lines of the record being read, in order.
        lines: list[str] = []
        records = csv.reader(lines.append(line) or line for line in handle)
        next(records)
        lines.clear()
        for cells in records:
            lineno = records.line_num - len(lines) + 1
            text = "".join(lines)
            lines.clear()
            if not text.strip(_EMPTY_ROW):
                continue
            if len(cells) != width:
                return f"line {lineno} has {len(cells)} columns, expected {width}"
            try:
                _parse_rows([text])
            except ValueError:
                return f"line {lineno} is not numeric"
    return "data rows do not form a table of numbers"
