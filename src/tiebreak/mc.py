"""Monte Carlo check of the large-sample covariance formulas.

Each replicate holds the design fixed (the same quantile-spaced x and
the same rule), redraws the arms and the noise, refits by least squares,
and the scatter of the fitted coefficients across replicates estimates
N Var(bhat). The replicate loop only draws and reduces: each replicate
leaves its sufficient statistics F'(zF), F'y and (zF)'y, and the fit
runs afterwards as one stacked Schur inverse per block of replicates,
the same inverse as the closed-form reference. ols_fit is the
one-replicate case of that fit. The replicate streams are counter-based:
replicate r of a run seeded s uses the generator keyed (s, r), so any
replicate can be reproduced alone, the full run is independent of
execution order, and two runs with the same seed agree bit for bit.

Within a replicate the draw order is fixed: one uniform per subject for
the arms, then one normal per subject for the noise.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .covariance import (QUADRATIC, TWOLINE, _QUADRATIC_FIT_TO_NATURAL,
                         CoefCovariance, design_covariance, model_labels, schur_inverse)
from .designs import (AssignmentDistribution, DesignRule, IntervalRule,
                      SlidingScale, ThreeLevelRule, TieBreaker,
                      treatment_probability)
from .errors import (DegenerateDesignError, DomainError, RankDeficientError)

SIMPLE_RANDOM = "simple-random"
STRATIFIED_PAIRS = "stratified-pairs"

DEGENERATE_FRACTION_LIMIT = 0.01

# Replicates per stacked Schur inverse: the fit's temporaries stay a few
# (block, d, d) stacks however many replicates a run has.
_FIT_BLOCK = 1024


def design_matrix(x: np.ndarray, model: str = TWOLINE) -> np.ndarray:
    """Baseline regressors per subject: [1, x] or [1, x, x^2]."""
    x = np.asarray(x, dtype=float)
    if model == TWOLINE:
        return np.column_stack([np.ones_like(x), x])
    if model == QUADRATIC:
        return np.column_stack([np.ones_like(x), x, x * x])
    raise DomainError(f"unknown model {model!r}")


def _arm_probabilities(x: np.ndarray, rule: DesignRule,
                       distribution: AssignmentDistribution | None,
                       scheme: str) -> np.ndarray:
    """Pr(z = +1 | x), checked against the assignment scheme."""
    probs = np.asarray(treatment_probability(x, rule, distribution), dtype=float)
    if scheme == STRATIFIED_PAIRS:
        if not np.all((probs == 0.5) | (probs == 0.0) | (probs == 1.0)):
            raise DomainError("stratified pairing needs arm probabilities of "
                              "exactly 0, 1/2, or 1")
    elif scheme != SIMPLE_RANDOM:
        raise DomainError(f"unknown assignment scheme {scheme!r}")
    return probs


def _draw_arms(rng: np.random.Generator, probs: np.ndarray, scheme: str) -> np.ndarray:
    us = rng.random(probs.size)
    if scheme == SIMPLE_RANDOM:
        return np.where(us < probs, 1.0, -1.0)
    z = np.where(probs >= 1.0, 1.0, -1.0)
    idx = np.flatnonzero(probs == 0.5)
    npairs = idx.size // 2
    if npairs:
        firsts = idx[: 2 * npairs : 2]
        seconds = idx[1 : 2 * npairs : 2]
        first_treated = us[firsts] < 0.5
        z[firsts] = np.where(first_treated, 1.0, -1.0)
        z[seconds] = np.where(first_treated, -1.0, 1.0)
    if idx.size % 2:
        i = idx[-1]
        z[i] = 1.0 if us[i] < 0.5 else -1.0
    return z


def _draw_outcomes(rng: np.random.Generator, m1: np.ndarray, m2: np.ndarray,
                   z: np.ndarray, sigma: float) -> np.ndarray:
    return m1 + z * m2 + sigma * rng.standard_normal(m1.size)


def sample_assignment(rng: np.random.Generator, x: np.ndarray, rule: DesignRule,
                      distribution: AssignmentDistribution | None = None,
                      scheme: str = SIMPLE_RANDOM) -> np.ndarray:
    """Draw arms z in {-1, +1} for fixed subject positions x.

    Always consumes exactly one uniform per subject, so the downstream
    noise draws sit at the same stream offset whatever the scheme.
    simple-random compares each uniform against Pr(z = +1 | x), which
    also realizes the deterministic arms exactly. stratified-pairs walks
    the fair-coin window in position order, gives each consecutive pair
    one treated and one control member (the pair's first uniform decides
    which), and tosses the leftover subject's own coin if the window is
    odd; it requires every probability to be 0, 1/2, or 1.
    """
    x = np.asarray(x, dtype=float)
    return _draw_arms(rng, _arm_probabilities(x, rule, distribution, scheme), scheme)


def simulate_outcomes(rng: np.random.Generator, features: np.ndarray,
                      z: np.ndarray, baseline: np.ndarray,
                      interaction: np.ndarray, sigma: float) -> np.ndarray:
    """Draw outcomes y = F b + z (F g) + sigma * noise."""
    return _draw_outcomes(rng, features @ baseline, features @ interaction, z, sigma)


def _products(features: np.ndarray) -> np.ndarray:
    """The n x d^2 columns F_j F_l, so that z @ products is F'(zF) flattened."""
    return (features[:, :, None] * features[:, None, :]).reshape(len(features), -1)


def _reduce(products: np.ndarray, features: np.ndarray, z: np.ndarray, y: np.ndarray):
    """One replicate's sufficient statistics: F'(zF) flattened, F'y, (zF)'y."""
    return z @ products, y @ features, (z * y) @ features


def _fit_stacked(gram: np.ndarray, bz: np.ndarray, cf: np.ndarray, cz: np.ndarray):
    """Joint least-squares coefficients of stacked replicates, in natural order.

    Row r of bz, cf and cz holds replicate r's statistics from _reduce;
    gram = F'F is shared. Each block of _FIT_BLOCK replicates makes one
    stacked schur_inverse call, whose inverse [[V, C], [C', V]] gives the
    coefficients (V cf + C cz, C'cf + V cz). Returns (coefs, reasons):
    reasons[r] is None, or why replicate r's design was refused and its
    row of coefs is NaN.
    """
    reps, d = cf.shape
    coefs = np.empty((reps, 2 * d))
    reasons = []
    for start in range(0, reps, _FIT_BLOCK):
        rows = slice(start, start + _FIT_BLOCK)
        var, cross, why = schur_inverse(gram, bz[rows].reshape(-1, d, d))
        rhs_f, rhs_z = cf[rows, :, None], cz[rows, :, None]
        coefs[rows, :d] = (var @ rhs_f + cross @ rhs_z)[:, :, 0]
        coefs[rows, d:] = (cross.transpose(0, 2, 1) @ rhs_f + var @ rhs_z)[:, :, 0]
        reasons += why
    if d == 3:
        coefs = coefs[:, _QUADRATIC_FIT_TO_NATURAL]
    return coefs, reasons


def ols_fit(features: np.ndarray, z: np.ndarray, y: np.ndarray,
            gram: np.ndarray | None = None) -> np.ndarray:
    """Least-squares coefficients of the joint fit, in natural order.

    The regressors are [F | zF]; because z^2 = 1 both diagonal Gram
    blocks equal A = F'F, so only the cross block B depends on the
    replicate. Pass gram=F'F to amortize it. This is the one-replicate
    case of the Monte Carlo's stacked fit: the statistics F'(zF), F'y
    and (zF)'y go through the same Schur inverse, and a design it
    rejects raises RankDeficientError.
    """
    f = np.ascontiguousarray(features, dtype=float)
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    stats = _reduce(_products(f), f, z, y)
    coefs, reasons = _fit_stacked(f.T @ f if gram is None else gram,
                                  *(s[None] for s in stats))
    if reasons[0] is not None:
        raise RankDeficientError(reasons[0])
    return coefs[0]


def empirical_covariance(coefs: np.ndarray, n: int) -> np.ndarray:
    """N-scaled sample covariance of fitted coefficients across replicates."""
    coefs = np.asarray(coefs, dtype=float)
    if coefs.ndim != 2 or coefs.shape[0] < 2:
        raise DomainError("need at least two replicates of coefficients")
    return n * np.cov(coefs, rowvar=False, ddof=1)


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run: a model, a design, and replication settings.

    baseline and interaction are the true coefficient vectors of the
    outcome model (zeros by default; the covariance of a linear fit does
    not depend on them, which the defaults make plain). The rule assigns
    on x, so a ScoreThresholdRule, which assigns on a feature score, is
    refused.
    """

    rule: DesignRule
    model: str = TWOLINE
    distribution: AssignmentDistribution = field(
        default_factory=AssignmentDistribution.uniform_rank)
    n: int = 4000
    reps: int = 2000
    seed: int = 0
    sigma: float = 1.0
    baseline: tuple[float, ...] | None = None
    interaction: tuple[float, ...] | None = None
    scheme: str = SIMPLE_RANDOM

    def __post_init__(self):
        if not isinstance(self.rule, (TieBreaker, IntervalRule, ThreeLevelRule,
                                      SlidingScale)):
            raise DomainError(f"cannot simulate a {type(self.rule).__name__}: "
                              "the simulator assigns arms on x")
        for name in ("n", "reps", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise DomainError(f"{name} must be an integer")
            object.__setattr__(self, name, int(value))
        if self.model not in (TWOLINE, QUADRATIC):
            raise DomainError(f"unknown model {self.model!r}")
        if self.scheme not in (SIMPLE_RANDOM, STRATIFIED_PAIRS):
            raise DomainError(f"unknown assignment scheme {self.scheme!r}")
        if self.n < 4:
            raise DomainError("n must be at least 4")
        if self.reps < 2:
            raise DomainError("reps must be at least 2")
        if not 0 <= self.seed < 2 ** 63:
            raise DomainError("seed must be a non-negative 63-bit integer")
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise DomainError("sigma must be positive")
        width = len(model_labels(self.model)) // 2
        for name in ("baseline", "interaction"):
            vec = getattr(self, name)
            if vec is None:
                object.__setattr__(self, name, (0.0,) * width)
            else:
                vec = tuple(float(v) for v in vec)
                if len(vec) != width or not all(np.isfinite(vec)):
                    raise DomainError(f"{name} must be {width} finite values")
                object.__setattr__(self, name, vec)

    def labels(self) -> tuple[str, ...]:
        return model_labels(self.model)


@dataclass(frozen=True, eq=False)
class SimReport:
    """Empirical covariance of a run, against its closed form.

    empirical and reference are N-scaled covariance matrices over
    labels; se holds the large-reps standard error of each empirical
    entry, and max_dev_se the worst |empirical - reference| in SE units.
    """

    config: SimConfig
    labels: tuple[str, ...]
    coef_mean: np.ndarray
    empirical: np.ndarray
    se: np.ndarray
    reference: np.ndarray
    max_dev_se: float
    degenerate: int
    reps_used: int

    def to_dict(self) -> dict:
        rule = self.config.rule
        rule_desc = {"type": type(rule).__name__}
        if isinstance(rule, (TieBreaker, IntervalRule, ThreeLevelRule)):
            for key, val in vars(rule).items():
                rule_desc[key] = val
        elif isinstance(rule, SlidingScale):
            if rule.table is not None:
                rule_desc["x"], rule_desc["p"] = (v.tolist() for v in rule.table)
            else:
                rule_desc["breakpoints"] = list(rule.breakpoints)
        return {
            "model": self.config.model,
            "distribution": self.config.distribution.kind,
            "rule": rule_desc,
            "scheme": self.config.scheme,
            "n": self.config.n,
            "reps": self.config.reps,
            "reps_used": self.reps_used,
            "degenerate": self.degenerate,
            "seed": self.config.seed,
            "sigma": self.config.sigma,
            "labels": list(self.labels),
            "coef_mean": self.coef_mean.tolist(),
            "empirical": self.empirical.tolist(),
            "reference": self.reference.tolist(),
            "se": self.se.tolist(),
            "max_dev_se": self.max_dev_se,
        }


def closed_form_reference(config: SimConfig) -> CoefCovariance:
    """The package's own prediction for a run's N-scaled covariance.

    Covers both models for every window rule on the uniform rank and
    Gaussian scales and for sliding scales on the rank scale. A sliding
    scale on Gaussian scores has no population moments and raises
    DomainError.
    """
    return design_covariance(config.rule, config.distribution, config.model)


def _replicate_fits(config: SimConfig):
    """Every replicate's fitted coefficients and which ones were degenerate.

    The loop only draws and reduces: the arm probabilities, the means
    F b and F g and the products F_j F_l are fixed for the run, and each
    replicate leaves three rows of sufficient statistics. The fit then
    runs stacked, once per block of replicates. Degenerate rows are NaN.
    """
    x = config.distribution.points(config.n)
    features = np.ascontiguousarray(design_matrix(x, config.model))
    probs = _arm_probabilities(x, config.rule, config.distribution, config.scheme)
    m1 = features @ np.asarray(config.baseline)
    m2 = features @ np.asarray(config.interaction)
    products = _products(features)
    d = features.shape[1]
    bz = np.empty((config.reps, d * d))
    cf = np.empty((config.reps, d))
    cz = np.empty((config.reps, d))
    for rep in range(config.reps):
        rng = np.random.Generator(np.random.Philox(key=[config.seed, rep]))
        z = _draw_arms(rng, probs, config.scheme)
        y = _draw_outcomes(rng, m1, m2, z, config.sigma)
        bz[rep], cf[rep], cz[rep] = _reduce(products, features, z, y)
    coefs, reasons = _fit_stacked(features.T @ features, bz, cf, cz)
    return coefs, np.array([r is not None for r in reasons])


def run_simulation(config: SimConfig,
                   reference: CoefCovariance | None = None) -> SimReport:
    """Run the replicates and compare against the closed form.

    reference overrides the automatic closed_form_reference lookup.
    Replicates whose realized design is rank deficient are dropped, and
    more than 1% of them marks the design itself degenerate.
    """
    if reference is None:
        reference = closed_form_reference(config)
    labels = config.labels()
    coefs, bad = _replicate_fits(config)
    degenerate = int(np.count_nonzero(bad))
    if degenerate > DEGENERATE_FRACTION_LIMIT * config.reps:
        raise DegenerateDesignError(
            f"{degenerate} of {config.reps} replicates were rank deficient")
    coefs = coefs[~bad]
    used = len(coefs)
    empirical = empirical_covariance(coefs, config.n)
    ref_mat = reference.matrix * config.sigma ** 2
    se = np.sqrt((np.outer(np.diag(ref_mat), np.diag(ref_mat)) + ref_mat ** 2) / used)
    max_dev = float(np.max(np.abs(empirical - ref_mat) / se))
    return SimReport(config=config, labels=labels,
                     coef_mean=coefs.mean(axis=0), empirical=empirical,
                     se=se, reference=ref_mat, max_dev_se=max_dev,
                     degenerate=degenerate, reps_used=used)
