"""Monte Carlo check of the large-sample covariance formulas.

Each replicate holds the design fixed (the same quantile-spaced x and
the same rule), redraws the arms and the noise, refits by least squares,
and the scatter of the fitted coefficients across replicates estimates
N Var(bhat). The replicate loop only draws and reduces: each replicate
leaves its sufficient statistics F'(zF), F'y and (zF)'y, and the fit
runs afterwards as one stacked Schur inverse per block of replicates,
the same inverse as the closed-form reference. ols_fit is the
one-replicate case of that fit. The replicate streams are counter-based:
replicate r of a run seeded s draws the stream of
Generator(Philox(key=[s, r])), so any replicate can be reproduced alone,
the full run is independent of execution order, and two runs with the
same seed agree bit for bit. A run builds one Philox and re-keys it in
place before each replicate, which draws the same stream without
seeding a new generator each time.

Within a replicate the draw order is fixed: one uniform per subject for
the arms, then one unit normal per subject for the noise. sigma never
enters the loop: least squares is linear in y, so run_simulation rescales
its unit-noise report once, exactly, and SimConfig accepts sigma only in
[1e-100, 1e100], where no rescaled entry leaves the float range.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

# mc.TWOLINE and mc.QUADRATIC name the models for the CLI and other callers.
from .covariance import (QUADRATIC, REFUSALS, TWOLINE, CoefCovariance, _gram,
                         design_covariance, model_spec, schur_inverse)
from .designs import (WINDOW_RULES, AssignmentDistribution, DesignRule,
                      SlidingScale, _check_distribution, treatment_probability)
from .errors import DegenerateDesignError, DomainError

SIMPLE_RANDOM = "simple-random"
STRATIFIED_PAIRS = "stratified-pairs"

DEGENERATE_FRACTION_LIMIT = 0.01

# Replicates per stacked Schur inverse: the fit's temporaries stay a few
# (block, d, d) stacks however many replicates a run has.
_FIT_BLOCK = 1024


def design_matrix(x: np.ndarray, model: str = TWOLINE) -> np.ndarray:
    """Baseline regressors per subject: [1, x] or [1, x, x^2]."""
    width = len(model_spec(model)[0]) // 2
    return np.vander(np.asarray(x, dtype=float), width, increasing=True)


def _arm_probabilities(x: np.ndarray, rule: DesignRule,
                       distribution: AssignmentDistribution | None,
                       scheme: str) -> np.ndarray:
    """Pr(z = +1 | x), checked against the assignment scheme."""
    probs = np.asarray(treatment_probability(x, rule, distribution), dtype=float)
    if scheme == STRATIFIED_PAIRS and not np.all(
            (probs == 0.5) | (probs == 0.0) | (probs == 1.0)):
        raise DomainError("stratified pairing needs arm probabilities of "
                          "exactly 0, 1/2, or 1")
    return probs


def _draw_arms(rng: np.random.Generator, probs: np.ndarray, scheme: str) -> np.ndarray:
    """Draw arms z in {-1, +1} from the probabilities Pr(z = +1 | x).

    Always consumes exactly one uniform per subject, so the downstream
    noise draws sit at the same stream offset whatever the scheme.
    simple-random compares each uniform against Pr(z = +1 | x), which
    also realizes the deterministic arms exactly. stratified-pairs walks
    the fair-coin window in position order, gives each consecutive pair
    one treated and one control member (the pair's first uniform decides
    which), and tosses the leftover subject's own coin if the window is
    odd; _arm_probabilities has checked that every probability is 0, 1/2,
    or 1.
    """
    us = rng.random(probs.size)
    if scheme == SIMPLE_RANDOM:
        return np.where(us < probs, 1.0, -1.0)
    z = np.where(probs >= 1.0, 1.0, -1.0)
    idx = np.flatnonzero(probs == 0.5)
    # A pair's first uniform decides both; an odd window's last is a pair of one.
    heads = np.repeat(us[idx[::2]] < 0.5, 2)[: idx.size]
    z[idx] = np.where(heads != (np.arange(idx.size) % 2 == 1), 1.0, -1.0)
    return z


def _draw_outcomes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-normal noise: the outcomes when every true coefficient is zero."""
    return rng.standard_normal(n)


def _replicate_streams(seed: int, reps):
    """Yield (rep, generator) for each replicate index rep in reps.

    Every yield is the same Generator on one Philox, re-keyed in place:
    its state is set to the one Philox(key=[seed, rep]) starts in (key
    (seed, rep), counter 0, an empty buffer and no buffered uint32), so
    it draws that stream bit for bit whatever the previous replicate left
    half used. The start state is one dict whose key array is updated in
    place, and the state setter copies it, so the loop allocates nothing.
    """
    bitgen = np.random.Philox(key=[seed, 0])
    rng = np.random.Generator(bitgen)
    start = bitgen.state
    key = start["state"]["key"]
    for rep in reps:
        key[1] = rep
        bitgen.state = start
        yield rep, rng


def _products(features: np.ndarray) -> np.ndarray:
    """The n x d^2 columns F_j F_l, so that z @ products is F'(zF) flattened."""
    return (features[:, :, None] * features[:, None, :]).reshape(len(features), -1)


def _reduce(products: np.ndarray, features: np.ndarray, z: np.ndarray, y: np.ndarray):
    """One replicate's sufficient statistics: F'(zF) flattened, F'y, (zF)'y."""
    return z @ products, y @ features, (z * y) @ features


def _fit_stacked(gram: np.ndarray, bz: np.ndarray, cf: np.ndarray, cz: np.ndarray):
    """Joint least-squares coefficients of stacked replicates, in regressor
    order [F | zF].

    Row r of bz, cf and cz holds replicate r's statistics from _reduce;
    gram = F'F is shared. Each block of _FIT_BLOCK replicates makes one
    stacked schur_inverse call, whose inverse [[V, C], [C', V]] gives the
    coefficients (V cf + C cz, C'cf + V cz). Returns (coefs, codes):
    codes[r] is 0, or the index in REFUSALS of why replicate r's design
    was refused and its row of coefs is NaN.
    """
    reps, d = cf.shape
    coefs = np.empty((reps, 2 * d))
    codes = np.empty(reps, np.intp)
    for start in range(0, reps, _FIT_BLOCK):
        rows = slice(start, start + _FIT_BLOCK)
        var, cross, codes[rows] = schur_inverse(gram, bz[rows].reshape(-1, d, d))
        rhs_f, rhs_z = cf[rows, :, None], cz[rows, :, None]
        coefs[rows, :d] = (var @ rhs_f + cross @ rhs_z)[:, :, 0]
        coefs[rows, d:] = (cross.transpose(0, 2, 1) @ rhs_f + var @ rhs_z)[:, :, 0]
    return coefs, codes


def ols_fit(features: np.ndarray, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of the joint fit, in regressor order.

    The regressors are [F | zF], and the coefficients come back in that
    order, the d of F then the d of zF, whatever d is. Because z^2 = 1 both diagonal Gram
    blocks equal A = F'F, so only the cross block B depends on the
    replicate. This is the one-replicate case of the Monte Carlo's
    stacked fit: the statistics F'(zF), F'y and (zF)'y go through the
    same Schur inverse. A design it rejects raises DegenerateDesignError
    with the reason, as evaluate_design does. Features whose F'F
    overflows raise DomainError, as the design search does, and so do
    outcomes so large that the fit overflows.
    """
    f = np.ascontiguousarray(features, dtype=float)
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if f.ndim != 2 or 0 in f.shape or not z.shape == y.shape == (len(f),) or not (
            np.isfinite(f).all() and np.isfinite(y).all() and np.all(np.abs(z) == 1.0)):
        raise DomainError("need a non-empty n x d finite feature array, n arms of "
                          "+1 or -1 and n finite outcomes")
    gram = _gram(f)
    with np.errstate(over="ignore", invalid="ignore"):
        stats = _reduce(_products(f), f, z, y)
        coefs, codes = _fit_stacked(gram, *(s[None] for s in stats))
    if codes[0]:
        raise DegenerateDesignError(REFUSALS[codes[0]])
    if not np.isfinite(coefs).all():
        raise DomainError("outcomes are too large: the fit overflows")
    return coefs[0]


def empirical_covariance(coefs: np.ndarray, n: int) -> np.ndarray:
    """N-scaled sample covariance of fitted coefficients across replicates."""
    coefs = np.asarray(coefs, dtype=float)
    if coefs.ndim != 2 or coefs.shape[0] < 2:
        raise DomainError("need at least two replicates of coefficients")
    if not (np.isfinite(coefs).all() and np.isfinite(n) and n > 0):
        raise DomainError("coefficients must be finite and n positive")
    with np.errstate(over="ignore", invalid="ignore"):
        cov = n * np.atleast_2d(np.cov(coefs, rowvar=False, ddof=1))
    if not np.isfinite(cov).all():
        raise DomainError("coefficients are too large: their covariance overflows")
    return cov


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run: a model, a design, and replication settings.

    The outcomes are pure unit-normal noise: every true coefficient is
    zero. Least squares is equivariant, so adding F b + z F g to the
    outcomes would shift every fit by exactly (b, g), moving coef_mean by
    (b, g) and leaving the covariance unchanged. It is linear in y, so
    sigma, in [1e-100, 1e100], exactly rescales the finished report:
    coef_mean by sigma, the covariances and their SEs by sigma^2. The rule
    assigns on x, so a ScoreThresholdRule, which assigns on a feature
    score, is refused.
    """

    rule: DesignRule
    model: str = TWOLINE
    distribution: AssignmentDistribution = field(
        default_factory=AssignmentDistribution.uniform_rank)
    n: int = 4000
    reps: int = 2000
    seed: int = 0
    sigma: float = 1.0
    scheme: str = SIMPLE_RANDOM

    def __post_init__(self):
        if not isinstance(self.rule, WINDOW_RULES + (SlidingScale,)):
            raise DomainError(f"cannot simulate a {type(self.rule).__name__}: "
                              "the simulator assigns arms on x")
        object.__setattr__(self, "distribution", _check_distribution(self.distribution))
        for name in ("n", "reps", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise DomainError(f"{name} must be an integer")
            object.__setattr__(self, name, int(value))
        model_spec(self.model)
        if self.scheme not in (SIMPLE_RANDOM, STRATIFIED_PAIRS):
            raise DomainError(f"unknown assignment scheme {self.scheme!r}")
        if self.n < 4:
            raise DomainError("n must be at least 4")
        if self.reps < 2:
            raise DomainError("reps must be at least 2")
        if not 0 <= self.seed < 2 ** 63:
            raise DomainError("seed must be a non-negative 63-bit integer")
        if not 1e-100 <= self.sigma <= 1e100:
            raise DomainError("sigma must lie in [1e-100, 1e100]")

    def labels(self) -> tuple[str, ...]:
        return model_spec(self.model)[0]


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
        if isinstance(rule, WINDOW_RULES):
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
    """Every replicate's coefficients fitted to unit noise, in natural
    order, and which ones were degenerate.

    The loop only draws and reduces: the arm probabilities and the
    products F_j F_l are fixed for the run, each replicate's stream is
    the run's one Philox re-keyed to (seed, rep) by _replicate_streams,
    and each replicate leaves three rows of sufficient statistics. The
    fit then runs stacked, once per block of replicates, and the model's
    permutation puts its coefficients in natural order. Degenerate rows
    are NaN.
    """
    x = config.distribution.points(config.n)
    features = np.ascontiguousarray(design_matrix(x, config.model))
    probs = _arm_probabilities(x, config.rule, config.distribution, config.scheme)
    products = _products(features)
    d = features.shape[1]
    bz = np.empty((config.reps, d * d))
    cf = np.empty((config.reps, d))
    cz = np.empty((config.reps, d))
    for rep, rng in _replicate_streams(config.seed, range(config.reps)):
        z = _draw_arms(rng, probs, config.scheme)
        y = _draw_outcomes(rng, config.n)
        bz[rep], cf[rep], cz[rep] = _reduce(products, features, z, y)
    coefs, codes = _fit_stacked(_gram(features), bz, cf, cz)
    order = model_spec(config.model)[1]
    if order is not None:
        coefs = coefs[:, order]
    return coefs, codes != 0


def run_simulation(config: SimConfig) -> SimReport:
    """Run the replicates and compare against closed_form_reference.

    Replicates whose realized design is rank deficient are dropped, and
    more than 1% of them marks the design itself degenerate. The check
    runs at unit noise, and sigma then rescales what is reported.
    """
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
    ref = reference.matrix
    se = np.sqrt((np.outer(np.diag(ref), np.diag(ref)) + ref ** 2) / used)
    max_dev = float(np.max(np.abs(empirical - ref) / se))
    sigma, var = config.sigma, config.sigma ** 2
    return SimReport(config=config, labels=labels,
                     coef_mean=sigma * coefs.mean(axis=0), empirical=var * empirical,
                     se=var * se, reference=var * ref, max_dev_se=max_dev,
                     degenerate=degenerate, reps_used=used)
