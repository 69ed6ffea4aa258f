"""The public contract, one row per callable in tiebreak.__all__.

Each call either returns finite values of its documented shape or raises
DomainError or DegenerateDesignError (a search may also find nothing
feasible), and never warns. A row draws the call's arguments and checks
what comes back. Arguments are drawn from their annotated types: valid
values mixed with NaN, +-inf, negatives and out-of-range values, and,
where a parameter broadcasts, lists and 1-d arrays sharing one length
per call, as broadcasting requires. Finite draws are 0 or between 1e-3
and 3 in magnitude, so no product or square of them leaves the float
range, except in the rows of the closed forms that take unbounded reals:
those also draw magnitudes up to 1e300, whose products overflow and must
raise DomainError rather than warn. The simulator's sigma is drawn the
same way, and from both sides of its accepted range. A sliding scale
that passes its construction probe yet is NaN or infinite between the
probe points must make every call that integrates it raise DomainError.
"""

import json
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tiebreak as tb
from tiebreak.covariance import QUADRATIC, TWOLINE
from tiebreak.general import CRITERIA

BAD = [np.nan, np.inf, -np.inf, -1.0, -0.25, 0.0, 0.5, 1.0, 1.5, 7.0]
# Moderate magnitudes: 0, or between 1e-3 and 3 in absolute value.
moderate = st.floats(-3.0, 3.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)
real = st.one_of(moderate, st.sampled_from(BAD))
# Any magnitude up to 1e300, for the rows whose results can overflow.
wide = st.one_of(real, st.floats(-1e300, 1e300))
unit = st.one_of(moderate.map(abs).filter(lambda v: v <= 1.0), st.sampled_from(BAD))
distributions = st.sampled_from([None, tb.AssignmentDistribution.uniform_rank(),
                                 tb.AssignmentDistribution.standard_gaussian()])
models = st.sampled_from([TWOLINE, QUADRATIC, "cubic"])


@st.composite
def broadcast(draw, *elements):
    """One argument per element strategy, each a scalar, a list or a 1-d
    array; the sequences of one call share a length."""
    size = draw(st.integers(1, 3))
    args = []
    for element in elements:
        form = draw(st.sampled_from(["scalar", "list", "array"]))
        values = draw(st.lists(element, min_size=size, max_size=size))
        args.append(values[0] if form == "scalar" else
                    values if form == "list" else np.array(values))
    return tuple(args)


@st.composite
def window_rules(draw):
    a, b = sorted(draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)))
    p = draw(st.floats(0.05, 0.95))
    delta = draw(st.floats(0.0, 1.0))
    return draw(st.sampled_from([tb.TieBreaker(delta, p), tb.IntervalRule(a, b, p),
                                 tb.ThreeLevelRule(delta, min(p, 0.45))]))


def _logistic(slope, centre):
    return lambda x: 1.0 / (1.0 + np.exp(-slope * (x - centre)))


@st.composite
def scales(draw):
    """Valid scales of every construction, balanced or not."""
    kind = draw(st.sampled_from(["table", "rule", "callable"]))
    if kind == "table":
        xs = sorted(draw(st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=5, unique=True)))
        scale = tb.SlidingScale.from_table(
            xs, draw(st.lists(st.floats(0.0, 1.0), min_size=len(xs), max_size=len(xs))))
    elif kind == "rule":
        scale = tb.SlidingScale.from_rule(draw(window_rules()))
    else:
        scale = tb.SlidingScale.from_callable(
            _logistic(draw(st.floats(-6.0, 6.0)), draw(st.floats(-0.5, 0.5))))
    return tb.symmetrize(scale) if draw(st.booleans()) else scale


# SlidingScale probes [-1, 1] at the multiples of 1/PROBE_STEPS when built.
PROBE_STEPS = 128
# The scales made by spoiled_scale: each call that integrates one must
# raise DomainError.
SPOILED = weakref.WeakSet()


def spoiled_scale(lo, hi, bad, base):
    """A callable scale that is base off (lo, hi) and on the probe grid,
    and bad (NaN or +inf) everywhere else on (lo, hi): it passes its
    construction probe, and its values there must be refused when used."""
    def func(t):
        return bad if lo < t < hi and (t * PROBE_STEPS) % 1.0 else base(t)
    scale = tb.SlidingScale.from_callable(func)
    SPOILED.add(scale)
    return scale


@st.composite
def spoiled_scales(draw):
    """Scales that construct, yet are NaN or +inf between the probe points
    of an interval at least 4/PROBE_STEPS wide: wide enough to hold a
    quadrature node."""
    lo = draw(st.integers(-PROBE_STEPS, PROBE_STEPS - 4))
    hi = draw(st.integers(lo + 4, PROBE_STEPS))
    return spoiled_scale(lo / PROBE_STEPS, hi / PROBE_STEPS,
                         draw(st.sampled_from([np.nan, np.inf])),
                         _logistic(draw(st.floats(-6.0, 6.0)), draw(st.floats(-0.5, 0.5))))


# The scale of the motivating probe: NaN on (0.1201, 0.124), which holds
# no probe point.
_SPOILED = spoiled_scale(0.1201, 0.124, np.nan, lambda t: 0.5)

scale_args = st.one_of(scales(), st.sampled_from([tb.TieBreaker(0.5), 0.5, None]))
# The rows that integrate a scale also take spoiled ones.
integrated_scale_args = st.one_of(scale_args, spoiled_scales())


@st.composite
def feature_arrays(draw, n=None, least_width=1):
    """Raw feature tables, mostly with an intercept column, sometimes
    holding a bad value or of the wrong rank."""
    n = draw(st.integers(1, 10)) if n is None else n
    d = draw(st.integers(least_width, 3))
    cells = draw(st.lists(st.floats(-2.0, 2.0), min_size=n * d, max_size=n * d))
    vals = np.array(cells, dtype=float).reshape(n, d)
    if d and draw(st.integers(0, 3)):
        vals[:, 0] = 1.0
    if vals.size and not draw(st.integers(0, 5)):
        vals.flat[draw(st.integers(0, n * d - 1))] = draw(st.sampled_from(BAD))
    shape = draw(st.sampled_from([vals.shape] * 4 + [(n * d,), (1, n, d)]))
    return vals.reshape(shape)


def thetas_for(d):
    return st.lists(st.floats(-2.0, 2.0) | st.sampled_from(BAD), min_size=d, max_size=d + 1)


@st.composite
def score_rules(draw, d):
    theta = draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d).filter(any))
    return tb.ScoreThresholdRule(tuple(theta), draw(st.floats(0.0, 3.0)),
                                 draw(st.floats(0.05, 0.95)))


@st.composite
def features_and_rule(draw):
    """A feature table, and a ScoreThresholdRule built from drawn parts."""
    features = draw(feature_arrays())
    d = features.shape[-1]
    return features, (draw(thetas_for(d)), draw(real), draw(unit))


# sigma across the float range: both ends of the accepted [1e-100, 1e100]
# and values beyond them, whose squares underflow or overflow.
SIGMA_EDGES = [1e-300, 1e-150, 1e-100, 1e100, 1e160, 1e300]


@st.composite
def sim_parts(draw):
    return dict(rule=draw(st.one_of(window_rules(), scales(), spoiled_scales())),
                model=draw(models),
                distribution=draw(distributions.filter(bool)),
                n=draw(st.integers(2, 24) | st.sampled_from([2.5, np.int64(12)])),
                reps=draw(st.integers(0, 8)), seed=draw(st.integers(-1, 5)),
                sigma=draw(st.one_of(wide, st.sampled_from(SIGMA_EDGES))),
                scheme=draw(st.sampled_from(["simple-random", "stratified-pairs"])))


def expect(condition, *values):
    """The condition holds and every value is finite."""
    assert condition
    for value in values:
        assert np.all(np.isfinite(value)), value


def shaped(out, *args):
    """A float for scalar arguments, else an array of the broadcast shape."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    expect(isinstance(out, float) if shape == () else out.shape == shape, out)


def covariance(out, dim=None):
    expect(isinstance(out, tb.CoefCovariance)
           and out.matrix.shape == (dim or len(out.labels),) * 2, out.matrix)
    assert np.linalg.eigvalsh(out.matrix)[0] > 0.0


def probability_scale(scale):
    values = scale(np.linspace(-1.0, 1.0, 41))
    expect(isinstance(scale, tb.SlidingScale) and values.min() >= 0.0
           and values.max() <= 1.0, values, scale.breakpoints)


def probabilities(p):
    expect(np.all((p >= 0.0) & (p <= 1.0)), p)


def report(out):
    d = len(out.labels)
    expect(out.empirical.shape == out.reference.shape == out.se.shape == (d, d)
           and out.coef_mean.shape == (d,) and out.reps_used >= 2,
           out.empirical, out.reference, out.se, out.coef_mean, out.max_dev_se)


def square(out):
    expect(out.ndim == 2 and out.shape[0] == out.shape[1], out)


def _rule(parts):
    """A ScoreThresholdRule from drawn parts; a pinned rule passes as is."""
    return tb.ScoreThresholdRule(*parts) if isinstance(parts, tuple) else parts


def _quadratic_form(cov, weights):
    """A covariance and its quadratic form in weights, or the DomainError
    that refused the weights."""
    try:
        return cov, cov.quadratic_form(weights)
    except tb.DomainError as exc:
        return cov, exc


def _search(features, thetas, deltas, ps, criterion, contrast):
    return tb.design_search(features, thetas, deltas, ps, criterion, contrast)


def ranking(results, criterion=None, contrast=None):
    values = [r.value for r in results]
    expect(results and values == sorted(values), values)
    for r in results:
        expect(isinstance(r, tb.SearchResult), r.evaluation.var_interaction,
               r.evaluation.cov_cross)
        if criterion is not None:
            assert np.isclose(r.value, r.evaluation.criterion_value(criterion, contrast),
                              rtol=1e-12, atol=0.0)


def search_report(out):
    """The report's arrays share its length, and it refused the rest."""
    candidates, report = out
    k, d = len(report), report.var_interaction.shape[-1]
    expect(isinstance(report, tb.SearchReport) and k > 0
           and k + sum(report.refused.values()) == candidates
           and report.cov_cross.shape == (k, d, d) == report.var_interaction.shape
           and all(len(column) == k for column in (report.values, report.theta_index,
                                                   report.delta_index, report.p_index)),
           report.values, report.var_interaction, report.cov_cross)


_GRID = np.column_stack([np.ones(12), np.linspace(-1.0, 1.0, 12), np.cos(np.arange(12.0))])
contrasts = st.one_of(st.none(), st.lists(real, min_size=2, max_size=4))


@st.composite
def tables(draw):
    xs = draw(st.lists(real, min_size=1, max_size=4))
    return xs, draw(st.lists(unit, min_size=len(xs), max_size=len(xs)))


CONTRACT = {
    # name: (arguments, call, check of the result; None checks broadcasting)
    "AssignmentDistribution": (
        st.tuples(st.sampled_from(["uniform-rank", "standard-gaussian", "cauchy"]),
                  st.integers(-2, 12) | st.sampled_from([2.5, 3.0, np.int64(4), np.nan])),
        lambda kind, n: (n, tb.AssignmentDistribution(kind).points(n)),
        lambda out: expect(out[1].shape == (out[0],) and np.all(np.diff(out[1]) > 0.0),
                           out[1])),
    "CoefCovariance": (
        st.integers(1, 4).flatmap(lambda d: st.tuples(
            st.lists(st.text(max_size=2), min_size=d - 1, max_size=d + 1),
            st.lists(st.lists(real, min_size=d, max_size=d), min_size=d, max_size=d),
            st.booleans(), st.lists(wide, min_size=d, max_size=d))),
        lambda labels, rows, sym, weights: _quadratic_form(tb.CoefCovariance(
            labels, np.where(np.tri(len(rows), dtype=bool), rows, np.transpose(rows))
            if sym else rows), weights),
        lambda out: (covariance(out[0]), isinstance(out[1], tb.DomainError)
                     or expect(isinstance(out[1], float), out[1]))),
    "DesignEvaluation": (
        st.tuples(score_rules(3), st.sampled_from(CRITERIA + ("volume",)), contrasts),
        lambda rule, criterion, contrast: tb.evaluate_design(_GRID, rule).criterion_value(
            criterion, contrast),
        lambda out: expect(isinstance(out, float), out)),
    "FeatureMatrix": (
        st.tuples(feature_arrays(), st.booleans(), st.booleans()),
        lambda values, named, add: (
            tb.FeatureMatrix(tuple("abc")[:np.shape(values)[-1]], values) if named
            else tb.FeatureMatrix.from_array(values, add_intercept=add)),
        lambda out: expect(out.values.ndim == 2 and len(out.names) == out.dim
                           and np.all(out.values[:, 0] == 1.0), out.values)),
    "IntervalRule": (st.tuples(real, real, unit), tb.IntervalRule,
                     lambda out: expect(True, *vars(out).values())),
    "ScoreThresholdRule": (st.tuples(thetas_for(2), real, unit), tb.ScoreThresholdRule,
                           lambda out: expect(True, *vars(out).values())),
    "SearchReport": (
        st.tuples(st.sampled_from(CRITERIA), contrasts),
        lambda criterion, contrast: (6, _search(
            _GRID, [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)], [0.0, 0.5, 2.0], (0.5,),
            criterion, contrast)),
        search_report),
    "SearchResult": (
        st.tuples(st.sampled_from(CRITERIA), contrasts),
        lambda criterion, contrast: (criterion, contrast, _search(
            _GRID, [(0.0, 1.0, 0.0), (0.0, 1.0, 1.0)], [0.0, 0.5, 2.0], (0.5,),
            criterion, contrast)),
        lambda out: ranking(out[2], out[0], out[1])),
    "SimConfig": (st.tuples(sim_parts()), lambda parts: tb.SimConfig(**parts),
                  lambda out: expect(type(out.n) is type(out.reps) is type(out.seed) is int
                                     and type(out.sigma) is float, out.sigma)),
    "SimReport": (
        st.tuples(sim_parts()), lambda parts: tb.run_simulation(tb.SimConfig(**parts)).to_dict(),
        lambda out: json.dumps(out, allow_nan=False)),
    "SlidingScale": (
        st.tuples(tables(), st.booleans()),
        lambda table, tabulated: (
            tb.SlidingScale.from_table(*table) if tabulated else
            tb.SlidingScale(lambda x: np.interp(x, np.sort(table[0]), table[1]), table[0])),
        probability_scale),
    "SlidingVariances": (
        st.tuples(integrated_scale_args), tb.variances_sliding,
        lambda out: expect(out.var_slope > 0.0, out.var_level, out.var_slope)),
    "ThreeLevelRule": (st.tuples(real, unit), tb.ThreeLevelRule,
                       lambda out: expect(True, *vars(out).values())),
    "TieBreaker": (st.tuples(real, unit), tb.TieBreaker,
                   lambda out: expect(True, *vars(out).values())),
    "central_zx_mean": (broadcast(unit), tb.central_zx_mean, None),
    "closed_form_reference": (
        st.tuples(sim_parts()), lambda parts: tb.closed_form_reference(tb.SimConfig(**parts)),
        covariance),
    "covariance_gaussian": (st.tuples(unit, st.booleans()), tb.covariance_gaussian,
                            covariance),
    "covariance_quadratic": (st.tuples(unit), tb.covariance_quadratic, covariance),
    "covariance_uniform": (st.tuples(unit, st.booleans()), tb.covariance_uniform,
                           covariance),
    "design_covariance": (
        st.tuples(st.one_of(window_rules(), scales(), spoiled_scales()), distributions,
                  models),
        tb.design_covariance, covariance),
    "design_moments": (
        st.tuples(st.one_of(window_rules(), scales(), spoiled_scales(), score_rules(2)),
                  distributions),
        tb.design_moments, lambda out: expect(out[0].shape == out[1].shape == (5,), *out)),
    "design_search": (
        st.tuples(feature_arrays(), st.lists(thetas_for(3), max_size=2),
                  st.lists(real, max_size=3), st.lists(unit, max_size=2),
                  st.sampled_from(CRITERIA), contrasts),
        _search, ranking),
    "efficiency_vs_rdd": (broadcast(unit), tb.efficiency_vs_rdd, None),
    "empirical_covariance": (
        st.tuples(st.integers(0, 4).flatmap(lambda k: st.lists(
            st.lists(real, min_size=k, max_size=k), min_size=1, max_size=4)), real),
        tb.empirical_covariance, square),
    "equivalent_tiebreaker": (st.tuples(integrated_scale_args), tb.equivalent_tiebreaker,
                              lambda out: expect(isinstance(out, float) and 0.0 <= out <= 1.0)),
    "evaluate_design": (
        features_and_rule(), lambda features, parts: tb.evaluate_design(features, _rule(parts)),
        lambda out: expect(out.var_interaction.shape == out.cov_cross.shape
                           == (len(out.rule.theta),) * 2, out.var_interaction,
                           out.cov_cross)),
    "expected_weights": (
        features_and_rule(),
        lambda features, parts: (len(features), tb.expected_weights(features, _rule(parts))),
        lambda out: expect(out[1].shape == (out[0],) and np.all(np.abs(out[1]) <= 1.0))),
    "experimentation_cost": (broadcast(unit, wide, wide), tb.experimentation_cost, None),
    "full_covariance_sliding": (st.tuples(integrated_scale_args), tb.full_covariance_sliding,
                                lambda out: covariance(out, 4)),
    "fully_randomized_covariance": (st.tuples(feature_arrays()),
                                    tb.fully_randomized_covariance, square),
    "gain": (broadcast(unit, wide, wide), tb.gain, None),
    "gaussian_zx_mean": (broadcast(unit), tb.gaussian_zx_mean, None),
    "min_delta_for_fraction": (st.tuples(unit), tb.min_delta_for_fraction,
                               lambda out: expect(0.0 <= out <= 1.0)),
    "moment_determinant": (st.tuples(integrated_scale_args), tb.moment_determinant,
                           lambda out: expect(isinstance(out, float), out)),
    "noncentral_covariance": (st.tuples(real, real, unit, st.booleans()),
                              tb.noncentral_covariance, covariance),
    "ols_fit": (
        st.integers(0, 12).flatmap(lambda n: st.tuples(
            feature_arrays(n, least_width=0),
            st.lists(st.sampled_from([1.0, -1.0, 0.0, np.nan]), min_size=n, max_size=n),
            st.lists(real, min_size=max(n - 1, 0), max_size=n))),
        tb.ols_fit, lambda out: expect(out.ndim == 1, out)),
    "optimal_delta": (broadcast(wide, wide),
                      lambda *args: (args, tb.optimal_delta(*args)),
                      lambda out: (shaped(out[1], *out[0]),
                                   expect(np.all((out[1] >= 0.0) & (out[1] <= 1.0))))),
    "precision": (broadcast(unit), tb.precision, None),
    "run_simulation": (st.tuples(sim_parts()), lambda parts: tb.run_simulation(tb.SimConfig(**parts)),
                       report),
    "sliding_moments": (st.tuples(integrated_scale_args), tb.sliding_moments,
                        lambda out: expect(True, out.z_mean, out.zx_mean, out.zx2_mean)),
    "subject_ranks": (
        st.tuples(st.lists(real, max_size=5) | st.just([[0.0, 1.0]])),
        lambda scores: (len(scores), tb.subject_ranks(scores)),
        lambda out: expect(out[1].shape == (out[0],), out[1])),
    "symmetrize": (st.tuples(scale_args), tb.symmetrize, probability_scale),
    "treatment_probability": (
        st.tuples(broadcast(real), st.one_of(window_rules(), scales(), score_rules(1)),
                  distributions),
        lambda xs, rule, distribution: (xs[0], tb.treatment_probability(
            xs[0], rule, distribution)),
        lambda out: (shaped(out[1], out[0]), probabilities(out[1]))),
    "value": (broadcast(unit, wide, wide, wide), tb.value, None),
    "var_gain_at_x": (st.tuples(broadcast(unit, wide), distributions),
                      lambda args, distribution: (args, tb.var_gain_at_x(*args, distribution)),
                      lambda out: shaped(out[1], *out[0])),
    "var_gain_quadratic": (st.tuples(unit, broadcast(wide)),
                           lambda delta, xs: (xs[0], tb.var_gain_quadratic(delta, xs[0])),
                           lambda out: shaped(out[1], out[0])),
    "variances_sliding": (
        st.tuples(integrated_scale_args), tb.variances_sliding,
        lambda out: expect(isinstance(out, tb.SlidingVariances) and out.var_level > 0.0,
                           out.var_level, out.var_slope)),
}

ALLOWED = (tb.DomainError, tb.DegenerateDesignError)
# The rows whose call integrates a scale argument: given a spoiled scale,
# each must raise DomainError.
INTEGRATES = {"SimReport", "SlidingVariances", "closed_form_reference", "design_covariance",
              "design_moments", "equivalent_tiebreaker", "full_covariance_sliding",
              "moment_determinant", "run_simulation", "sliding_moments", "variances_sliding"}

# Inputs that once escaped the contract, tried before the drawn ones.
_SIGMA_RUNS = [(dict(rule=tb.TieBreaker(0.5), n=40, reps=20, sigma=sigma),)
               for sigma in SIGMA_EDGES]
# The rules that assign on x, which a feature table refuses.
_NOT_SCORE_RULES = [(_GRID, tb.TieBreaker(0.5)),
                    (_GRID, tb.SlidingScale.from_table([-1, 1], [0, 1]))]
# Distribution arguments that are neither None nor an AssignmentDistribution.
_BAD_DISTRIBUTIONS = ["standard-gaussian", "gauss"]
# Finite features whose F'F overflows.
_HUGE = np.array([[1.0, 1e200, -1e200], [1.0, -1e200, 1e200],
                  [1.0, 1e200, 1e200], [1.0, -1e200, -1e200]])
# A feature row whose score under a finite theta overflows.
_OVERFLOWING_SCORE = ([[1.0, 1e154, -1e154], [1.0, 0.0, 1.0]], ((0.0, 1e300, 1e300), 0.5))
PINNED = {
    "AssignmentDistribution": [("uniform-rank", 2.5)],
    "CoefCovariance": [(("a", "b"), [[1.7e308, 0.0], [0.0, 1.7e308]], False, [1.0, 0.0]),
                       (("a", "b"), [[1e308, 1e308], [-1e308, 1e308]], False, [1.0, 0.0]),
                       (("a", "b"), [[2.0, 0.0], [0.0, 2.0]], False, [1e200, 1e200]),
                       (("a", "b"), [[2.0, 0.0], [0.0, 2.0]], False, [np.nan, 1.0]),
                       (("a", "b"), [[1.7e308, 1e308], [1e308, 1.7e308]], False, [1e-200, 0.0]),
                       (("a", "b"), [[1e-300, 0.0], [0.0, 1e-300]], False, [1.0, 1.0]),
                       (("a", "b"), [[1e-20, 1e-21], [0.0, 1e-20]], False, [1.0, 1.0]),
                       (("a", "a"), np.eye(2), False, [1.0, 1.0]),
                       ((), np.zeros((0, 0)), False, [])],
    "FeatureMatrix": [(np.ones((1, 2, 2)), False, True)],
    "SimConfig": [(dict(rule=tb.TieBreaker(0.5), distribution=bad),)
                  for bad in _BAD_DISTRIBUTIONS]
    + [(dict(rule=tb.TieBreaker(0.5), sigma=bad),)
       for bad in ("1", None, 2 + 0j, True, np.float32(2.0))]
    + [(dict(rule=tb.TieBreaker(0.5), **{name: True}),) for name in ("n", "reps", "seed")],
    "SimReport": _SIGMA_RUNS,
    "SlidingScale": [(([np.nan, 0.0], [0.5, 0.5]), False)],
    "SearchReport": [("trace", None), ("contrast", [1.0, 0.0, 2.0])],
    "design_search": [(_HUGE, [(0.0, 1.0, 0.0)], [0.5], [0.5], "trace", None),
                      (_GRID, [(0.0, 1.0, 0.0)], [0.5, 2.0], [0.5], "log-det", None)],
    "empirical_covariance": [([[0.0, 1.0], [1.0, 0.0]], np.nan),
                             ([[1e300, 0.0], [-1e300, 1.0], [0.0, 2.0]], 10)],
    "design_covariance": [(tb.IntervalRule(-0.5, 0.5), bad, TWOLINE)
                          for bad in _BAD_DISTRIBUTIONS],
    "design_moments": [(_SPOILED, None)],
    "evaluate_design": [(_HUGE, ((0.0, 1.0, 0.0), 0.5, 0.5)), _OVERFLOWING_SCORE]
    + _NOT_SCORE_RULES,
    "expected_weights": [_OVERFLOWING_SCORE] + _NOT_SCORE_RULES,
    "experimentation_cost": [(0.5, 1e300, 1e300)],
    "full_covariance_sliding": [(_SPOILED,)],
    "fully_randomized_covariance": [(_HUGE,)],
    "gain": [(0.5, [1.0, 2.0], 0.0), (0.5, 1.7e308, 1.7e308)],
    "moment_determinant": [(_SPOILED,)],
    "ols_fit": [(np.ones((4, 1)), [1.0, -1.0, 1.0, -1.0], [0.0, 1.0, np.nan, 0.0]),
                (np.ones((4, 0)), [1.0, -1.0, 1.0, -1.0], [0.0, 1.0, 0.0, 1.0]),
                (np.ones((0, 2)), [], []), (np.ones((1, 1)), [1.0], [0.0]),
                (_HUGE, [1.0, -1.0, 1.0, -1.0], [0.0, 1.0, 0.0, 1.0]),
                (np.ones((4, 1)), [1.0, -1.0, 1.0, -1.0], [1e308] * 4)],
    "optimal_delta": [(np.float64(1e308), np.float64(1e-308))],
    "run_simulation": _SIGMA_RUNS + [(dict(rule=_SPOILED, n=40, reps=20),),
                                     (dict(rule=tb.TieBreaker(0.5), distribution=None,
                                           n=50, reps=5),)],
    "sliding_moments": [(_SPOILED,)],
    "treatment_probability": [((np.nan,), tb.SlidingScale.from_table([-1, 1], [0, 1]), None)]
    + [((0.1,), tb.IntervalRule(-0.5, 0.5), bad) for bad in _BAD_DISTRIBUTIONS],
    "value": [(0.5, 1.0, [1.0, 2.0], 0.0), (0.5, 1.0, np.array([1.0, 2.0]), 0.0),
              (0.5, 1.0, 1.7e308, 1.7e308)],
    "var_gain_at_x": [((0.5, 1e200), None),
                      ((0.5, 1e200), tb.AssignmentDistribution.standard_gaussian())]
    + [((0.5, 0.0), bad) for bad in _BAD_DISTRIBUTIONS],
    "var_gain_quadratic": [(0.5, (1e200,))],
}


def test_every_public_callable_has_a_row():
    callables = {name for name in tb.__all__
                 if callable(getattr(tb, name))
                 and not (isinstance(getattr(tb, name), type)
                          and issubclass(getattr(tb, name), Exception))}
    assert set(CONTRACT) == callables and set(PINNED) <= callables


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_public_contract(name):
    arguments, call, check = CONTRACT[name]
    allowed = ALLOWED + ((tb.NoFeasibleDesignError,) if "search" in name.lower() else ())

    def holds(args):
        spoiled = name in INTEGRATES and any(
            isinstance(arg, tb.SlidingScale) and arg in SPOILED
            for arg in (args[0].values() if isinstance(args[0], dict) else args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = call(*args)
            except allowed as exc:
                assert not spoiled or isinstance(exc, tb.DomainError), exc
                return
        assert not spoiled, out
        (check or (lambda out: shaped(out, *args)))(out)

    for args in PINNED.get(name, []):
        holds = example(args)(holds)
    settings(max_examples=10, deadline=None, derandomize=True, database=None)(
        given(arguments)(holds))()


def test_distribution_arguments_are_checked():
    # None is the rank scale everywhere; anything but an
    # AssignmentDistribution is refused, never ignored or crashed on.
    config = tb.SimConfig(tb.TieBreaker(0.5), distribution=None, n=50, reps=5)
    assert config.distribution == tb.AssignmentDistribution.uniform_rank()
    assert tb.run_simulation(config).to_dict()["distribution"] == "uniform-rank"
    window = tb.IntervalRule(-0.5, 0.5)
    for bad in _BAD_DISTRIBUTIONS:
        for call in (lambda: tb.SimConfig(tb.TieBreaker(0.5), distribution=bad),
                     lambda: tb.design_covariance(window, bad),
                     lambda: tb.design_moments(window, bad),
                     lambda: tb.var_gain_at_x(0.5, 0.0, bad),
                     lambda: tb.treatment_probability(0.1, window, bad)):
            with pytest.raises(tb.DomainError, match="AssignmentDistribution"):
                call()
