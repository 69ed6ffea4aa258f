import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tiebreak import general, mc
from tiebreak.covariance import QUADRATIC, REFUSALS, TWOLINE, design_covariance
from tiebreak.designs import (AssignmentDistribution, IntervalRule,
                              ScoreThresholdRule, TieBreaker)
from tiebreak.errors import (DegenerateDesignError, DomainError,
                             NoFeasibleDesignError)
from tiebreak.general import (CRITERIA, DesignEvaluation, FeatureMatrix,
                              _candidates, _criterion, _window_blocks,
                              design_search, evaluate_design, expected_weights,
                              fully_randomized_covariance)
from tiebreak.mc import SimConfig, design_matrix, run_simulation
from tiebreak.twoline import covariance_uniform

from helpers import brute_design, brute_weighted_gram


def random_features(rng, n, d):
    vals = np.hstack([np.ones((n, 1)), rng.normal(size=(n, d - 1))])
    return FeatureMatrix.from_array(vals)


def test_feature_matrix_from_csv(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("intercept,score\n1.0,0.5\n1.0,-0.25\n")
    fm = FeatureMatrix.from_csv(path)
    assert fm.names == ("intercept", "score")
    assert (fm.n, fm.dim) == (2, 2)
    np.testing.assert_allclose(fm.values, [[1.0, 0.5], [1.0, -0.25]])

    raw = tmp_path / "raw.csv"
    raw.write_text("score\n0.5\n-0.25\n")
    with pytest.raises(DomainError):
        FeatureMatrix.from_csv(raw)
    fm2 = FeatureMatrix.from_csv(raw, add_intercept=True)
    assert fm2.names == ("intercept", "score")
    assert fm2.dim == 2

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1.0,2.0\n1.0\n")
    with pytest.raises(DomainError):
        FeatureMatrix.from_csv(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("a,b\n")
    with pytest.raises(DomainError):
        FeatureMatrix.from_csv(empty)

    # CRLF line ends, blank rows, rows of empty cells, spaces around
    # cells and quoted cells all read as the plain table.
    messy = tmp_path / "messy.csv"
    messy.write_bytes(b'intercept,"score"\r\n1.0,0.5\r\n\r\n,\r\n'
                      b'"1", -0.25 \r\n   \r\n"",""\r\n1 ," 3e-1"\r\n\r\n')
    fm = FeatureMatrix.from_csv(messy)
    assert fm.names == ("intercept", "score")
    np.testing.assert_array_equal(fm.values, [[1.0, 0.5], [1.0, -0.25], [1.0, 0.3]])


@pytest.mark.parametrize("body, message", [
    ("1,2\n\n1,x\n", "line 4 is not numeric"),
    ("1,2\n,,\n1\n", "line 4 has 1 columns, expected 2"),
    ("1,2\n1,2,3\n", "line 3 has 3 columns, expected 2"),
    ("1,2\n1,\n1,2\n", "line 3 is not numeric"),
    ("1\n1\n", "line 2 has 1 columns, expected 2"),
    ("1,2\r\n\r\n1,2\r\n1,2;\r\n", "line 5 is not numeric"),
    # '#' starts no comment: a row holding one is not numeric.
    ("1,2\n#3,4\n5,6\n", "line 3 is not numeric"),
    ("1,2\n3,4\n5,6 # note\n", "line 4 is not numeric"),
    # A quoted cell may span lines; a record is named by its first line.
    ('1,"2\r\n3",4\n', "line 2 has 3 columns, expected 2"),
    ('1,2\n"3\n",4,5\n', "line 3 has 3 columns, expected 2"),
])
def test_feature_matrix_from_csv_names_the_bad_line(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(("a,b\n" + body).encode())
    with pytest.raises(DomainError, match=re.escape(f"{path}: {message}")):
        FeatureMatrix.from_csv(path)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=3, max_size=3), min_size=1, max_size=30))
def test_feature_matrix_from_csv_round_trips_exactly(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("round") / "features.csv"
    path.write_text("a,b,c\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
    fm = FeatureMatrix.from_csv(path, add_intercept=True)
    assert fm.values[:, 1:].tobytes() == np.array(rows).tobytes()


def test_feature_matrix_validation():
    with pytest.raises(DomainError):
        FeatureMatrix(("a",), np.array([[1.0, 2.0]]))
    with pytest.raises(DomainError):
        FeatureMatrix(("a", "b"), np.array([[1.0, np.inf]]))
    with pytest.raises(DomainError, match="all-ones intercept"):
        FeatureMatrix(("a", "b"), np.array([[1.0, 0.5], [2.0, -0.5]]))
    fm = random_features(np.random.default_rng(0), 10, 3)
    with pytest.raises(ValueError):
        fm.values[0, 0] = 2.0  # locked


def test_expected_weights_regions():
    fm = FeatureMatrix.from_array(
        np.array([[1.0, -2.0], [1.0, -0.5], [1.0, 0.0], [1.0, 0.5], [1.0, 2.0]]))
    rule = ScoreThresholdRule((0.0, 1.0), 1.0, p=0.75)
    np.testing.assert_allclose(expected_weights(fm, rule),
                               [-1.0, 0.5, 0.5, 0.5, 1.0])
    # Scores exactly on the window edges take the deterministic arms.
    edges = FeatureMatrix.from_array(
        np.array([[1.0, -0.5], [1.0, 0.0], [1.0, 0.5]]))
    np.testing.assert_array_equal(
        expected_weights(edges, ScoreThresholdRule((0.0, 1.0), 0.5, p=0.25)),
        [-1.0, -0.5, 1.0])
    with pytest.raises(DomainError):
        expected_weights(fm, ScoreThresholdRule((1.0, 0.0, 0.0), 0.5))


def test_window_blocks_against_brute_force():
    # Scores on both window edges, at zero, and beyond every half-width.
    rng = np.random.default_rng(8)
    x = np.concatenate([[-0.8, -0.5, 0.0, 0.5, 0.8, 3.0, -3.0], rng.normal(size=33)])
    vals = np.column_stack([np.ones(x.size), x, rng.normal(size=x.size)])
    theta = np.array([0.0, 1.0, 0.0])
    grid = np.array([0.0, 0.5, 0.8, 1.1, 20.0])
    ps = np.array([0.3, 0.5, 0.9])
    gram = vals.T @ vals
    # The short grid is binned by counting, one longer than _COUNT_GRID by
    # binary search; the long one holds 0.0 and every |score| itself.
    long_grid = np.unique(np.concatenate(
        [grid, np.abs(x), np.linspace(0.0, 4.0, general._COUNT_GRID)]))
    assert grid.size <= general._COUNT_GRID < long_grid.size
    for deltas in (grid, long_grid):
        blocks, (no_treated, no_control) = _window_blocks(vals, vals @ theta, deltas,
                                                          2.0 * ps - 1.0, gram)
        assert blocks.shape == (deltas.size, ps.size, 3, 3)
        for t, delta in enumerate(deltas):
            for k, p in enumerate(ps):
                w, _, b, _ = brute_design(vals, theta, delta, p)
                np.testing.assert_array_equal(w, expected_weights(
                    vals, ScoreThresholdRule(tuple(theta), delta, p)))
                np.testing.assert_allclose(blocks[t, k], brute_weighted_gram(vals, w),
                                           rtol=1e-12, atol=1e-12 * np.abs(gram).max())
                np.testing.assert_allclose(blocks[t, k], b, rtol=1e-12,
                                           atol=1e-12 * np.abs(gram).max())
            assert not no_treated[t] and not no_control[t]
        # The widest window holds everyone: exactly (2p - 1) A.
        np.testing.assert_array_equal(blocks[-1],
                                      (2.0 * ps - 1.0)[:, None, None] * gram)
    # One arm only: every score positive, then every score negative.
    for sign, flags in ((1.0, (False, True)), (-1.0, (True, False))):
        shifted = vals @ theta + sign * 10.0
        _, (none_treated, none_control) = _window_blocks(vals, shifted, grid,
                                                         2.0 * ps - 1.0, gram)
        assert list(none_treated[:4]) == [flags[0]] * 4
        assert list(none_control[:4]) == [flags[1]] * 4
        assert not none_treated[4] and not none_control[4]


def test_evaluate_against_joint_gram_inverse():
    rng = np.random.default_rng(15)
    for d in (2, 3, 4):
        fm = random_features(rng, 300, d)
        theta = np.zeros(d)
        theta[-1] = 1.0
        rule = ScoreThresholdRule(tuple(theta), 0.6)
        ev = evaluate_design(fm, rule)
        *_, joint = brute_design(fm.values, theta, 0.6, 0.5)
        np.testing.assert_allclose(ev.var_interaction, joint[d:, d:],
                                   atol=1e-10 * np.abs(joint).max())
        np.testing.assert_allclose(ev.cov_cross, joint[:d, d:],
                                   atol=1e-10 * np.abs(joint).max())


MC_REPS = 4000


def _mc_feature_covariance(vals, rule, seed):
    """Covariance of the [b-hat | g-hat] coefficients over MC_REPS
    replicates: arms drawn with Pr(z = +1) = (1 + E[z])/2 and unit noise,
    by the simulator's own streams, reduction and stacked fit."""
    probs = 0.5 * (1.0 + expected_weights(vals, rule))
    products = mc._products(vals)
    d = vals.shape[1]
    bz, cf, cz = np.empty((MC_REPS, d * d)), np.empty((MC_REPS, d)), np.empty((MC_REPS, d))
    for rep, rng in mc._replicate_streams(seed, range(MC_REPS)):
        z = mc._draw_arms(rng, probs, mc.SIMPLE_RANDOM)
        bz[rep], cf[rep], cz[rep] = mc._reduce(products, vals, z,
                                               mc._draw_outcomes(rng, len(vals)))
    coefs, codes = mc._fit_stacked(vals.T @ vals, bz, cf, cz)
    assert not codes.any()
    return np.cov(coefs, rowvar=False)


def _max_dev_se(empirical, features, rule):
    """max |empirical - [[V, C], [C', V]]| in run_simulation's SE units,
    V and C from evaluate_design."""
    ev = evaluate_design(features, rule)
    ref = np.block([[ev.var_interaction, ev.cov_cross],
                    [ev.cov_cross.T, ev.var_interaction]])
    se = np.sqrt((np.outer(np.diag(ref), np.diag(ref)) + ref ** 2) / MC_REPS)
    return np.max(np.abs(empirical - ref) / se)


def test_evaluate_design_agrees_with_monte_carlo():
    vals = random_features(np.random.default_rng(20), 500, 3).values
    rules = [ScoreThresholdRule((0.0, 1.0, 0.5), 0.6, 0.5),
             ScoreThresholdRule((0.2, 0.3, 1.0), 0.3, 0.7),
             ScoreThresholdRule((0.0, 1.0, 0.0), 0.0)]
    empirical = [_mc_feature_covariance(vals, rule, seed) for seed, rule in enumerate(rules)]
    for cov, rule in zip(empirical, rules):
        assert _max_dev_se(cov, vals, rule) <= 4.0, rule
    # Negative control: a reference built with the wrong p is refused.
    wrong = ScoreThresholdRule(rules[1].theta, rules[1].delta, 0.5)
    assert _max_dev_se(empirical[1], vals, wrong) > 4.0


def test_infeasible_reasons():
    fm = FeatureMatrix.from_array(np.array([[1.0, 0.5], [1.0, 1.5]]))
    with pytest.raises(DegenerateDesignError, match="^no control subjects$"):
        evaluate_design(fm, ScoreThresholdRule((1.0, 0.0), 0.0))
    with pytest.raises(DegenerateDesignError, match="^no treated subjects$"):
        evaluate_design(fm, ScoreThresholdRule((-1.0, 0.0), 0.0))
    # Nor can an evaluation without matrices be built by hand.
    with pytest.raises(TypeError):
        DesignEvaluation(ScoreThresholdRule((-1.0, 0.0), 0.0), 2)

    # Duplicated column: the feature Gram itself collapses.
    dup = FeatureMatrix(("intercept", "copy"), np.ones((20, 2)))
    with pytest.raises(DegenerateDesignError,
                       match="^feature Gram matrix is ill-conditioned$"):
        evaluate_design(dup, ScoreThresholdRule((0.0, 1.0), 10.0))

    # Deterministic arms that exactly track a feature column collapse
    # the Schur complement instead.
    x = np.linspace(-1, 1, 50)
    fm2 = FeatureMatrix.from_array(np.column_stack([np.ones(50), np.sign(x)]))
    with pytest.raises(DegenerateDesignError, match="^design is ill-conditioned: "):
        evaluate_design(fm2, ScoreThresholdRule((0.0, 1.0), 0.5))


def test_rct_is_psd_floor():
    rng = np.random.default_rng(23)
    fm = random_features(rng, 500, 3)
    floor = fully_randomized_covariance(fm)
    a = fm.values.T @ fm.values
    np.testing.assert_allclose(floor @ a, np.eye(3), atol=1e-10)
    for delta in (0.0, 0.5, 1.5):
        rule = ScoreThresholdRule((0.0, 1.0, 0.3), delta)
        ev = evaluate_design(fm, rule)
        gap = ev.var_interaction - floor
        assert np.linalg.eigvalsh(gap)[0] >= -1e-9


def test_rct_floor_rejects_collinear_features():
    x = np.linspace(-1.0, 1.0, 40)
    fm = FeatureMatrix.from_array(np.column_stack([np.ones(40), x, 2.0 * x - 1.0]))
    with pytest.raises(DegenerateDesignError):
        fully_randomized_covariance(fm)


def rank_grid_features(n, model=TWOLINE):
    return design_matrix(AssignmentDistribution.uniform_rank().points(n), model)


# n * Var(g-hat) on the rank grid differs from the population covariance
# by O(1/n): each window edge misplaces at most one subject. Sweeps of
# random windows with a, b in [-0.8, 0.8] and p in [0.1, 0.9] at
# n = 200 .. 1600 put n * max|n Var - V| / max|V| at 11.0 at most for
# features [1, x] (14 000 windows) and at 22.9 for [1, x, x^2] (16 000).
GRID_GAP_C = {TWOLINE: 25.0, QUADRATIC: 50.0}
# The interaction coefficients (z, zx[, zx^2]) in natural label order.
INTERACTION = {TWOLINE: [2, 3], QUADRATIC: [2, 3, 5]}


@pytest.mark.parametrize("model", [TWOLINE, QUADRATIC])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8)),
       st.floats(0.1, 0.9))
def test_finite_sample_evaluator_converges_to_population_covariance(model, ends, p):
    # The score x - (a + b)/2 with half-width (b - a)/2 randomizes
    # exactly the window (a, b), so the feature-matrix evaluator and the
    # population engine describe one design at two layers.
    a, b = min(ends), max(ends)
    theta = (-(a + b) / 2.0, 1.0) + (0.0,) * (model == QUADRATIC)
    rule = ScoreThresholdRule(theta, (b - a) / 2.0, p)
    idx = INTERACTION[model]
    want = design_covariance(IntervalRule(a, b, p), model=model).matrix[np.ix_(idx, idx)]
    for n in (400, 800):
        got = n * evaluate_design(rank_grid_features(n, model), rule).var_interaction
        assert np.abs(got - want).max() <= GRID_GAP_C[model] / n * np.abs(want).max()


def test_reduction_to_rank_scale_covariance():
    n = 20000
    fm = FeatureMatrix.from_array(rank_grid_features(n))
    for delta in (0.0, 0.5, 1.0):
        ev = evaluate_design(fm, ScoreThresholdRule((0.0, 1.0), delta))
        scaled = n * ev.var_interaction
        want = covariance_uniform(delta)
        assert scaled[0, 0] == pytest.approx(want.var("beta2"), rel=1e-3)
        assert scaled[1, 1] == pytest.approx(want.var("beta3"), rel=1e-3)


def test_design_search_ranking():
    rng = np.random.default_rng(77)
    fm = random_features(rng, 400, 3)
    thetas = [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    deltas = [0.0, 0.5, 1.0]
    results = design_search(fm, thetas, deltas)
    values = [r.value for r in results]
    assert values == sorted(values)
    # Wider windows always rank better under trace
    best = results[0].evaluation.rule
    assert best.delta == 1.0
    # Every value matches its evaluation
    for r in results:
        assert r.value == pytest.approx(r.evaluation.criterion_value("trace"))


def test_design_search_criteria():
    rng = np.random.default_rng(78)
    fm = random_features(rng, 200, 2)
    thetas = [(0.0, 1.0)]
    logdet = design_search(fm, thetas, [0.2, 0.8], criterion="log-det")
    assert len(logdet) == 2
    contrast = design_search(fm, thetas, [0.2, 0.8], criterion="contrast",
                             contrast=(0.0, 1.0))
    for r in contrast:
        assert r.value == pytest.approx(
            r.evaluation.criterion_value("contrast", (0.0, 1.0)))
    with pytest.raises(DomainError):
        design_search(fm, thetas, [0.5], criterion="contrast")
    with pytest.raises(DomainError):
        design_search(fm, thetas, [0.5], criterion="volume")


def test_a_contrast_is_refused_by_the_other_criteria():
    fm = FeatureMatrix.from_array(np.column_stack([np.ones(8), np.linspace(-1.0, 1.0, 8)]))
    evaluation = evaluate_design(fm, ScoreThresholdRule((0.0, 1.0), 0.5))
    # Of the wrong length or not, a contrast is refused, not ignored.
    for criterion in ("trace", "log-det"):
        for contrast in ([1.0], [0.0, 1.0]):
            with pytest.raises(DomainError, match=f"^the {criterion} criterion takes "
                                                  "no contrast vector$"):
                evaluation.criterion_value(criterion, contrast)
    # A hand-built evaluation whose Var(g-hat) is indefinite has no log-det.
    indefinite = DesignEvaluation(evaluation.rule, 8, np.diag([1.0, -1.0]),
                                  evaluation.cov_cross)
    with pytest.raises(DomainError, match="^interaction covariance is not positive definite$"):
        indefinite.criterion_value("log-det")


def test_design_search_no_feasible():
    fm = FeatureMatrix.from_array(np.array([[1.0, 2.0], [1.0, 3.0]]))
    with pytest.raises(NoFeasibleDesignError):
        design_search(fm, [(1.0, 0.0)], [0.0])
    # The error counts the candidates and the reasons they failed.
    with pytest.raises(NoFeasibleDesignError,
                       match=re.escape("no feasible design among 4 candidates: "
                                       "2 no control subjects, 2 no treated "
                                       "subjects")):
        design_search(fm, [(0.0, 1.0), (0.0, -1.0)], [0.0, 1.5])
    with pytest.raises(NoFeasibleDesignError,
                       match=re.escape("no feasible design among 0 candidates")):
        design_search(fm, [(0.0, 1.0)], [])


def test_design_search_checks_the_criterion_before_the_candidates():
    # Every score is 1, so the one candidate has no control subjects; a
    # bad criterion or contrast is still the error, not an empty ranking.
    fm = FeatureMatrix.from_array(np.column_stack([np.ones(8), np.linspace(-1.0, 1.0, 8)]))
    for kwargs, message in (({}, "needs a contrast vector"),
                            ({"contrast": (1.0,)}, "must have 2 entries"),
                            ({"contrast": (0.0, np.nan)}, "must be finite")):
        with pytest.raises(DomainError, match=message):
            design_search(fm, [(1.0, 0.0)], [0.5], criterion="contrast", **kwargs)
    with pytest.raises(DomainError, match="unknown criterion"):
        design_search(fm, [(1.0, 0.0)], [0.5], criterion="volume")
    for criterion in ("trace", "log-det"):
        with pytest.raises(DomainError, match=f"^the {criterion} criterion takes no "
                                              "contrast vector$"):
            design_search(fm, [(1.0, 0.0)], [0.5], criterion=criterion, contrast=(0.0, 1.0))
    with pytest.raises(NoFeasibleDesignError, match="1 no control subjects$"):
        design_search(fm, [(1.0, 0.0)], [0.5], criterion="contrast", contrast=(0.0, 1.0))


def test_ill_conditioned_gram_is_refused_before_it_overflows():
    # Finite features whose F'F is finite but ill-conditioned: A is refused
    # for every candidate before B A^-1 B, which would overflow, is formed.
    big = np.array([[1.0, 7.8e74, -2.5e74], [1.0, -3.1e74, 5.0e74], [1.0, 1.2e74, 6.4e74],
                    [1.0, -6.6e74, -4.4e74], [1.0, 2.2e74, -7.1e74]])
    with pytest.raises(NoFeasibleDesignError, match=re.escape(
            "no feasible design among 2 candidates: 2 feature Gram matrix is "
            "ill-conditioned")):
        design_search(big, [(0.0, 1.0, 0.0)], [1e74, 1e75])
    signs = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
    huge = np.column_stack([np.ones(4), 1e150 * signs])
    with pytest.raises(DegenerateDesignError,
                       match="^feature Gram matrix is ill-conditioned$"):
        evaluate_design(huge, ScoreThresholdRule((0.0, 1.0, 0.0), 0.5))


def test_design_search_tie_break_order():
    # Identical candidates tie exactly; earlier indices win.
    rng = np.random.default_rng(79)
    fm = random_features(rng, 100, 2)
    results = design_search(fm, [(0.0, 1.0), (0.0, 1.0)], [0.7])
    assert results[0].theta_index == 0
    assert results[1].theta_index == 1
    assert results[0].value == results[1].value


# Candidates whose brute-force Schur complement has a condition number
# (or |A| / |S| ratio) in this band sit on the 1e12 feasibility limit,
# where rounding differences between correct implementations decide.
BORDERLINE = (1e10, 1e14)


def _brute_reason(vals, theta, delta, p):
    """(reason, Var(g-hat), Cov(b-hat, g-hat), cond(G)) by definition, G
    the joint Gram, with reason "borderline" for a candidate on the
    feasibility limit."""
    d = vals.shape[1]
    w, a, b, joint = brute_design(vals, theta, delta, p)
    if np.all(w <= -1.0):
        return "no treated subjects", None, None, None
    if np.all(w >= 1.0):
        return "no control subjects", None, None, None
    if np.linalg.cond(a) > 1e12:
        return "feature Gram matrix is ill-conditioned", None, None, None
    schur = a - b @ np.linalg.solve(a, b)
    worst = max(np.linalg.cond(schur), np.abs(a).max() / max(np.abs(schur).max(), 1e-300))
    if worst > BORDERLINE[1]:
        return "design is ill-conditioned", None, None, None
    if worst >= BORDERLINE[0] or joint is None:
        return "borderline", None, None, None
    return None, joint[d:, d:], joint[:d, d:], np.linalg.cond(np.block([[a, b], [b, a]]))


@st.composite
def search_grids(draw):
    """(features, thetas, deltas, ps) of a small search with exact ties:
    a repeated theta, repeated and unsorted deltas, and deltas that hit
    scores exactly."""
    d = draw(st.sampled_from([2, 3, 4]), label="d")
    n = draw(st.integers(1, 60), label="n")
    # Quarter-integer features make exact score ties; a seeded jitter
    # makes generic ones.
    cells = np.array(draw(st.lists(st.integers(-8, 8), min_size=n * (d - 1),
                                   max_size=n * (d - 1))), dtype=float) / 4.0
    if draw(st.booleans(), label="jitter"):
        seed = draw(st.integers(0, 2 ** 32 - 1), label="seed")
        cells = cells + np.random.default_rng(seed).normal(size=cells.size)
    vals = np.column_stack([np.ones(n), cells.reshape(n, d - 1)])
    vector = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
    thetas = draw(st.lists(vector, min_size=1, max_size=3), label="thetas")
    thetas = [tuple(float(v) for v in t) for t in thetas + thetas[:1]]
    scores = np.abs(vals @ np.array(thetas).T).ravel()
    hits = draw(st.lists(st.sampled_from(sorted(set(scores.tolist()))),
                         max_size=4), label="hits")
    free = draw(st.lists(st.floats(0.0, 6.0), max_size=4), label="free")
    grid = [0.0] + hits + free
    grid = draw(st.permutations(grid + grid[-2:]), label="deltas")
    ps = draw(st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.8]), min_size=1,
                       max_size=3), label="ps")
    return vals, thetas, grid, ps


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(search_grids())
def test_design_search_matches_brute_force(search):
    vals, thetas, grid, ps = search
    _, got_var, got_cross, codes = _candidates(vals, thetas, grid, ps)
    keys = [(ti, di, pi) for ti in range(len(thetas)) for di in range(len(grid))
            for pi in range(len(ps))]
    assert len(codes) == len(keys)
    classes = {}
    for i, (ti, di, pi) in enumerate(keys):
        theta, delta, p = thetas[ti], grid[di], ps[pi]
        reason, var, cross, cond = _brute_reason(vals, theta, delta, p)
        if reason == "borderline":
            continue
        assert (codes[i] == 0) == (reason is None)
        if reason is not None:
            assert REFUSALS[codes[i]].split(":")[0] == reason
            continue
        # Both sides are accurate to about cond(G) * eps: over 5160 such
        # candidates checked against 50-digit arithmetic, the search erred by
        # at most 0.83 and the brute force by 1.32 times cond(G) * eps.
        tol = 1e-12 * max(1.0, cond / 1e2)
        scale = max(np.abs(var).max(), np.abs(cross).max())
        assert np.abs(got_var[i] - var).max() <= tol * scale
        assert np.abs(got_cross[i] - cross).max() <= tol * scale
        # Candidates with the same expected arms tie exactly: one theta at
        # several deltas or ps, or any thetas whose window holds everyone.
        w = brute_design(vals, theta, delta, p)[0]
        inside = bool(np.all(np.abs(vals @ np.array(theta)) < delta))
        classes.setdefault((None if inside else theta, w.tobytes()), []).append(i)
    for tied in classes.values():
        for i in tied[1:]:
            assert got_var[i].tobytes() == got_var[tied[0]].tobytes()
            assert got_cross[i].tobytes() == got_cross[tied[0]].tobytes()

    feasible = {k for k, code in zip(keys, codes) if code == 0}
    # The refused candidates counted by reason, in order of first occurrence.
    refused = {}
    for code in codes[codes != 0].tolist():
        reason = REFUSALS[code].split(":")[0]
        refused[reason] = refused.get(reason, 0) + 1
    if not feasible:
        detail = ", ".join(f"{count} {reason}" for reason, count in refused.items())
        with pytest.raises(NoFeasibleDesignError, match=re.escape(detail) + "$"):
            design_search(vals, thetas, grid, ps)
        return
    report = design_search(vals, thetas, grid, ps)
    assert list(report.refused.items()) == list(refused.items())
    assert {(r.theta_index, r.delta_index, r.p_index) for r in report} == feasible
    for i, r in enumerate(report):
        assert r.value == r.evaluation.criterion_value("trace")
        assert r.evaluation.rule == ScoreThresholdRule(
            thetas[r.theta_index], grid[r.delta_index], ps[r.p_index])
        # Row i of the arrays, bit for bit.
        assert np.float64(r.value).tobytes() == report.values[i].tobytes()
        assert (r.theta_index, r.delta_index, r.p_index) == (
            report.theta_index[i], report.delta_index[i], report.p_index[i])
        assert r.evaluation.var_interaction.tobytes() == report.var_interaction[i].tobytes()
        assert r.evaluation.cov_cross.tobytes() == report.cov_cross[i].tobytes()
    assert [(r.value, r.theta_index, r.delta_index, r.p_index) for r in report] == \
        sorted((r.value, r.theta_index, r.delta_index, r.p_index) for r in report)


def _candidate_bytes(vals, thetas, grid, ps):
    """Each candidate's refusal code, and its Var(g-hat) and Cov(b-hat,
    g-hat) bytes where it is feasible."""
    _, var, cross, codes = _candidates(vals, thetas, grid, ps)
    return [(code, None, None) if code else
            (0, var[i].tobytes(), cross[i].tobytes())
            for i, code in enumerate(codes.tolist())]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(search_grids(), st.integers(1, 4))
def test_blocked_window_blocks_equal_per_direction_calls(search, block):
    vals, thetas, grid, ps = search
    deltas = np.unique(grid)
    coins = 2.0 * np.array(ps) - 1.0
    gram = vals.T @ vals
    single = [_window_blocks(vals, vals @ np.array(theta), deltas, coins, gram)
              for theta in thetas]
    scores = np.stack([vals @ np.array(t) for t in thetas])
    blocks, empty = _window_blocks(vals, scores, deltas, coins, gram)
    assert blocks.tobytes() == np.stack([b for b, _ in single]).tobytes()
    assert empty.tobytes() == np.stack([e for _, e in single]).tobytes()
    # The search bins as many directions per pass as its cell budget
    # allows: one, `block`, or (by default, on these small tables) all.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(general, "_BIN_CELLS", 1)
        want = _candidate_bytes(vals, thetas, grid, ps)
        mp.setattr(general, "_BIN_CELLS", block * vals.shape[0])
        assert _candidate_bytes(vals, thetas, grid, ps) == want
        # Every grid binned by binary search, not by counting: same bytes.
        mp.setattr(general, "_COUNT_GRID", 0)
        assert _candidate_bytes(vals, thetas, grid, ps) == want
        searched, searched_empty = _window_blocks(vals, scores, deltas, coins, gram)
        assert searched.tobytes() == blocks.tobytes()
        assert searched_empty.tobytes() == empty.tobytes()
    assert _candidate_bytes(vals, thetas, grid, ps) == want


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(search_grids(), st.sampled_from(CRITERIA))
def test_design_search_ranks_as_sorting_by_key(search, criterion):
    # Every grid repeats a theta, so candidates tie exactly on value and
    # the candidate indices decide.
    vals, thetas, grid, ps = search
    contrast = np.arange(1.0, vals.shape[1] + 1.0) if criterion == "contrast" else None
    _, var, cross, codes = _candidates(vals, thetas, grid, ps)
    feasible = np.flatnonzero(codes == 0).tolist()
    assume(feasible)
    values = _criterion(var[feasible], criterion, contrast)
    per_theta = len(grid) * len(ps)
    want = sorted((float(v), i // per_theta, i % per_theta // len(ps), i % len(ps))
                  for i, v in zip(feasible, values))
    results = design_search(vals, thetas, grid, ps, criterion, contrast)
    assert [(r.value, r.theta_index, r.delta_index, r.p_index) for r in results] == want
    for r in results:
        i = (r.theta_index * len(grid) + r.delta_index) * len(ps) + r.p_index
        assert r.evaluation.var_interaction.tobytes() == var[i].tobytes()
        assert r.evaluation.cov_cross.tobytes() == cross[i].tobytes()


# Rounding error of a log-det value in units of d cond(S) eps, S the
# candidate's Schur complement on the worse-conditioned side: at most 3.8
# under a row permutation and 13 under F -> F T over 300 search_grids
# draws each.
INVARIANCE_TOL = 100.0


def _ranking(vals, thetas, grid, ps, criterion="log-det", contrast=None):
    """{(theta, delta, p) index: (value, cond(S))} of a design search, and
    its keys in rank order (empty when nothing is feasible)."""
    try:
        results = design_search(vals, thetas, grid, ps, criterion, contrast)
    except NoFeasibleDesignError:
        return {}, []
    keys = [(r.theta_index, r.delta_index, r.p_index) for r in results]
    return {key: (r.value, np.linalg.cond(r.evaluation.var_interaction))
            for key, r in zip(keys, results)}, keys


def _on_the_limit(vals, theta, delta, p, factor):
    """Whether a candidate's worst condition, of A, of S or |A| / |S|, lies
    within factor of the 1e12 feasibility limit."""
    _, a, b, _ = brute_design(vals, theta, delta, p)
    try:
        s = a - b @ np.linalg.solve(a, b)
        worst = max(np.linalg.cond(a), np.linalg.cond(s),
                    np.abs(a).max() / max(np.abs(s).max(), 1e-300))
    except np.linalg.LinAlgError:
        worst = np.inf
    return 1e12 / factor <= worst <= 1e12 * factor


def _assert_same_ranking(search, other, shift, factor, criterion="log-det",
                         contrasts=(None, None)):
    """The criterion's search of other, with the second contrast, ranks as
    that of search, with the first, each value shifted by shift. Both keep
    the same feasible candidates, but for those within factor of the
    feasibility limit. Each value agrees within INVARIANCE_TOL d cond(S)
    eps, times the value for the contrast criterion (a log-det value's
    error is already relative), and two candidates may swap places only
    when their values tie within the sum of their tolerances: rounding
    can reorder near-ties, nothing else."""
    vals, thetas, grid, ps = search
    want, want_order = _ranking(*search, criterion, contrasts[0])
    got, got_order = _ranking(*other, criterion, contrasts[1])
    for key in set(want) ^ set(got):
        t, j, k = key
        assert _on_the_limit(vals, thetas[t], grid[j], ps[k], factor), key
    tol = {}
    for key in set(want) & set(got):
        size = 1.0 if criterion == "log-det" else max(abs(want[key][0]), abs(got[key][0]))
        tol[key] = (INVARIANCE_TOL * vals.shape[1] * np.finfo(float).eps
                    * max(want[key][1], got[key][1]) * size)
        assert abs(got[key][0] - shift - want[key][0]) <= tol[key]
    ranked = [key for key in want_order if key in tol]
    place = {key: i for i, key in enumerate(k for k in got_order if k in tol)}
    for i, first in enumerate(ranked):
        for later in ranked[i + 1:]:
            if place[later] < place[first]:
                assert abs(want[later][0] - want[first][0]) <= tol[first] + tol[later]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(search_grids(), st.randoms(use_true_random=False))
def test_design_search_is_invariant_to_row_order(search, random):
    vals, thetas, grid, ps = search
    order = list(range(len(vals)))
    random.shuffle(order)
    _assert_same_ranking(search, (vals[order], thetas, grid, ps), 0.0, 10.0)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(search_grids(), st.data())
def test_design_search_log_det_shifts_under_reparametrization(search, data):
    # F -> F T with T e1 = e1 keeps the intercept, and theta -> T^-1 theta
    # keeps every score; Var(g-hat) becomes T^-1 V T^-T, so each log-det
    # value shifts by -2 log|det T|. T scales columns by +-2^k, exact, and
    # on quarter-integer features (no jitter) also shears by a unit upper
    # triangle, exact too: the scores stay bitwise equal, so the arms do.
    vals, thetas, grid, ps = search
    d = vals.shape[1]
    powers = data.draw(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
                                min_size=d - 1, max_size=d - 1), label="scales")
    scale = np.diag([1.0] + powers)
    shear = np.eye(d)
    if np.array_equal(4.0 * vals, np.round(4.0 * vals)):
        rows, cols = np.triu_indices(d, 1)
        shear[rows, cols] = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                                               min_size=rows.size, max_size=rows.size),
                                      label="shear")
    t = shear @ scale
    t_inv = np.diag(1.0 / np.diag(scale)) @ np.round(np.linalg.inv(shear))
    assert np.array_equal(t @ t_inv, np.eye(d))
    moved = [tuple(t_inv @ np.array(theta)) for theta in thetas]
    for theta, back in zip(thetas, moved):
        assert (vals @ np.array(theta)).tobytes() == ((vals @ t) @ np.array(back)).tobytes()
    shift = -2.0 * np.log(np.abs(np.diag(scale)).prod())
    _assert_same_ranking(search, (vals @ t, moved, grid, ps), shift,
                         10.0 * np.linalg.cond(t) ** 2)
    # c' Var(g-hat) c is unmoved when c becomes T'c.
    c = np.arange(1.0, d + 1.0)
    _assert_same_ranking(search, (vals @ t, moved, grid, ps), 0.0,
                         10.0 * np.linalg.cond(t) ** 2, "contrast", (c, t.T @ c))


def _first_bad_candidate(features, thetas, deltas, ps):
    """(type, message) of what building a search's candidates one at a time
    raises, or None: each rule by the public constructor, theta-major with
    p fastest, then each theta's length against the feature columns."""
    try:
        rules = [ScoreThresholdRule(tuple(theta), float(delta), float(p))
                 for theta in thetas for delta in deltas for p in ps]
        for rule in rules:
            if len(rule.theta) != features.shape[1]:
                raise DomainError(f"theta has {len(rule.theta)} entries for "
                                  f"{features.shape[1]} feature columns")
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from([(0.0, 1.0), (1.0, -0.5), (0.0, 0.0), (np.nan, 1.0), (),
                                 (1.0, 0.0, 0.0), 3, "ab"]), max_size=3),
       st.lists(st.sampled_from([0.5, 0.0, 2.0, -1.0, np.inf, np.nan, "x", None]),
                max_size=3),
       st.lists(st.sampled_from([0.5, 0.3, 0.0, 1.0, np.nan, "y"]), max_size=3))
@example([(0.0, 1.0), (0.0, 0.0)], [0.5, -1.0], [0.5, 2.0])
@example([(np.nan, 1.0), 3], [], ["y"])
@example([], [None], [0.0])
@example([(0.0, 0.0)], [np.nan], [])
def test_design_search_raises_for_its_first_bad_candidate(thetas, deltas, ps):
    # Each axis is checked once, yet a mixture of bad values raises what the
    # first candidate holding one raised when every candidate was built in
    # turn; an empty axis makes an empty grid and checks nothing.
    features = np.column_stack([np.ones(6), np.linspace(-1.0, 1.0, 6)])
    want = _first_bad_candidate(features, thetas, deltas, ps)
    try:
        design_search(features, thetas, deltas, ps)
        got = None
    except NoFeasibleDesignError:
        got = None
    except (TypeError, ValueError) as exc:
        got = type(exc), str(exc)
    assert got == want
    if not (thetas and deltas and ps):
        with pytest.raises(NoFeasibleDesignError, match="among 0 candidates$"):
            design_search(features, thetas, deltas, ps)


@pytest.mark.parametrize("call", [
    lambda f: design_search(f, [(0.0, 1.0)], [0.5]),
    lambda f: evaluate_design(f, ScoreThresholdRule((0.0, 1.0), 0.5)),
    lambda f: expected_weights(f, ScoreThresholdRule((0.0, 1.0), 0.5)),
    fully_randomized_covariance,
])
def test_raw_arrays_get_the_feature_matrix_checks(call):
    x = np.linspace(-1.0, 1.0, 12)
    with pytest.raises(DomainError, match="all-ones intercept"):
        call(np.column_stack([x, x * x]))
    nan = np.column_stack([np.ones(12), x])
    nan[3, 1] = np.nan
    with pytest.raises(DomainError, match="^features must all be finite$"):
        call(nan)
    with pytest.raises(DomainError, match="^features must form a 2-d array$"):
        call(np.ones((2, 3, 2)))


def test_array_holding_results_compare_by_identity():
    # Frozen results that hold arrays compare and hash by identity, so
    # neither == nor hash raises on them.
    features = np.column_stack([np.ones(16), np.linspace(-1.0, 1.0, 16)])
    config = SimConfig(rule=TieBreaker(0.5), n=16, reps=4, seed=1)
    for make in (lambda: covariance_uniform(0.3),
                 lambda: FeatureMatrix.from_array(features),
                 lambda: evaluate_design(features, ScoreThresholdRule((0.0, 1.0), 0.5)),
                 lambda: design_search(features, [(0.0, 1.0)], [0.5]),
                 lambda: run_simulation(config)):
        one, twin = make(), make()
        assert one == one and one != twin
        assert hash(one) == hash(one)
        assert len({one, twin, one}) == 2
