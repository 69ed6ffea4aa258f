import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtri

from tiebreak.designs import (AssignmentDistribution, IntervalRule,
                              ScoreThresholdRule, SlidingScale,
                              ThreeLevelRule, TieBreaker, subject_ranks,
                              treatment_probability)
from tiebreak.errors import DomainError
from tiebreak.general import FeatureMatrix, expected_weights
from tiebreak.sliding import symmetrize

from helpers import bisect_normal_ppf


def test_subject_ranks_grid():
    # Sorted, the ranks are the uniform-rank grid (2i - N - 1)/N, i = 1..N.
    np.testing.assert_allclose(subject_ranks(np.zeros(5)),
                               [-0.8, -0.4, 0.0, 0.4, 0.8])
    grid = subject_ranks(np.arange(100))
    assert grid.mean() == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(grid, -grid[::-1])
    assert grid[0] == -0.99 and grid[-1] == 0.99
    np.testing.assert_array_equal(
        grid, AssignmentDistribution.uniform_rank().points(100))


def test_subject_ranks_rejects_bad_input():
    with pytest.raises(DomainError):
        subject_ranks([])
    with pytest.raises(DomainError):
        subject_ranks([1.0, np.nan])
    with pytest.raises(DomainError):
        subject_ranks(np.ones((2, 2)))


def test_subject_ranks_stable_ties():
    # Equal scores keep their input order: the first 3 outranks nothing
    # the second 3 has not already claimed.
    ranks = subject_ranks([3.0, 1.0, 3.0])
    np.testing.assert_allclose(ranks, [0.0, -2.0 / 3.0, 2.0 / 3.0])


def test_subject_ranks_permutation_of_grid():
    rng = np.random.default_rng(42)
    scores = rng.normal(size=57)
    ranks = subject_ranks(scores)
    np.testing.assert_allclose(np.sort(ranks),
                               AssignmentDistribution.uniform_rank().points(57))
    # Higher score, higher rank value
    order = np.argsort(scores)
    assert np.all(np.diff(ranks[order]) > 0)


def test_uniform_rank_distribution():
    dist = AssignmentDistribution.uniform_rank()
    np.testing.assert_allclose(dist.points(5), [-0.8, -0.4, 0.0, 0.4, 0.8])
    assert dist.central_window(0.4) == (-0.4, 0.4)


def test_gaussian_distribution():
    dist = AssignmentDistribution.standard_gaussian()
    for n in (1, 2, 101, 4000, 20000):
        pts = dist.points(n)
        want = ndtri((np.arange(1, n + 1) - 0.5) / n)
        assert np.all(np.abs(pts - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))
        assert np.all(np.diff(pts) > 0.0)
    assert dist.points(1)[0] == 0.0
    with pytest.raises(DomainError):
        dist.points(0)
    assert dist.points(np.int64(3)).tobytes() == dist.points(3).tobytes()
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(DomainError, match="positive integer"):
            dist.points(bad)
    for bad in (-0.1, 1.1, np.nan):
        with pytest.raises(DomainError):
            dist.central_window(bad)


def test_empirical_distribution():
    # Scores enter only through their ranks, which uniform-rank already
    # gives, so there is no separate empirical kind.
    for kind in ("empirical", "triangular"):
        with pytest.raises(DomainError):
            AssignmentDistribution(kind)


def test_rule_validation():
    with pytest.raises(DomainError):
        TieBreaker(-0.1)
    with pytest.raises(DomainError):
        TieBreaker(1.5)
    with pytest.raises(DomainError):
        TieBreaker(0.5, p=0.0)
    with pytest.raises(DomainError):
        IntervalRule(0.5, 0.2)
    with pytest.raises(DomainError):
        IntervalRule(-1.5, 0.0)
    with pytest.raises(DomainError):
        ThreeLevelRule(0.5, 0.5)
    with pytest.raises(DomainError):
        ThreeLevelRule(0.5, -0.01)
    with pytest.raises(DomainError):
        ScoreThresholdRule((0.0, 0.0), 0.5)
    with pytest.raises(DomainError):
        ScoreThresholdRule((1.0,), -1.0)
    for theta, delta in (((np.inf,), 0.5), ((1.0, np.nan), 0.5), ((1.0,), np.nan)):
        with pytest.raises(DomainError):
            ScoreThresholdRule(theta, delta)
    with pytest.raises(DomainError, match="^unknown rule type str$"):
        treatment_probability(0.0, "window")


def test_tiebreaker_probability_regions():
    rule = TieBreaker(0.4, p=0.3)
    x = np.array([-1.0, -0.4, -0.39, 0.0, 0.39, 0.4, 1.0])
    np.testing.assert_allclose(treatment_probability(x, rule),
                               [0.0, 0.0, 0.3, 0.3, 0.3, 1.0, 1.0])


def test_sharp_cutoff_treats_the_boundary():
    rule = TieBreaker(0.0)
    assert treatment_probability(0.0, rule) == 1.0
    assert treatment_probability(-1e-12, rule) == 0.0


def test_three_level_probability_regions():
    rule = ThreeLevelRule(0.5, 0.1)
    x = np.array([-0.9, -0.5, 0.0, 0.5, 0.9])
    np.testing.assert_allclose(treatment_probability(x, rule),
                               [0.1, 0.1, 0.5, 0.9, 0.9])


def test_score_threshold_probability():
    rule = ScoreThresholdRule((1.0, 2.0), 1.5, p=0.25)
    s = np.array([-2.0, -1.5, 0.0, 1.5, 4.0])
    np.testing.assert_allclose(treatment_probability(s, rule),
                               [0.0, 0.0, 0.25, 1.0, 1.0])


def test_gaussian_window_probability():
    rule = TieBreaker(0.5)
    dist = AssignmentDistribution.standard_gaussian()
    tau = ndtri(0.75)
    assert treatment_probability(tau + 1e-9, rule, dist) == 1.0
    assert treatment_probability(-tau - 1e-9, rule, dist) == 0.0
    assert treatment_probability(0.0, rule, dist) == 0.5


def test_sliding_scale_on_gaussian_scores_is_refused():
    scale = SlidingScale.from_table([-1.0, 1.0], [0.0, 1.0])
    x = np.array([-2.0, 0.0, 2.0])
    with pytest.raises(DomainError):
        treatment_probability(x, scale, AssignmentDistribution.standard_gaussian())
    np.testing.assert_allclose(treatment_probability(x, scale), [0.0, 0.5, 1.0])


def test_sliding_scale_table_interpolation():
    scale = SlidingScale.from_table([-0.5, 0.5], [0.2, 0.8])
    assert scale(0.0) == pytest.approx(0.5)
    assert scale(0.25) == pytest.approx(0.65)
    # Constant extension beyond the knots
    assert scale(-1.0) == 0.2
    assert scale(1.0) == 0.8
    assert scale.breakpoints == (-0.5, 0.5)


def test_sliding_scale_table_validation():
    with pytest.raises(DomainError):
        SlidingScale.from_table([0.0], [0.5])
    with pytest.raises(DomainError):
        SlidingScale.from_table([0.0, 0.0], [0.1, 0.9])
    with pytest.raises(DomainError):
        SlidingScale.from_table([-0.5, 0.5], [0.0, 1.5])
    with pytest.raises(DomainError):
        SlidingScale.from_table([-0.5, 0.5], [np.nan, 1.0])


def test_sliding_scale_from_csv(tmp_path):
    path = tmp_path / "scale.csv"
    path.write_text("x,p\n-1.0,0.0\n0.0,0.5\n1.0,1.0\n")
    scale = SlidingScale.from_csv(path)
    assert scale(0.5) == pytest.approx(0.75)
    bad = tmp_path / "bad.csv"
    bad.write_text("x,p\n0.0\n")
    with pytest.raises(DomainError):
        SlidingScale.from_csv(bad)
    # A '#' row is refused, not read as a comment that drops a knot.
    hashed = tmp_path / "hashed.csv"
    hashed.write_text("x,p\n-1,0.1\n#0,0.5\n1,0.9\n")
    with pytest.raises(DomainError, match="line 3 is not numeric"):
        SlidingScale.from_csv(hashed)
    headerless = tmp_path / "empty.csv"
    headerless.write_text("")
    with pytest.raises(DomainError):
        SlidingScale.from_csv(headerless)
    # A third header column with two-column rows, or three columns
    # throughout, is not a scale file.
    for name, text, where in (("wide_header", "x,p,q\n-1,0\n1,1\n", "line 2 "),
                              ("wide", "x,p,q\n-1,0,0\n1,1,0\n", "two columns")):
        wide = tmp_path / f"{name}.csv"
        wide.write_text(text)
        with pytest.raises(DomainError, match=where):
            SlidingScale.from_csv(wide)


def test_sliding_scale_from_rule_step_values():
    scale = SlidingScale.from_rule(TieBreaker(0.5, p=0.4))
    x = np.array([-0.9, -0.5, 0.0, 0.5, 0.9])
    np.testing.assert_allclose(scale(x), [0.0, 0.0, 0.4, 1.0, 1.0])
    assert scale.breakpoints == (-0.5, 0.5)
    three = SlidingScale.from_rule(ThreeLevelRule(0.3, 0.2))
    np.testing.assert_allclose(three(np.array([-0.5, 0.0, 0.5])),
                               [0.2, 0.5, 0.8])
    with pytest.raises(DomainError):
        SlidingScale.from_rule(ScoreThresholdRule((1.0,), 0.5))


def test_sliding_scale_from_callable_range_check():
    with pytest.raises(DomainError):
        SlidingScale.from_callable(lambda x: 1.0 + x * x)
    with pytest.raises(DomainError):
        SlidingScale(lambda x: np.full_like(x, 2.0))
    # A table scale comes only from from_table, which checks its knots.
    xs, ps = np.array([-1.0, 1.0]), np.array([2.0, 2.0])
    with pytest.raises(TypeError):
        SlidingScale(lambda x: np.interp(x, xs, ps), xs, table=(xs, ps))
    scale = SlidingScale.from_callable(lambda x: 0.5 * (1 + np.tanh(2 * x)))
    assert 0.0 < scale(-0.3) < 0.5 < scale(0.3) < 1.0
    # A value within the 1e-12 slack is accepted and comes back clipped.
    for value, clipped in ((1.0 + 1e-13, 1.0), (-1e-13, 0.0)):
        scale = SlidingScale(lambda x, v=value: np.full_like(x, v))
        assert treatment_probability(0.0, scale) == clipped
        assert np.all(scale(np.array([-0.5, 0.5])) == clipped)


def test_scale_returning_one_value_for_an_array_is_refused():
    with pytest.raises(DomainError, match="one probability per x"):
        SlidingScale(lambda x: 0.5)
    # Past the construction probe, every value is checked where it is used.
    scale = SlidingScale.from_callable(lambda t: np.nan if 0.1201 < t < 0.124 else 0.5)
    assert scale(0.125) == 0.5
    with pytest.raises(DomainError, match="non-finite probabilities"):
        scale(np.array([0.0, 0.122]))


@pytest.mark.parametrize("scale", [
    SlidingScale.from_table([-1.0, 1.0], [0.0, 1.0]),
    SlidingScale.from_callable(lambda x: 0.5 * (1 + np.tanh(2 * x))),
    SlidingScale.from_rule(TieBreaker(0.5)),
], ids=["table", "callable", "rule"])
def test_scale_refuses_non_finite_x(scale):
    # As treatment_probability does: a NaN x has no probability.
    for x in (np.nan, [0.0, np.inf]):
        with pytest.raises(DomainError, match="x must be finite"):
            scale(x)


def test_symmetrized_scale_balances_pointwise():
    rng = np.random.default_rng(3)
    xs = np.sort(rng.uniform(-1, 1, size=6))
    ps = np.sort(rng.uniform(0, 1, size=6))
    scale = SlidingScale.from_table(xs, ps)
    sym = symmetrize(scale)
    grid = np.linspace(-1, 1, 401)
    np.testing.assert_allclose(sym(grid) + sym(-grid), 1.0, atol=1e-12)
    # Symmetrizing is idempotent
    again = symmetrize(sym)
    np.testing.assert_allclose(again(grid), sym(grid), atol=1e-12)
    # The odd moment is preserved exactly at the table level
    from tiebreak.moments import sliding_moments
    assert sliding_moments(sym).zx_mean == pytest.approx(
        sliding_moments(scale).zx_mean, abs=1e-9)


def test_symmetrized_callable_scale():
    scale = SlidingScale.from_callable(lambda x: 0.25 + 0.5 * (x > 0.2))
    sym = symmetrize(scale)
    grid = np.linspace(-1, 1, 101)
    np.testing.assert_allclose(sym(grid) + sym(-grid), 1.0, atol=1e-12)


def test_interval_rule_probability_is_literal():
    rule = IntervalRule(-0.2, 0.6, p=0.5)
    x = np.array([-0.3, -0.2, 0.0, 0.6, 0.7])
    np.testing.assert_allclose(treatment_probability(x, rule),
                               [0.0, 0.0, 0.5, 1.0, 1.0])


# Property tests of the three-region step rule.

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)
unit = st.floats(0.0, 1.0)
coin = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
window_rules = st.one_of(
    st.builds(TieBreaker, unit, coin),
    st.builds(lambda ends, p: IntervalRule(min(ends), max(ends), p),
              st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), coin),
    st.builds(ThreeLevelRule, unit, st.floats(0.0, 0.5, exclude_max=True)),
)


@PROPERTY
@given(unit)
@example(0.0)
@example(0.5)
@example(1.0)
@example(np.nextafter(1.0, 0.0))
def test_gaussian_central_window(frac):
    lo, hi = AssignmentDistribution.standard_gaussian().central_window(frac)
    assert lo == -hi
    want = ndtri((1.0 + frac) / 2.0)
    if np.isinf(want):
        assert hi == np.inf
    else:
        assert abs(hi - want) <= 1e-15 * max(1.0, want)
        # Past tau = 4 the oracle's CDF rounding, divided by phi(tau),
        # outgrows its tolerance.
        if want < 4.0:
            assert hi == pytest.approx(bisect_normal_ppf((1.0 + frac) / 2.0), abs=2e-9)
    if frac == 0.5:
        assert hi == pytest.approx(0.6744897501960817, abs=1e-15)


def _edges_and_neighbours(lo, hi):
    return [v for edge in (lo, hi)
            for v in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf))]


def _rank_window(rule):
    """(lo, hi, bottom, mid, top) of a window rule on the rank scale."""
    if isinstance(rule, IntervalRule):
        return rule.a, rule.b, 0.0, rule.p, 1.0
    if isinstance(rule, TieBreaker):
        return -rule.delta, rule.delta, 0.0, rule.p, 1.0
    return -rule.delta, rule.delta, rule.epsilon, 0.5, 1.0 - rule.epsilon


@PROPERTY
@given(window_rules, st.lists(st.floats(-1.5, 1.5), max_size=20))
def test_window_rule_probability_matches_its_scale(rule, extra):
    lo, hi, bottom, mid, top = _rank_window(rule)
    x = np.array(_edges_and_neighbours(lo, hi) + [0.0] + extra)
    got = treatment_probability(x, rule)
    want = [top if v >= hi else bottom if v <= lo else mid for v in x]
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, SlidingScale.from_rule(rule)(x))


@PROPERTY
@given(st.floats(0.0, 2.0), coin, st.lists(st.floats(-3.0, 3.0), max_size=20),
       st.floats(-2.0, 2.0).filter(lambda v: v != 0.0))
def test_expected_weights_are_twice_the_probability_less_one(delta, p, extra, slope):
    scores = np.array(_edges_and_neighbours(-delta, delta) + [0.0] + extra)
    fm = FeatureMatrix.from_array(np.column_stack([np.ones_like(scores), scores]))
    for theta in ((0.0, 1.0), (0.25, slope)):
        rule = ScoreThresholdRule(theta, delta, p)
        s = fm.values @ rule.theta_array
        np.testing.assert_array_equal(expected_weights(fm, rule),
                                      2.0 * treatment_probability(s, rule) - 1.0)
