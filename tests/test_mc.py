import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiebreak import (AssignmentDistribution, CoefCovariance,
                      DegenerateDesignError, DomainError, IntervalRule,
                      ScoreThresholdRule, SlidingScale, TieBreaker, mc)
from tiebreak.covariance import _schur_pair
from tiebreak.twoline import covariance_gaussian
from tiebreak.quadratic import covariance_quadratic

from helpers import (loop_arms, loop_replicate_fits, mgs_lstsq, twoline_gram,
                     uniform_tiebreaker_covariance)


def _window_mask(x, delta):
    return (np.abs(x) < delta) & (x > -delta)


def _arms(rng, x, rule, scheme=mc.SIMPLE_RANDOM):
    """One replicate's arm draw, as the Monte Carlo loop makes it."""
    return mc._draw_arms(rng, mc._arm_probabilities(x, rule, None, scheme), scheme)


class TestSampleAssignment:

    def test_deterministic_arms_outside_window(self):
        x = AssignmentDistribution.uniform_rank().points(801)
        rng = np.random.default_rng(0)
        z = _arms(rng, x, TieBreaker(0.5))
        assert np.all(z[x >= 0.5] == 1.0)
        assert np.all(z[x <= -0.5] == -1.0)
        assert set(np.unique(z)) == {-1.0, 1.0}

    def test_window_fraction_near_half(self):
        x = AssignmentDistribution.uniform_rank().points(4000)
        rng = np.random.default_rng(7)
        z = _arms(rng, x, TieBreaker(0.5))
        inside = np.abs(x) < 0.5
        frac = np.mean(z[inside] == 1.0)
        # 2000 fair coins: five sigmas is ~0.056.
        assert abs(frac - 0.5) < 0.06

    def test_uniform_consumption_is_scheme_independent(self):
        x = AssignmentDistribution.uniform_rank().points(101)
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        _arms(rng_a, x, TieBreaker(0.5), scheme=mc.SIMPLE_RANDOM)
        _arms(rng_b, x, TieBreaker(0.5), scheme=mc.STRATIFIED_PAIRS)
        np.testing.assert_array_equal(rng_a.standard_normal(8),
                                      rng_b.standard_normal(8))

    def test_stratified_pairs_balance(self):
        x = AssignmentDistribution.uniform_rank().points(1000)
        inside = _window_mask(x, 0.5)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            z = _arms(rng, x, TieBreaker(0.5), scheme=mc.STRATIFIED_PAIRS)
            assert abs(z[inside].sum()) <= 1.0
            assert np.all(z[x >= 0.5] == 1.0)
            assert np.all(z[x <= -0.5] == -1.0)

    def test_stratified_pairs_are_consecutive(self):
        x = AssignmentDistribution.uniform_rank().points(500)
        idx = np.flatnonzero(_window_mask(x, 0.5))
        rng = np.random.default_rng(3)
        z = _arms(rng, x, TieBreaker(0.5), scheme=mc.STRATIFIED_PAIRS)
        npairs = idx.size // 2
        pair_sums = z[idx[:2 * npairs:2]] + z[idx[1:2 * npairs:2]]
        np.testing.assert_array_equal(pair_sums, np.zeros(npairs))

    @pytest.mark.parametrize("window", [0, 1, 2, 3, 51])
    def test_stratified_pairs_match_the_pairwise_loop(self, window):
        # The window's subjects scattered among deterministic arms; both
        # draws consume the same uniforms, so the next one agrees too.
        rng = np.random.default_rng(window)
        probs = rng.choice([0.0, 1.0], 40 + window)
        probs[np.sort(rng.choice(probs.size, window, replace=False))] = 0.5
        for seed in range(10):
            got, want = (np.random.Generator(np.random.Philox(key=[seed, 1]))
                         for _ in range(2))
            np.testing.assert_array_equal(
                mc._draw_arms(got, probs, mc.STRATIFIED_PAIRS),
                loop_arms(want, probs, mc.STRATIFIED_PAIRS))
            assert got.random() == want.random()

    def test_stratified_rejects_biased_coin(self, monkeypatch):
        x = AssignmentDistribution.uniform_rank().points(50)
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError, match="stratified pairing"):
            _arms(rng, x, TieBreaker(0.5, p=0.3), scheme=mc.STRATIFIED_PAIRS)
        # A run refuses the rule once, before any replicate stream exists.
        def no_streams(*args, **kwargs):
            raise AssertionError("a replicate was drawn")
        monkeypatch.setattr(np.random, "Philox", no_streams)
        config = mc.SimConfig(rule=TieBreaker(0.5, p=0.3), n=50, reps=10,
                              scheme=mc.STRATIFIED_PAIRS)
        with pytest.raises(DomainError, match="stratified pairing"):
            mc.run_simulation(config)


class TestOlsFit:

    def _draw(self, rng, n, model):
        x = AssignmentDistribution.uniform_rank().points(n)
        f = mc.design_matrix(x, model)
        z = _arms(rng, x, TieBreaker(0.5))
        y = rng.standard_normal(n)
        return f, z, y

    @pytest.mark.parametrize("model", [mc.TWOLINE, mc.QUADRATIC])
    def test_matches_orthogonalized_least_squares(self, model):
        rng = np.random.default_rng(11)
        f, z, y = self._draw(rng, 600, model)
        coef = mc.ols_fit(f, z, y)
        full = np.hstack([f, z[:, None] * f])
        want = mgs_lstsq(full, y)
        np.testing.assert_allclose(coef, want, rtol=1e-9, atol=1e-11)

    def test_exact_recovery_orders_quadratic_coefficients(self):
        # Noiseless outcomes pin the regressor order [F | zF]: the
        # baseline coefficients, then the interactions.
        rng = np.random.default_rng(13)
        x = AssignmentDistribution.uniform_rank().points(400)
        f = mc.design_matrix(x, mc.QUADRATIC)
        z = _arms(rng, x, TieBreaker(0.5))
        baseline = np.array([0.5, -0.3, 0.2])
        interaction = np.array([1.0, 0.7, -0.4])
        y = f @ baseline + z * (f @ interaction)
        coef = mc.ols_fit(f, z, y)
        want = [0.5, -0.3, 0.2, 1.0, 0.7, -0.4]
        np.testing.assert_allclose(coef, want, atol=1e-10)

    def test_constant_arm_is_rank_deficient(self):
        # Two lines with every subject on one arm, and two quadratics
        # whose control arm holds only two distinct x values: neither
        # arm's curve is identified, whatever the outcomes. At n = 20 the
        # one-arm Schur complement is rounding noise with a condition
        # number near 1, so only its scale gives it away.
        for n in (100, 20):
            x = AssignmentDistribution.uniform_rank().points(n)
            for model, sign, controls in ((mc.TWOLINE, 1.0, []),
                                          (mc.TWOLINE, -1.0, []),
                                          (mc.QUADRATIC, 1.0, [3, 12])):
                z = np.full(n, sign)
                z[controls] = -1.0
                with pytest.raises(DegenerateDesignError):
                    mc.ols_fit(mc.design_matrix(x, model), z, np.zeros(n))

    def test_ill_conditioned_gram_is_rank_deficient(self):
        # F'F is finite but ill-conditioned, and B A^-1 B would overflow:
        # the fit is refused on A alone.
        x = 1e152 * np.array([1.0, -0.5, 0.25, 0.75, -1.0, 0.5])
        with pytest.raises(DegenerateDesignError,
                           match="^feature Gram matrix is ill-conditioned$"):
            mc.ols_fit(np.column_stack([np.ones(6), x]), [1, -1, 1, -1, 1, -1],
                       np.arange(6.0))
        # A hundred times larger, F'F itself overflows: refused as the
        # design search refuses it, with no warning.
        with pytest.raises(DomainError, match="^features are too large: F'F overflows$"):
            mc.ols_fit(np.column_stack([np.ones(6), 100.0 * x]), [1, -1, 1, -1, 1, -1],
                       np.arange(6.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_ols_fit_is_in_regressor_order(data):
    # Whatever the width d of F, ols_fit returns the coefficients of
    # [F | zF] in that order, as a plain least-squares solve does.
    d = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(4 * d, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
    f = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, (n, d - 1))])
    z = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y = rng.standard_normal(n)
    full = np.hstack([f, z[:, None] * f])
    try:
        coef = mc.ols_fit(f, z, y)
    except DegenerateDesignError:
        assert np.linalg.cond(full) > 1e5
        return
    np.testing.assert_allclose(coef, mgs_lstsq(full, y), rtol=1e-8,
                               atol=1e-12 * np.linalg.cond(full))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_schur_blocks_invert_the_joint_gram(data):
    # ols_fit reads the inverse of [[A, B], [B, A]] as [[V, C], [C', V]].
    # For |w| <= 1 the Gram is positive semidefinite, and a Schur inverse
    # refused as degenerate means the Gram itself is ill-conditioned.
    d = data.draw(st.sampled_from((2, 3)))
    n = data.draw(st.integers(2 * d, 30))
    unit = st.floats(-1.0, 1.0)
    cols = data.draw(st.lists(st.lists(unit, min_size=d - 1, max_size=d - 1),
                              min_size=n, max_size=n))
    w = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    f = np.column_stack([np.ones(n), np.array(cols)])
    a, b = f.T @ f, f.T @ (w[:, None] * f)
    gram = np.block([[a, b], [b, a]])
    cond = np.linalg.cond(gram)
    try:
        var, cross = _schur_pair(a, b)
    except DegenerateDesignError:
        assert cond > 1e10
        return
    inv = np.block([[var, cross], [cross.T, var]])
    np.testing.assert_allclose(gram @ inv, np.eye(2 * d), rtol=0,
                               atol=1e-14 * cond)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_ols_fit_is_equivariant(data):
    # Adding F b + z F g to the outcomes shifts the fit by exactly (b, g)
    # in exact arithmetic. That is why the simulator draws no true
    # coefficients, and with linearity in y why sigma only rescales its
    # report. In floats the shift errs by rounding that the joint Gram's
    # condition amplifies: probed at most 12.6 cond eps times the largest
    # coefficient over 5400 designs drawn like these, so 64 leaves a
    # margin of five.
    d = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(2 * d + 2, 40))
    seed = data.draw(st.integers(0, 2 ** 32))
    rng = np.random.default_rng(seed)
    f = np.vander(rng.uniform(-1.0, 1.0, n), d, increasing=True)
    z = rng.choice([-1.0, 1.0], n)
    y = rng.standard_normal(n)
    shift = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=2 * d,
                                        max_size=2 * d)))
    try:
        base = mc.ols_fit(f, z, y)
    except DegenerateDesignError:
        return
    moved = mc.ols_fit(f, z, y + f @ shift[:d] + z * (f @ shift[d:]))
    joint = np.hstack([f, z[:, None] * f])
    want = base + shift
    bound = 64.0 * np.linalg.cond(joint.T @ joint) * np.finfo(float).eps
    assert np.abs(moved - want).max() <= bound * np.abs(want).max()


class TestEmpiricalCovariance:

    def test_hand_example(self):
        coefs = np.array([[0.0, 0.0], [2.0, 4.0]])
        got = mc.empirical_covariance(coefs, 10)
        np.testing.assert_allclose(got, [[20.0, 40.0], [40.0, 80.0]])

    def test_needs_two_replicates(self):
        with pytest.raises(DomainError):
            mc.empirical_covariance(np.ones((1, 4)), 10)


class TestClosedFormReference:

    def test_uniform_tie_breaker(self):
        config = mc.SimConfig(rule=TieBreaker(0.5))
        got = mc.closed_form_reference(config)
        np.testing.assert_allclose(got.matrix, uniform_tiebreaker_covariance(0.5),
                                   rtol=1e-14)

    def test_uniform_sliding_scale(self):
        scale = SlidingScale.from_table([-1.0, 1.0], [0.0, 1.0])
        config = mc.SimConfig(rule=scale)
        got = mc.closed_form_reference(config)
        # p(x) = (1 + x)/2 has expected arm w = x: E[z] = E[zx^2] = 0, E[zx] = 1/3.
        want = np.linalg.inv(twoline_gram((0.0, 1.0 / 3.0, 0.0)))
        np.testing.assert_allclose(got.matrix, want, rtol=1e-13, atol=1e-14)

    def test_gaussian_fair_window(self):
        config = mc.SimConfig(rule=TieBreaker(0.5),
                              distribution=AssignmentDistribution.standard_gaussian())
        got = mc.closed_form_reference(config)
        np.testing.assert_allclose(got.matrix,
                                   covariance_gaussian(0.5, full=True).matrix)

    def test_quadratic_uniform_window(self):
        config = mc.SimConfig(rule=TieBreaker(0.5), model=mc.QUADRATIC)
        got = mc.closed_form_reference(config)
        np.testing.assert_allclose(got.matrix, covariance_quadratic(0.5).matrix)

    def test_no_closed_form_cases(self):
        gauss = AssignmentDistribution.standard_gaussian()
        scale = SlidingScale.from_table([-1.0, 1.0], [0.0, 1.0])
        bad = [
            mc.SimConfig(rule=scale, distribution=gauss),
            mc.SimConfig(rule=scale, distribution=gauss, model=mc.QUADRATIC),
        ]
        for config in bad:
            with pytest.raises(DomainError):
                mc.closed_form_reference(config)

    @pytest.mark.parametrize("config", [
        mc.SimConfig(rule=IntervalRule(-0.2, 0.6),
                     distribution=AssignmentDistribution.standard_gaussian()),
        mc.SimConfig(rule=TieBreaker(0.5, p=0.3),
                     distribution=AssignmentDistribution.standard_gaussian()),
        mc.SimConfig(rule=SlidingScale.from_table([-1.0, 1.0], [0.0, 1.0]),
                     model=mc.QUADRATIC),
        mc.SimConfig(rule=IntervalRule(-0.2, 0.6), model=mc.QUADRATIC),
    ], ids=["gaussian-interval", "gaussian-biased-coin", "quadratic-table",
            "quadratic-interval"])
    def test_new_closed_forms_agree_with_simulation(self, config):
        config = mc.SimConfig(rule=config.rule, model=config.model,
                              distribution=config.distribution,
                              n=2000, reps=400, seed=12)
        report = mc.run_simulation(config)
        assert report.max_dev_se < 4.0


class TestSimConfig:

    def test_rejects_bad_settings(self):
        rule = TieBreaker(0.5)
        with pytest.raises(DomainError):
            mc.SimConfig(rule=rule, n=3)
        with pytest.raises(DomainError):
            mc.SimConfig(rule=rule, reps=1)
        with pytest.raises(DomainError):
            mc.SimConfig(rule=rule, seed=-1)
        for sigma in (0.0, -1.0, np.nan, np.inf, 1e-150, 1e160, 9.9e-101, 1.01e100):
            with pytest.raises(DomainError, match=r"\[1e-100, 1e100\]"):
                mc.SimConfig(rule=rule, sigma=sigma)
        with pytest.raises(DomainError):
            mc.SimConfig(rule=rule, model="cubic")
        with pytest.raises(DomainError, match="unknown assignment scheme"):
            mc.SimConfig(rule=rule, scheme="blocked")
        # Sizes must be integers: n = 400.5 would space a 401-point grid
        # for 400.5 subjects and scale the covariance by 400.5.
        for bad in ({"n": 400.5}, {"n": 400.0}, {"reps": 100.5},
                    {"seed": 1.5}, {"seed": "3"}):
            with pytest.raises(DomainError):
                mc.SimConfig(rule=rule, **bad)
        # numpy integers are kept as plain ints, so the report is JSON.
        config = mc.SimConfig(rule=rule, n=np.int64(40), reps=np.int64(20),
                              seed=np.uint32(1))
        assert all(type(v) is int for v in (config.n, config.reps, config.seed))
        json.dumps(mc.run_simulation(config).to_dict())
        # The simulator assigns on x, so a rule on a feature score is
        # refused rather than run with its theta ignored.
        with pytest.raises(DomainError):
            mc.SimConfig(rule=ScoreThresholdRule((1.0,), 0.5))


class TestRunSimulation:

    def test_agreement_with_closed_form(self):
        config = mc.SimConfig(rule=TieBreaker(0.5), n=2000, reps=400, seed=5)
        report = mc.run_simulation(config)
        assert report.reference is not None
        assert report.max_dev_se < 4.0
        assert report.reps_used == 400
        assert report.degenerate == 0

    def test_repeat_runs_bit_identical(self):
        config = mc.SimConfig(rule=TieBreaker(0.5), n=400, reps=60, seed=9)
        first = mc.run_simulation(config)
        second = mc.run_simulation(config)
        assert np.array_equal(first.empirical, second.empirical)
        assert np.array_equal(first.coef_mean, second.coef_mean)

    def test_sigma_scales_covariances(self):
        base = mc.SimConfig(rule=TieBreaker(0.5), n=400, reps=80, seed=2)
        loud = mc.SimConfig(rule=TieBreaker(0.5), n=400, reps=80, seed=2,
                            sigma=2.0)
        rep1 = mc.run_simulation(base)
        rep2 = mc.run_simulation(loud)
        # sigma rescales the finished report, and a power of two rescales
        # without rounding.
        for name in ("reference", "empirical", "se"):
            np.testing.assert_array_equal(getattr(rep2, name),
                                          4.0 * getattr(rep1, name))
        np.testing.assert_array_equal(rep2.coef_mean, 2.0 * rep1.coef_mean)
        assert rep2.max_dev_se == rep1.max_dev_se

    @pytest.mark.parametrize("sigma", [1e-100, 1e-8, 1e100])
    def test_report_matrices_are_covariances(self, sigma):
        # Checked on their own scale, however small or large sigma^2 is.
        report = mc.run_simulation(mc.SimConfig(rule=TieBreaker(0.5), n=40, reps=20,
                                                sigma=sigma))
        for matrix in (report.reference, report.empirical):
            np.testing.assert_array_equal(CoefCovariance(report.labels, matrix).matrix,
                                          0.5 * matrix + 0.5 * matrix.T)

    def test_degenerate_design_raises(self):
        # Four subjects all inside the window: about one replicate in
        # eight realizes a single arm and cannot be fitted.
        config = mc.SimConfig(rule=TieBreaker(1.0), n=4, reps=200, seed=0)
        with pytest.raises(DegenerateDesignError):
            mc.run_simulation(config)

    def test_reference_override_flags_disagreement(self, monkeypatch):
        config = mc.SimConfig(rule=TieBreaker(0.5), n=1000, reps=300, seed=4)
        honest = mc.closed_form_reference(config)
        wrong = CoefCovariance(honest.labels, honest.matrix * 3.0)
        monkeypatch.setattr(mc, "closed_form_reference", lambda config: wrong)
        report = mc.run_simulation(config)
        assert report.max_dev_se > 4.0

    def test_stratified_pairs_remove_assignment_noise(self):
        # With sigma fixed, the only replicate-to-replicate variation in
        # the realized information for beta2 comes from the arm draws.
        # Pairing pins the window's z-sums, so the realized N [G^-1]_22
        # collapses to its limit while fair coins scatter around it.
        x = AssignmentDistribution.uniform_rank().points(1000)
        f = mc.design_matrix(x, mc.TWOLINE)
        gram = f.T @ f

        def realized(scheme, seed):
            rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
            z = _arms(rng, x, TieBreaker(1.0), scheme=scheme)
            full = np.hstack([f, z[:, None] * f])
            ginv = np.linalg.inv(full.T @ full)
            return 1000.0 * ginv[2, 2]

        simple = np.array([realized(mc.SIMPLE_RANDOM, s) for s in range(200)])
        paired = np.array([realized(mc.STRATIFIED_PAIRS, s)
                           for s in range(200)])
        assert paired.mean() < simple.mean()
        assert paired.std() < 1e-6
        assert abs(simple.mean() - 1.0) < 0.02
        assert abs(paired.mean() - 1.0) < 1e-6


class TestReplicateStreams:
    """A run re-keys its one Philox before each replicate, which must then
    draw the stream of a Philox built fresh with key (seed, rep)."""

    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32, 2 ** 63 - 1])
    def test_rekeyed_stream_is_the_keyed_philox(self, seed, n):
        for rep, rng in mc._replicate_streams(seed, [0, 1, 7, 2 ** 32 + 1, 1]):
            fresh = np.random.Philox(key=[seed, rep])
            got, want = rng.bit_generator.state, fresh.state
            assert got["buffer_pos"] == want["buffer_pos"] == 4
            assert got["has_uint32"] == want["has_uint32"] == 0
            for name in ("counter", "key"):
                assert got["state"][name].tobytes() == want["state"][name].tobytes()
            want = np.random.Generator(fresh)
            assert rng.random(n).tobytes() == want.random(n).tobytes()
            assert rng.standard_normal(n).tobytes() == want.standard_normal(n).tobytes()
            # Leave the next replicate a half-used uint32 and a part-used
            # buffer.
            rng.integers(0, 2 ** 32, dtype=np.uint32)
            left = rng.bit_generator.state
            assert left["has_uint32"] == 1 and left["buffer_pos"] < 4

    @pytest.mark.parametrize("reps", [2, 37])
    def test_a_run_builds_one_philox(self, monkeypatch, reps):
        philox = np.random.Philox
        built = []

        def counted(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        config = mc.SimConfig(rule=TieBreaker(0.5), n=40, reps=reps, seed=9)
        monkeypatch.setattr(np.random, "Philox", counted)
        coefs, degenerate = mc._replicate_fits(config)
        assert len(built) == 1
        monkeypatch.undo()
        # The oracle builds a fresh Philox(key=[seed, rep]) per replicate.
        want, want_degenerate, _ = loop_replicate_fits(config)
        np.testing.assert_array_equal(degenerate, want_degenerate)
        assert _column_relative_gap(coefs, want) < 1e-12


def _column_relative_gap(got, want):
    """Largest |got - want| per coefficient, relative to that coefficient's
    largest magnitude over the replicates."""
    return float((np.abs(got - want) / np.abs(want).max(axis=0)).max())


class TestStackedFit:
    """The stacked fit of run_simulation against the replicate loop that
    fits one replicate at a time. The two sum the Gram blocks in different
    orders, so coefficients agree to rounding, and the degenerate rule
    must flag the same replicates."""

    # Windows at the top or bottom of a small sample, where many
    # replicates realize a single arm somewhere the fit needs both:
    # (0.8, 1), (-1, -0.8) and (0.5, 1) at 400 replicates, seed 0.
    EDGE_COUNTS = {20: (297, 303, 69), 26: (204, 211, 47),
                   31: (210, 211, 15), 40: (135, 132, 5)}

    @pytest.mark.parametrize("n", sorted(EDGE_COUNTS))
    def test_edge_windows_match_the_loop(self, n):
        rules = (IntervalRule(0.8, 1.0), IntervalRule(-1.0, -0.8),
                 IntervalRule(0.5, 1.0))
        for rule, count in zip(rules, self.EDGE_COUNTS[n]):
            config = mc.SimConfig(rule=rule, n=n, reps=400, seed=0)
            coefs, degenerate = mc._replicate_fits(config)
            want, want_degenerate, _ = loop_replicate_fits(config)
            np.testing.assert_array_equal(degenerate, want_degenerate)
            assert np.count_nonzero(degenerate) == count
            assert np.all(np.isnan(coefs[degenerate]))
            ok = ~degenerate
            assert _column_relative_gap(coefs[ok], want[ok]) < 1e-10

    @pytest.mark.parametrize("config", [
        mc.SimConfig(rule=TieBreaker(0.5), n=4000, reps=50),
        mc.SimConfig(rule=TieBreaker(0.5), n=4000, reps=50,
                     distribution=AssignmentDistribution.standard_gaussian()),
        mc.SimConfig(rule=TieBreaker(0.0), model=mc.QUADRATIC, n=4000, reps=50),
        mc.SimConfig(rule=IntervalRule(0.6, 0.8), n=20000, reps=50),
    ], ids=["tiebreaker", "gaussian", "quadratic-cutoff", "interval-20000"])
    def test_criterion_07_sizes_match_the_loop(self, config):
        coefs, degenerate = mc._replicate_fits(config)
        want, want_degenerate, _ = loop_replicate_fits(config)
        assert not degenerate.any() and not want_degenerate.any()
        assert _column_relative_gap(coefs, want) < 1e-12

    def test_blocks_cover_every_replicate(self, monkeypatch):
        config = mc.SimConfig(rule=TieBreaker(0.5), n=60, reps=23, seed=4)
        whole, _ = mc._replicate_fits(config)
        monkeypatch.setattr(mc, "_FIT_BLOCK", 5)
        blocked, _ = mc._replicate_fits(config)
        np.testing.assert_array_equal(blocked, whole)

    def test_stratified_pairs_run(self):
        config = mc.SimConfig(rule=TieBreaker(1.0), n=2000, reps=400, seed=6,
                              scheme=mc.STRATIFIED_PAIRS)
        report = mc.run_simulation(config)
        assert report.max_dev_se < 4.0
        assert report.reps_used == 400
        coefs, degenerate = mc._replicate_fits(config)
        want, want_degenerate, _ = loop_replicate_fits(config)
        np.testing.assert_array_equal(degenerate, want_degenerate)
        assert _column_relative_gap(coefs, want) < 1e-12
        np.testing.assert_allclose(report.empirical,
                                   mc.empirical_covariance(want, config.n),
                                   rtol=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_stacked_fit_matches_the_loop(data):
    # Random windows and designs, fitted to unit noise. The two fits sum
    # in different orders, so coefficients may differ by rounding
    # amplified by the realized Schur complement's condition.
    a, b = sorted(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2,
                                     max_size=2)))
    scheme = data.draw(st.sampled_from((mc.SIMPLE_RANDOM, mc.STRATIFIED_PAIRS)))
    p = 0.5 if scheme == mc.STRATIFIED_PAIRS else data.draw(st.floats(0.01, 0.99))
    model = data.draw(st.sampled_from((mc.TWOLINE, mc.QUADRATIC)))
    config = mc.SimConfig(rule=IntervalRule(a, b, p), model=model,
                          n=data.draw(st.integers(8, 300)), reps=12,
                          seed=data.draw(st.integers(0, 2 ** 32)), scheme=scheme)
    coefs, degenerate = mc._replicate_fits(config)
    want, want_degenerate, schur_cond = loop_replicate_fits(config)
    np.testing.assert_array_equal(degenerate, want_degenerate)
    ok = ~degenerate
    gap = np.abs(coefs[ok] - want[ok]).max(axis=1)
    scale = np.abs(want[ok]).max(axis=1)
    assert np.all(gap <= 1e-12 * schur_cond[ok] * scale)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_sigma_is_an_exact_rescale_of_the_report(data):
    # The replicates are fitted to unit noise and sigma only rescales the
    # finished report. A power of two 2^k rescales without rounding, so
    # the covariances are bitwise 4^k and coef_mean 2^k times the unit
    # run's; the SE verdict never sees sigma, whatever sigma is.
    rule = data.draw(st.sampled_from([TieBreaker(0.5), IntervalRule(0.6, 0.8),
                                      TieBreaker(0.0, 0.3)]))
    parts = dict(rule=rule, model=data.draw(st.sampled_from((mc.TWOLINE, mc.QUADRATIC))),
                 distribution=data.draw(st.sampled_from(
                     [AssignmentDistribution.uniform_rank(),
                      AssignmentDistribution.standard_gaussian()])),
                 n=60, reps=12, seed=data.draw(st.integers(0, 2 ** 32)))
    unit = mc.run_simulation(mc.SimConfig(**parts))
    k = data.draw(st.integers(-40, 40))
    scaled = mc.run_simulation(mc.SimConfig(**parts, sigma=2.0 ** k))
    for name in ("empirical", "reference", "se"):
        np.testing.assert_array_equal(getattr(scaled, name), 4.0 ** k * getattr(unit, name))
    np.testing.assert_array_equal(scaled.coef_mean, 2.0 ** k * unit.coef_mean)
    sigma = data.draw(st.floats(1e-100, 1e100) | st.sampled_from([1e-100, 1e100, 3.0, 0.3]))
    any_sigma = mc.run_simulation(mc.SimConfig(**parts, sigma=sigma))
    assert any_sigma.max_dev_se == unit.max_dev_se
    assert np.isfinite(any_sigma.reference).all() and np.isfinite(any_sigma.empirical).all()
    assert np.all(any_sigma.se > 0.0) and np.isfinite(any_sigma.se).all()


class TestSimReport:

    def test_to_dict_round_trips_through_json(self):
        config = mc.SimConfig(rule=TieBreaker(0.5), n=400, reps=50, seed=3)
        report = mc.run_simulation(config)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["rule"] == {"type": "TieBreaker", "delta": 0.5, "p": 0.5}
        assert payload["labels"] == ["beta0", "beta1", "beta2", "beta3"]
        assert len(payload["empirical"]) == 4
        assert payload["reps_used"] == 50
        assert payload["max_dev_se"] < 10.0

    def test_sliding_scale_description(self):
        step = SlidingScale.from_rule(TieBreaker(0.5))
        config = mc.SimConfig(rule=step, n=400, reps=20, seed=3)
        payload = json.loads(json.dumps(mc.run_simulation(config).to_dict()))
        assert payload["rule"] == {"type": "SlidingScale",
                                   "breakpoints": [-0.5, 0.5]}
