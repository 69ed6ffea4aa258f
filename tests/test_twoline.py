import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tiebreak.covariance import (_SCHUR_REASONS, CONDITION_LIMIT, CoefCovariance,
                                 design_covariance, schur_inverse)
from tiebreak.designs import AssignmentDistribution, IntervalRule
from tiebreak.errors import DegenerateDesignError, DomainError
from tiebreak.twoline import (covariance_gaussian, covariance_uniform,
                              efficiency_vs_rdd, experimentation_cost, gain,
                              min_delta_for_fraction, noncentral_covariance,
                              optimal_delta, precision, value, var_gain_at_x)

from helpers import (gaussian_tiebreaker_covariance, interval_moments,
                     twoline_gram, uniform_tiebreaker_covariance)

GAUSSIAN = AssignmentDistribution.standard_gaussian()


def numeric_full_covariance(a, b, p):
    """Invert the population Gram matrix of (1, x, z, zx) numerically."""
    return np.linalg.inv(twoline_gram(interval_moments(a, b, p)))


def test_covariance_uniform_endpoints():
    sharp = covariance_uniform(0.0, full=True)
    np.testing.assert_allclose(np.diag(sharp.matrix), [4, 12, 4, 12],
                               atol=1e-12)
    assert sharp.cov("beta0", "beta3") == pytest.approx(-6.0, abs=1e-12)
    assert sharp.cov("beta1", "beta2") == pytest.approx(-6.0, abs=1e-12)
    assert sharp.cov("beta0", "beta1") == 0.0
    rct = covariance_uniform(1.0, full=True)
    np.testing.assert_allclose(rct.matrix, np.diag([1.0, 3.0, 1.0, 3.0]),
                               atol=1e-12)


def test_covariance_uniform_half_window():
    cov = covariance_uniform(0.5)
    # 1 - 3 (0.375)^2 = 37/64
    assert cov.var("beta2") == pytest.approx(64.0 / 37.0, abs=1e-14)
    assert cov.var("beta3") == pytest.approx(192.0 / 37.0, abs=1e-14)


def test_covariance_uniform_is_moment_inverse():
    for d in np.linspace(0, 1, 21):
        cov = covariance_uniform(d, full=True)
        gram = twoline_gram(interval_moments(-d, d, 0.5))
        np.testing.assert_allclose(cov.matrix @ gram, np.eye(4), atol=1e-12)


def test_var_gain_matches_quadratic_form():
    for d in (0.0, 0.3, 0.8, 1.0):
        cov = covariance_uniform(d, full=True)
        for x in (-1.0, -0.2, 0.0, 0.5, 1.0):
            w = np.array([0.0, 0.0, 2.0, 2.0 * x])
            assert var_gain_at_x(d, x) == pytest.approx(
                cov.quadratic_form(w), rel=1e-13)


def test_var_gain_closed_form():
    assert var_gain_at_x(0.0, 0.0) == 16.0
    assert var_gain_at_x(1.0, 0.0) == 4.0
    np.testing.assert_allclose(
        var_gain_at_x(0.5, np.array([0.0, 1.0])),
        [16.0 / 2.3125, 64.0 / 2.3125])


def test_var_gain_gaussian_frozen():
    assert var_gain_at_x(0.5, 1.0, GAUSSIAN) == pytest.approx(
        13.421192949250129, abs=1e-10)


def test_efficiency_vs_rdd():
    assert efficiency_vs_rdd(0.0) == 1.0
    assert efficiency_vs_rdd(1.0) == 4.0
    assert efficiency_vs_rdd(0.5) == 2.3125
    assert efficiency_vs_rdd(1.0 / 3.0) == pytest.approx(44.0 / 27.0, abs=1e-15)
    # Ratio of effect variances, independent of x
    for d in (0.2, 0.6, 0.9):
        for x in (0.0, 0.7):
            assert efficiency_vs_rdd(d) == pytest.approx(
                var_gain_at_x(0.0, x) / var_gain_at_x(d, x), rel=1e-13)


def test_efficiency_monotone():
    grid = np.linspace(0, 1, 101)
    assert np.all(np.diff(efficiency_vs_rdd(grid)) > 0)


def test_covariance_gaussian():
    rdd = covariance_gaussian(0.0, full=True)
    target = np.pi / (np.pi - 2.0)
    np.testing.assert_allclose(np.diag(rdd.matrix), target, atol=1e-12)
    phi = np.sqrt(2.0 / np.pi)
    assert rdd.cov("beta0", "beta3") == pytest.approx(-phi / (1 - 2 / np.pi))
    rct = covariance_gaussian(1.0, full=True)
    np.testing.assert_allclose(rct.matrix, np.eye(4), atol=1e-12)


def test_precision_identities():
    for d in (0.0, 0.25, 0.5, 0.75, 1.0):
        cov = covariance_uniform(d)
        assert precision(d) == pytest.approx(1.0 / cov.var("beta3"), rel=1e-13)
        # The effect estimate 2 b2 keeps 3/4 of the precision scale
        assert 1.0 / (4.0 * cov.var("beta2")) == pytest.approx(
            0.75 * precision(d), rel=1e-13)
    assert precision(0.5) == pytest.approx(0.19270833333333331, abs=1e-15)
    assert precision(1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_gain_and_cost():
    assert gain(0.0, 2.0) == 1.0
    assert gain(1.0, 2.0, beta0=0.3) == pytest.approx(0.3)
    for d in (0.0, 0.4, 1.0):
        lost = gain(0.0, 1.7, beta0=0.5) - gain(d, 1.7, beta0=0.5)
        assert experimentation_cost(d, 1.7) == pytest.approx(lost, abs=1e-14)
    assert experimentation_cost(0.5, 1.0, n=1000) == pytest.approx(125.0)


@pytest.mark.parametrize("call, name", [
    (lambda v: var_gain_at_x(0.5, v), "x"),
    (lambda v: var_gain_at_x(0.5, [0.0, v, 0.5]), "x"),
    (lambda v: var_gain_at_x(0.5, v, GAUSSIAN), "x"),
    (lambda v: gain(0.5, v), "beta3"),
    (lambda v: gain(0.5, 1.0, v), "beta0"),
    (lambda v: value(0.5, v, 1.0), "beta3"),
    (lambda v: value(0.5, 1.0, 1.0, beta0=v), "beta0"),
    (lambda v: experimentation_cost(0.5, v), "beta3"),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_raise(call, name, bad):
    with pytest.raises(DomainError, match=f"^{name} must be finite$"):
        call(bad)


def test_value_decomposition():
    for d in (0.1, 0.6):
        assert value(d, 0.8, 2.0, beta0=0.1) == pytest.approx(
            gain(d, 0.8, 0.1) + 2.0 * precision(d), rel=1e-14)
    with pytest.raises(DomainError):
        value(0.5, 1.0, -1.0)


def test_optimal_delta_branches():
    assert optimal_delta(-1.0, 2.0) == 1.0
    assert optimal_delta(0.0, 2.0) == 1.0
    assert optimal_delta(2.0, 2.0) == 0.0
    assert optimal_delta(5.0, 2.0) == 0.0
    assert optimal_delta(1.0, 2.0) == pytest.approx(np.sqrt(0.5), abs=1e-15)
    with pytest.raises(DomainError):
        optimal_delta(1.0, 0.0)
    with pytest.raises(DomainError):
        optimal_delta(np.nan, 1.0)


def test_optimal_delta_beats_grid():
    rng = np.random.default_rng(99)
    grid = np.linspace(0, 1, 2001)
    for _ in range(10):
        beta3 = rng.uniform(-2, 2)
        lam = rng.uniform(0.1, 3)
        star = optimal_delta(beta3, lam)
        best = grid[np.argmax(value(grid, beta3, lam))]
        assert abs(star - best) <= 5e-4 + 1e-12


def test_min_delta_for_fraction():
    assert min_delta_for_fraction(0.25) == 0.0
    assert min_delta_for_fraction(1.0) == 1.0
    assert min_delta_for_fraction(0.75) == pytest.approx(
        0.6501151673437363, abs=1e-15)
    for rho in (0.3, 0.5, 0.9):
        d = min_delta_for_fraction(rho)
        assert precision(d) * 3.0 == pytest.approx(rho, rel=1e-12)
    with pytest.raises(DomainError):
        min_delta_for_fraction(0.2)
    with pytest.raises(DomainError):
        min_delta_for_fraction(1.01)


def test_moment_schur_central():
    # A = diag(1, 1/3), B = [[0, f], [f, 0]]: the Schur complement is
    # diag(1 - 3 f^2, 1/3 - f^2) and the cross block -A^-1 B V.
    a = np.diag([1.0, 1.0 / 3.0])
    b = np.array([[0.0, 0.375], [0.375, 0.0]])
    var, cross = schur_inverse(a, b)
    schur = np.diag([1.0 - 3.0 * 0.375 ** 2, 1.0 / 3.0 - 0.375 ** 2])
    assert var[0, 1] == var[1, 0] == 0.0
    np.testing.assert_allclose(var @ schur, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(cross, -np.linalg.solve(a, b) @ var, atol=1e-14)
    with pytest.raises(DegenerateDesignError, match="^design is ill-conditioned: "
                       "expected arms nearly reproduce the features$"):
        schur_inverse(a, -a)
    with pytest.raises(DegenerateDesignError,
                       match="^feature Gram matrix is ill-conditioned$"):
        schur_inverse(np.diag([1.0, 1e-13]), b)
    with pytest.raises(DegenerateDesignError,
                       match="^feature Gram matrix is ill-conditioned$"):
        schur_inverse(np.full((2, 2), np.inf), b)
    with pytest.raises(DegenerateDesignError, match="^singular normal equations$"):
        schur_inverse(a, np.full((2, 2), np.nan))


def test_stacked_schur_inverse_matches_each_item():
    rng = np.random.default_rng(31)
    for d in (2, 3, 4):
        f = np.hstack([np.ones((60, 1)), rng.normal(size=(60, d - 1))])
        a = f.T @ f
        arms = rng.uniform(-1.0, 1.0, (40, 60))
        arms[7] = np.sign(f[:, 1])
        b = np.einsum("ki,ij,il->kjl", arms, f, f)
        # A singular item (a non-finite Schur complement) and an
        # ill-conditioned one (one arm for all) in the middle of the stack.
        b[12] = np.nan
        own = np.stack([a + 0.1 * k * np.eye(d) for k in range(len(b))])
        for shared in (a, own):
            b[20] = shared if shared.ndim == 2 else shared[20]
            var, cross, reasons = schur_inverse(shared, b)
            assert var.shape == cross.shape == b.shape
            for k in range(len(b)):
                item = shared if shared.ndim == 2 else shared[k]
                try:
                    want = schur_inverse(item, b[k])
                except DegenerateDesignError as exc:
                    assert reasons[k] == str(exc)
                    assert np.isnan(var[k]).all() and np.isnan(cross[k]).all()
                    continue
                assert reasons[k] is None
                assert var[k].tobytes() == want[0].tobytes()
                assert cross[k].tobytes() == want[1].tobytes()
            assert reasons[12] == "singular normal equations"
            assert reasons[20].startswith("design is ill-conditioned")
            assert sum(r is not None for r in reasons) == 2
    # A stack of Gram blocks of its own flags only its own bad items, and a
    # bad Gram block is the reason even where B is not finite either.
    a = np.stack([np.eye(2), np.diag([1.0, 1e-13]), np.eye(2), np.diag([1.0, 1e-13])])
    b = np.zeros((4, 2, 2))
    b[2:] = np.nan
    _, _, reasons = schur_inverse(a, b)
    assert reasons == [None, "feature Gram matrix is ill-conditioned",
                       "singular normal equations",
                       "feature Gram matrix is ill-conditioned"]


def _gram_pair(kind: str, d: int, seed: int, tilt: float):
    """One (A, B) pair: a sample Gram and arm block of d features, or a
    degenerate pair built from them."""
    rng = np.random.default_rng(seed)
    f = np.hstack([np.ones((40, 1)), rng.normal(size=(40, d - 1))])
    a = f.T @ f
    arms = rng.uniform(-1.0, 1.0, 40)
    if kind == "near_singular":
        # Nearly one arm for all, bar d - 1 subjects: the Schur complement
        # has rank d - 1 plus a part of size tilt, so cond(S) is about
        # 1/tilt, on either side of the limit.
        arms = 1.0 - tilt * rng.uniform(0.0, 1.0, 40)
        arms[:d - 1] = rng.uniform(-1.0, 1.0, d - 1)
    b = np.einsum("i,ij,il->jl", arms, f, f)
    if kind == "zero_a":
        a = np.zeros((d, d))
    elif kind == "nonfinite_a":
        a[0, -1] = a[-1, 0] = rng.choice([np.inf, -np.inf, np.nan])
    elif kind in ("plus_a", "minus_a"):
        b = (1.0 - tilt) * a * (1.0 if kind == "plus_a" else -1.0)
    elif kind == "nan_b":
        b[0, 0] = np.nan
    return a, b


SCHUR_KINDS = ("random", "zero_a", "nonfinite_a", "plus_a", "minus_a",
               "near_singular", "nan_b")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SCHUR_KINDS), st.sampled_from((2, 3, 4)),
       st.integers(0, 2 ** 32 - 1), st.floats(-16.0, -1.0))
@example("plus_a", 2, 0, -13.0)
@example("minus_a", 3, 1, -11.0)
@example("near_singular", 4, 2, -12.5)
@example("near_singular", 2, 3, -3.0)
def test_one_pair_schur_inverse_equals_its_stack_of_one(kind, d, seed, log_tilt):
    a, b = _gram_pair(kind, d, seed, 10.0 ** log_tilt)
    var, cross, reasons = schur_inverse(a[None], b[None])
    try:
        got = schur_inverse(a, b)
    except DegenerateDesignError as exc:
        assert str(exc) == reasons[0]
        return
    assert reasons[0] is None
    assert got[0].tobytes() == var[0].tobytes()
    assert got[1].tobytes() == cross[0].tobytes()


def test_one_pair_schur_inverse_reasons():
    # Each constructed degenerate kind raises the reason its stack of one
    # reports, at the test that first refuses it.
    gram = "feature Gram matrix is ill-conditioned"
    arms = "design is ill-conditioned: expected arms nearly reproduce the features"
    want = {"zero_a": (0.0, gram), "nonfinite_a": (0.0, gram),
            "nan_b": (0.0, "singular normal equations"),
            "plus_a": (0.0, arms), "minus_a": (1e-14, arms), "near_singular": (1e-15, arms)}
    for kind, (tilt, reason) in want.items():
        for d in (2, 3, 4):
            a, b = _gram_pair(kind, d, d, tilt)
            with pytest.raises(DegenerateDesignError, match=f"^{reason}$"):
                schur_inverse(a, b)
            assert schur_inverse(a[None], b[None])[2] == [reason]


def _pair_with_complement(d: int, seed: int, log_cond: float, negative: bool):
    """(A, B) whose Schur complement A - B A^-1 B is L (I - C^2) L', with A
    = L L' near the identity and B = L C L': the eigenvalues of I - C^2
    run from 1 down to 10^-log_cond, the smallest negated if asked."""
    rng = np.random.default_rng(seed)
    low = np.eye(d) + 0.1 * np.tril(rng.uniform(-1.0, 1.0, (d, d)))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    spectrum = np.geomspace(1.0, 10.0 ** -log_cond, d)
    if negative:
        spectrum[-1] = -spectrum[-1]
    c = q @ np.diag(np.sqrt(1.0 - spectrum)) @ q.T
    return low @ low.T, low @ c @ low.T


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3, 4)), st.integers(0, 2 ** 32 - 1),
       st.one_of(st.floats(0.0, 11.0), st.floats(13.0, 17.0)), st.booleans())
def test_schur_condition_by_eigenvalues_agrees_with_svd(d, seed, log_cond, negative):
    # The symmetrized complement's singular values are its eigenvalue
    # magnitudes, so away from the limit (the computed condition lies
    # outside [1e11, 1e13]) both tests give one verdict, in both bodies.
    a, b = _pair_with_complement(d, seed, log_cond, negative)
    schur = a - b @ np.linalg.solve(a, b)
    schur = 0.5 * (schur + schur.T)
    sv = np.linalg.svd(schur, compute_uv=False)
    assume(not 1e11 <= sv[0] / sv[-1] <= 1e13)
    refused = (sv[-1] * CONDITION_LIMIT < sv[0]
               or np.abs(schur).max() * CONDITION_LIMIT <= np.abs(a).max())
    reason = _SCHUR_REASONS[2] if refused else None
    assert schur_inverse(np.stack([np.eye(d), a]), np.stack([np.zeros((d, d)), b]))[2] \
        == [None, reason]
    if refused:
        with pytest.raises(DegenerateDesignError, match=f"^{reason}$"):
            schur_inverse(a, b)
    else:
        schur_inverse(a, b)


def test_engine_covariance_matches_public_constructor():
    # The engine's trusted constructor skips steps that are identities on
    # its exactly symmetric matrices; the public one must agree field for
    # field, on full matrices and on the (b2, b3) blocks sliced from them.
    built = [design_covariance(IntervalRule(-0.4, 0.7, 0.3)),
             design_covariance(IntervalRule(-0.2, 0.5, 0.6), GAUSSIAN, "quadratic"),
             covariance_uniform(0.3), covariance_gaussian(0.8),
             noncentral_covariance(0.1, 0.9, 0.5)]
    for cov in built:
        public = CoefCovariance(cov.labels, cov.matrix)
        assert np.array_equal(cov.matrix, cov.matrix.T)
        assert public.labels == cov.labels and public.n_scaled == cov.n_scaled
        assert public.matrix.tobytes() == cov.matrix.tobytes()
        assert public.matrix.shape == cov.matrix.shape
        assert public.matrix.flags.c_contiguous and cov.matrix.flags.c_contiguous
        assert not (public.matrix.flags.writeable or cov.matrix.flags.writeable)
    # The checks it keeps raise as the public constructor does.
    for m, reason in ((np.array([[1.0, 2.0], [2.0, 1.0]]), "not positive definite"),
                      (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite")):
        with pytest.raises(DegenerateDesignError, match=reason):
            CoefCovariance(("a", "b"), m)
        with pytest.raises(DegenerateDesignError, match=reason):
            CoefCovariance._trusted(("a", "b"), m.copy())


def test_noncentral_table_frozen():
    cases = {(-1.0, 1.0): 3.00, (0.0, 0.0): 12.00, (-1.0, 0.0): 13.090909,
             (0.7, 0.7): 223.443472, (0.6, 0.8): 137.560089}
    for (a, b), expect in cases.items():
        assert noncentral_covariance(a, b).var("beta3") == pytest.approx(
            expect, abs=1e-4)
    ratio = (noncentral_covariance(0.7, 0.7).var("beta3")
             / noncentral_covariance(0.6, 0.8).var("beta3"))
    assert ratio == pytest.approx(1.6243, abs=1e-4)


def test_noncentral_against_numeric_inverse():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a, b = np.sort(rng.uniform(-0.95, 0.95, size=2))
        p = rng.uniform(0.1, 0.9)
        cov = noncentral_covariance(a, b, p, full=True)
        np.testing.assert_allclose(cov.matrix, numeric_full_covariance(a, b, p),
                                   atol=1e-10 * cov.matrix.max())


def test_noncentral_reduces_to_central():
    for d in (0.0, 0.25, 0.5, 0.75, 1.0):
        got = noncentral_covariance(-d, d, 0.5, full=True)
        want = covariance_uniform(d, full=True)
        np.testing.assert_allclose(got.matrix, want.matrix, atol=1e-10)


def test_degenerate_window_raises():
    for edge in (1.0, -1.0):
        with pytest.raises(DegenerateDesignError):
            noncentral_covariance(edge, edge)


def test_covariance_container_validation():
    with pytest.raises(DomainError):
        CoefCovariance(("a", "b"), np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(DegenerateDesignError):
        CoefCovariance(("a", "b"), np.array([[1.0, 2.0], [2.0, 1.0]]))
    cov = design_covariance(IntervalRule(-0.4, 0.4, 0.5))
    assert cov.labels == ("beta0", "beta1", "beta2", "beta3")
    d = cov.to_dict()
    assert d["labels"] == list(cov.labels)
    assert np.asarray(d["matrix"]).shape == (4, 4)


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
unit = st.floats(0.0, 1.0)


def _close(got, want, rtol=1e-12):
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * np.abs(want).max())


@PROPERTY
@given(unit)
@example(np.nextafter(1.0, 0.0))
def test_window_covariances_match_closed_forms(delta):
    _close(covariance_uniform(delta, full=True).matrix,
           uniform_tiebreaker_covariance(delta))
    _close(covariance_uniform(delta).matrix,
           uniform_tiebreaker_covariance(delta)[2:, 2:])
    _close(covariance_gaussian(delta, full=True).matrix,
           gaussian_tiebreaker_covariance(delta))


@PROPERTY
@given(st.tuples(st.floats(-0.98, 0.98), st.floats(-0.98, 0.98)),
       st.floats(0.05, 0.95))
def test_noncentral_matches_gram_inverse(ends, p):
    a, b = min(ends), max(ends)
    want = numeric_full_covariance(a, b, p)
    # Both sides are inverses of the same Gram matrix, each accurate to
    # about cond * eps.
    _close(noncentral_covariance(a, b, p, full=True).matrix, want,
           rtol=1e-15 * np.linalg.cond(want) + 1e-13)


@PROPERTY
@given(unit, st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8))
@example(np.nextafter(1.0, 0.0), [0.0, 1.5])
def test_var_gain_is_effect_quadratic_form(delta, xs):
    for dist, fn in ((None, covariance_uniform), (GAUSSIAN, covariance_gaussian)):
        cov = fn(delta, full=True)
        want = [cov.quadratic_form([0.0, 0.0, 2.0, 2.0 * x]) for x in xs]
        np.testing.assert_allclose(var_gain_at_x(delta, np.array(xs), dist), want,
                                   rtol=1e-12)
