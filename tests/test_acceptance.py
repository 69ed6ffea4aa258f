"""Acceptance checks.

One test per criterion, each printing a single PASS/FAIL line (run with
pytest -s to see them). Tolerances and time budgets are part of the
criteria and are asserted, not merely reported.
"""

import time

import numpy as np

from tiebreak import (AssignmentDistribution, DegenerateDesignError, FeatureMatrix,
                      IntervalRule, ScoreThresholdRule, SlidingScale, TieBreaker, mc)
from tiebreak.general import evaluate_design, fully_randomized_covariance
from tiebreak.moments import design_moments, sliding_moments
from tiebreak.sliding import (full_covariance_sliding, symmetrize,
                              variances_sliding)
from tiebreak.twoline import (covariance_gaussian, covariance_uniform,
                              efficiency_vs_rdd, noncentral_covariance,
                              optimal_delta, value)

from helpers import balanced_monotone_scale, quadratic_adjugate


def _verdict(num, label, ok):
    print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed"


def test_criterion_01_covariance_endpoints():
    checks = [
        (covariance_uniform(0.0).var("beta2"), 4.0),
        (covariance_uniform(0.0).var("beta3"), 12.0),
        (covariance_uniform(1.0).var("beta2"), 1.0),
        (covariance_uniform(1.0).var("beta3"), 3.0),
    ]
    ok = all(abs(got - want) <= 1e-12 for got, want in checks)
    _verdict(1, "uniform covariance at the design endpoints", ok)


def test_criterion_02_efficiency_endpoints():
    ok = abs(efficiency_vs_rdd(1.0) - 4.0) <= 1e-12
    gauss_rdd = covariance_gaussian(0.0).var("beta2")
    ok = ok and abs(gauss_rdd - np.pi / (np.pi - 2.0)) <= 1e-6
    _verdict(2, "efficiency of full randomization over a sharp cutoff", ok)


def test_criterion_03_offcentre_window_table():
    targets = [
        ((-1.0, 1.0), 3.00),
        ((0.0, 0.0), 12.00),
        ((-1.0, 0.0), 13.090909),
        ((0.7, 0.7), 223.443472),
        ((0.6, 0.8), 137.560089),
    ]
    got = {ab: noncentral_covariance(*ab).var("beta3") for ab, _ in targets}
    ok = all(abs(got[ab] - want) <= 0.01 for ab, want in targets)
    ratio = got[(0.7, 0.7)] / got[(0.6, 0.8)]
    ok = ok and abs(ratio - 1.62) <= 0.01
    _verdict(3, "slope-interaction variances on off-centre windows", ok)


def test_criterion_04_third_width_efficiency():
    ok = abs(efficiency_vs_rdd(1.0 / 3.0) - 1.63) <= 0.005
    _verdict(4, "efficiency of a one-third window", ok)


def _quadratic_gram_block(delta):
    """The engine's Gram block over (1, zx, x^2) for the fair-coin window."""
    x, w = design_moments(TieBreaker(delta))
    return np.array([[x[0], w[1], x[2]], [w[1], x[2], w[3]], [x[2], w[3], x[4]]])


def test_criterion_05_quadratic_adjugate_identity():
    ok = True
    eye = np.eye(3)
    for d in np.linspace(0.0, 1.0, 101):
        m, det = quadratic_adjugate(float(d))
        resid = np.max(np.abs((m / det) @ _quadratic_gram_block(float(d)) - eye))
        ok = ok and resid <= 1e-10
    det0 = np.linalg.det(_quadratic_gram_block(0.0))
    det1 = np.linalg.det(_quadratic_gram_block(1.0))
    ok = ok and abs(det0 - 1.0 / 2160.0) <= 1e-15
    ok = ok and abs(det1 - 4.0 / 135.0) <= 1e-15
    _verdict(5, "quadratic moment determinant and inverse identity", ok)


def test_criterion_06_optimal_window_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    grid = np.linspace(0.0, 1.0, 10001)
    ok = True
    for _ in range(50):
        beta3 = rng.uniform(-2.0, 2.0)
        lam = rng.uniform(0.05, 3.0)
        star = optimal_delta(beta3, lam)
        brute = grid[int(np.argmax(value(grid, beta3, lam)))]
        ok = ok and abs(star - brute) <= 1e-4
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _verdict(6, f"closed-form optimal window vs grid search "
                f"({elapsed:.2f}s)", ok)


def test_criterion_07_monte_carlo_agreement():
    start = time.perf_counter()
    gaussian = AssignmentDistribution.standard_gaussian()
    configs = [
        mc.SimConfig(rule=TieBreaker(0.0), n=4000, reps=2000),
        mc.SimConfig(rule=TieBreaker(0.5), n=4000, reps=2000),
        mc.SimConfig(rule=TieBreaker(1.0), n=4000, reps=2000),
        mc.SimConfig(rule=TieBreaker(0.5), distribution=gaussian,
                     n=4000, reps=2000),
        mc.SimConfig(rule=TieBreaker(0.0), model=mc.QUADRATIC,
                     n=4000, reps=2000),
        mc.SimConfig(rule=TieBreaker(1.0), model=mc.QUADRATIC,
                     n=4000, reps=2000),
        mc.SimConfig(rule=IntervalRule(0.6, 0.8), n=20000, reps=2000),
    ]
    ok = True
    worst = 0.0
    for config in configs:
        report = mc.run_simulation(config)
        worst = max(worst, report.max_dev_se)
        ok = ok and report.max_dev_se <= 4.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict(7, f"simulated covariances within 4 SE of closed forms "
                f"(worst {worst:.2f} SE, {elapsed:.1f}s)", ok)


def test_criterion_08_symmetrization_improves_scales():
    start = time.perf_counter()
    ok = True
    for seed in range(200):
        scale = balanced_monotone_scale(np.random.default_rng(seed))
        folded = symmetrize(scale)
        after = sliding_moments(folded)
        ok = ok and abs(after.z_mean) <= 1e-9
        ok = ok and abs(after.zx2_mean) <= 1e-9
        det_b = variances_sliding(scale)
        det_a = variances_sliding(folded)
        ok = ok and det_a.var_slope <= det_b.var_slope + 1e-8
        ok = ok and det_a.var_level <= det_b.var_level + 1e-8
    # Symmetry helps each coefficient, not every linear combination:
    # for the |x| scale the variance of beta1 + beta3 rises from 4 to 6.
    absolute = SlidingScale.from_callable(np.abs, breakpoints=(0.0,))
    w = (0.0, 1.0, 0.0, 1.0)
    combo_before = full_covariance_sliding(absolute).quadratic_form(w)
    combo_after = full_covariance_sliding(symmetrize(absolute)).quadratic_form(w)
    ok = ok and combo_after > combo_before + 1.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _verdict(8, f"symmetrizing balanced scales never hurts coefficients "
                f"({elapsed:.1f}s)", ok)


def test_criterion_09_randomization_floor():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    feasible = 0
    for trial in range(50):
        d = 2 + trial % 3
        vals = np.column_stack([np.ones(2000),
                                rng.normal(size=(2000, d - 1))])
        fm = FeatureMatrix.from_array(vals)
        floor = fully_randomized_covariance(fm)
        for _ in range(20):
            theta = tuple(rng.normal(size=d))
            delta = float(rng.uniform(0.0, 1.0))
            try:
                ev = evaluate_design(fm, ScoreThresholdRule(theta, delta))
            except DegenerateDesignError:
                continue
            feasible += 1
            gap = np.linalg.eigvalsh(ev.var_interaction - floor)[0]
            ok = ok and gap >= -1e-9
    ok = ok and feasible >= 500
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(9, f"full randomization is the precision floor "
                f"({feasible} feasible designs, {elapsed:.1f}s)", ok)


def test_criterion_10_finite_sample_reduction():
    start = time.perf_counter()
    n = 100000
    x = AssignmentDistribution.uniform_rank().points(n)
    fm = FeatureMatrix.from_array(np.column_stack([np.ones(n), x]))
    deltas = (0.0, 0.25, 0.5, 0.75, 1.0)
    ok = True
    for delta in deltas:
        ev = evaluate_design(fm, ScoreThresholdRule((0.0, 1.0), delta))
        got = n * ev.var_interaction
        want = covariance_uniform(delta, full=True).matrix[2:, 2:]
        ok = ok and np.max(np.abs(got - want) / np.abs(np.diag(want))) <= 1e-3
        offc = noncentral_covariance(-delta, delta, 0.5, full=True)
        central = covariance_uniform(delta, full=True)
        ok = ok and np.max(np.abs(offc.matrix - central.matrix)) <= 1e-10
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _verdict(10, f"finite designs reproduce the limiting covariance "
                 f"({elapsed:.1f}s)", ok)
