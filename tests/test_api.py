import tiebreak

# The package's public surface. A name added or removed here is a change
# to the API and should show up as a one-line diff in this set.
PUBLIC = {
    "AssignmentDistribution", "CoefCovariance", "DegenerateDesignError",
    "DesignEvaluation", "DomainError", "FeatureMatrix", "IntervalRule",
    "NoFeasibleDesignError", "QUADRATIC_LABELS",
    "ScoreThresholdRule", "SearchReport", "SearchResult", "SimConfig",
    "SimReport", "SlidingScale", "SlidingVariances", "TWOLINE_LABELS",
    "ThreeLevelRule", "TieBreaker", "central_zx_mean", "closed_form_reference",
    "covariance_gaussian", "covariance_quadratic", "covariance_uniform",
    "design_covariance", "design_moments", "design_search", "efficiency_vs_rdd",
    "empirical_covariance", "equivalent_tiebreaker", "evaluate_design",
    "expected_weights", "experimentation_cost", "full_covariance_sliding",
    "fully_randomized_covariance", "gain", "gaussian_zx_mean",
    "min_delta_for_fraction", "moment_determinant", "noncentral_covariance",
    "ols_fit", "optimal_delta", "precision", "run_simulation",
    "sliding_moments", "subject_ranks", "symmetrize", "treatment_probability",
    "value", "var_gain_at_x", "var_gain_quadratic", "variances_sliding",
}


def test_public_names_are_pinned():
    assert len(tiebreak.__all__) == len(PUBLIC) == 52
    assert set(tiebreak.__all__) == PUBLIC


def test_public_names_resolve():
    for name in tiebreak.__all__:
        assert getattr(tiebreak, name) is not None
