"""Design and analysis engine for tie-breaker experiments.

A tie-breaker design treats the clear admits, rejects the clear
non-admits, and randomizes the contested middle of the score
distribution, interpolating between a regression discontinuity (no
window) and a randomized trial (window everywhere). This package
computes the precision of the resulting regression estimates in closed
form, optimizes the window width against the cost of randomizing,
extends the analysis to sliding probability scales and multivariate
eligibility scores, and checks every formula by simulation.
"""

from .covariance import (CoefCovariance, QUADRATIC_LABELS, TWOLINE_LABELS,
                         design_covariance)
from .designs import (AssignmentDistribution, IntervalRule, ScoreThresholdRule,
                      SlidingScale, ThreeLevelRule, TieBreaker, subject_ranks,
                      treatment_probability)
from .errors import DegenerateDesignError, DomainError, NoFeasibleDesignError
from .general import (DesignEvaluation, FeatureMatrix, SearchReport,
                      SearchResult, design_search, evaluate_design,
                      expected_weights, fully_randomized_covariance)
from .mc import (SimConfig, SimReport, closed_form_reference,
                 empirical_covariance, ols_fit, run_simulation)
from .moments import (central_zx_mean, design_moments, gaussian_zx_mean,
                      sliding_moments)
from .quadratic import covariance_quadratic, var_gain_quadratic
from .sliding import (SlidingVariances, equivalent_tiebreaker,
                      full_covariance_sliding, moment_determinant,
                      symmetrize, variances_sliding)
from .twoline import (covariance_gaussian, covariance_uniform,
                      efficiency_vs_rdd, experimentation_cost, gain,
                      min_delta_for_fraction, noncentral_covariance,
                      optimal_delta, precision, value, var_gain_at_x)

__version__ = "0.1.0"

__all__ = [
    "AssignmentDistribution", "CoefCovariance", "DegenerateDesignError",
    "DesignEvaluation", "DomainError", "FeatureMatrix",
    "IntervalRule", "NoFeasibleDesignError",
    "QUADRATIC_LABELS", "ScoreThresholdRule",
    "SearchReport", "SearchResult", "SimConfig", "SimReport", "SlidingScale",
    "SlidingVariances", "TWOLINE_LABELS", "ThreeLevelRule", "TieBreaker",
    "central_zx_mean", "closed_form_reference",
    "covariance_gaussian", "covariance_quadratic", "covariance_uniform",
    "design_covariance", "design_moments", "design_search",
    "efficiency_vs_rdd", "empirical_covariance",
    "equivalent_tiebreaker", "evaluate_design", "expected_weights",
    "experimentation_cost", "full_covariance_sliding",
    "fully_randomized_covariance", "gain", "gaussian_zx_mean",
    "min_delta_for_fraction",
    "moment_determinant", "noncentral_covariance", "ols_fit",
    "optimal_delta", "precision", "run_simulation", "sliding_moments",
    "subject_ranks", "symmetrize",
    "treatment_probability", "value", "var_gain_at_x",
    "var_gain_quadratic", "variances_sliding",
]
