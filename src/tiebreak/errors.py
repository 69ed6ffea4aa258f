"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateDesignError(Exception):
    """A design carries no information about some coefficient.

    Raised when an allocation puts every subject in one arm, or more
    generally when the implied moment matrix is singular, so asymptotic
    variances would be infinite.
    """


class NoFeasibleDesignError(Exception):
    """A design search found no candidate with a well-conditioned covariance."""
