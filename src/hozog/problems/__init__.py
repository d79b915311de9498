"""Concrete bilevel problem instances."""

from .hyperclean import (
    HyperCleanProblem,
    group_corruption_fractions,
    group_weighted_mean,
    hyperclean_objective,
    make_hyperclean,
    per_sample_cross_entropy,
)
from .logreg import LogRegProblem, logreg_objective, logreg_test_error
from .synthetic import (
    SyntheticBilevel,
    make_synthetic,
    synthetic_analytic_hypergradient,
    synthetic_optimum,
)

__all__ = [
    "HyperCleanProblem",
    "LogRegProblem",
    "SyntheticBilevel",
    "group_corruption_fractions",
    "group_weighted_mean",
    "hyperclean_objective",
    "logreg_objective",
    "logreg_test_error",
    "make_hyperclean",
    "make_synthetic",
    "per_sample_cross_entropy",
    "synthetic_analytic_hypergradient",
    "synthetic_optimum",
]
