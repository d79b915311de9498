"""Hyperparameter optimization with averaged zeroth-order hyper-gradients.

The outer objective f(lam) = E(A(lam), lam) treats the whole inner training
run A as a black box; its gradient with respect to the hyperparameters is
estimated purely from function evaluations and driven down by plain
gradient descent.  The package bundles the estimator and outer loop
(zo_core), the deterministic oracle machinery (oracle, inner_solvers),
benchmark problems (problems), a random-search baseline (baselines),
Lipschitz feasibility checks (lipschitz), LIBSVM data handling (data_io),
and an experiment harness with a CLI (harness).
"""

from .baselines import RandomSearchConfig, random_search
from .errors import (
    ConfigError,
    DimensionMismatch,
    HozogError,
    InsufficientData,
    InvalidConfig,
    NonFiniteObjective,
    ParseError,
)
from .inner_solvers import InnerSolver, solve, trajectory
from .lipschitz import (
    LipschitzReport,
    StepJacobians,
    empirical_lipschitz,
    lipschitz_product_bound,
    synthetic_step_jacobians,
)
from .oracle import Evaluation, ObjectiveSpec, evaluate, evaluate_batch, function_objective
from .zo_core import (
    IterationEvent,
    ZoConfig,
    estimate_hyper_gradient,
    hozog_step,
    run_hozog,
    sample_directions,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DimensionMismatch",
    "Evaluation",
    "HozogError",
    "InnerSolver",
    "InsufficientData",
    "InvalidConfig",
    "IterationEvent",
    "LipschitzReport",
    "NonFiniteObjective",
    "ObjectiveSpec",
    "ParseError",
    "RandomSearchConfig",
    "StepJacobians",
    "ZoConfig",
    "empirical_lipschitz",
    "estimate_hyper_gradient",
    "evaluate",
    "evaluate_batch",
    "function_objective",
    "hozog_step",
    "lipschitz_product_bound",
    "random_search",
    "run_hozog",
    "sample_directions",
    "solve",
    "synthetic_step_jacobians",
    "trajectory",
]
