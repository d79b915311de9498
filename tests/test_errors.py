"""Each fault raises one exception type, wherever it is detected."""

import numpy as np
import pytest

from hozog import (
    DimensionMismatch,
    InnerSolver,
    InsufficientData,
    InvalidConfig,
    NonFiniteObjective,
    RandomSearchConfig,
    ZoConfig,
    empirical_lipschitz,
    estimate_hyper_gradient,
    evaluate,
    function_objective,
    random_search,
    run_hozog,
    solve,
)
from hozog import errors
from hozog.data_io import SparseDataset, binarize, split_2_1_1
from hozog.problems import LogRegProblem, logreg_test_error, make_hyperclean, make_synthetic

FAULT_TYPES = {
    "diverging inner solve": NonFiniteObjective,
    "fewer than two classes": InsufficientData,
    "too few rows": InsufficientData,
    "malformed box": InvalidConfig,
    "lambda of the wrong length": DimensionMismatch,
}


def _rows(labels):
    return SparseDataset(rows=tuple((float(y), ((1, float(i)),)) for i, y in enumerate(labels)))


_BINARY = _rows([1, -1])
_ONE_CLASS = _rows([1] * 12)
_DIVERGING = make_synthetic(3.0, 1.0, inner=InnerSolver(steps=400, lr=5.0))
_P1 = function_objective(lambda lam: float(lam[0]), p=1)
_P2 = function_objective(lambda lam: 0.0, p=2)
_RS = RandomSearchConfig(budget=2, box=[[0.0, 1.0]])
_ZO = ZoConfig(q=1, mu=0.1, gamma=0.1, iterations=0)

# (fault, site): a call that runs into the fault where that site detects it
SITES = {
    ("diverging inner solve", "inner_solvers.solve"): lambda: solve(
        lambda w, lam: -2.0 * w, InnerSolver(steps=2000, lr=1.0, w0=np.ones(1)), np.zeros(1)
    ),
    ("diverging inner solve", "oracle.evaluate"): lambda: evaluate(_DIVERGING, [2.0]),
    ("diverging inner solve", "zo_core.run_hozog"): lambda: run_hozog(
        _DIVERGING, [2.0], ZoConfig(q=1, mu=0.1, gamma=0.1, iterations=1)
    ),
    ("fewer than two classes", "data_io.binarize"): lambda: binarize(_ONE_CLASS, seed=0),
    ("fewer than two classes", "make_hyperclean"): lambda: make_hyperclean(
        _ONE_CLASS, 4, 4, 4, n_groups=2, corruption_seed=0
    ),
    ("too few rows", "LogRegProblem"): lambda: LogRegProblem.from_datasets(
        _BINARY, _rows([]), _BINARY
    ),
    ("too few rows", "logreg_test_error"): lambda: logreg_test_error(
        LogRegProblem.from_datasets(_BINARY, _BINARY, _rows([])), np.zeros(1)
    ),
    ("too few rows", "data_io.split_2_1_1"): lambda: split_2_1_1(_rows([1, -1, 1]), seed=0),
    ("too few rows", "make_hyperclean"): lambda: make_hyperclean(
        _rows([0, 1] * 5), 4, 4, 4, n_groups=2, corruption_seed=0
    ),
    ("malformed box", "ObjectiveSpec.bounds rows"): lambda: function_objective(
        lambda lam: 0.0, p=2, bounds=[[0.0, 1.0]]
    ),
    ("malformed box", "ObjectiveSpec.bounds NaN"): lambda: function_objective(
        lambda lam: 0.0, p=1, bounds=[[np.nan, 1.0]]
    ),
    ("malformed box", "RandomSearchConfig"): lambda: RandomSearchConfig(
        budget=1, box=[[1.0, 0.0]]
    ),
    ("malformed box", "baselines.random_search"): lambda: random_search(_P2, _RS),
    ("malformed box", "lipschitz.empirical_lipschitz"): lambda: empirical_lipschitz(
        _P1, [[0.0, np.nan]], n_pairs=1, seed=0
    ),
    ("lambda of the wrong length", "oracle.evaluate"): lambda: evaluate(_P2, [0.0]),
    ("lambda of the wrong length", "zo_core.run_hozog"): lambda: run_hozog(_P2, [0.0], _ZO),
}


@pytest.mark.parametrize("fault, site", list(SITES), ids=[" @ ".join(key) for key in SITES])
def test_each_fault_raises_one_type_wherever_detected(fault, site):
    with pytest.raises(errors.HozogError) as excinfo:
        SITES[fault, site]()
    assert type(excinfo.value) is FAULT_TYPES[fault]


def test_diverging_solve_names_its_steps_and_lambda():
    with pytest.raises(NonFiniteObjective) as excinfo:
        evaluate(_DIVERGING, [2.0])
    assert str(excinfo.value) == (
        "inner solve diverged (iterate is non-finite after 400 inner steps) at lam=[2.]"
    )
    np.testing.assert_array_equal(excinfo.value.hyperparams, [2.0])


_LAM40 = np.random.default_rng(0).standard_normal(40) * 1e5


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve(
            lambda w, lam: -2.0 * w, InnerSolver(steps=2000, lr=1.0, w0=np.ones(1)), _LAM40
        ),
        lambda: evaluate(function_objective(lambda lam: np.inf, p=40), _LAM40),
        lambda: estimate_hyper_gradient(
            function_objective(lambda lam: np.nan, p=40), _LAM40, _ZO, np.eye(40)[:1]
        ),
    ],
    ids=["inner_solvers.solve", "oracle.evaluate", "zo_core.estimate_hyper_gradient"],
)
def test_a_long_lambda_is_summarised_on_one_line(call):
    with pytest.raises(NonFiniteObjective) as excinfo:
        call()
    message = str(excinfo.value)
    assert "..." in message and "\n" not in message, message


def test_a_nonfinite_lambda0_fails_before_the_first_iteration():
    with pytest.raises(NonFiniteObjective):
        run_hozog(_P1, [np.nan], _ZO)  # iterations=0: no point is evaluated


def test_the_error_classes():
    classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    assert classes == {
        "HozogError",
        "InvalidConfig",
        "DimensionMismatch",
        "NonFiniteObjective",
        "InsufficientData",
        "ParseError",
        "ConfigError",
    }
