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
    evaluate_batch,
    function_objective,
    random_search,
    run_hozog,
    solve,
    synthetic_step_jacobians,
)
from hozog import errors
from hozog.data_io import SparseDataset, binarize, random_classification_dataset, split_2_1_1
from hozog.problems import (
    HyperCleanProblem,
    LogRegProblem,
    make_hyperclean,
    make_synthetic,
)

FAULT_TYPES = {
    "diverging inner solve": NonFiniteObjective,
    "fewer than two classes": InsufficientData,
    "too few rows": InsufficientData,
    "malformed box": InvalidConfig,
    "lambda of the wrong length": DimensionMismatch,
    "splits of different widths": DimensionMismatch,
    "rows without one label each": DimensionMismatch,
    "a label outside the problem's set": DimensionMismatch,
    "a start point of the wrong length": DimensionMismatch,
    "a non-finite start point": InvalidConfig,
    "a count that is not an integer": InvalidConfig,
    "a model of the wrong shape": DimensionMismatch,
}


def _rows(labels):
    return SparseDataset(rows=tuple((float(y), ((1, float(i)),)) for i, y in enumerate(labels)))


_BINARY = _rows([1, -1])
_ONE_CLASS = _rows([1] * 12)
_NO_ROWS = np.zeros(0, dtype=int)
_DIVERGING = make_synthetic(3.0, 1.0, inner=InnerSolver(steps=400, lr=5.0))
_P1 = function_objective(lambda lam: float(lam[0]), p=1)
_P2 = function_objective(lambda lam: 0.0, p=2)
_RS = RandomSearchConfig(budget=2, box=[[0.0, 1.0]])
_ZO = ZoConfig(q=1, mu=0.1, gamma=0.1, iterations=0)


# valid two-row problems, with the named fields replaced
def _logreg(**changes):
    x, y = np.ones((2, 1)), np.array([1.0, -1.0])
    splits = dict(x_train=x, y_train=y, x_val=x, y_val=y, x_test=x, y_test=y)
    return LogRegProblem(**{**splits, **changes})


def _hyperclean(**changes):
    x, y = np.ones((2, 1)), np.array([0, 1])
    fields = dict(
        x_train=x, y_train=y, y_clean=y, group_ids=np.zeros(2, dtype=int),
        x_val=x, y_val=y, x_test=x, y_test=y, n_classes=2, n_groups=1,
    )
    return HyperCleanProblem(**{**fields, **changes})


# (fault, site): a call that runs into the fault where that site detects it
SITES = {
    ("diverging inner solve", "inner_solvers.solve"): lambda: solve(
        lambda w, lam: -2.0 * w, InnerSolver(steps=2000, lr=1.0, w0=np.ones(1)), np.zeros((1, 1))
    ),
    ("diverging inner solve", "oracle.evaluate"): lambda: evaluate(_DIVERGING, [2.0]),
    ("diverging inner solve", "zo_core.run_hozog"): lambda: run_hozog(
        _DIVERGING, [2.0], ZoConfig(q=1, mu=0.1, gamma=0.1, iterations=1)
    ),
    ("fewer than two classes", "data_io.binarize"): lambda: binarize(_ONE_CLASS, seed=0),
    ("fewer than two classes", "make_hyperclean"): lambda: make_hyperclean(
        _ONE_CLASS, 4, 4, 4, n_groups=2, corruption_seed=0
    ),
    ("fewer than two classes", "data_io.random_classification_dataset"): lambda: (
        random_classification_dataset(4, 2, n_classes=1, noise_flip=0.5)
    ),
    ("too few rows", "LogRegProblem"): lambda: LogRegProblem.from_datasets(
        _BINARY, _rows([]), _BINARY
    ),
    ("too few rows", "LogRegProblem test split"): lambda: _logreg(
        x_test=np.ones((0, 1)), y_test=np.ones(0)
    ),
    ("too few rows", "HyperCleanProblem"): lambda: _hyperclean(
        x_train=np.zeros((0, 1)), y_train=_NO_ROWS, y_clean=_NO_ROWS, group_ids=_NO_ROWS
    ),
    ("too few rows", "HyperCleanProblem val split"): lambda: _hyperclean(
        x_val=np.ones((0, 1)), y_val=_NO_ROWS
    ),
    ("too few rows", "HyperCleanProblem test split"): lambda: _hyperclean(
        x_test=np.ones((0, 1)), y_test=_NO_ROWS
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
    ("malformed box", "RandomSearchConfig infinite"): lambda: RandomSearchConfig(
        budget=1, box=[[0.0, np.inf]]
    ),
    ("malformed box", "baselines.random_search"): lambda: random_search(_P2, _RS),
    ("malformed box", "lipschitz.empirical_lipschitz"): lambda: empirical_lipschitz(
        _P1, [[0.0, np.nan]], n_pairs=1, seed=0
    ),
    ("lambda of the wrong length", "oracle.evaluate"): lambda: evaluate(_P2, [0.0]),
    ("lambda of the wrong length", "oracle.evaluate_batch"): lambda: evaluate_batch(_P1, 3.0),
    ("lambda of the wrong length", "inner_solvers.solve"): lambda: solve(  # a 1-D lam, no block
        lambda w, lam: w, InnerSolver(steps=1, lr=0.1, w0=np.ones(1)), np.zeros(1)
    ),
    ("lambda of the wrong length", "zo_core.run_hozog"): lambda: run_hozog(_P2, [0.0], _ZO),
    ("splits of different widths", "LogRegProblem"): lambda: _logreg(x_val=np.ones((2, 2))),
    ("splits of different widths", "HyperCleanProblem"): lambda: _hyperclean(
        x_val=np.ones((2, 2))
    ),
    ("rows without one label each", "LogRegProblem"): lambda: _logreg(y_val=np.ones(3)),
    ("rows without one label each", "HyperCleanProblem"): lambda: _hyperclean(
        y_test=np.zeros(3, dtype=int)
    ),
    ("a label outside the problem's set", "LogRegProblem"): lambda: _logreg(
        y_train=np.array([1.0, 0.0])
    ),
    ("a label outside the problem's set", "HyperCleanProblem"): lambda: _hyperclean(
        y_train=np.array([0, 2])
    ),
    ("a start point of the wrong length", "ObjectiveSpec"): lambda: make_synthetic(  # d = 1
        3.0, 1.0, inner=InnerSolver(steps=5, lr=0.1, w0=(0.0, 1.0))
    ),
    ("a non-finite start point", "InnerSolver"): lambda: InnerSolver(
        steps=5, lr=0.1, w0=(np.nan,)
    ),
    ("a count that is not an integer", "InnerSolver"): lambda: InnerSolver(steps=True, lr=0.1),
    ("a count that is not an integer", "ZoConfig"): lambda: ZoConfig(
        q=2.5, mu=0.1, gamma=0.1, iterations=1
    ),
    ("a count that is not an integer", "RandomSearchConfig"): lambda: RandomSearchConfig(
        budget=2.5, box=[[0.0, 1.0]]
    ),
    ("a count that is not an integer", "lipschitz.empirical_lipschitz"): lambda: (
        empirical_lipschitz(_P1, [[0.0, 1.0]], n_pairs=2, seed=0.5)
    ),
    ("a count that is not an integer", "lipschitz.synthetic_step_jacobians"): lambda: (
        synthetic_step_jacobians(3.0, 1.0, eta=0.1, t_inner=2.5, lambda_box=(0.0, 1.0))
    ),
    ("a model of the wrong shape", "LogRegProblem.test_metric"): lambda: _logreg().test_metric(
        np.zeros(2)
    ),
    ("a model of the wrong shape", "HyperCleanProblem.test_metric"): lambda: (
        _hyperclean().test_metric(np.zeros((_hyperclean().d, 1)))
    ),
}


@pytest.mark.parametrize("fault, site", list(SITES), ids=[" @ ".join(key) for key in SITES])
def test_each_fault_raises_one_type_wherever_detected(fault, site):
    with pytest.raises(errors.HozogError) as excinfo:
        SITES[fault, site]()
    assert type(excinfo.value) is FAULT_TYPES[fault]


def test_a_count_that_is_not_an_integer_is_named():
    with pytest.raises(InvalidConfig, match=r"^steps must be an integer, got True$"):
        InnerSolver(steps=True, lr=0.1)


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
            lambda w, lam: -2.0 * w,
            InnerSolver(steps=2000, lr=1.0, w0=np.ones(1)),
            _LAM40[:, None],
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
