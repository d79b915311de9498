"""Oracle evaluation contract tests."""

import numpy as np
import pytest

from hozog import (
    DimensionMismatch,
    InnerSolver,
    InvalidConfig,
    NonFiniteObjective,
    evaluate,
    evaluate_batch,
    function_objective,
)
from hozog.data_io import random_classification_dataset, split_2_1_1
from hozog.problems import LogRegProblem, logreg_objective, make_synthetic


@pytest.fixture(scope="module")
def logreg_spec():
    ds = random_classification_dataset(240, 12, seed=5, class_sep=1.5)
    train, val, test = split_2_1_1(ds, seed=1)
    prob = LogRegProblem.from_datasets(train, val, test)
    return logreg_objective(prob, InnerSolver(steps=60, lr=0.02))


class TestEvaluate:
    def test_synthetic_closed_form_at_zero(self):
        spec = make_synthetic(3.0, 1.0)
        result = evaluate(spec, np.array([0.0]))
        assert result.model[0] == pytest.approx(1.0, abs=1e-12)
        assert result.f_value == pytest.approx(0.0, abs=1e-12)

    def test_synthetic_large_lambda_limit(self):
        spec = make_synthetic(3.0, 1.0)
        result = evaluate(spec, np.array([30.0]))
        assert result.model[0] == pytest.approx(0.0, abs=1e-12)
        assert result.f_value == pytest.approx(0.5, abs=1e-10)

    def test_wrong_length_lambda(self):
        spec = make_synthetic(3.0, 1.0)
        with pytest.raises(DimensionMismatch):
            evaluate(spec, np.array([0.0, 1.0]))

    def test_repeat_calls_identical(self):
        spec = make_synthetic(3.0, 1.0, inner=InnerSolver(steps=50, lr=0.1))
        results = [evaluate(spec, np.array([0.3])) for _ in range(5)]
        assert len({r.f_value for r in results}) == 1
        for r in results[1:]:
            np.testing.assert_array_equal(r.model, results[0].model)

    def test_diverging_inner_solve_raises_nonfinite(self):
        # lr far above 2/curvature makes the inner quadratic blow up
        spec = make_synthetic(3.0, 1.0, inner=InnerSolver(steps=400, lr=5.0))
        with pytest.raises(NonFiniteObjective):
            evaluate(spec, np.array([2.0]))

    def test_nonfinite_lambda_rejected(self):
        spec = make_synthetic(3.0, 1.0)
        with pytest.raises(NonFiniteObjective):
            evaluate(spec, np.array([np.nan]))

    def test_the_spec_builds_its_solver_once(self, monkeypatch):
        spec = make_synthetic(3.0, 1.0, inner=InnerSolver(steps=50, lr=0.1))
        first = evaluate(spec, np.array([0.3]))
        np.testing.assert_array_equal(spec.solver.w0, np.zeros(1))
        given = InnerSolver(steps=50, lr=0.1, w0=np.array([0.5]))
        assert make_synthetic(3.0, 1.0, inner=given).solver is given

        def rebuilt(self):
            raise AssertionError("evaluate must not rebuild the inner solver")

        monkeypatch.setattr(InnerSolver, "__post_init__", rebuilt)
        assert evaluate(spec, np.array([0.3])).f_value == first.f_value


class TestEvaluateBatch:
    def test_batch_of_one_equals_evaluate(self):
        spec = make_synthetic(3.0, 1.0)
        single = evaluate(spec, np.array([0.7]))
        batch = evaluate_batch(spec, [np.array([0.7])])
        assert batch[0].f_value == single.f_value

    def test_batch_equals_pointwise_evaluate(self):
        spec = make_synthetic(3.0, 1.0, inner=InnerSolver(steps=80, lr=0.1))
        points = [np.array([v]) for v in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        batch = [e.f_value for e in evaluate_batch(spec, points)]
        assert batch == [evaluate(spec, lam).f_value for lam in points]

    def test_results_in_input_order(self):
        spec = make_synthetic(3.0, 1.0)
        out = evaluate_batch(spec, [np.array([0.0]), np.array([30.0])])
        assert out[0].f_value == pytest.approx(0.0, abs=1e-12)
        assert out[1].f_value == pytest.approx(0.5, abs=1e-10)


class TestContinuityProbe:
    """|f(lam + d e_j) - f(lam)| shrinks with d for fixed-iteration solvers."""

    @pytest.mark.parametrize("lam0", [-1.0, 0.0, 1.0])
    def test_synthetic_iterative(self, lam0):
        spec = make_synthetic(3.0, 1.0, inner=InnerSolver(steps=100, lr=0.1))
        base = evaluate(spec, np.array([lam0])).f_value
        gaps = []
        for delta in [10.0**-k for k in range(1, 7)]:
            gaps.append(abs(evaluate(spec, np.array([lam0 + delta])).f_value - base))
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-5

    def test_logreg(self, logreg_spec):
        base = evaluate(logreg_spec, np.array([0.5])).f_value
        gaps = []
        for delta in [10.0**-k for k in range(1, 7)]:
            gaps.append(abs(evaluate(logreg_spec, np.array([0.5 + delta])).f_value - base))
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))


class TestFunctionObjective:
    def test_wraps_callable(self):
        spec = function_objective(lambda lam: float(lam[0] + 2 * lam[1]), p=2)
        assert evaluate(spec, np.array([1.0, 2.0])).f_value == 5.0
        assert spec.p == 2

    def test_bounds_validation(self):
        with pytest.raises(InvalidConfig):
            function_objective(lambda lam: 0.0, p=2, bounds=[[0.0, 1.0]])
        with pytest.raises(InvalidConfig):
            function_objective(lambda lam: 0.0, p=1, bounds=[[float("nan"), 1.0]])
