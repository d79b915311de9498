"""Oracle evaluation contract tests."""

import math

import numpy as np
import pytest

import hozog.oracle as oracle
from hozog import (
    DimensionMismatch,
    InnerSolver,
    InvalidConfig,
    NonFiniteObjective,
    evaluate,
    evaluate_batch,
    function_objective,
    solve,
)
from hozog.problems import make_synthetic


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

    def test_diverging_inner_solve_raises_nonfinite(self):
        # lr far above 2/curvature makes the inner quadratic blow up
        spec = make_synthetic(3.0, 1.0, inner=InnerSolver(steps=400, lr=5.0))
        with pytest.raises(NonFiniteObjective):
            evaluate(spec, np.array([2.0]))

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


# 175 GD steps at lr 5: lam <= -3 stays finite, lam in [0, 1] leaves a finite
# iterate whose squared outer loss overflows, lam >= 2 diverges
_LR5 = make_synthetic(3.0, 1.0, inner=InnerSolver(steps=175, lr=5.0))
# f = lam below 2, infinite at 2 and NaN above
_JUMPS = function_objective(
    lambda lam: float(lam[0]) if lam[0] < 2.0 else (math.inf if lam[0] == 2.0 else math.nan), p=1
)


class TestEvaluateBatch:
    def test_batch_of_one_equals_evaluate(self):
        spec = make_synthetic(3.0, 1.0)
        single = evaluate(spec, np.array([0.7]))
        values, models = evaluate_batch(spec, [np.array([0.7])])
        assert values[0] == single.f_value
        np.testing.assert_array_equal(models[:, 0], single.model)

    def test_batch_equals_pointwise_evaluate(self):
        # one block solve against five k=1 solves: 1e-12 relative, not bitwise
        spec = make_synthetic(3.0, 1.0, inner=InnerSolver(steps=80, lr=0.1))
        points = [np.array([v]) for v in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        values, models = evaluate_batch(spec, points)
        assert values.shape == (5,) and values.dtype == np.float64
        assert models.shape == (1, 5)
        pointwise = [evaluate(spec, lam) for lam in points]
        np.testing.assert_allclose(values, [e.f_value for e in pointwise], rtol=1e-12, atol=0)
        np.testing.assert_allclose(models.T, [e.model for e in pointwise], rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "spec",
        [make_synthetic(3.0, 1.0, inner=InnerSolver(steps=80, lr=0.1)),
         function_objective(lambda lam: float(lam.sum()), p=2)],
        ids=["iterative", "function"],
    )
    def test_an_empty_batch_gives_empty_arrays(self, spec):
        for empty in ([], np.empty((0, spec.p))):
            values, models = evaluate_batch(spec, empty)
            assert values.shape == (0,)
            assert models.shape == (spec.problem.d, 0)

    def test_an_array_a_list_and_scalars_give_the_same_points(self):
        spec = make_synthetic(3.0, 1.0, inner=InnerSolver(steps=80, lr=0.1))
        values = (-0.5, 0.25, 1.0)
        forms = [np.array(values)[:, None], [np.array([v]) for v in values], np.array(values)]
        results = [evaluate_batch(spec, form)[0].tolist() for form in forms]
        assert results[0] == results[1] == results[2]
        pairs = function_objective(lambda lam: float(lam[0] - lam[1]), p=2)
        points = np.array([[1.0, 2.0], [5.0, 3.0]])
        assert evaluate_batch(pairs, points)[0].tolist() == [-1.0, 2.0]
        assert evaluate_batch(pairs, list(points))[0].tolist() == [-1.0, 2.0]

    def test_malformed_points_fail_before_any_solve(self):
        calls = []
        spec = function_objective(lambda lam: calls.append(lam) or 0.0, p=2)
        with pytest.raises(DimensionMismatch):
            evaluate_batch(spec, [np.zeros(2), np.zeros(3)])
        with pytest.raises(DimensionMismatch):
            evaluate_batch(spec, np.zeros(2))  # two scalar points at p=2
        with pytest.raises(NonFiniteObjective) as excinfo:
            evaluate_batch(spec, [[0.0, 1.0], [np.nan, 0.0], [np.inf, 0.0]])
        np.testing.assert_array_equal(excinfo.value.hyperparams, [np.nan, 0.0])
        assert calls == []

    @pytest.mark.parametrize(
        "spec, points, named",
        [
            # two diverging points among finite ones: the lower index is named
            (_LR5, [-3.0, 2.0, -4.0, 3.0], 2.0),
            (_LR5, [-3.0, 3.0, -4.0, 2.0], 3.0),
            # a finite iterate whose f overflows before a diverged solve, and after one
            (_LR5, [-3.0, 0.0, 2.0], 0.0),
            (_LR5, [-3.0, 2.0, 0.0], 2.0),
            (_JUMPS, [0.0, 3.0, 1.0, 2.0], 3.0),
            (_JUMPS, [0.0, 1.0, 2.0, 3.0], 2.0),
        ],
    )
    def test_a_failure_names_the_point_a_sequential_loop_names(self, spec, points, named):
        def sequential():
            for lam in points:
                evaluate(spec, [lam])

        with pytest.raises(NonFiniteObjective) as want:
            sequential()
        with pytest.raises(NonFiniteObjective) as got:
            evaluate_batch(spec, points)
        assert str(got.value) == str(want.value)
        np.testing.assert_array_equal(got.value.hyperparams, [named])
        np.testing.assert_array_equal(want.value.hyperparams, [named])

    @pytest.mark.parametrize(
        "points, named", [([-3.0, 0.0, 2.0], 0.0), ([-3.0, 2.0, 0.0], 2.0)],
        ids=["objective_first", "divergence_first"],
    )
    def test_a_failing_block_is_solved_once(self, monkeypatch, points, named):
        # the diverged solve hands back the finite models before its column,
        # so naming an earlier non-finite objective needs no second solve
        widths = []

        def counted(loss_grad, alg, lam):
            widths.append(lam.shape[1])
            return solve(loss_grad, alg, lam)

        monkeypatch.setattr(oracle, "solve", counted)
        with pytest.raises(NonFiniteObjective) as excinfo:
            evaluate_batch(_LR5, points)
        np.testing.assert_array_equal(excinfo.value.hyperparams, [named])
        assert widths == [len(points)]

    @pytest.mark.parametrize("points", [[-3.0, 2.0, 0.0, -4.0], [-3.0, 0.0, -4.0]],
                             ids=["diverged_solve", "objective_only"])
    def test_a_failing_block_reports_every_column(self, points):
        # 2.0 diverges; 0.0 trains a finite model whose objective overflows
        with pytest.raises(NonFiniteObjective) as excinfo:
            evaluate_batch(_LR5, points)
        values, models = excinfo.value.values, excinfo.value.models
        assert values.shape == (len(points),) and models.shape == (1, len(points))
        for j, lam in enumerate(points):
            if lam == 2.0:
                assert np.isnan(values[j]) and not np.isfinite(models[:, j]).any()
            elif lam == 0.0:
                assert not np.isfinite(values[j]) and np.isfinite(models[:, j]).all()
            else:
                single = evaluate(_LR5, [lam])
                assert values[j] == pytest.approx(single.f_value, rel=1e-12, abs=0)
                np.testing.assert_allclose(models[:, j], single.model, rtol=1e-12, atol=0)

    def test_results_in_input_order(self):
        spec = make_synthetic(3.0, 1.0)
        values, models = evaluate_batch(spec, [np.array([0.0]), np.array([30.0])])
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[1] == pytest.approx(0.5, abs=1e-10)
        assert models[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert models[0, 1] == pytest.approx(0.0, abs=1e-12)


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
