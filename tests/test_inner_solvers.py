"""Inner-solver behaviour: hand-checked iterations and divergence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hozog import (
    DimensionMismatch,
    InnerSolver,
    InvalidConfig,
    NonFiniteObjective,
    solve,
    trajectory,
)
from hozog.problems import SyntheticBilevel

LAM = np.zeros((1, 1))  # a (p, k) block of one point; the results are (d, 1) blocks


def quad_grad(w, lam):
    # L(w) = 0.5*(w - 3)^2
    return w - 3.0


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidConfig):
            InnerSolver(steps=-1, lr=0.1)
        with pytest.raises(InvalidConfig):
            InnerSolver(steps=1, lr=0.0)
        with pytest.raises(InvalidConfig):
            InnerSolver(steps=1, lr=0.1, variant="lbfgs")
        with pytest.raises(InvalidConfig):
            InnerSolver(steps=1, lr=float("nan"))

    def test_missing_w0_is_an_error(self):
        with pytest.raises(InvalidConfig):
            solve(quad_grad, InnerSolver(steps=1, lr=0.5), LAM)

    @pytest.mark.parametrize("run", [solve, trajectory])
    @pytest.mark.parametrize("lam", [np.zeros(1), np.float64(0.0), np.zeros((1, 1, 1))])
    def test_lambda_that_is_not_a_block_is_rejected(self, run, lam):
        with pytest.raises(DimensionMismatch, match=r"lam must be a \(p, k\) block"):
            run(quad_grad, InnerSolver(steps=1, lr=0.5, w0=np.zeros(1)), lam)

    def test_solvers_compare_and_hash_by_w0_value(self):
        a = InnerSolver(steps=5, lr=0.1, w0=np.array([0.5, -1.0]))
        b = InnerSolver(steps=5, lr=0.1, w0=[0.5, -1.0])
        assert a == b and hash(a) == hash(b)
        assert a.w0 == (0.5, -1.0)
        for other in ([0.5, 3.0], [0.5], None):
            c = InnerSolver(steps=5, lr=0.1, w0=other)
            assert a != c and hash(a) != hash(c)

    @pytest.mark.parametrize("w0", [np.float64(1.0), np.zeros((2, 1)), np.zeros((0, 3))])
    def test_w0_that_is_not_1d_is_rejected(self, w0):
        with pytest.raises(InvalidConfig, match="w0 must be 1-D"):
            InnerSolver(steps=1, lr=0.1, w0=w0)


class TestGdSolve:
    def test_zero_steps_returns_w0(self):
        alg = InnerSolver(steps=0, lr=0.5, w0=np.array([0.0]))
        np.testing.assert_array_equal(solve(quad_grad, alg, LAM), [[0.0]])

    def test_hand_iteration(self):
        # w <- w + 0.5*(3 - w): 0 -> 1.5 -> 2.25
        one = solve(quad_grad, InnerSolver(steps=1, lr=0.5, w0=np.array([0.0])), LAM)
        two = solve(quad_grad, InnerSolver(steps=2, lr=0.5, w0=np.array([0.0])), LAM)
        assert one[0, 0] == pytest.approx(1.5)
        assert two[0, 0] == pytest.approx(2.25)

    def test_synthetic_inner_reaches_stationary_point(self):
        prob = SyntheticBilevel(c=3.0, w_star=1.0)
        alg = InnerSolver(steps=500, lr=0.1, w0=np.zeros(1))
        w = solve(prob.inner_loss_grad, alg, LAM)
        assert abs(w[0, 0] - 1.0) < 1e-6

    def test_exact_gradient_call_count(self):
        calls = {"n": 0}

        def counting(w, lam):
            calls["n"] += 1
            return w - 3.0

        solve(counting, InnerSolver(steps=17, lr=0.1, w0=np.zeros(1)), LAM)
        assert calls["n"] == 17

    def test_monotone_descent_on_stable_quadratic(self):
        alg = InnerSolver(steps=40, lr=0.5, w0=np.array([10.0]))
        path = trajectory(quad_grad, alg, LAM)
        losses = [0.5 * (w[0, 0] - 3.0) ** 2 for w in path]
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_divergence_raises_with_step_index(self):
        # lr = 3 on unit curvature: multiplier -2, exponential blow-up
        alg = InnerSolver(steps=10_000, lr=3.0, w0=np.array([1.0]))
        with pytest.raises(NonFiniteObjective) as excinfo:
            solve(quad_grad, alg, LAM)
        assert "after 10000 inner steps" in str(excinfo.value)


class TestAdamSolve:
    def test_zero_steps_returns_w0(self):
        alg = InnerSolver(steps=0, lr=0.1, variant="adam", w0=np.array([1.0]))
        np.testing.assert_array_equal(solve(lambda w, lam: w, alg, LAM), [[1.0]])

    def test_first_step_hand_value(self):
        # g=1, m_hat=1, v_hat=1 => w1 = 1 - 0.1/(1 + 1e-8) ~ 0.9
        alg = InnerSolver(steps=1, lr=0.1, variant="adam", w0=np.array([1.0]))
        w = solve(lambda w, lam: w, alg, LAM)
        assert w[0, 0] == pytest.approx(0.9, abs=1e-8)

    def test_matches_a_loop_with_the_usual_constants(self):
        # step 1 cannot see beta1 or beta2 (bias correction cancels them), so
        # run 20 steps on a gradient that varies from step to step
        def grad(w, lam):
            return np.array([[3.0], [0.5]]) * (w - np.array([[1.0], [-2.0]])) + np.sin(w)

        w0 = np.array([0.3, -0.7])
        w, m, v = w0[:, None], np.zeros((2, 1)), np.zeros((2, 1))
        for t in range(1, 21):
            g = grad(w, None)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            w = w - 0.05 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        alg = InnerSolver(steps=20, lr=0.05, variant="adam", w0=w0)
        np.testing.assert_allclose(solve(grad, alg, LAM), w, rtol=1e-12, atol=0)

    def test_long_run_contracts_quadratic(self):
        alg = InnerSolver(steps=2000, lr=0.1, variant="adam", w0=np.array([1.0]))
        w = solve(lambda w, lam: w, alg, LAM)
        assert abs(w[0, 0]) <= 1e-3


class TestBlockSolve:
    @staticmethod
    def scaled_grad(w, lam):
        # L(w) = 0.5 * lam * ||w - 1||^2 per column: lr * lam > 2 diverges
        return lam * (w - 1.0)

    @pytest.mark.parametrize("variant", ["gd", "adam"])
    def test_columns_are_the_one_point_solves(self, variant):
        alg = InnerSolver(steps=40, lr=0.3, variant=variant, w0=np.array([0.5, -2.0]))
        lam = np.array([[0.2, 1.0, 3.0]])
        block = solve(self.scaled_grad, alg, lam)
        assert block.shape == (2, 3)
        for j in range(3):
            np.testing.assert_array_equal(block[:, [j]], solve(self.scaled_grad, alg, lam[:, [j]]))

    def test_names_the_lowest_diverged_column(self):
        alg = InnerSolver(steps=2000, lr=1.0, w0=np.zeros(1))
        with pytest.raises(NonFiniteObjective) as excinfo:
            solve(self.scaled_grad, alg, np.array([[0.5, 3.5, 1.0, 4.0]]))
        np.testing.assert_array_equal(excinfo.value.hyperparams, [3.5])
        assert str(excinfo.value).endswith("at lam=[3.5]")
        # the whole final block goes with the error: finite columns are their one-point solves
        models = excinfo.value.models
        assert models.shape == (1, 4)
        for j, lam in [(0, 0.5), (2, 1.0)]:
            np.testing.assert_array_equal(models[:, [j]], solve(self.scaled_grad, alg, np.array([[lam]])))
        assert not np.isfinite(models[:, 1]).any() and not np.isfinite(models[:, 3]).any()


class TestTrajectory:
    def test_zero_steps(self):
        alg = InnerSolver(steps=0, lr=0.5, w0=np.array([0.0]))
        path = trajectory(quad_grad, alg, LAM)
        assert len(path) == 1
        np.testing.assert_array_equal(path[0], [[0.0]])

    def test_hand_iteration_path(self):
        alg = InnerSolver(steps=2, lr=0.5, w0=np.array([0.0]))
        path = trajectory(quad_grad, alg, LAM)
        np.testing.assert_allclose([w[0, 0] for w in path], [0.0, 1.5, 2.25])

    @pytest.mark.parametrize("variant", ["gd", "adam"])
    def test_last_element_bitwise_equals_solve(self, variant):
        prob = SyntheticBilevel(c=3.0, w_star=1.0)
        alg = InnerSolver(steps=137, lr=0.07, variant=variant, w0=np.array([0.25]))
        path = trajectory(prob.inner_loss_grad, alg, np.array([[0.4]]))
        direct = solve(prob.inner_loss_grad, alg, np.array([[0.4]]))
        np.testing.assert_array_equal(path[-1], direct)
        assert len(path) == 138

    def test_keeps_non_finite_iterates(self):
        alg = InnerSolver(steps=2000, lr=3.0, w0=np.array([1.0]))
        path = trajectory(quad_grad, alg, LAM)
        assert len(path) == 2001
        assert np.isfinite(path[1][0, 0]) and not np.isfinite(path[-1][0, 0])

    @settings(max_examples=200)
    @given(
        curvature=st.floats(0.1, 10.0),
        lr=st.floats(1e-3, 1e200),
        steps=st.integers(0, 300),
        w0=st.floats(-1e6, 1e6),
        variant=st.sampled_from(["gd", "adam"]),
    )
    def test_solve_raises_iff_trajectory_leaves_finite_range(
        self, curvature, lr, steps, w0, variant
    ):
        # a quadratic that overflows for large enough lr * curvature
        def grad(w, lam):
            return curvature * (w - 3.0)

        alg = InnerSolver(steps=steps, lr=lr, variant=variant, w0=np.array([w0, -w0]))
        path = trajectory(grad, alg, LAM)
        diverged = any(not np.all(np.isfinite(w)) for w in path)
        if diverged:
            with pytest.raises(NonFiniteObjective):
                solve(grad, alg, LAM)
        else:
            np.testing.assert_array_equal(solve(grad, alg, LAM), path[-1])
