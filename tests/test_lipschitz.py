"""Product bound and empirical Lipschitz sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hozog import (
    InnerSolver,
    InvalidConfig,
    StepJacobians,
    empirical_lipschitz,
    function_objective,
    lipschitz_product_bound,
    synthetic_step_jacobians,
)
from hozog.problems import make_synthetic


class TestProductBound:
    def test_zero_horizon_reduces_to_outer_term(self):
        jacs = StepJacobians(a=np.array([0.8]), b=np.array([1.3]))
        assert lipschitz_product_bound(jacs) == pytest.approx(1.3)

    def test_one_step_hand_arithmetic(self):
        # 0.2*0.9 + 0.1 = 0.28
        jacs = StepJacobians(a=np.array([0.5, 0.9]), b=np.array([0.2, 0.1]))
        assert lipschitz_product_bound(jacs) == pytest.approx(0.28)

    def test_unit_contraction_degenerates_linearly(self):
        for horizon in (0, 3, 10, 50):
            jacs = StepJacobians(a=np.ones(horizon + 1), b=np.full(horizon + 1, 0.7))
            assert lipschitz_product_bound(jacs) == pytest.approx((horizon + 1) * 0.7)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50)
    def test_monotone_in_every_entry(self, length, seed):
        rng = np.random.default_rng(seed)
        a = rng.random(length) * 1.5
        b = rng.random(length) * 2.0
        base = lipschitz_product_bound(StepJacobians(a=a, b=b))
        for i in range(length):
            for which in ("a", "b"):
                bumped_a, bumped_b = a.copy(), b.copy()
                (bumped_a if which == "a" else bumped_b)[i] += 0.25
                bumped = lipschitz_product_bound(StepJacobians(a=bumped_a, b=bumped_b))
                assert bumped >= base - 1e-12

    def test_linear_growth_when_contractive(self):
        # with every |A| <= 1 the bound grows at most linearly in T
        def bound_at(horizon):
            a = np.full(horizon + 1, 0.95)
            b = np.full(horizon + 1, 0.4)
            return lipschitz_product_bound(StepJacobians(a=a, b=b))

        t0, t1 = 10, 100
        assert bound_at(t1) <= bound_at(t0) + (t1 - t0) * 0.4 + 1e-9

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidConfig):
            StepJacobians(a=np.array([-0.1]), b=np.array([1.0]))


class TestSyntheticStepJacobians:
    def test_point_box_hand_value(self):
        jacs = synthetic_step_jacobians(3.0, 1.0, eta=0.1, t_inner=5, lambda_box=(0.0, 0.0))
        np.testing.assert_allclose(jacs.a[:-1], 0.7, atol=1e-12)

    def test_frozen_solver_leaves_outer_term(self):
        jacs = synthetic_step_jacobians(3.0, 1.0, eta=0.0, t_inner=4, lambda_box=(-1.0, 1.0))
        np.testing.assert_allclose(jacs.a[:-1], 1.0)
        np.testing.assert_allclose(jacs.b[:-1], 0.0)
        assert lipschitz_product_bound(jacs) == pytest.approx(jacs.b[-1])
        assert jacs.b[-1] == 0.0  # outer loss does not touch lam directly

    def test_hyper_jacobian_envelope(self):
        jacs = synthetic_step_jacobians(3.0, 1.0, eta=0.1, t_inner=3, lambda_box=(0.0, 0.0))
        # |B| <= 2 * eta * e^lam * w_env = 2*0.1*1*3
        np.testing.assert_allclose(jacs.b[:-1], 0.6, atol=1e-12)

    def test_expansive_step_rejected(self):
        with pytest.raises(InvalidConfig):
            synthetic_step_jacobians(3.0, 1.0, eta=0.5, t_inner=3, lambda_box=(0.0, 2.0))


class TestEmpiricalLipschitz:
    def test_constant_oracle(self):
        spec = function_objective(lambda lam: 4.2, p=2)
        report = empirical_lipschitz(spec, [[-1, 1], [-1, 1]], n_pairs=50, seed=0)
        assert report.empirical_max_ratio == 0.0
        assert report.samples == 50

    def test_linear_oracle_exact_slope(self):
        spec = function_objective(lambda lam: float(2.0 * lam[0]), p=1)
        report = empirical_lipschitz(spec, [[0.0, 1.0]], n_pairs=200, seed=1)
        assert report.empirical_max_ratio == pytest.approx(2.0, rel=1e-9)

    def test_dominated_by_product_bound(self):
        eta, steps = 0.1, 30
        spec = make_synthetic(3.0, 1.0, inner=InnerSolver(steps=steps, lr=eta))
        report = empirical_lipschitz(spec, [[-2.0, 2.0]], n_pairs=500, seed=3)
        bound = lipschitz_product_bound(
            synthetic_step_jacobians(3.0, 1.0, eta=eta, t_inner=steps, lambda_box=(-2.0, 2.0))
        )
        assert report.empirical_max_ratio <= bound

    def test_pairs_run_side_by_side_and_match_a_pair_loop(self):
        asked = []

        def f(lam):
            asked.append(lam.copy())
            return float(np.sin(3.0 * lam[0]) * lam[1])

        box = [[-1.0, 2.0], [0.5, 1.5]]
        report = empirical_lipschitz(function_objective(f, p=2), box, n_pairs=40, seed=9)
        rng = np.random.default_rng(9)
        lo, hi = np.array(box).T
        first = lo + (hi - lo) * rng.random((40, 2))
        second = lo + (hi - lo) * rng.random((40, 2))
        np.testing.assert_array_equal(asked[0::2], first)
        np.testing.assert_array_equal(asked[1::2], second)
        ratios = [
            abs(f(x1) - f(x2)) / np.linalg.norm(x1 - x2) for x1, x2 in zip(first, second)
        ]
        assert report.empirical_max_ratio == pytest.approx(max(ratios), rel=1e-12)

    @pytest.mark.parametrize("box", [[[1.0, -1.0]], [[float("nan"), 1.0]], [[-1.0, 1.0]] * 2])
    def test_bad_box_rejected(self, box):
        spec = function_objective(lambda lam: float(lam[0]), p=1)
        with pytest.raises(InvalidConfig):
            empirical_lipschitz(spec, box, n_pairs=10, seed=0)
