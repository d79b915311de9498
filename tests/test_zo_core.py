"""Estimator and outer-loop unit tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hozog import (
    InnerSolver,
    InvalidConfig,
    NonFiniteObjective,
    ZoConfig,
    estimate_hyper_gradient,
    function_objective,
    hozog_step,
    run_hozog,
    sample_directions,
)
from hozog.data_io import random_classification_dataset
from hozog.errors import array_text
from hozog.problems import (
    hyperclean_objective,
    make_hyperclean,
    make_synthetic,
    synthetic_optimum,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def estimate(f, lam, cfg, dirs):
    """The estimate of a plain callable f, through ``function_objective``."""
    return estimate_hyper_gradient(function_objective(f, p=len(lam)), lam, cfg, dirs)[1]


class TestSampleDirections:
    def test_sphere_norms_unit(self):
        u = sample_directions(3, 2, "sphere", rng(1))
        assert u.shape == (2, 3)
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)

    def test_one_dimensional_sphere_is_sign(self):
        u = sample_directions(1, 1, "sphere", rng(2))
        assert u[0, 0] in (-1.0, 1.0)

    def test_second_moment_matches_identity_over_p(self):
        # E[u u^T] = I/p on the unit sphere; Monte-Carlo check
        p, q = 5, 100_000
        u = sample_directions(p, q, "sphere", rng(3))
        second = u.T @ u / q
        assert np.max(np.abs(second - np.eye(p) / p)) < 0.01

    def test_gaussian_scheme_returns_raw_normals(self):
        u = sample_directions(6, 2000, "gaussian", rng(5))
        norms = np.linalg.norm(u, axis=1)
        assert not np.allclose(norms, 1.0)
        # mean squared norm of a p-variate standard normal is p
        assert abs(np.mean(norms**2) - 6.0) < 0.3

    def test_a_zero_row_is_the_only_row_redrawn(self):
        draws = [np.array([[3.0, 4.0], [0.0, 0.0], [-4.0, 3.0]]), np.array([[0.0, 2.0]])]

        class ZeroRowFirst:  # hands out ``draws`` in order, checking each shape asked for
            def standard_normal(self, shape):
                assert shape == draws[0].shape
                return draws.pop(0)

        u = sample_directions(2, 3, "sphere", ZeroRowFirst())
        np.testing.assert_array_equal(u, [[0.6, 0.8], [0.0, 1.0], [-0.8, 0.6]])
        assert not draws

    def test_rejects_bad_dims(self):
        with pytest.raises(InvalidConfig):
            sample_directions(0, 1, "sphere", rng())
        with pytest.raises(InvalidConfig):
            sample_directions(1, 0, "sphere", rng())


class TestZoConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"q": 0, "mu": 0.1, "gamma": 0.1, "iterations": 1},
            {"q": 1, "mu": 0.0, "gamma": 0.1, "iterations": 1},
            {"q": 1, "mu": 0.1, "gamma": 0.0, "iterations": 1},
            {"q": 1, "mu": 0.1, "gamma": 0.1, "iterations": -1},
            {"q": 1, "mu": 0.1, "gamma": 0.1, "iterations": 1, "direction_scheme": "rademacher"},
            {"q": 1, "mu": float("nan"), "gamma": 0.1, "iterations": 1},
            {"q": 1, "mu": 0.1, "gamma": float("nan"), "iterations": 1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidConfig):
            ZoConfig(**kwargs)


class TestEstimateHyperGradient:
    def test_constant_oracle_gives_zero_vector(self):
        cfg = ZoConfig(q=8, mu=0.05, gamma=1.0, iterations=0)
        dirs = sample_directions(3, 8, "sphere", rng(4))
        calls = []

        def constant(lam):
            calls.append(lam)
            return 3.7

        np.testing.assert_array_equal(estimate(constant, np.zeros(3), cfg, dirs), np.zeros(3))
        assert len(calls) == 9

    def test_hand_arithmetic_quadratic(self):
        # (1/0.01) * ((2.01)^2 - 4) * 1 = 4.01 with u = +1
        cfg = ZoConfig(q=1, mu=0.01, gamma=1.0, iterations=0)
        est = estimate(lambda lam: float(lam[0] ** 2), np.array([2.0]), cfg, np.array([[1.0]]))
        assert est[0] == pytest.approx(4.01, abs=1e-9)

    def test_linear_oracle_mean_recovers_slope(self):
        # For f(lam) = a.lam and sphere directions, E[p (a.u) u] = a; the
        # mean of many single-direction estimates equals one big-q estimate.
        a = np.array([1.0, -2.0, 0.5, 3.0])
        cfg = ZoConfig(q=100_000, mu=0.1, gamma=1.0, iterations=0, seed=0)
        dirs = sample_directions(4, cfg.q, "sphere", rng(12))
        est = estimate(lambda lam: float(a @ lam), np.zeros(4), cfg, dirs)
        assert np.linalg.norm(est - a) < 0.01 * np.linalg.norm(a) * 4

    def test_gaussian_scheme_recovers_linear_gradient(self):
        # E[(a.u) u] = a for standard-normal u, so the Gaussian-smoothing
        # scale 1/(mu*q) (not the sphere's p/(mu*q)) is the unbiased one.
        a = np.array([1.0, -2.0, 0.5])
        cfg = ZoConfig(q=200_000, mu=0.1, gamma=1.0, iterations=0, direction_scheme="gaussian")
        dirs = sample_directions(3, cfg.q, "gaussian", rng(13))
        est = estimate(lambda lam: float(a @ lam), np.zeros(3), cfg, dirs)
        assert np.linalg.norm(est - a) < 0.01 * np.linalg.norm(a)

    @settings(max_examples=200)
    @given(
        p=st.integers(1, 6),
        q=st.integers(1, 40),
        scheme=st.sampled_from(["sphere", "gaussian"]),
        alpha=st.floats(-5.0, 5.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-3),
        beta=st.floats(-5.0, 5.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_linearity_in_the_oracle(self, p, q, scheme, alpha, beta, seed):
        # est(alpha f + beta g) = alpha est(f) + beta est(g) up to the rounding
        # of the combined values.  f and g vanish at lam, so their values are
        # of size mu |grad| and that rounding stays far below 1e-12 relative
        # to the two terms' size.
        stream = rng(seed)
        dirs = sample_directions(p, q, scheme, stream)
        lam = stream.standard_normal(p)
        a = stream.standard_normal(p)
        f = lambda x: float(np.sin(a @ (x - lam)) + (x - lam) @ (x - lam))
        g = lambda x: float(np.expm1(0.3 * a @ (x - lam)) - np.sum(x - lam))
        combo = lambda x: alpha * f(x) + beta * g(x)
        cfg = ZoConfig(q=q, mu=0.01, gamma=1.0, iterations=0, direction_scheme=scheme)
        est_f = estimate(f, lam, cfg, dirs)
        est_g = estimate(g, lam, cfg, dirs)
        est_combo = estimate(combo, lam, cfg, dirs)
        size = abs(alpha) * np.linalg.norm(est_f) + abs(beta) * np.linalg.norm(est_g)
        assert np.all(np.abs(est_combo - (alpha * est_f + beta * est_g)) <= 1e-12 * size)

    @settings(max_examples=200)
    @given(
        p=st.integers(1, 6),
        mu=st.floats(1e-3, 1.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_exact_on_linear_f_over_orthonormal_directions(self, p, mu, seed, data):
        # For f(x) = a.(x - lam) each difference is mu a.u_i, and p orthonormal
        # u_i give sum_i (a.u_i) u_i = a.  So the sphere scale p/(mu q) over
        # them, and the Gaussian scale 1/(mu q) over sqrt(p) times them, both
        # return a, up to the rounding of x - lam (worst seen 2.1e-13
        # relative in 20000 draws over these ranges).
        lam = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=p, max_size=p)))
        a = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=p, max_size=p)))
        basis, _ = np.linalg.qr(rng(seed).standard_normal((p, p)))
        f = lambda x: float(a @ (x - lam))
        for scheme, dirs in (("sphere", basis), ("gaussian", np.sqrt(p) * basis)):
            cfg = ZoConfig(q=p, mu=mu, gamma=1.0, iterations=0, direction_scheme=scheme)
            est = estimate(f, lam, cfg, dirs)
            assert np.linalg.norm(est - a) <= 1e-11 * np.linalg.norm(a)

    @settings(max_examples=80)
    @given(
        q=st.integers(1, 40),
        p=st.integers(1, 6),
        scheme=st.sampled_from(["sphere", "gaussian"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_combine_equals_index_order_loop(self, q, p, scheme, seed):
        # The combine must add the q weighted directions in index order:
        # bitwise for p > 1; for p = 1 numpy sums the column pairwise.
        stream = rng(seed)
        dirs = sample_directions(p, q, scheme, stream)
        lam = stream.standard_normal(p)
        a = stream.standard_normal(p)
        f = lambda x: float(np.sin(a @ x) + x @ x)
        cfg = ZoConfig(q=q, mu=0.01, gamma=1.0, iterations=0, direction_scheme=scheme)
        got = estimate(f, lam, cfg, dirs)
        f_base = f(lam)
        ref = np.zeros(p)
        size = np.zeros(p)
        for i in range(q):
            term = (f(lam + cfg.mu * dirs[i]) - f_base) * dirs[i]
            ref += term
            size += np.abs(term)
        scale = (p if scheme == "sphere" else 1) / (cfg.mu * q)
        ref *= scale
        if p > 1:
            np.testing.assert_array_equal(got, ref)
        else:
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * scale * size[0])

    def test_first_non_finite_point_is_named(self):
        # evaluation stops at the first bad point: the base point before any
        # perturbed one, then the perturbed points in direction order
        cfg = ZoConfig(q=3, mu=1.0, gamma=1.0, iterations=0)
        dirs = np.array([[1.0], [2.0], [3.0]])
        for bad, made in ((0.0, 1), (1.0, 2), (2.0, 3), (3.0, 4)):
            calls = []

            def f(lam):
                calls.append(lam[0])
                return float("nan") if lam[0] >= bad else 0.0

            spec = function_objective(f, p=1)
            with pytest.raises(NonFiniteObjective) as excinfo:
                estimate_hyper_gradient(spec, np.array([0.0]), cfg, dirs)
            assert len(calls) == made  # a perturbed point: 1 + its direction index + 1
            np.testing.assert_array_equal(excinfo.value.hyperparams, [bad])
            assert str(excinfo.value).endswith(f"lam={array_text(np.array([bad]))}")

    def test_nan_oracle_raises_with_offending_point(self):
        def bad(lam):
            return float("nan") if lam[0] > 0.5 else 0.0

        cfg = ZoConfig(q=1, mu=1.0, gamma=1.0, iterations=0)
        with pytest.raises(NonFiniteObjective) as excinfo:
            estimate(bad, np.array([0.0]), cfg, np.array([[1.0]]))
        assert excinfo.value.hyperparams is not None

    def test_mean_estimate_matches_central_differences(self):
        # Averaging fresh direction sets at a fixed point approaches the
        # gradient; compare against central differences with step 1e-6.
        def f(lam):
            return float(np.sin(lam[0]) + 0.5 * lam[1] ** 2 + np.exp(0.3 * lam[2]))

        lam = np.array([0.4, -0.8, 0.2])
        p = 3
        mu = 1e-3
        cfg = ZoConfig(q=4, mu=mu, gamma=1.0, iterations=0)
        stream = rng(42)
        total = np.zeros(p)
        repeats = 10_000
        for _ in range(repeats):
            dirs = sample_directions(p, cfg.q, "sphere", stream)
            total += estimate(f, lam, cfg, dirs)
        mean = total / repeats
        step = 1e-6
        fd = np.zeros(p)
        for j in range(p):
            e = np.zeros(p)
            e[j] = step
            fd[j] = (f(lam + e) - f(lam - e)) / (2 * step)
        tol = np.maximum(5 * mu, 0.02 * np.abs(fd))
        assert np.all(np.abs(mean - fd) <= tol)


class TestHozogStep:
    def test_zero_gradient_is_fixed_point(self):
        lam = np.zeros(2)
        out = hozog_step(lam, np.zeros(2), 1.0)
        np.testing.assert_array_equal(out, lam)

    def test_hand_arithmetic(self):
        out = hozog_step(np.array([1.0, 2.0]), np.array([4.01, -1.0]), 0.05)
        np.testing.assert_allclose(out, [0.7995, 2.05], rtol=0, atol=1e-12)

    def test_zero_step_size_returns_input(self):
        lam = np.array([3.0, -1.0])
        out = hozog_step(lam, np.array([100.0, -50.0]), 0.0)
        np.testing.assert_array_equal(out, lam)

    def test_input_not_modified(self):
        lam = np.array([1.0, 1.0])
        hozog_step(lam, np.array([1.0, 1.0]), 0.5)
        np.testing.assert_array_equal(lam, [1.0, 1.0])


class TestRunHozog:
    def test_zero_iterations_returns_lambda0_with_no_calls(self):
        calls = []

        def f(lam):
            calls.append(lam.copy())
            return float(lam[0] ** 2)

        spec = function_objective(f, p=1)
        cfg = ZoConfig(q=3, mu=0.01, gamma=0.1, iterations=0, seed=0)
        out = run_hozog(spec, [1.5], cfg)
        assert out[0] == 1.5
        assert calls == []

    def test_matches_independent_simulation_and_converges(self):
        # Replay of the same seeded stream outside the loop: the trajectory
        # must match step for step, and land near the minimizer of (x-1)^2.
        seed = 123
        gamma, mu, q, iters = 0.1, 1e-3, 1, 200

        f = lambda lam: float((lam[0] - 1.0) ** 2)
        spec = function_objective(f, p=1)
        cfg = ZoConfig(q=q, mu=mu, gamma=gamma, iterations=iters, seed=seed)
        out = run_hozog(spec, [0.0], cfg)

        stream = np.random.default_rng(seed)
        lam = 0.0
        for _ in range(iters):
            raw = stream.standard_normal((q, 1))
            u = raw[0, 0] / abs(raw[0, 0])
            ghat = (1.0 / (mu * q)) * (f([lam + mu * u]) - f([lam])) * u
            lam = lam - gamma * ghat
        assert out[0] == pytest.approx(lam, abs=1e-12)
        assert abs(out[0] - 1.0) <= 0.05

    def test_each_step_follows_the_one_estimator(self):
        # replaying the seeded stream through sample_directions, each recorded
        # gradient is estimate_hyper_gradient's at the recorded iterate, bitwise
        data = random_classification_dataset(80, 6, n_classes=3, seed=1)
        prob = make_hyperclean(data, 40, 20, 20, n_groups=5, corruption_seed=0)
        spec = hyperclean_objective(prob, InnerSolver(steps=30, lr=0.1))
        cfg = ZoConfig(q=3, mu=0.5, gamma=2.0, iterations=4, seed=6)
        events = []
        run_hozog(spec, np.zeros(spec.p), cfg, recorder=events.append)
        stream = rng(cfg.seed)
        for event in events:
            dirs_t = sample_directions(spec.p, cfg.q, cfg.direction_scheme, stream)
            base, grad = estimate_hyper_gradient(spec, event.hyperparams, cfg, dirs_t)
            np.testing.assert_array_equal(event.gradient, grad)
            assert event.evaluation.f_value == base.f_value
        assert len(events) == 4 and np.any(events[-1].hyperparams != 0.0)

    def test_oracle_call_accounting(self):
        count = {"n": 0}

        def f(lam):
            count["n"] += 1
            return float(lam[0] ** 2)

        spec = function_objective(f, p=1)
        cfg = ZoConfig(q=4, mu=0.01, gamma=0.01, iterations=7, seed=0)
        events = []
        run_hozog(spec, [0.3], cfg, recorder=events.append)
        assert count["n"] == 7 * (4 + 1)
        # one event per meta-iteration, each carrying its base evaluation
        assert [e.optimizer_calls for e in events] == [5 * (t + 1) for t in range(7)]
        assert all(e.evaluation.f_value == e.hyperparams[0] ** 2 for e in events)

    def test_bounds_clamp_each_step(self):
        spec = function_objective(lambda lam: float(-10.0 * lam[0]), p=1, bounds=[[-1.0, 1.0]])
        cfg = ZoConfig(q=1, mu=0.01, gamma=5.0, iterations=10, seed=3)
        trail = []
        out = run_hozog(spec, [0.0], cfg, recorder=lambda e: trail.append(e.hyperparams[0]))
        assert all(-1.0 <= v <= 1.0 for v in trail)
        assert out[0] == 1.0  # descent on -10x pushes to the upper bound

    @settings(max_examples=60)
    @given(
        p=st.integers(1, 4),
        q=st.integers(1, 4),
        gamma=st.floats(1e-3, 1e3),
        scheme=st.sampled_from(["sphere", "gaussian"]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_iterates_stay_inside_declared_bounds(self, p, q, gamma, scheme, seed, data):
        lo = np.array(data.draw(st.lists(st.floats(-5.0, 4.0), min_size=p, max_size=p)))
        hi = lo + np.array(data.draw(st.lists(st.floats(0.01, 5.0), min_size=p, max_size=p)))
        slope = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=p, max_size=p)))
        lam0 = lo + (hi - lo) * data.draw(st.floats(0.0, 1.0))
        spec = function_objective(
            lambda lam: float(slope @ lam + np.sin(lam).sum()), p=p, bounds=np.c_[lo, hi]
        )
        cfg = ZoConfig(q=q, mu=0.01, gamma=gamma, iterations=8, seed=seed, direction_scheme=scheme)
        trail = []
        out = run_hozog(spec, lam0, cfg, recorder=lambda e: trail.append(e.hyperparams))
        assert len(trail) == 8
        for lam in [*trail, out]:
            assert np.all(lo <= lam) and np.all(lam <= hi)

    def test_nonfinite_objective_carries_meta_iteration(self):
        state = {"n": 0}

        def flaky(lam):
            state["n"] += 1
            return float("inf") if state["n"] > 7 else 1.0

        spec = function_objective(flaky, p=1)
        cfg = ZoConfig(q=2, mu=0.01, gamma=0.1, iterations=10, seed=0)
        with pytest.raises(NonFiniteObjective) as excinfo:
            run_hozog(spec, [0.0], cfg)
        assert excinfo.value.meta_iter == 2  # calls 1-3 iter 0, 4-6 iter 1, 7-9 iter 2

    def test_synthetic_bilevel_reaches_analytic_minimizer(self):
        spec = make_synthetic(3.0, 1.0)
        cfg = ZoConfig(q=2, mu=1e-3, gamma=1.0, iterations=300, seed=1)
        out = run_hozog(spec, [2.0], cfg)
        assert abs(out[0] - synthetic_optimum(3.0, 1.0)) <= 1e-2
