"""Tests of the benchmark's standalone reference computations.

Run with ``python3 -m pytest bench/test_reference.py``.  They check each
reference against a second, simpler statement of the same rule: gradients
against central differences, closed forms against explicit loops.
"""

import math

import numpy as np

import reference


def central_difference(fn, w, h=1e-6):
    grad = np.zeros_like(w)
    for i in range(w.size):
        step = np.zeros_like(w)
        step[i] = h
        grad[i] = (fn(w + step) - fn(w - step)) / (2 * h)
    return grad


def test_split_is_a_partition_with_2_1_1_sizes():
    tr, va, te = reference.split_2_1_1(103, seed=4)
    assert (len(tr), len(va), len(te)) == (51, 26, 26)
    assert sorted(np.concatenate([tr, va, te]).tolist()) == list(range(103))


def test_logreg_gradient_matches_central_differences():
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((30, 4)), rng.choice([-1.0, 1.0], 30)
    w, lam = rng.standard_normal(4), 0.3
    numeric = central_difference(lambda v: reference.logreg_loss(x, y, v, lam), w)
    assert np.allclose(reference.logreg_grad(x, y, w, lam), numeric, rtol=1e-6, atol=1e-7)


def test_adam_first_step_moves_each_coordinate_by_lr():
    # bias correction makes the first update lr * g / (|g| + eps)
    g = np.array([3.0, -0.5, 2e-3])
    w = reference.adam(lambda v: g, np.zeros(3), steps=1, lr=0.1)
    assert np.allclose(w, -0.1 * np.sign(g), rtol=1e-5)


def test_adam_reaches_the_ridge_logistic_minimum():
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal((40, 3)), rng.choice([-1.0, 1.0], 40)
    w = reference.adam(lambda v: reference.logreg_grad(x, y, v, 1.0), np.zeros(3), 3000, 0.05)
    assert np.linalg.norm(reference.logreg_grad(x, y, w, 1.0)) < 1e-3


def test_softmax_gradient_matches_central_differences():
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal((25, 3)), rng.integers(0, 3, 25)
    groups, lam = rng.integers(0, 5, 25), rng.standard_normal(5)
    w = rng.standard_normal(3 * 3 + 3)
    numeric = central_difference(
        lambda v: reference.softmax_weighted_loss(x, y, groups, lam, v, 3), w)
    got = reference.softmax_weighted_grad(x, y, groups, lam, w, 3)
    assert np.allclose(got, numeric, rtol=1e-6, atol=1e-8)


def test_cross_entropy_of_uniform_model_is_log_k():
    x, y = np.ones((4, 2)), np.array([0, 1, 2, 1])
    assert np.allclose(reference.cross_entropies(x, y, np.zeros(9), 3), math.log(3))


def test_gd_is_repeated_plain_steps():
    w = reference.gd(lambda v: 2.0 * v, np.array([1.0, -2.0]), steps=3, lr=0.25)
    assert np.array_equal(w, np.array([0.125, -0.25]))


def test_synthetic_closed_form_matches_explicit_gd():
    c, eta, steps = 3.0, 0.1, 100
    for lam in (-2.0, -0.3, 0.0, 1.7, 2.0):
        w = 0.0
        for _ in range(steps):
            w -= eta * ((w - c) + 2.0 * math.exp(lam) * w)
        assert math.isclose(reference.synthetic_gd_iterate(c, lam, eta, steps), w,
                            rel_tol=1e-12)


def test_synthetic_iterate_tends_to_the_stationary_point():
    lam = 0.5
    w = reference.synthetic_gd_iterate(3.0, lam, 0.1, 10_000)
    assert math.isclose(w, 3.0 / (1.0 + 2.0 * math.exp(lam)), rel_tol=1e-12)


def test_max_pair_ratio_skips_coincident_pairs():
    first = np.array([[0.0], [1.0], [2.0]])
    second = np.array([[0.0], [3.0], [2.5]])
    ratio = reference.max_pair_ratio(first, second, np.array([5.0, 1.0, 4.0]),
                                     np.array([9.0, 2.0, 3.0]))
    assert ratio == 2.0
