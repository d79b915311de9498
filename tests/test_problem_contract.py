"""The problem contract, checked on every row of the shared table (``CONFIGS`` in conftest.py).

The zeroth-order estimate is meaningful only while f(lam) = E(A(lam), lam) is
continuous in lam: A is a fixed number of continuous steps on a correct inner
gradient.  ``evaluate`` must also reject a malformed lam, and exp() is capped so
that f saturates instead of overflowing.  ``evaluate_batch`` solves its points as
one block, and each column must agree with ``evaluate`` at its point.  A new
problem or kernel adds a row.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hozog.oracle as oracle
from conftest import CONFIGS, build
from hozog import DimensionMismatch, NonFiniteObjective, evaluate, evaluate_batch

# a row with an inner section runs under both iterative variants, the closed form as it is
SOLVES = [(name, variant) for name, raw in CONFIGS.items()
          for variant in (("gd", "adam") if "inner" in raw else ("exact",))]


@pytest.fixture(scope="module")
def specs(data):
    return {name: build(name, data)[1] for name in CONFIGS}


def solved_with(spec, variant):
    """``spec`` with its inner solver switched to ``variant``; the closed form as it is."""
    if variant == "exact":
        return spec
    return dataclasses.replace(spec, inner=dataclasses.replace(spec.inner, variant=variant))


@pytest.mark.parametrize("name", CONFIGS)
@settings(max_examples=60)
@given(draws=st.data())
def test_inner_gradient_matches_central_differences(specs, name, draws):
    problem = specs[name].problem
    w = draws.draw(arrays(float, problem.d, elements=st.floats(-1.0, 1.0)))
    lam = draws.draw(arrays(float, problem.p, elements=st.floats(-3.0, 3.0)))
    grad = problem.inner_loss_grad(w[:, None], lam[:, None])[:, 0]  # a block of one model
    step = 1e-6
    central = np.array([
        (problem.inner_loss(w + e, lam) - problem.inner_loss(w - e, lam)) / (2 * step)
        for e in step * np.eye(problem.d)
    ])
    assert np.max(np.abs(grad - central)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))


@pytest.mark.parametrize("lam0", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("name, variant", SOLVES)
def test_f_and_the_model_are_continuous_in_lambda(specs, name, variant, lam0):
    spec = solved_with(specs[name], variant)
    lam0 = np.full(spec.p, lam0)
    base = evaluate(spec, lam0)
    gaps, slopes = [], []
    for k in range(1, 7):
        delta = 10.0**-k
        moved = evaluate(spec, lam0 + delta * np.eye(spec.p)[0])
        gaps.append(abs(moved.f_value - base.f_value))
        if 2 <= k <= 4:
            slopes.append(np.linalg.norm(moved.model - base.model) / delta)
    # |f(lam0 + d) - f(lam0)| shrinks with d, and ||A(lam0 + d) - A(lam0)|| <= C d
    assert all(b <= a for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 1e-5, gaps
    assert all(s <= 2.0 * slopes[0] + 1e-9 for s in slopes), slopes


@pytest.mark.parametrize("name", CONFIGS)
def test_evaluate_rejects_a_wrong_length_or_nan_lambda(specs, name):
    spec = specs[name]
    with pytest.raises(DimensionMismatch):
        evaluate(spec, np.zeros(spec.p + 1))
    with pytest.raises(NonFiniteObjective):
        evaluate(spec, np.full(spec.p, np.nan))


@pytest.mark.parametrize("name", CONFIGS)
def test_f_saturates_past_the_exp_cap(specs, name):
    # exp() is capped at 700, just inside the double range: lam = 1000 must
    # give f(700) exactly, or fail as f(700) does, never overflow on its own
    values = []
    for lam in (700.0, 1000.0):
        try:
            values.append(evaluate(specs[name], np.full(specs[name].p, lam)).f_value)
        except NonFiniteObjective:
            values.append("non-finite")
    assert values[0] == values[1], values


@pytest.mark.parametrize("name, variant", SOLVES)
def test_each_batch_column_matches_evaluate_at_its_point(specs, name, variant, monkeypatch):
    """Each column of ``evaluate_batch`` agrees with ``evaluate`` at its point to
    1e-12 relative, in f and in the model.  Not bitwise: BLAS may pick another
    kernel at another block width.  A batch wider than ``BLOCK_WIDTH`` is solved
    in consecutive blocks and matches its pieces bitwise."""
    spec = solved_with(specs[name], variant)
    points = np.random.default_rng(5).uniform(-1.0, 1.0, (5, spec.p))
    for lam, got in zip(points, evaluate_batch(spec, points), strict=True):
        want = evaluate(spec, lam)
        assert abs(got.f_value - want.f_value) <= 1e-12 * abs(want.f_value)
        assert np.linalg.norm(got.model - want.model) <= 1e-12 * np.linalg.norm(want.model)
        assert got.model.shape == (spec.problem.d,)
    pieces = [e for start in (0, 2, 4) for e in evaluate_batch(spec, points[start : start + 2])]
    monkeypatch.setattr(oracle, "BLOCK_WIDTH", 2)
    wide = evaluate_batch(spec, points)
    assert [e.f_value for e in wide] == [e.f_value for e in pieces]
    assert all(a.model.tobytes() == b.model.tobytes() for a, b in zip(wide, pieces, strict=True))
