"""Random-search baseline tests."""

from unittest import mock

import numpy as np
import pytest

import hozog.baselines as baselines
import hozog.oracle as oracle
from conftest import overflowing_logreg
from hozog import (
    InnerSolver,
    InvalidConfig,
    NonFiniteObjective,
    RandomSearchConfig,
    evaluate,
    function_objective,
    random_search,
    solve,
)
from hozog.problems import make_synthetic


def partial(lam):
    if lam[0] > 0.0:
        return float("inf")
    return float(lam[0] ** 2)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidConfig):
            RandomSearchConfig(budget=0, box=[[-1, 1]])
        with pytest.raises(InvalidConfig):
            RandomSearchConfig(budget=5, box=[[1, -1]])
        with pytest.raises(InvalidConfig):
            RandomSearchConfig(budget=5, box=[[float("nan"), 1]])


class TestRandomSearch:
    def test_budget_one_returns_the_single_sample(self):
        spec = make_synthetic(3.0, 1.0)
        cfg = RandomSearchConfig(budget=1, box=[[-5.0, 5.0]], seed=4)
        events = []
        out = random_search(spec, cfg, recorder=events.append)
        assert len(events) == 1
        np.testing.assert_array_equal(out, events[0].hyperparams)

    def test_finds_the_synthetic_minimum(self):
        spec = make_synthetic(3.0, 1.0)
        cfg = RandomSearchConfig(budget=500, box=[[-5.0, 5.0]], seed=0)
        events = []
        out = random_search(spec, cfg, recorder=events.append)
        best_f = min(e.evaluation.f_value for e in events)
        assert best_f <= 1e-2
        assert abs(out[0] - 0.0) <= 0.3
        assert events[-1].optimizer_calls == 500

    def test_incumbent_sequence_non_increasing(self):
        spec = make_synthetic(3.0, 1.0)
        cfg = RandomSearchConfig(budget=64, box=[[-5.0, 5.0]], seed=2)
        events = []
        random_search(spec, cfg, recorder=events.append)
        best = np.inf
        for event in events:
            best = min(best, event.evaluation.f_value)
            assert best <= event.evaluation.f_value

    def test_diverging_samples_skipped_but_counted(self):
        spec = function_objective(partial, p=1)
        cfg = RandomSearchConfig(budget=60, box=[[-1.0, 1.0]], seed=5)
        events = []
        out = random_search(spec, cfg, recorder=events.append)
        assert out[0] <= 0.0
        assert 0 < len(events) < 60  # failures drop records
        assert events[-1].optimizer_calls <= 60  # but calls keep counting
        recorded_iters = [e.meta_iter for e in events]
        assert recorded_iters == sorted(recorded_iters)

    def test_box_dimension_checked(self):
        spec = make_synthetic(3.0, 1.0)
        with pytest.raises(InvalidConfig):
            random_search(spec, RandomSearchConfig(budget=4, box=[[-1, 1], [-1, 1]]))


@pytest.mark.parametrize(
    "spec, box, seed",
    [
        (function_objective(partial, p=1), [[-1.0, 1.0]], 5),
        # GD at lr 0.5 diverges where 2 e^lam > 3: samples 0 and 4-9, so every chunk holds one
        (make_synthetic(3.0, 1.0, inner=InnerSolver(steps=3000, lr=0.5)), [[0.0, 1.0]], 0),
        # finite models whose validation loss overflows at samples 4, 5 and 9
        (overflowing_logreg(), [[6.30, 6.345]], 0),
    ],
    ids=["partial", "synthetic_gd", "logreg_outer_overflow"],
)
def test_a_chunk_with_a_diverged_sample_skips_only_that_sample(spec, box, seed):
    cfg = RandomSearchConfig(budget=10, box=box, seed=seed)
    lo, hi = np.array(box).T
    samples = lo + (hi - lo) * np.random.default_rng(seed).random((cfg.budget, spec.p))
    want = {}  # the one-at-a-time loop: sample index -> its evaluation
    for index, lam in enumerate(samples):
        try:
            want[index] = evaluate(spec, lam)
        except NonFiniteObjective:
            pass
    events = []
    with mock.patch.object(baselines, "SEARCH_CHUNK", 4):
        best = random_search(spec, cfg, recorder=events.append)
    skipped = sorted(set(range(cfg.budget)) - set(want))
    assert skipped  # at least one sample diverges
    assert [e.meta_iter for e in events] == sorted(want)
    assert [e.optimizer_calls for e in events] == [i + 1 for i in sorted(want)]
    incumbent = min(want, key=lambda i: want[i].f_value)
    np.testing.assert_array_equal(best, samples[incumbent])
    for event in events:
        f, expected = event.evaluation.f_value, want[event.meta_iter].f_value
        np.testing.assert_array_equal(event.hyperparams, samples[event.meta_iter])
        assert abs(f - expected) <= 1e-12 * abs(expected)


def test_a_chunk_with_a_diverged_sample_is_solved_once(monkeypatch):
    assert baselines.SEARCH_CHUNK <= oracle.BLOCK_WIDTH  # a chunk's error reports the whole chunk
    widths = []

    def counted(loss_grad, alg, lam):
        widths.append(lam.shape[1])
        return solve(loss_grad, alg, lam)

    monkeypatch.setattr(oracle, "solve", counted)
    monkeypatch.setattr(baselines, "SEARCH_CHUNK", 4)
    # samples 0 and 4-9 diverge, so each of the three chunks holds one
    spec = make_synthetic(3.0, 1.0, inner=InnerSolver(steps=3000, lr=0.5))
    events = []
    random_search(spec, RandomSearchConfig(budget=10, box=[[0.0, 1.0]], seed=0), events.append)
    assert widths == [4, 4, 2]
    assert [e.meta_iter for e in events] == [1, 2, 3]
