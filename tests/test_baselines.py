"""Random-search baseline tests."""

import numpy as np
import pytest

from hozog import InvalidConfig, RandomSearchConfig, function_objective, random_search
from hozog.problems import make_synthetic


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

    def test_seed_determinism(self):
        spec = make_synthetic(3.0, 1.0)
        cfg = RandomSearchConfig(budget=40, box=[[-5.0, 5.0]], seed=11)
        a = random_search(spec, cfg)
        b = random_search(spec, cfg)
        np.testing.assert_array_equal(a, b)

    def test_worker_count_invariance(self):
        spec = make_synthetic(3.0, 1.0)
        cfg = RandomSearchConfig(budget=50, box=[[-5.0, 5.0]], seed=8)
        a = random_search(spec, cfg, max_workers=1)
        b = random_search(spec, cfg, max_workers=4)
        np.testing.assert_array_equal(a, b)

    def test_diverging_samples_skipped_but_counted(self):
        def partial(lam):
            if lam[0] > 0.0:
                return float("inf")
            return float(lam[0] ** 2)

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
