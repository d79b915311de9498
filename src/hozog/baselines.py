"""Random search over a hyperparameter box, the in-repo comparison method."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NonFiniteObjective
from .oracle import ObjectiveSpec, check_box, evaluate
from .zo_core import IterationEvent

__all__ = ["RandomSearchConfig", "random_search"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RandomSearchConfig:
    """Evaluation budget, sampling box (a tuple of one (lo, hi) per coordinate), seed."""

    budget: int
    box: tuple
    seed: int = 0

    def __post_init__(self):
        if self.budget < 1:
            raise InvalidConfig(f"budget must be >= 1, got {self.budget}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "box", tuple(map(tuple, check_box(self.box).tolist())))


def random_search(
    spec: ObjectiveSpec,
    cfg: RandomSearchConfig,
    recorder=None,
    max_workers: int = 1,
) -> np.ndarray:
    """Uniform i.i.d. sampling over the box, tracking the incumbent.

    Consumes exactly ``budget`` oracle evaluations and returns the sampled
    point with the smallest objective.  All samples are pre-drawn from the
    seeded stream and evaluated in sample-index order, so the result is
    deterministic.  A sample whose evaluation diverges is logged (at debug
    level) and skipped rather than killing the search, but it still counts
    against the budget.  ``max_workers`` is accepted for compatibility and
    has no effect.
    """
    box = check_box(cfg.box, spec.p)
    rng = np.random.default_rng(cfg.seed)
    lo, hi = box[:, 0], box[:, 1]
    samples = lo + (hi - lo) * rng.random((cfg.budget, spec.p))
    best_lam = None
    best_f = np.inf
    for index, lam in enumerate(samples):
        try:
            outcome = evaluate(spec, lam)
        except NonFiniteObjective:
            logger.debug("random search: non-finite objective at sample %d, skipping", index)
            continue
        if outcome.f_value < best_f:
            best_f = outcome.f_value
            best_lam = lam.copy()
        if recorder is not None:
            recorder(IterationEvent(meta_iter=index, hyperparams=lam.copy(), evaluation=outcome,
                                    gradient=None, optimizer_calls=index + 1))
    if best_lam is None:
        raise NonFiniteObjective("every random-search sample diverged")
    return best_lam
