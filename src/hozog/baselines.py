"""Random search over a hyperparameter box, the in-repo comparison method."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteObjective, check_count
from .oracle import Evaluation, ObjectiveSpec, check_box, evaluate_batch
from .zo_core import IterationEvent
# Not called here.  bench/tracer.py patches baselines.evaluate by name, so
# the import stays until the tracer counts block-solved points (ROADMAP item 1).
from .oracle import evaluate  # noqa: F401

__all__ = ["RandomSearchConfig", "random_search"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RandomSearchConfig:
    """Evaluation budget, sampling box (a tuple of one (lo, hi) per coordinate), seed."""

    budget: int
    box: tuple
    seed: int = 0

    def __post_init__(self):
        check_count(self.budget, "budget", 1)
        check_count(self.seed, "seed", 0)
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
    seeded stream and solved by one :func:`~hozog.oracle.evaluate_batch`
    call, so a sample's f agrees with :func:`~hozog.oracle.evaluate` at its
    point to 1e-12 relative.  Events reach the recorder in sample-index
    order, so the result is deterministic.  A failed call's error reports
    every sample's value, so each sample is solved once: a sample whose
    value is not finite is logged (at debug level) and skipped rather than
    killing the search, but it still counts against the budget.
    ``max_workers`` is accepted for compatibility and has no effect.
    """
    box = check_box(cfg.box, spec.p)
    rng = np.random.default_rng(cfg.seed)
    lo, hi = box[:, 0], box[:, 1]
    samples = lo + (hi - lo) * rng.random((cfg.budget, spec.p))
    try:
        values, models = evaluate_batch(spec, samples)
    except NonFiniteObjective as err:
        values, models = err.values, err.models
    best_lam = None
    best_f = np.inf
    for index, (lam, f, w) in enumerate(zip(samples, values.tolist(), models.T, strict=True)):
        if not math.isfinite(f):
            logger.debug("random search: non-finite objective at sample %d, skipping", index)
            continue
        if f < best_f:
            best_f = f
            best_lam = lam.copy()
        if recorder is not None:
            # a copy of the column: an event keeps its own model, not the batch's block
            recorder(IterationEvent(meta_iter=index, hyperparams=lam.copy(),
                                    evaluation=Evaluation(f, w.copy()),
                                    gradient=None, optimizer_calls=index + 1))
    if best_lam is None:
        raise NonFiniteObjective("every random-search sample diverged")
    return best_lam
