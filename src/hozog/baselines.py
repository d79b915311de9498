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

# Samples one evaluate_batch call solves.  bench/run.py's random_search_logreg
# (budget 192, Adam 150 steps, 1000 x 40 train split), median run_s of seeds
# 1-3 at a 6 s window, BLAS at one thread on a 2-core x86-64 box:
#   chunk width   1 (one at a time)   8       16      32      64      192 (one block)
#   run_s         0.92 s              0.40 s  0.38 s  0.38 s  0.41 s  0.49 s
#   peak RSS      72.1 MB             72.2    72.5    72.6    72.8    76.6
# Past 32 the gradients slow (see BLOCK_WIDTH in oracle.py) and a chunk holds
# more models.  A failed call's error reports only the block that failed, so
# a chunk must fit in one block: SEARCH_CHUNK <= BLOCK_WIDTH.
SEARCH_CHUNK = 32


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
    seeded stream and solved in consecutive chunks of ``SEARCH_CHUNK``, one
    :func:`~hozog.oracle.evaluate_batch` call a chunk, so a sample's f
    agrees with :func:`~hozog.oracle.evaluate` at its point to 1e-12
    relative.  Events reach the recorder in sample-index order after each
    chunk, so the result is deterministic.  A failed call's error reports
    every sample's value, so a chunk is solved once: a sample whose value
    is not finite is logged (at debug level) and skipped rather than
    killing the search, but it still counts against the budget.
    ``max_workers`` is accepted for compatibility and has no effect.
    """
    box = check_box(cfg.box, spec.p)
    rng = np.random.default_rng(cfg.seed)
    lo, hi = box[:, 0], box[:, 1]
    samples = lo + (hi - lo) * rng.random((cfg.budget, spec.p))
    best_lam = None
    best_f = np.inf
    for start in range(0, cfg.budget, SEARCH_CHUNK):
        chunk = samples[start:start + SEARCH_CHUNK]
        try:
            values, models = evaluate_batch(spec, chunk)
        except NonFiniteObjective as err:
            values, models = err.values, err.models
        for index, (lam, f, w) in enumerate(zip(chunk, values.tolist(), models.T, strict=True), start):
            if not math.isfinite(f):
                logger.debug("random search: non-finite objective at sample %d, skipping", index)
                continue
            if f < best_f:
                best_f = f
                best_lam = lam.copy()
            if recorder is not None:
                # a copy of the column: an event keeps its own model, not the chunk's block
                recorder(IterationEvent(meta_iter=index, hyperparams=lam.copy(),
                                        evaluation=Evaluation(f, w.copy()),
                                        gradient=None, optimizer_calls=index + 1))
    if best_lam is None:
        raise NonFiniteObjective("every random-search sample diverged")
    return best_lam
