"""Per-record experiment metrics and the CSV trace writer.

Every written record carries the objective value, suboptimality against
the running minimum of explored iterates, the norm of the hyper-gradient
estimate the optimizer stepped along from that iterate (NaN where there is
none: on the final record and on every random-search record), and the
problem's test metric.  Optimizers hand the writer evaluated iterates; the
final record, at the lambda a run returns, is the writer's own.  Metrics
reuse what the optimizer computed, and the writer keeps the incumbent's
evaluation, so their only oracle call evaluates a final lambda that is not
the incumbent: at most one per hozog run, none for random search.  It is
tallied apart from the optimizer's calls so that cost comparisons between
methods stay honest.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..errors import check_count
from ..oracle import Evaluation, ObjectiveSpec, evaluate
from ..zo_core import IterationEvent

__all__ = ["compute_metrics", "TraceWriter", "TRACE_COLUMNS"]

TRACE_COLUMNS = (
    "method", "meta_iter", "oracle_calls_optimizer", "oracle_calls_metrics", "wall_time_s",
    "f_value", "suboptimality", "grad_norm_est", "test_error",
)


def compute_metrics(
    spec: ObjectiveSpec,
    lam: np.ndarray,
    best_f: float,
    evaluation: Evaluation | None = None,
    gradient: np.ndarray | None = None,
) -> dict:
    """The four metric columns of one iterate's record.

    ``best_f`` is the smallest f over explored iterates (+inf before the
    first); suboptimality is measured against it or against this iterate's
    f, whichever is smaller, so the incumbent record scores exactly zero.
    The gradient norm is that of ``gradient``, NaN without one.  Without
    ``evaluation``, f is evaluated at ``lam``: one oracle call.
    """
    if evaluation is None:
        evaluation = evaluate(spec, lam)
    f = evaluation.f_value
    test_err = spec.problem.test_metric(evaluation.model)
    grad_norm = math.nan
    if gradient is not None:
        with np.errstate(over="ignore"):  # finite entries near 1e300 have an infinite norm
            grad_norm = float(np.linalg.norm(gradient))
    return {
        "f_value": f,
        "suboptimality": f - min(best_f, f),
        "grad_norm_est": grad_norm,
        "test_error": math.nan if test_err is None else float(test_err),
    }


class TraceWriter:
    """Single-writer CSV trace sink, flushed per record.

    Called with one :class:`~hozog.zo_core.IterationEvent` per evaluated
    iterate, it writes a row on the metric cadence (every ``cadence``-th
    meta-iteration, ``cadence`` an integer >= 1).  Every event, skipped or
    not, may become the incumbent (the first with the smallest f), so
    suboptimality stays correct.  :meth:`finish` writes the final row.
    ``records`` counts the rows written and ``metric_calls`` the oracle
    calls the metrics made.
    """

    def __init__(self, path, method: str, spec: ObjectiveSpec, cadence: int = 1):
        check_count(cadence, "cadence", 1)
        self._fh = open(path, "w", newline="")
        self._fh.write(",".join(TRACE_COLUMNS) + "\n")
        self._fh.flush()
        self.method = method
        self.spec = spec
        self.cadence = cadence
        self._incumbent: IterationEvent | None = None
        self._start = time.perf_counter()
        self.metric_calls = 0
        self.records = 0

    def __call__(self, event: IterationEvent) -> None:
        best = self._incumbent
        if best is None or event.evaluation.f_value < best.evaluation.f_value:
            self._incumbent = event
        if event.meta_iter % self.cadence == 0:
            self._write(event.meta_iter, event.hyperparams, event.evaluation,
                        event.gradient, event.optimizer_calls)

    def finish(self, lam: np.ndarray, meta_iter: int, optimizer_calls: int) -> None:
        """Write the final row: the run's returned ``lam`` and everything it spent.

        A ``lam`` equal to the incumbent's reuses its evaluation; any other
        is evaluated, the metrics' one oracle call.
        """
        best = self._incumbent
        if best is not None and np.array_equal(lam, best.hyperparams):
            evaluation = best.evaluation
        else:
            evaluation = None
            self.metric_calls += 1
        self._write(meta_iter, lam, evaluation, None, optimizer_calls)

    def _write(self, meta_iter, lam, evaluation, gradient, optimizer_calls) -> None:
        best_f = math.inf if self._incumbent is None else self._incumbent.evaluation.f_value
        columns = compute_metrics(self.spec, lam, best_f, evaluation, gradient)
        row = dict(method=self.method, meta_iter=meta_iter, oracle_calls_optimizer=optimizer_calls,
                   oracle_calls_metrics=self.metric_calls,
                   wall_time_s=time.perf_counter() - self._start, **columns)
        self.records += 1
        self._fh.write(",".join(str(row[col]) for col in TRACE_COLUMNS) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
