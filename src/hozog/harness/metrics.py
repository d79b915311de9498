"""Per-record experiment metrics and the CSV trace writer.

Every written record carries the objective value, suboptimality against
the running minimum of explored iterates, the norm of the hyper-gradient
estimate the optimizer stepped along from that iterate (NaN where there is
none: on the final lambda_T record and on every random-search record), and
the problem's test metric.  Metrics reuse what the optimizer computed, and
the writer keeps the incumbent's evaluation, so their only oracle call is
the evaluation of a final iterate that is not the incumbent: one for a
hozog run at most, none for random search.  It is tallied apart from the
optimizer's calls so that cost comparisons between methods stay honest.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from ..errors import InvalidConfig
from ..oracle import Evaluation, ObjectiveSpec, evaluate
from ..zo_core import GradientEstimate, IterationEvent

__all__ = ["TraceRecord", "compute_metrics", "TraceWriter", "TRACE_COLUMNS"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace row; field order matches the CSV schema."""

    method: str
    meta_iter: int
    oracle_calls_optimizer: int
    oracle_calls_metrics: int
    wall_time_s: float
    f_value: float
    suboptimality: float
    grad_norm_est: float
    test_error: float


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))


def compute_metrics(
    spec: ObjectiveSpec,
    lam: np.ndarray,
    best_f: float,
    evaluation: Evaluation | None = None,
    gradient: GradientEstimate | None = None,
) -> tuple[dict, int]:
    """The four metric columns of one iterate's record, and the oracle calls they took.

    ``best_f`` is the smallest f over explored iterates (+inf before the
    first); suboptimality is measured against it or against this iterate's
    f, whichever is smaller, so the incumbent record scores exactly zero.
    The gradient norm is that of ``gradient``, NaN without one.  Evaluating
    f when ``evaluation`` is absent is the only oracle call, so the count
    is 0 or 1.
    """
    calls = 0
    if evaluation is None:
        evaluation = evaluate(spec, lam)
        calls = 1
    f = evaluation.f_value
    test_err = spec.problem.test_metric(evaluation.model)
    grad_norm = math.nan
    if gradient is not None:
        with np.errstate(over="ignore"):  # finite entries near 1e300 have an infinite norm
            grad_norm = float(np.linalg.norm(gradient.vector))
    return {
        "f_value": f,
        "suboptimality": f - min(best_f, f),
        "grad_norm_est": grad_norm,
        "test_error": math.nan if test_err is None else float(test_err),
    }, calls


class TraceWriter:
    """Single-writer CSV trace sink, flushed per record.

    Consumes :class:`~hozog.zo_core.IterationEvent`s.  Rows are written on
    the metric cadence (every ``cadence``-th meta-iteration, ``cadence`` an
    integer >= 1) and always for the final event, the one without an
    evaluation.  Every event with an evaluation, skipped or not, may become
    the incumbent (the first with the smallest f), so suboptimality stays
    correct; a final event whose lambda equals the incumbent's reuses its
    evaluation.  ``records`` counts the rows written.
    """

    def __init__(self, path, method: str, spec: ObjectiveSpec, cadence: int = 1):
        if isinstance(cadence, bool) or not isinstance(cadence, int) or cadence < 1:
            raise InvalidConfig(f"cadence must be an integer >= 1, got {cadence!r}")
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
        evaluation = event.evaluation
        if evaluation is not None:
            if best is None or evaluation.f_value < best.evaluation.f_value:
                self._incumbent = best = event
            if event.meta_iter % self.cadence != 0:
                return
        elif best is not None and np.array_equal(event.hyperparams, best.hyperparams):
            evaluation = best.evaluation
        best_f = math.inf if best is None else best.evaluation.f_value
        columns, calls = compute_metrics(
            self.spec, event.hyperparams, best_f, evaluation, event.gradient
        )
        self.metric_calls += calls
        record = TraceRecord(
            method=self.method,
            meta_iter=event.meta_iter,
            oracle_calls_optimizer=event.optimizer_calls,
            oracle_calls_metrics=self.metric_calls,
            wall_time_s=time.perf_counter() - self._start,
            **columns,
        )
        self.records += 1
        self._fh.write(
            ",".join(str(getattr(record, col)) for col in TRACE_COLUMNS) + "\n"
        )
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
