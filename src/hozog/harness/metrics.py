"""Per-record experiment metrics and the CSV trace writer.

Every written record carries the objective value, suboptimality against
the running minimum of explored iterates, the norm of the hyper-gradient
estimate the optimizer stepped along from that iterate (NaN where there is
none: on the final lambda_T record and on every random-search record), and
the problem's test metric.  Metrics reuse what the optimizer computed; their
only oracle call is the evaluation of the final record's iterate, tallied
apart from the optimizer's own calls so that cost comparisons between
methods stay honest.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from ..errors import InvalidConfig
from ..oracle import Evaluation, ObjectiveSpec, evaluate
from ..zo_core import GradientEstimate, IterationEvent

__all__ = ["TraceRecord", "MetricSample", "compute_metrics", "TraceWriter", "TRACE_COLUMNS"]


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


@dataclass(frozen=True)
class MetricSample:
    f_value: float
    suboptimality: float
    grad_norm_est: float
    test_error: float
    metric_calls: int
    history_min: float


def compute_metrics(
    spec: ObjectiveSpec,
    lam: np.ndarray,
    history_min: float,
    evaluation: Evaluation | None = None,
    gradient: GradientEstimate | None = None,
) -> MetricSample:
    """Metric fields for one iterate.

    ``history_min`` is the running minimum of f over previously explored
    iterates (+inf before the first); suboptimality is measured against the
    updated minimum, so the incumbent record scores exactly zero.  The
    gradient norm is that of ``gradient``, NaN without one.  Evaluating f
    when ``evaluation`` is absent is the only oracle call, and the only
    metric call.
    """
    calls = 0
    if evaluation is None:
        evaluation = evaluate(spec, lam)
        calls = 1
    f = evaluation.f_value
    new_min = min(history_min, f)
    test_err = spec.problem.test_metric(evaluation.model)
    grad_norm = math.nan
    if gradient is not None:
        with np.errstate(over="ignore"):  # finite entries near 1e300 have an infinite norm
            grad_norm = float(np.linalg.norm(gradient.vector))
    return MetricSample(
        f_value=f,
        suboptimality=f - new_min,
        grad_norm_est=grad_norm,
        test_error=math.nan if test_err is None else float(test_err),
        metric_calls=calls,
        history_min=new_min,
    )


class TraceWriter:
    """Single-writer CSV trace sink, flushed per record.

    Consumes :class:`~hozog.zo_core.IterationEvent`s.  Rows are written on
    the metric cadence (every ``cadence``-th meta-iteration, ``cadence`` an
    integer >= 1) and always for the final event, the one without an
    evaluation; skipped events still feed the running minimum so
    suboptimality stays correct.  ``records`` counts the rows written.
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
        self._history_min = math.inf
        self._start = time.perf_counter()
        self.metric_calls = 0
        self.records = 0

    def __call__(self, event: IterationEvent) -> None:
        if event.evaluation is not None and event.meta_iter % self.cadence != 0:
            self._history_min = min(self._history_min, event.evaluation.f_value)
            return
        sample = compute_metrics(
            self.spec,
            event.hyperparams,
            self._history_min,
            evaluation=event.evaluation,
            gradient=event.gradient,
        )
        self._history_min = sample.history_min
        self.metric_calls += sample.metric_calls
        record = TraceRecord(
            method=self.method,
            meta_iter=event.meta_iter,
            oracle_calls_optimizer=event.optimizer_calls,
            oracle_calls_metrics=self.metric_calls,
            wall_time_s=time.perf_counter() - self._start,
            f_value=sample.f_value,
            suboptimality=sample.suboptimality,
            grad_norm_est=sample.grad_norm_est,
            test_error=sample.test_error,
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
