"""The black-box outer objective f(lam) = E(A(lam), lam).

An :class:`ObjectiveSpec` pairs a problem (inner loss, outer loss, data)
with an inner-solver configuration.  Evaluating it runs the inner solver to
get the trained model w(lam) and then scores that model with the outer
objective.  Everything the evaluation touches is immutable and the inner
solve starts from a fixed point (the inner solver's ``w0``, else zeros),
so f is a deterministic function of lam alone: repeated calls return
identical results, which the finite-difference estimator depends on.

:func:`evaluate_batch` is the one evaluation kernel: one inner solve on a
(d, k) block of models returns the (k,) values and that block, and
:func:`evaluate` is its k=1 view.  Problems therefore take blocks: a (d, k)
``w`` and a (p, k) ``lam``, on the surface :mod:`hozog.problems` lists.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, NonFiniteObjective, array_text
from .inner_solvers import InnerSolver, solve

__all__ = ["ObjectiveSpec", "Evaluation", "evaluate", "evaluate_batch", "function_objective"]

# Widest block of points one inner solve takes: a wider batch is solved in
# consecutive blocks of this width, so memory stays at that many models and
# their gradients.  4000 iterative synthetic points at 100 GD steps, CPU time,
# median of 7, BLAS at one thread on a 2-core x86-64 box:
#   block width   64      256     1024    4000 (one block)
#   time          62 ms   27 ms   17 ms   13 ms
# Dense logreg gradients (1000 x 40, same box, two runs) cost 20-22 us a
# point at k=1, 6-8.5 us at k=8 and 5.4-7.4 us at every width from 32 to 512:
# the sigmoid goes through numpy's SIMD exp, so past k=8 a point costs the same.
# 192 logreg points at 150 Adam steps took 0.14 s as one block, 0.17-0.18 s as blocks of 32.
BLOCK_WIDTH = 1024


def check_box(box, p: int | None = None) -> np.ndarray:
    """``box`` as a float array of ``p`` [lo, hi] rows, lo < hi and a finite width in each.

    ``p`` None accepts any number of rows.  Raises InvalidConfig.
    """
    arr = np.atleast_2d(np.asarray(box, dtype=float))
    rows = arr.shape[0] if p is None else p
    with np.errstate(over="ignore", invalid="ignore"):  # a bound that is not finite gives no width
        ok = arr.shape == (rows, 2) and np.all((arr[:, 0] < arr[:, 1]) & np.isfinite(arr[:, 1] - arr[:, 0]))
    if not ok:
        got = array_text(arr)
        raise InvalidConfig(f"box must be ({rows}, 2) with lo < hi and a finite width in each row, got {got}")
    return arr


@dataclass(frozen=True)
class ObjectiveSpec:
    """A bilevel problem instance ready for black-box evaluation.

    ``problem`` supplies the losses and data on the block surface that the
    :mod:`hozog.problems` package docstring lists; ``inner`` is the iterative
    solver configuration, started from its ``w0`` of length d, else from the
    zero model, or None to use the problem's closed-form inner solution.
    ``bounds`` is an optional (p, 2) box on lam; when declared, the outer
    loop clamps iterates to it after each step.
    """

    problem: object
    inner: InnerSolver | None = None
    bounds: np.ndarray | None = None

    def __post_init__(self):
        if self.bounds is not None:
            object.__setattr__(self, "bounds", check_box(self.bounds, self.p))
        w0 = None if self.inner is None else self.inner.w0
        if w0 is not None and len(w0) != self.problem.d:
            raise DimensionMismatch(f"inner w0 has length {len(w0)}, expected {self.problem.d}")

    @property
    def p(self) -> int:
        return self.problem.p

    # built lazily: a second InnerSolver per spec doubles a small spec's set-up time
    @cached_property
    def solver(self) -> InnerSolver:
        """``inner`` started at its ``w0``, else at zero; built once, on first use."""
        if self.inner.w0 is not None:
            return self.inner
        return dataclasses.replace(self.inner, w0=np.zeros(self.problem.d))


@dataclass(frozen=True)
class Evaluation:
    """One oracle call: the objective value and the model that produced it."""

    f_value: float
    model: np.ndarray


def check_lambda(spec: ObjectiveSpec, lam) -> np.ndarray:
    """``lam`` as a finite float vector of length ``spec.p`` (a scalar counts as length 1)."""
    arr = np.asarray(lam, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape != (spec.p,):
        raise DimensionMismatch(
            f"hyperparameter vector has shape {arr.shape}, expected ({spec.p},)"
        )
    if not np.isfinite(arr).all():
        raise NonFiniteObjective("hyperparameter vector is not finite", hyperparams=arr)
    return arr


def check_lambdas(spec: ObjectiveSpec, lams) -> np.ndarray:
    """``lams`` as a (k, p) float array, one point a row, each checked as
    :func:`check_lambda` checks one; the lowest bad index is the one reported.

    A 1-D array holds k scalar points; a scalar is no batch.
    """
    try:
        points = np.asarray(lams, dtype=float)
    except ValueError:  # points of different shapes: the loop below names the first bad one
        points = np.empty((0, 0))
    if points.ndim == 0:
        raise DimensionMismatch(
            f"a batch of points has shape {points.shape}, expected (k, {spec.p})"
        )
    if points.ndim == 1:
        points = points[:, None]
    if points.shape[1:] != (spec.p,) or not np.isfinite(points).all():
        return np.array([check_lambda(spec, lam) for lam in lams]).reshape(-1, spec.p)
    return points


def evaluate(spec: ObjectiveSpec, lam) -> Evaluation:
    """Run the inner solver at lam and score the result with the outer loss.

    The k=1 view of :func:`evaluate_batch`, on a block of one without the
    batch's conversion of a list (the estimator calls this once per point).
    """
    points = check_lambda(spec, lam)[None]
    values, models = _checked(spec, points, *_evaluate_block(spec, points))
    return Evaluation(float(values[0]), models[:, 0])


def evaluate_batch(spec: ObjectiveSpec, lams) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate k points through one inner solve; returns ``(values, models)``,
    the (k,) objectives and the (d, k) block of trained models in input order.

    An empty batch gives shapes (0,) and (d, 0).  Every point is checked
    before any solve runs.  The points then go through
    :func:`~hozog.inner_solvers.solve` as a (p, k) block of lam, in blocks
    of at most ``BLOCK_WIDTH`` columns, and one ``outer_value`` call scores
    each block's finite columns.  Every block is solved; then, if a value
    is not finite, one :class:`NonFiniteObjective` names the lowest such
    input index, the point a one-at-a-time loop names, and carries the
    whole batch: the (k,) ``values``, NaN where a column diverged, and the
    (d, k) ``models``.  A column agrees with :func:`evaluate` at its point
    to 1e-12 relative in f and in the model, not bitwise, since BLAS may
    pick another kernel at another block width.
    """
    points = check_lambdas(spec, lams)
    values, models = np.empty(len(points)), np.empty((spec.problem.d, len(points)))
    for start in range(0, len(points), BLOCK_WIDTH):
        block = slice(start, start + BLOCK_WIDTH)
        values[block], models[:, block] = _evaluate_block(spec, points[block])
    return _checked(spec, points, values, models)


def _evaluate_block(spec: ObjectiveSpec, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (k,) values and (d, k) models of a block, NaN where a solved model is not finite."""
    problem, lams = spec.problem, points.T
    if spec.inner is None:  # scored as is: a finiteness pass costs more than a closed-form model
        w = problem.exact_solution(lams)
    else:
        w = solve(problem.inner_loss_grad, spec.solver, lams)
        kept = np.isfinite(w).all(axis=0)  # one flag per column
        if not kept.all():
            values = np.full(len(points), np.nan)
            if kept.any():
                values[kept] = problem.outer_value(w[:, kept], lams[:, kept])
            return values, w
    return np.asarray(problem.outer_value(w, lams), dtype=float), w


def _checked(spec: ObjectiveSpec, points: np.ndarray, values: np.ndarray, models: np.ndarray):
    """``(values, models)``, else the one report of a failed point: a NonFiniteObjective
    naming the lowest point whose value is not finite and carrying both arrays."""
    # one pass over Python floats: np.isfinite's fixed cost shows at k=1
    if all(map(math.isfinite, values.tolist())):
        return values, models
    first = np.argmin(np.isfinite(values))
    if spec.inner is None or np.isfinite(models[:, first]).all():
        reason = "objective is not finite"
    else:
        reason = f"inner solve diverged (iterate is non-finite after {spec.inner.steps} inner steps)"
    lam = points[first]
    raise NonFiniteObjective(f"{reason} at lam={array_text(lam)}",
                             hyperparams=lam, models=models, values=values)


class _FunctionProblem:
    """Adapter exposing a plain callable f(lam) through the problem surface."""

    def __init__(self, fn, p: int):
        self.fn = fn
        self.p = p
        self.d = 0

    def exact_solution(self, lam):
        return np.empty((0, lam.shape[1]))

    def outer_value(self, w, lam):
        return [float(self.fn(point)) for point in lam.T]

    def test_metric(self, w):
        return None


def function_objective(fn, p: int, bounds=None) -> ObjectiveSpec:
    """Wrap a plain callable f(lam) -> float as an ObjectiveSpec (no inner solve).

    This is the way to estimate a plain callable: the estimator and the
    outer loop take an ObjectiveSpec, and the wrapped f goes through
    :func:`evaluate` like any other objective, finiteness check included.
    """
    return ObjectiveSpec(problem=_FunctionProblem(fn, p), inner=None, bounds=bounds)
