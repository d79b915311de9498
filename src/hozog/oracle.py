"""The black-box outer objective f(lam) = E(A(lam), lam).

An :class:`ObjectiveSpec` pairs a problem (inner loss, outer loss, data)
with an inner-solver configuration.  Evaluating it runs the inner solver to
get the trained model w(lam) and then scores that model with the outer
objective.  Everything the evaluation touches is immutable and the inner
solve starts from a fixed point (the inner solver's ``w0``, else zeros),
so f is a deterministic function of lam alone: repeated calls return
identical results, which the finite-difference estimator depends on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, NonFiniteObjective, array_text
from .inner_solvers import InnerSolver, solve

__all__ = ["ObjectiveSpec", "Evaluation", "evaluate", "evaluate_batch", "function_objective"]


def check_box(box, p: int | None = None) -> np.ndarray:
    """``box`` as a float array of ``p`` [lo, hi] rows, lo < hi in each (NaN fails).

    ``p`` None accepts any number of rows.  Raises InvalidConfig.
    """
    arr = np.atleast_2d(np.asarray(box, dtype=float))
    rows = arr.shape[0] if p is None else p
    if arr.shape != (rows, 2) or not np.all(arr[:, 0] < arr[:, 1]):
        got = array_text(arr)
        raise InvalidConfig(f"box must be ({rows}, 2) with lo < hi in each row, got {got}")
    return arr


@dataclass(frozen=True)
class ObjectiveSpec:
    """A bilevel problem instance ready for black-box evaluation.

    ``problem`` supplies the losses and data (see the problems package for
    the expected surface); ``inner`` is the iterative solver configuration,
    started from the zero model when its ``w0`` is None, or None to use the
    problem's closed-form inner solution.  ``bounds`` is an optional (p, 2)
    box on lam; when declared, the outer loop clamps iterates to it after
    each step.
    """

    problem: object
    inner: InnerSolver | None = None
    bounds: np.ndarray | None = None

    def __post_init__(self):
        if self.bounds is not None:
            object.__setattr__(self, "bounds", check_box(self.bounds, self.p))

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

    def value(self, lam: np.ndarray) -> float:
        """Plain-callable view of the objective, f(lam)."""
        return evaluate(self, lam).f_value


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
    if not np.all(np.isfinite(arr)):
        raise NonFiniteObjective("hyperparameter vector is not finite", hyperparams=arr)
    return arr


def evaluate(spec: ObjectiveSpec, lam) -> Evaluation:
    """Run the inner solver at lam and score the result with the outer loss."""
    lam = check_lambda(spec, lam)
    problem = spec.problem
    if spec.inner is None:
        w = problem.exact_solution(lam)
    else:
        w = solve(problem.inner_loss_grad, spec.solver, lam)
    f = float(problem.outer_value(w, lam))
    if not np.isfinite(f):
        raise NonFiniteObjective(
            f"objective is not finite at lam={array_text(lam)}",
            hyperparams=lam,
        )
    return Evaluation(f_value=f, model=w)


def evaluate_batch(spec: ObjectiveSpec, lams) -> list:
    """Evaluate several points one after another, in input order.

    The first failing point (by input index) is the one reported.
    """
    return [evaluate(spec, lam) for lam in lams]


class _FunctionProblem:
    """Adapter exposing a plain callable f(lam) through the problem surface."""

    def __init__(self, fn, p: int):
        self.fn = fn
        self.p = p
        self.d = 0

    def exact_solution(self, lam):
        return np.empty(0)

    def outer_value(self, w, lam):
        return float(self.fn(lam))

    def test_metric(self, w):
        return None


def function_objective(fn, p: int, bounds=None) -> ObjectiveSpec:
    """Wrap an analytic callable as an ObjectiveSpec (no inner solve).

    Used for closed-form oracles in tests and for driving the outer loop
    with scripted objectives.
    """
    return ObjectiveSpec(problem=_FunctionProblem(fn, p), inner=None, bounds=bounds)
