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

import numpy as np

from .errors import DimensionMismatch, NonFiniteIterate, NonFiniteObjective
from .inner_solvers import InnerSolver, solve

__all__ = ["ObjectiveSpec", "Evaluation", "evaluate", "evaluate_batch", "function_objective"]


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
            box = np.atleast_2d(np.asarray(self.bounds, dtype=float))
            if box.shape != (self.p, 2):
                raise DimensionMismatch(
                    f"bounds shape {box.shape} does not match (p, 2) = ({self.p}, 2)"
                )
            if not np.all(box[:, 0] < box[:, 1]):
                raise DimensionMismatch("each bound must satisfy lo < hi")
            object.__setattr__(self, "bounds", box)

    @property
    def p(self) -> int:
        return self.problem.p

    def value(self, lam: np.ndarray) -> float:
        """Plain-callable view of the objective, f(lam)."""
        return evaluate(self, lam).f_value


@dataclass(frozen=True)
class Evaluation:
    """One oracle call: the objective value and the model that produced it."""

    f_value: float
    model: np.ndarray


def _check_lambda(spec: ObjectiveSpec, lam) -> np.ndarray:
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
    lam = _check_lambda(spec, lam)
    problem = spec.problem
    if spec.inner is None:
        w = problem.exact_solution(lam)
    else:
        alg = spec.inner
        if alg.w0 is None:
            alg = dataclasses.replace(alg, w0=np.zeros(problem.d))
        try:
            w = solve(problem.inner_loss_grad, alg, lam)
        except NonFiniteIterate as err:
            raise NonFiniteObjective(
                f"inner solve diverged ({err}) at lam={np.array2string(lam, threshold=8)}",
                hyperparams=lam,
            ) from err
    f = float(problem.outer_value(w, lam))
    if not np.isfinite(f):
        raise NonFiniteObjective(
            f"objective is not finite at lam={np.array2string(lam, threshold=8)}",
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
