"""Concrete bilevel problem instances.

Every problem offers one surface, on blocks of k points: ``w`` is a (d, k)
block of models, one a column, and ``lam`` a (p, k) block of
hyperparameters whose column j goes with model j.

- ``inner_loss(w, lam)``: the k inner losses, shape (k,);
- ``inner_loss_grad(w, lam)``: their gradients in ``w``, shape (d, k);
- ``outer_value(w, lam)``: the k outer objectives, as a (k,) float array
  or a list of k Python floats, which the oracle converts to one (k,)
  array.  Where a finite model can overflow the score, the overflow gives
  inf without numpy's warning, so the oracle reports a non-finite
  objective: logreg and hyper-cleaning score under ``np.errstate``, the
  synthetic problem in Python floats;
- ``exact_solution(lam)``: the (d, k) closed-form inner solutions, on a
  problem that has them (the synthetic one); the others are solved by an
  :class:`~hozog.inner_solvers.InnerSolver`;
- ``test_metric(w)``: the test score of one 1-D model, or None;
- the attributes ``p`` (hyperparameters a point) and ``d`` (model size).
"""

from .hyperclean import (
    HyperCleanProblem,
    group_corruption_fractions,
    hyperclean_objective,
    make_hyperclean,
)
from .logreg import LogRegProblem, logreg_objective
from .synthetic import (
    SyntheticBilevel,
    make_synthetic,
    synthetic_analytic_hypergradient,
    synthetic_optimum,
)

__all__ = [
    "HyperCleanProblem",
    "LogRegProblem",
    "SyntheticBilevel",
    "group_corruption_fractions",
    "hyperclean_objective",
    "logreg_objective",
    "make_hyperclean",
    "make_synthetic",
    "synthetic_analytic_hypergradient",
    "synthetic_optimum",
]
