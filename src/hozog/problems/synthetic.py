"""A closed-form bilevel problem used as a desk-scale oracle.

Inner loss (scalar model weight w):

    L(w, lam) = 0.5*(w - c)^2 + exp(lam) * w^2

whose unique stationary point is w(lam) = c / (1 + 2*exp(lam)).  Outer loss
E(w) = 0.5*(w - w_star)^2, so

    f(lam) = 0.5 * (c / (1 + 2*exp(lam)) - w_star)^2

with analytic minimizer lam_star = ln((c/w_star - 1) / 2).  Because both
f and df/dlam are available in closed form, the problem serves as ground
truth for the estimator, the outer loop, and the Lipschitz machinery.  It
can also be solved with the iterative inner solvers to probe the
approximate-solver behaviour the real problems exhibit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfig
from ..inner_solvers import InnerSolver
from ..oracle import ObjectiveSpec

__all__ = [
    "SyntheticBilevel",
    "make_synthetic",
    "synthetic_analytic_hypergradient",
    "synthetic_optimum",
]

_EXP_CAP = 700.0  # exp() overflows double just above this


def capped_exp(lam):
    """exp(lam) elementwise, lam capped at 700 so the result stays finite."""
    return np.exp(np.minimum(lam, _EXP_CAP))


@dataclass(frozen=True)
class SyntheticBilevel:
    """Problem data: inner target c, outer target w_star, with 0 < w_star < c < inf."""

    c: float
    w_star: float

    def __post_init__(self):
        if not (0.0 < self.w_star < self.c < math.inf):
            raise InvalidConfig(f"need 0 < w_star < c < inf, got c={self.c}, w_star={self.w_star}")

    p = 1
    d = 1

    def exact_solution(self, lam: np.ndarray) -> np.ndarray:
        return self.c / (1.0 + 2.0 * capped_exp(lam))

    def inner_loss(self, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
        return 0.5 * (w[0] - self.c) ** 2 + capped_exp(lam[0]) * w[0] * w[0]

    def inner_loss_grad(self, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
        return (w - self.c) + 2.0 * capped_exp(lam) * w

    def outer_value(self, w: np.ndarray, lam: np.ndarray) -> list:
        # one float per column: a float product past the double range gives inf
        # without numpy's overflow warning, and evaluate reports the inf
        return [0.5 * (x - self.w_star) * (x - self.w_star) for x in w[0].tolist()]

    def test_metric(self, w: np.ndarray):
        return None


def make_synthetic(
    c: float,
    w_star: float,
    inner: InnerSolver | None = None,
) -> ObjectiveSpec:
    """Spec for the closed-form problem.

    With ``inner=None`` the oracle uses the exact inner solution; passing an
    :class:`InnerSolver` makes the oracle run it instead, as the real
    problems do.
    """
    problem = SyntheticBilevel(c=c, w_star=w_star)
    return ObjectiveSpec(problem=problem, inner=inner, bounds=None)


def synthetic_analytic_hypergradient(c: float, w_star: float, lam: float) -> float:
    """Closed-form df/dlam, ground truth for estimator-accuracy checks.

    w(lam) = c/(1+2e^lam) gives w'(lam) = -w(lam) * 2e^lam/(1+2e^lam), with no
    square to overflow past lam ~ 355, and df/dlam = (w(lam) - w_star) * w'(lam).
    """
    SyntheticBilevel(c=c, w_star=w_star)  # validates the range
    e = float(capped_exp(lam))
    w = c / (1.0 + 2.0 * e)
    return (w - w_star) * (-w * 2.0 * e / (1.0 + 2.0 * e))


def synthetic_optimum(c: float, w_star: float) -> float:
    """The analytic minimizer lam_star = ln((c/w_star - 1)/2)."""
    SyntheticBilevel(c=c, w_star=w_star)  # validates the range
    return math.log((c / w_star - 1.0) / 2.0)
