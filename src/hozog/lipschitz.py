"""Lipschitz-constant machinery for the composed objective.

Unrolling the chain rule through T inner steps plus the outer loss bounds
the Lipschitz constant of f by a sum of suffix products of per-step
Jacobian norms:

    L(f) <= sum_{t=1}^{T+1} LB_t * LA_{t+1} * ... * LA_{T+1}

where LA_t / LB_t are spectral-norm bounds of the t-th step map's Jacobian
with respect to the model weights / the hyperparameters (index T+1 covers
the outer loss).  The suprema are taken over a declared hyperparameter box
and a trajectory envelope for the weights, since a sup over all of space is
infinite for the problems here.  The bound is exact only for the synthetic
problem, whose step-map Jacobians are available analytically; everything
else gets the Monte-Carlo lower estimate from :func:`empirical_lipschitz`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, check_count
from .oracle import ObjectiveSpec, check_box, evaluate_batch
from .problems.synthetic import capped_exp

__all__ = [
    "StepJacobians",
    "LipschitzReport",
    "lipschitz_product_bound",
    "synthetic_step_jacobians",
    "empirical_lipschitz",
]


@dataclass(frozen=True)
class StepJacobians:
    """Per-step Jacobian norm bounds.

    ``a[t]`` and ``b[t]`` hold the norms for step t+1 (t = 0..T-1 are the
    inner steps, t = T is the outer loss), so both arrays have length T+1.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 1 or a.shape != b.shape or a.shape[0] < 1:
            raise InvalidConfig("a and b must be equal-length 1-D arrays, length >= 1")
        if np.any(a < 0) or np.any(b < 0) or not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise InvalidConfig("Jacobian norms must be finite and non-negative")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class LipschitzReport:
    empirical_max_ratio: float
    samples: int


def lipschitz_product_bound(jacs: StepJacobians) -> float:
    """The sum-of-suffix-products bound, accumulated right to left in O(T).

    The suffix product multiplying ``b[t]`` runs over ``a[t+1:]``; the empty
    product for the last term is 1.  The sum runs in Python floats, so one
    that overflows is inf without numpy's warning.
    """
    total = 0.0
    suffix = 1.0
    for a, b in zip(reversed(jacs.a.tolist()), reversed(jacs.b.tolist())):
        total += b * suffix
        suffix *= a
    return total


def synthetic_step_jacobians(
    c: float,
    w_star: float,
    eta: float,
    t_inner: int,
    lambda_box,
) -> StepJacobians:
    """Analytic Jacobian sups for the synthetic problem's GD inner solver.

    One GD step on L(w, lam) = 0.5*(w-c)^2 + e^lam w^2 is
    w <- w - eta*((w - c) + 2 e^lam w), so dstep/dw = 1 - eta*(1 + 2 e^lam)
    and dstep/dlam = -2 eta e^lam w.  Sups are taken over the lam box and,
    for w, over the envelope c of a trajectory started at zero.  Requires
    the step map to be non-expansive over the box (|dstep/dw| <= 1),
    otherwise the envelope argument fails and InvalidConfig is raised.
    """
    lo, hi = float(lambda_box[0]), float(lambda_box[1])
    if not lo <= hi:
        raise InvalidConfig(f"lambda box must satisfy lo <= hi, got [{lo}, {hi}]")
    if eta < 0:
        raise InvalidConfig(f"eta must be >= 0, got {eta}")
    check_count(t_inner, "t_inner", 0)
    # e^lam as the solver's step map takes it, through the synthetic exp cap
    e_lo, e_hi = capped_exp(np.array([lo, hi])).tolist()  # Python floats overflow to inf silently
    if eta * (1.0 + 2.0 * e_hi) > 2.0:
        raise InvalidConfig(
            f"step map is expansive over the box: eta*(1+2e^hi) = "
            f"{eta * (1.0 + 2.0 * e_hi):.4g} > 2"
        )
    # |1 - eta*(1+2e^lam)| is maximized at one of the box endpoints.
    a_step = max(abs(1.0 - eta * (1.0 + 2.0 * e_lo)), abs(1.0 - eta * (1.0 + 2.0 * e_hi)))
    b_step = 2.0 * eta * e_hi * c
    # outer loss E(w) = 0.5*(w - w_star)^2: dE/dw = w - w_star, dE/dlam = 0
    a = np.concatenate([np.full(t_inner, a_step), [c + abs(w_star)]])
    b = np.concatenate([np.full(t_inner, b_step), [0.0]])
    return StepJacobians(a=a, b=b)


def empirical_lipschitz(
    spec: ObjectiveSpec,
    box,
    n_pairs: int,
    seed: int,
    max_workers: int = 1,
) -> LipschitzReport:
    """Monte-Carlo lower estimate of L(f) over a box.

    Draws ``n_pairs`` seeded uniform point pairs and returns the largest
    observed ratio |f(x1) - f(x2)| / ||x1 - x2|| over the pairs whose points
    differ.  Deterministic given the seed.  ``max_workers`` is accepted for
    compatibility and has no effect: the 2 * ``n_pairs`` points, each pair's
    two next to each other, go through one :func:`~hozog.oracle.evaluate_batch`
    call, in blocks of up to ``BLOCK_WIDTH``, and the ratios are read off its
    array of values.  A diverged point raises, naming the lowest in that order.
    """
    check_count(n_pairs, "n_pairs", 1)
    check_count(seed, "seed", 0)
    box = check_box(box, spec.p)
    rng = np.random.default_rng(seed)
    lo, hi = box[:, 0], box[:, 1]
    first = lo + (hi - lo) * rng.random((n_pairs, spec.p))
    second = lo + (hi - lo) * rng.random((n_pairs, spec.p))
    points = np.stack([first, second], axis=1).reshape(2 * n_pairs, spec.p)
    values, _ = evaluate_batch(spec, points)
    with np.errstate(over="ignore"):  # a gap past the double range is inf, its ratio 0
        gaps = np.linalg.norm(first - second, axis=1)
    moved = gaps > 0
    max_ratio = np.max(np.abs(values[0::2] - values[1::2])[moved] / gaps[moved], initial=0.0)
    return LipschitzReport(empirical_max_ratio=float(max_ratio), samples=n_pairs)
