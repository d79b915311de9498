"""Iterative inner solvers: deterministic full-batch GD and Adam.

A solver is a fixed number of applications of a continuous step map
``w_t = step(w_{t-1}, lam)``; the whole solve is therefore a deterministic,
continuous function of the hyperparameters, which is what makes
finite-difference probing of the outer objective meaningful.  Mini-batch
variants are deliberately absent: sampling noise in the inner solve would
leak into the zeroth-order differences.

:func:`solve` is the one entry point; it checks finiteness once, on the
final iterate.  Each update has the form ``w - (...)``, and that is NaN or
infinite whenever ``w`` is, so an iterate that leaves the finite range
never comes back and the final check catches every divergence.
:func:`trajectory` is the diagnostic view: every iterate as computed,
non-finite ones included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NonFiniteIterate

__all__ = ["InnerSolver", "solve", "trajectory"]

_VARIANTS = ("gd", "adam")
# Adam's moment decay rates and denominator guard, the usual constants
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class InnerSolver:
    """Configuration of an iterative inner algorithm.

    ``steps`` applications of the variant's update rule starting from ``w0``
    (the zero vector when ``w0`` is None), with fixed learning rate ``lr``.
    Adam uses bias-corrected first/second moments with the usual constants.
    """

    steps: int
    lr: float
    variant: str = "gd"
    w0: np.ndarray | None = None

    def __post_init__(self):
        if self.steps < 0:
            raise InvalidConfig(f"steps must be >= 0, got {self.steps}")
        if not self.lr > 0:
            raise InvalidConfig(f"lr must be > 0, got {self.lr}")
        if self.variant not in _VARIANTS:
            raise InvalidConfig(f"variant must be one of {_VARIANTS}, got {self.variant!r}")


def _require_w0(alg: InnerSolver) -> np.ndarray:
    if alg.w0 is None:
        raise InvalidConfig("solver has no w0; set one or solve through an objective")
    return np.asarray(alg.w0, dtype=float)


def _gd_steps(loss_grad, alg: InnerSolver, lam: np.ndarray):
    """Yield w_0, w_1, ..., w_T of full-batch gradient descent."""
    lr = alg.lr
    w = _require_w0(alg).copy()
    yield w
    for _ in range(alg.steps):
        w = w - lr * loss_grad(w, lam)
        yield w


def _adam_steps(loss_grad, alg: InnerSolver, lam: np.ndarray):
    """Yield w_0, w_1, ..., w_T of Adam (bias-corrected moments, zero-initialized)."""
    lr = alg.lr
    w = _require_w0(alg).copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    yield w
    for t in range(1, alg.steps + 1):
        g = loss_grad(w, lam)
        m = _BETA1 * m + (1.0 - _BETA1) * g
        v = _BETA2 * v + (1.0 - _BETA2) * g * g
        m_hat = m / (1.0 - _BETA1**t)
        v_hat = v / (1.0 - _BETA2**t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + _EPS)
        yield w


_STEPS = {"gd": _gd_steps, "adam": _adam_steps}


def solve(loss_grad, alg: InnerSolver, lam: np.ndarray) -> np.ndarray:
    """Run the solver ``alg.variant`` names; returns the final iterate.

    ``loss_grad(w, lam)`` must return the gradient of the inner loss at
    ``w``; exactly ``alg.steps`` gradient evaluations are performed.
    Raises :class:`NonFiniteIterate` (``t = alg.steps``) when the final
    iterate is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for w in _STEPS[alg.variant](loss_grad, alg, lam):
            pass
        if not np.all(np.isfinite(w)):
            raise NonFiniteIterate(
                f"iterate is non-finite after {alg.steps} inner steps", t=alg.steps
            )
    return w


def trajectory(loss_grad, alg: InnerSolver, lam: np.ndarray) -> list:
    """All iterates ``[w_0, w_1, ..., w_T]``, non-finite ones included.

    The iterates come from the same step generator :func:`solve` consumes,
    so when the solve succeeds the last element is bitwise-equal to its
    output.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return list(_STEPS[alg.variant](loss_grad, alg, lam))
