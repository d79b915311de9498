"""Iterative inner solvers: deterministic full-batch GD and Adam.

A solver is a fixed number of applications of a continuous step map
``w_t = step(w_{t-1}, lam)``; the whole solve is therefore a deterministic,
continuous function of the hyperparameters, which is what makes
finite-difference probing of the outer objective meaningful.  Mini-batch
variants are deliberately absent: sampling noise in the inner solve would
leak into the zeroth-order differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NonFiniteIterate

__all__ = ["InnerSolver", "gd_solve", "adam_solve", "solve", "trajectory"]

_VARIANTS = ("gd", "adam")


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    w0: np.ndarray | None = None

    def __post_init__(self):
        if self.steps < 0:
            raise InvalidConfig(f"steps must be >= 0, got {self.steps}")
        if self.lr <= 0:
            raise InvalidConfig(f"lr must be > 0, got {self.lr}")
        if self.variant not in _VARIANTS:
            raise InvalidConfig(f"variant must be one of {_VARIANTS}, got {self.variant!r}")


def _require_w0(alg: InnerSolver) -> np.ndarray:
    if alg.w0 is None:
        raise InvalidConfig("solver has no w0; set one or solve through an objective")
    return np.asarray(alg.w0, dtype=float)


def _check_iterate(w: np.ndarray, t: int) -> None:
    if not np.all(np.isfinite(w)):
        raise NonFiniteIterate(f"iterate became non-finite at inner step {t}", t=t)


def _gd_steps(loss_grad, alg: InnerSolver, lam: np.ndarray):
    """Yield w_0, w_1, ..., w_T of full-batch gradient descent."""
    lr = alg.lr
    w = _require_w0(alg).copy()
    yield w
    for t in range(1, alg.steps + 1):
        w = w - lr * loss_grad(w, lam)
        _check_iterate(w, t)
        yield w


def _adam_steps(loss_grad, alg: InnerSolver, lam: np.ndarray):
    """Yield w_0, w_1, ..., w_T of Adam (bias-corrected moments, zero-initialized)."""
    lr, beta1, beta2, eps = alg.lr, alg.beta1, alg.beta2, alg.eps
    w = _require_w0(alg).copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    yield w
    for t in range(1, alg.steps + 1):
        g = loss_grad(w, lam)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
        _check_iterate(w, t)
        yield w


_STEPS = {"gd": _gd_steps, "adam": _adam_steps}


def _last(iterates) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        for w in iterates:
            pass
    return w


def gd_solve(loss_grad, alg: InnerSolver, lam: np.ndarray) -> np.ndarray:
    """Run ``steps`` full-batch gradient-descent steps; returns the final iterate.

    ``loss_grad(w, lam)`` must return the gradient of the inner loss at ``w``.
    Exactly ``steps`` gradient evaluations are performed.
    """
    return _last(_gd_steps(loss_grad, alg, lam))


def adam_solve(loss_grad, alg: InnerSolver, lam: np.ndarray) -> np.ndarray:
    """Run ``steps`` Adam steps (bias-corrected moments, zero-initialized)."""
    return _last(_adam_steps(loss_grad, alg, lam))


def solve(loss_grad, alg: InnerSolver, lam: np.ndarray) -> np.ndarray:
    """Run the solver ``alg.variant`` names; returns the final iterate."""
    return _last(_STEPS[alg.variant](loss_grad, alg, lam))


def trajectory(loss_grad, alg: InnerSolver, lam: np.ndarray) -> list:
    """All iterates ``[w_0, w_1, ..., w_T]``.

    The iterates come from the same step generator the solves consume, so
    the last element is bitwise-equal to the corresponding solve's output.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return list(_STEPS[alg.variant](loss_grad, alg, lam))
