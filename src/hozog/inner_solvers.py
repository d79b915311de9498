"""Iterative inner solvers: deterministic full-batch GD and Adam.

A solver is a fixed number of applications of a continuous step map
``w_t = step(w_{t-1}, lam)``; the whole solve is therefore a deterministic,
continuous function of the hyperparameters, which is what makes
finite-difference probing of the outer objective meaningful.  Mini-batch
variants are deliberately absent: sampling noise in the inner solve would
leak into the zeroth-order differences.

:func:`solve` is the one entry point; it returns the final iterate as
computed and judges nothing.  Each update has the form ``w - (...)``, and
that is NaN or infinite whenever ``w`` is, so an iterate that leaves the
finite range never comes back: the oracle's one finiteness check, on the
final block, catches every divergence.  The hyperparameters come as a
(p, k) block, one point a column, and the steps run the k models at once
as the columns of a (d, k) block, each started from ``w0``; every update
is column-wise (Adam's bias-correction factors depend on the step alone),
so the columns never mix.
:func:`trajectory` is the diagnostic view: every iterate as computed,
non-finite ones included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, array_text
from .errors import check_count, check_positive

__all__ = ["InnerSolver", "solve", "trajectory"]

_VARIANTS = ("gd", "adam")
# Adam's moment decay rates and denominator guard, the usual constants
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class InnerSolver:
    """Configuration of an iterative inner algorithm.

    ``steps`` applications of the variant's update rule from ``w0`` at fixed learning rate
    ``lr``; ``solve`` refuses a None ``w0``, which ``ObjectiveSpec.solver`` sets to zeros.
    Adam uses bias-corrected first/second moments with the usual constants.
    A given finite 1-D ``w0`` is held as a tuple of floats: solvers compare by value.
    """

    steps: int
    lr: float
    variant: str = "gd"
    w0: tuple | None = None

    def __post_init__(self):
        check_count(self.steps, "steps", 0)
        check_positive(self.lr, "lr")
        if self.variant not in _VARIANTS:
            raise InvalidConfig(f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        if self.w0 is not None:
            w0 = np.asarray(self.w0, dtype=float)
            if w0.ndim != 1:
                raise InvalidConfig(f"w0 must be 1-D, got shape {w0.shape}")
            if not np.isfinite(w0).all():
                raise InvalidConfig(f"w0 must be finite, got {array_text(w0)}")
            object.__setattr__(self, "w0", tuple(w0.tolist()))


def _start(alg: InnerSolver, lam: np.ndarray) -> np.ndarray:
    """``alg.w0``, as one column per column of a (p, k) ``lam`` block."""
    if alg.w0 is None:
        raise InvalidConfig("solver has no w0; set one or solve through an objective")
    if len(np.shape(lam)) != 2:
        raise DimensionMismatch(f"lam must be a (p, k) block, got shape {np.shape(lam)}")
    return np.repeat(np.array(alg.w0)[:, None], lam.shape[1], axis=1)


def _gd_steps(loss_grad, alg: InnerSolver, lam: np.ndarray):
    """Yield w_0, w_1, ..., w_T of full-batch gradient descent."""
    lr = alg.lr
    w = _start(alg, lam)
    yield w
    for _ in range(alg.steps):
        w = w - lr * loss_grad(w, lam)
        yield w


def _adam_steps(loss_grad, alg: InnerSolver, lam: np.ndarray):
    """Yield w_0, w_1, ..., w_T of Adam (bias-corrected moments, zero-initialized)."""
    lr = alg.lr
    w = _start(alg, lam)
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

    ``lam`` is a (p, k) block and the result a (d, k) block of models.
    ``loss_grad(w, lam)`` must return the gradient of the inner loss at
    ``w``; exactly ``alg.steps`` gradient evaluations are performed, each
    on the whole block.  The block is returned as computed, diverged
    columns included, bitwise-equal to ``trajectory(...)[-1]``; the oracle
    names a diverged point.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for w in _STEPS[alg.variant](loss_grad, alg, lam):
            pass
    return w


def trajectory(loss_grad, alg: InnerSolver, lam: np.ndarray) -> list:
    """All iterates ``[w_0, w_1, ..., w_T]``, (d, k) blocks, non-finite ones included.

    The iterates come from the same step generator :func:`solve` consumes,
    so the last element is bitwise-equal to its output.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return list(_STEPS[alg.variant](loss_grad, alg, lam))
