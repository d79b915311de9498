"""Scalar-regularized logistic regression as a bilevel problem.

Inner training loss over the train split (labels y in {-1, +1}):

    L(w, lam) = sum_i log(1 + exp(-y_i <x_i, w>)) + exp(lam) * ||w||^2

Outer objective: the plain validation log-loss at the trained w(lam), with
no regularization term.  The single hyperparameter is the log of the ridge
weight, searched over the declared box [-10, 10].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from ..data_io import SparseDataset, check_splits, design_matrices
from ..errors import DimensionMismatch
from ..inner_solvers import InnerSolver
from ..oracle import ObjectiveSpec
from .synthetic import capped_exp

__all__ = ["LogRegProblem", "logreg_objective", "logreg_test_error"]

LOGREG_BOUNDS = np.array([[-10.0, 10.0]])


def _log_loss_sums(margins: np.ndarray) -> np.ndarray:
    # log(1 + exp(-m)), stable for both signs of m, summed over the rows
    return np.logaddexp(0.0, -margins).sum(axis=0)


@dataclass(frozen=True)
class LogRegProblem:
    """Train/val/test design matrices (dense or CSR) and {-1,+1} label vectors.

    The kernels only use ``@``, so either storage works; ``from_datasets``
    picks one for all three splits with :func:`~hozog.data_io.design_matrices`.
    The splits meet :func:`~hozog.data_io.check_splits` with labels in {-1, +1}.
    """

    x_train: np.ndarray | sp.csr_matrix
    y_train: np.ndarray
    x_val: np.ndarray | sp.csr_matrix
    y_val: np.ndarray
    x_test: np.ndarray | sp.csr_matrix
    y_test: np.ndarray

    p = 1

    def __post_init__(self):
        check_splits(
            (-1.0, 1.0),
            train=(self.x_train, self.y_train),
            val=(self.x_val, self.y_val),
            test=(self.x_test, self.y_test),
        )

    @classmethod
    def from_datasets(
        cls, train: SparseDataset, val: SparseDataset, test: SparseDataset
    ) -> "LogRegProblem":
        x_train, x_val, x_test = design_matrices(train, val, test)
        return cls(
            x_train=x_train,
            y_train=train.labels,
            x_val=x_val,
            y_val=val.labels,
            x_test=x_test,
            y_test=test.labels,
        )

    @property
    def d(self) -> int:
        return self.x_train.shape[1]

    def inner_loss(self, w: np.ndarray, lam: np.ndarray) -> float:
        margins = self.y_train * (self.x_train @ w)
        return float(_log_loss_sums(margins)) + float(capped_exp(lam[0])) * float(w @ w)

    def inner_loss_grad(self, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
        # column j of w is trained with the ridge weight exp(lam[0, j])
        y = self.y_train[:, None]
        margins = y * (self.x_train @ w)
        # d/dm log(1+e^-m) = -sigmoid(-m)
        coeff = -y * expit(-margins)
        return self.x_train.T @ coeff + 2.0 * capped_exp(lam) * w

    def outer_value(self, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
        return _log_loss_sums(self.y_val[:, None] * (self.x_val @ w))

    def test_metric(self, w: np.ndarray) -> float:
        return logreg_test_error(self, w)


def logreg_objective(prob: LogRegProblem, inner: InnerSolver) -> ObjectiveSpec:
    """Spec with p=1 and the declared lam box [-10, 10]."""
    return ObjectiveSpec(problem=prob, inner=inner, bounds=LOGREG_BOUNDS.copy())


def logreg_test_error(prob: LogRegProblem, w: np.ndarray) -> float:
    """Misclassification rate on the test split; zero scores count as errors."""
    w = np.asarray(w, dtype=float)
    if w.shape != (prob.d,):
        raise DimensionMismatch(f"model has shape {w.shape}, expected ({prob.d},)")
    scores = prob.x_test @ w
    correct = (scores * prob.y_test) > 0.0
    return 1.0 - float(np.mean(correct))
