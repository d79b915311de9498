"""Scalar-regularized logistic regression as a bilevel problem.

Inner training loss over the train split (labels y in {-1, +1}):

    L(w, lam) = sum_i log(1 + exp(-y_i <x_i, w>)) + exp(lam) * ||w||^2

Outer objective: the plain validation log-loss at the trained w(lam), with
no regularization term.  The single hyperparameter is the log of the ridge
weight, searched over the declared box [-10, 10].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ..data_io import SparseDataset, check_splits, design_matrices
from ..errors import DimensionMismatch
from ..inner_solvers import InnerSolver
from ..oracle import ObjectiveSpec
from .synthetic import capped_exp

__all__ = ["LogRegProblem", "logreg_objective"]

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
        return cls(x_train, train.labels, x_val, val.labels, x_test, test.labels)

    @property
    def d(self) -> int:
        return self.x_train.shape[1]

    @cached_property
    def _z_train(self):
        """The signed training matrix diag(y_train) @ x_train, in x_train's storage.

        Row i is y_i x_i, so ``Z @ w`` gives every training margin in one
        product.  Scaling by +-1 is exact, and a CSR ``Z`` keeps x_train's
        stored entries in their order (``sp.diags(y) @ x`` would reorder
        them), so a margin sums the same products in the same order as
        ``y * (x_train @ w)``.
        """
        y = self.y_train[:, None]
        if sp.issparse(self.x_train):
            return self.x_train.multiply(y).tocsr()
        return y * self.x_train

    def inner_loss(self, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
        return _log_loss_sums(self._z_train @ w) + capped_exp(lam[0]) * (w * w).sum(axis=0)

    def inner_loss_grad(self, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
        # column j of w is trained with the ridge weight exp(lam[0, j]).  With
        # margins m = Z @ w, d/dm log(1 + e^-m) = -s, s = 1/(1 + e^m), built in
        # place; a margin past exp's range gives e^m = inf, so s is exactly 0
        s = self._z_train @ w
        with np.errstate(over="ignore"):
            np.exp(s, out=s)
        s += 1.0
        np.reciprocal(s, out=s)
        # Z.T is a view (CSC over a CSR Z's arrays), so no transpose is copied
        return 2.0 * capped_exp(lam) * w - self._z_train.T @ s

    def outer_value(self, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
        # a finite but huge model can overflow its margins or their sum: the
        # value is then inf, which the oracle reports as a non-finite objective
        with np.errstate(over="ignore", invalid="ignore"):
            return _log_loss_sums(self.y_val[:, None] * (self.x_val @ w))

    def test_metric(self, w: np.ndarray) -> float:
        """Misclassification rate on the test split; zero scores count as errors."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.d,):
            raise DimensionMismatch(f"model has shape {w.shape}, expected ({self.d},)")
        return 1.0 - float(np.mean((self.x_test @ w) * self.y_test > 0.0))


def logreg_objective(prob: LogRegProblem, inner: InnerSolver) -> ObjectiveSpec:
    """Spec with p=1 and the declared lam box [-10, 10]."""
    return ObjectiveSpec(problem=prob, inner=inner, bounds=LOGREG_BOUNDS.copy())
