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

from ..data_io import SparseDataset
from ..errors import DimensionMismatch, EmptySplit
from ..inner_solvers import InnerSolver
from ..oracle import ObjectiveSpec
from .synthetic import _EXP_CAP

__all__ = ["LogRegProblem", "logreg_objective", "logreg_test_error"]

LOGREG_BOUNDS = np.array([[-10.0, 10.0]])


def _log_loss_sum(margins: np.ndarray) -> float:
    # log(1 + exp(-m)), stable for both signs of m
    return float(np.logaddexp(0.0, -margins).sum())


@dataclass(frozen=True)
class LogRegProblem:
    """Train/val/test design matrices (CSR) and {-1,+1} label vectors."""

    x_train: sp.csr_matrix
    y_train: np.ndarray
    x_val: sp.csr_matrix
    y_val: np.ndarray
    x_test: sp.csr_matrix
    y_test: np.ndarray

    p = 1

    def __post_init__(self):
        dims = {m.shape[1] for m in (self.x_train, self.x_val, self.x_test)}
        if len(dims) != 1:
            raise DimensionMismatch(f"feature dimensions differ across splits: {dims}")
        for split, x, y in (
            ("train", self.x_train, self.y_train),
            ("val", self.x_val, self.y_val),
            ("test", self.x_test, self.y_test),
        ):
            if x.shape[0] != y.shape[0]:
                raise DimensionMismatch(f"{split}: {x.shape[0]} rows vs {y.shape[0]} labels")
            if split != "test" and x.shape[0] == 0:
                raise EmptySplit(f"{split} split is empty")
            if y.size and not np.all(np.isin(y, (-1.0, 1.0))):
                raise DimensionMismatch(f"{split} labels must be in {{-1, +1}}")

    @classmethod
    def from_datasets(
        cls, train: SparseDataset, val: SparseDataset, test: SparseDataset
    ) -> "LogRegProblem":
        n_features = max(train.n_features, val.n_features, test.n_features)
        return cls(
            x_train=train.to_csr(n_features),
            y_train=train.labels,
            x_val=val.to_csr(n_features),
            y_val=val.labels,
            x_test=test.to_csr(n_features),
            y_test=test.labels,
        )

    @property
    def d(self) -> int:
        return self.x_train.shape[1]

    def inner_loss(self, w: np.ndarray, lam: np.ndarray) -> float:
        margins = self.y_train * (self.x_train @ w)
        reg = np.exp(min(float(lam[0]), _EXP_CAP))
        return _log_loss_sum(margins) + reg * float(w @ w)

    def inner_loss_grad(self, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
        margins = self.y_train * (self.x_train @ w)
        # d/dm log(1+e^-m) = -sigmoid(-m)
        coeff = -self.y_train * expit(-margins)
        reg = np.exp(min(float(lam[0]), _EXP_CAP))
        return self.x_train.T @ coeff + 2.0 * reg * w

    def outer_value(self, w: np.ndarray, lam: np.ndarray) -> float:
        return _log_loss_sum(self.y_val * (self.x_val @ w))

    def test_metric(self, w: np.ndarray) -> float:
        return logreg_test_error(self, w)


def logreg_objective(prob: LogRegProblem, inner: InnerSolver) -> ObjectiveSpec:
    """Spec with p=1 and the declared lam box [-10, 10]."""
    return ObjectiveSpec(problem=prob, inner=inner, bounds=LOGREG_BOUNDS.copy())


def logreg_test_error(prob: LogRegProblem, w: np.ndarray) -> float:
    """Misclassification rate on the test split; zero scores count as errors."""
    if prob.x_test.shape[0] == 0:
        raise EmptySplit("test split is empty")
    w = np.asarray(w, dtype=float)
    if w.shape != (prob.d,):
        raise DimensionMismatch(f"model has shape {w.shape}, expected ({prob.d},)")
    scores = prob.x_test @ w
    correct = (scores * prob.y_test) > 0.0
    return 1.0 - float(np.mean(correct))
