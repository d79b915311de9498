"""Data hyper-cleaning: per-group sigmoid weights on noisy training data.

A softmax-regression model (weights W, bias b) is trained on a label-noise
training set whose examples are partitioned into groups.  Each group g
carries one hyperparameter lam_g, and its examples enter the training loss
weighted by sigmoid(lam_g):

    L(W, b) = (1/N_tr) * sum_g sum_{i in g} sigmoid(lam_g) * ce_i(W, b)

The outer objective is the unweighted mean cross-entropy on a clean
validation split, so driving the weights of noisy groups down is what the
hyperparameter search should discover.  Half the training labels (rounded
up) are corrupted at construction time, matching the experimental rule
this task is defined by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit, log_softmax, softmax

from ..data_io import SparseDataset, check_splits
from ..errors import DimensionMismatch, InsufficientData
from ..inner_solvers import InnerSolver
from ..oracle import ObjectiveSpec

__all__ = [
    "HyperCleanProblem",
    "make_hyperclean",
    "hyperclean_objective",
    "per_sample_cross_entropy",
    "group_weighted_mean",
    "group_corruption_fractions",
]


def per_sample_cross_entropy(weights: np.ndarray, bias: np.ndarray, x, y: np.ndarray) -> np.ndarray:
    """Cross-entropy of each example under softmax(x @ W.T + b)."""
    logits = x @ weights.T + bias
    return -log_softmax(logits, axis=1)[np.arange(len(y)), y]


def group_weighted_mean(losses: np.ndarray, group_ids: np.ndarray, lam: np.ndarray) -> float:
    """Mean of per-sample losses, each scaled by sigmoid(lam[group])."""
    if losses.shape != group_ids.shape:
        raise DimensionMismatch("losses and group ids must align")
    weights = expit(np.asarray(lam, dtype=float))[group_ids]
    return float(np.sum(weights * losses) / losses.shape[0])


@dataclass(frozen=True)
class HyperCleanProblem:
    """Splits, grouping, corruption bookkeeping, and the softmax model shape.

    The splits meet :func:`~hozog.data_io.check_splits` over ``range(n_classes)``.
    """

    x_train: sp.csr_matrix
    y_train: np.ndarray  # noisy labels actually trained on
    y_clean: np.ndarray  # labels before corruption; `corrupted` is y_train != y_clean
    group_ids: np.ndarray  # group index per training row, in [0, n_groups)
    x_val: sp.csr_matrix
    y_val: np.ndarray
    x_test: sp.csr_matrix
    y_test: np.ndarray
    n_classes: int
    n_groups: int

    def __post_init__(self):
        check_splits(
            range(self.n_classes),
            train=(self.x_train, self.y_train),
            val=(self.x_val, self.y_val),
            test=(self.x_test, self.y_test),
        )
        n_tr = self.x_train.shape[0]
        for arr, what in ((self.y_clean, "y_clean"), (self.group_ids, "group_ids")):
            if arr.shape != (n_tr,):
                raise DimensionMismatch(f"{what} must have one entry per training row")
        groups_seen = np.unique(self.group_ids)
        if groups_seen.min() < 0 or groups_seen.max() >= self.n_groups:
            raise DimensionMismatch("group ids out of range")
        if len(groups_seen) != self.n_groups:
            raise DimensionMismatch("every group must own at least one training row")

    @property
    def corrupted(self) -> np.ndarray:
        return self.y_train != self.y_clean

    @property
    def p(self) -> int:
        return self.n_groups

    @property
    def n_features(self) -> int:
        return self.x_train.shape[1]

    @property
    def d(self) -> int:
        # flattened (W, b): K*D weights then K biases
        return self.n_classes * self.n_features + self.n_classes

    def unflatten(self, w: np.ndarray):
        k, nf = self.n_classes, self.n_features
        return w[: k * nf].reshape(k, nf), w[k * nf :]

    def _logits(self, x, w: np.ndarray) -> np.ndarray:
        """Logits of the k models in the columns of ``w``, shape (rows, k, K).

        The k weight matrices go in as the columns of one (D, k*K) matrix,
        so one product with ``x`` scores every model.
        """
        n_cls, nf, k = self.n_classes, self.n_features, w.shape[1]
        weights = w[: n_cls * nf].reshape(n_cls, nf, k).transpose(1, 2, 0).reshape(nf, k * n_cls)
        return (x @ weights).reshape(-1, k, n_cls) + w[n_cls * nf :].T

    def _mean_cross_entropy(self, x, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Mean cross-entropy over the rows of each of the k models in ``w``."""
        return -log_softmax(self._logits(x, w), axis=2)[np.arange(len(y)), :, y].mean(axis=0)

    def inner_loss(self, w: np.ndarray, lam: np.ndarray) -> float:
        weights, bias = self.unflatten(w)
        losses = per_sample_cross_entropy(weights, bias, self.x_train, self.y_train)
        return group_weighted_mean(losses, self.group_ids, lam)

    def inner_loss_grad(self, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
        n_cls, nf, k = self.n_classes, self.n_features, w.shape[1]
        n_tr = self.x_train.shape[0]
        probs = softmax(self._logits(self.x_train, w), axis=2)
        probs[np.arange(n_tr), :, self.y_train] -= 1.0
        # column j weighs row i by sigmoid(lam[group of i, j])
        probs *= (expit(lam)[self.group_ids] / n_tr)[:, :, None]
        grad_w = self.x_train.T @ probs.reshape(n_tr, k * n_cls)
        grad_w = grad_w.reshape(nf, k, n_cls).transpose(2, 0, 1).reshape(n_cls * nf, k)
        return np.concatenate([grad_w, probs.sum(axis=0).T])

    def outer_value(self, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
        return self._mean_cross_entropy(self.x_val, self.y_val, w)

    def test_metric(self, w: np.ndarray) -> float:
        return float(self._mean_cross_entropy(self.x_test, self.y_test, w[:, None])[0])


def make_hyperclean(
    dataset: SparseDataset,
    n_train: int,
    n_val: int,
    n_test: int,
    n_groups: int,
    corruption_seed: int,
) -> HyperCleanProblem:
    """Build the task from a labeled dataset, deterministically per seed.

    The dataset is shuffled and cut into the three splits; training rows are
    shuffled again and grouped into ``n_groups`` contiguous blocks of as
    equal size as possible; ceil(n_train/2) training rows get a label drawn
    uniformly from the other classes.
    """
    if len(dataset) < n_train + n_val + n_test:
        raise InsufficientData(
            f"dataset has {len(dataset)} rows, need {n_train + n_val + n_test}"
        )
    if not (1 <= n_groups <= n_train):
        raise InsufficientData(f"need 1 <= n_groups <= n_train, got {n_groups}")
    classes, y_all = np.unique(dataset.labels, return_inverse=True)
    if classes.size < 2:
        raise InsufficientData("need at least two classes")
    # CSR even for dense data, unlike logreg's design_matrices: the check in
    # bench/workloads.py calls toarray() on these splits (ROADMAP item 1)
    x_all = dataset.to_csr()

    rng = np.random.default_rng(corruption_seed)
    order = rng.permutation(len(dataset))
    idx_train = order[:n_train]
    idx_val = order[n_train : n_train + n_val]
    idx_test = order[n_train + n_val : n_train + n_val + n_test]

    # contiguous blocks over a fresh shuffle of the training rows
    group_order = rng.permutation(n_train)
    block_sizes = np.full(n_groups, n_train // n_groups, dtype=int)
    block_sizes[: n_train % n_groups] += 1
    group_ids = np.empty(n_train, dtype=int)
    group_ids[group_order] = np.repeat(np.arange(n_groups), block_sizes)

    y_clean = y_all[idx_train]
    n_corrupt = math.ceil(0.5 * n_train)
    corrupt_idx = rng.choice(n_train, size=n_corrupt, replace=False)
    # a draw r among the K-1 other classes skips the clean label
    r = rng.integers(0, classes.size - 1, size=n_corrupt)
    y_noisy = y_clean.copy()
    y_noisy[corrupt_idx] = r + (r >= y_clean[corrupt_idx])

    return HyperCleanProblem(
        x_train=x_all[idx_train],
        y_train=y_noisy,
        y_clean=y_clean,
        group_ids=group_ids,
        x_val=x_all[idx_val],
        y_val=y_all[idx_val],
        x_test=x_all[idx_test],
        y_test=y_all[idx_test],
        n_classes=int(classes.size),
        n_groups=n_groups,
    )


def hyperclean_objective(prob: HyperCleanProblem, inner: InnerSolver) -> ObjectiveSpec:
    """Spec with p = number of groups and an unbounded lam domain."""
    return ObjectiveSpec(problem=prob, inner=inner, bounds=None)


def group_corruption_fractions(prob: HyperCleanProblem) -> np.ndarray:
    """Fraction of corrupted rows in each group, shape (n_groups,)."""
    counts = np.bincount(prob.group_ids, minlength=prob.n_groups)
    bad = np.bincount(prob.group_ids, weights=prob.corrupted.astype(float), minlength=prob.n_groups)
    return bad / counts
