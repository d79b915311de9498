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

from ..data_io import SparseDataset
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
    """Splits, grouping, corruption bookkeeping, and the softmax model shape."""

    x_train: sp.csr_matrix
    y_train: np.ndarray  # noisy labels actually trained on
    y_clean: np.ndarray  # pre-corruption labels, for accounting only
    group_ids: np.ndarray  # group index per training row, in [0, n_groups)
    corrupted: np.ndarray  # bool per training row
    x_val: sp.csr_matrix
    y_val: np.ndarray
    x_test: sp.csr_matrix
    y_test: np.ndarray
    n_classes: int
    n_groups: int

    def __post_init__(self):
        n_tr = self.x_train.shape[0]
        for arr, what in (
            (self.y_train, "y_train"),
            (self.y_clean, "y_clean"),
            (self.group_ids, "group_ids"),
            (self.corrupted, "corrupted"),
        ):
            if arr.shape != (n_tr,):
                raise DimensionMismatch(f"{what} must have one entry per training row")
        groups_seen = np.unique(self.group_ids)
        if groups_seen.min() < 0 or groups_seen.max() >= self.n_groups:
            raise DimensionMismatch("group ids out of range")
        if len(groups_seen) != self.n_groups:
            raise DimensionMismatch("every group must own at least one training row")

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

    def _check_lambda(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (self.n_groups,):
            raise DimensionMismatch(
                f"lambda has shape {lam.shape}, expected ({self.n_groups},)"
            )
        return lam

    def inner_loss(self, w: np.ndarray, lam: np.ndarray) -> float:
        lam = self._check_lambda(lam)
        weights, bias = self.unflatten(w)
        losses = per_sample_cross_entropy(weights, bias, self.x_train, self.y_train)
        return group_weighted_mean(losses, self.group_ids, lam)

    def inner_loss_grad(self, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
        lam = self._check_lambda(lam)
        weights, bias = self.unflatten(w)
        probs = softmax(self.x_train @ weights.T + bias, axis=1)
        probs[np.arange(len(self.y_train)), self.y_train] -= 1.0
        n_tr = self.x_train.shape[0]
        probs *= (expit(lam)[self.group_ids] / n_tr)[:, None]
        grad_w = (self.x_train.T @ probs).T
        grad_b = probs.sum(axis=0)
        return np.concatenate([np.asarray(grad_w).ravel(), grad_b])

    def outer_value(self, w: np.ndarray, lam: np.ndarray) -> float:
        weights, bias = self.unflatten(w)
        return float(np.mean(per_sample_cross_entropy(weights, bias, self.x_val, self.y_val)))

    def test_metric(self, w: np.ndarray) -> float:
        weights, bias = self.unflatten(w)
        return float(np.mean(per_sample_cross_entropy(weights, bias, self.x_test, self.y_test)))


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

    y_clean = y_all[idx_train].copy()
    y_noisy = y_clean.copy()
    n_corrupt = math.ceil(0.5 * n_train)
    corrupt_idx = rng.choice(n_train, size=n_corrupt, replace=False)
    corrupted = np.zeros(n_train, dtype=bool)
    corrupted[corrupt_idx] = True
    for i in corrupt_idx:
        others = np.delete(np.arange(classes.size), y_clean[i])
        y_noisy[i] = others[rng.integers(0, others.size)]

    return HyperCleanProblem(
        x_train=x_all[idx_train],
        y_train=y_noisy,
        y_clean=y_clean,
        group_ids=group_ids,
        corrupted=corrupted,
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
