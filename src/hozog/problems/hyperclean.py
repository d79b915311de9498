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

The training products run on one operand, the training split in the
storage :func:`~hozog.data_io.by_density` picks, whatever storage the split
was given in; the validation and test splits are read as stored.  The
kernels hold the logits of a (d, k) block of models class-major, as a
(K, rows, k) array.  Softmax and cross-entropy then reduce over the leading
class axis, which costs K - 1 elementwise operations over rows x k values;
a reduction over a short last axis pays a cost per row instead.  The one
cross-entropy kernel serves ``inner_loss``, ``outer_value`` and
``test_metric``; ``inner_loss_grad`` runs its softmax in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from ..data_io import SparseDataset, by_density, check_splits, draw_other_class
from ..errors import DimensionMismatch, InsufficientData, InvalidConfig, check_count
from ..inner_solvers import InnerSolver
from ..oracle import ObjectiveSpec

__all__ = [
    "HyperCleanProblem",
    "make_hyperclean",
    "hyperclean_objective",
    "group_corruption_fractions",
]


@dataclass(frozen=True)
class HyperCleanProblem:
    """Splits (dense or CSR), grouping, corruption bookkeeping, and the softmax model shape.

    The kernels only use ``@``, so either storage works; :func:`make_hyperclean`
    builds CSR splits.  The splits meet :func:`~hozog.data_io.check_splits` over
    ``range(n_classes)``, and the labels and group ids are integer arrays.
    The training operand (``x_train`` in the storage
    :func:`~hozog.data_io.by_density` picks) and a class-major one-hot mask of
    the training labels are built once per problem, on the first gradient.  The
    transposed product reads the operand's ``.T``: a CSC view of CSR, or an
    F-ordered view of a dense array that BLAS takes without a copy.
    """

    x_train: np.ndarray | sp.csr_matrix
    y_train: np.ndarray  # noisy labels actually trained on
    y_clean: np.ndarray  # labels before corruption; `corrupted` is y_train != y_clean
    group_ids: np.ndarray  # group index per training row, in [0, n_groups)
    x_val: np.ndarray | sp.csr_matrix
    y_val: np.ndarray
    x_test: np.ndarray | sp.csr_matrix
    y_test: np.ndarray
    n_classes: int
    n_groups: int

    def __post_init__(self):
        check_count(self.n_classes, "n_classes", 0)
        check_count(self.n_groups, "n_groups", 0)
        for name in ("y_train", "y_clean", "y_val", "y_test", "group_ids"):
            dtype = getattr(self, name).dtype
            if not np.issubdtype(dtype, np.integer):
                raise InvalidConfig(f"{name} must be an integer array, got dtype {dtype}")
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

    @cached_property
    def _x_train_op(self):
        """The training matrix the kernels read, in the storage ``by_density`` picks."""
        return by_density(self.x_train)[0]

    @cached_property
    def _label_mask(self) -> np.ndarray:
        """One-hot training labels, class-major, shape (K, n_train, 1)."""
        return (np.arange(self.n_classes)[:, None] == self.y_train).astype(float)[:, :, None]

    def _logits(self, x, w: np.ndarray) -> np.ndarray:
        """Logits of the k models in the columns of ``w``, class-major: shape (K, rows, k).

        The k weight matrices go in as the columns of one (D, K*k) matrix,
        so one product with ``x`` scores every model.
        """
        n_cls, nf, k = self.n_classes, self.n_features, w.shape[1]
        weights = w[: n_cls * nf].reshape(n_cls, nf, k).transpose(1, 0, 2).reshape(nf, n_cls * k)
        scores = (x @ weights).reshape(-1, n_cls, k).transpose(1, 0, 2)
        # into a class-major array: ``scores + bias`` would keep the product's
        # row-major memory order, and the reductions over classes would stride
        return np.add(scores, w[n_cls * nf :, None, :], out=np.empty(scores.shape))

    def _cross_entropy(self, x, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Cross-entropy of each row under each of the k models in ``w``, shape (rows, k).

        The shift by the largest logit keeps ``exp`` finite at any scale.
        """
        shifted = self._logits(x, w)
        shifted -= shifted.max(axis=0)
        return np.log(np.exp(shifted).sum(axis=0)) - shifted[y, np.arange(len(y))]

    def inner_loss(self, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
        losses = self._cross_entropy(self._x_train_op, self.y_train, w)
        return (expit(lam)[self.group_ids] * losses).mean(axis=0)

    def inner_loss_grad(self, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
        n_cls, nf, k = self.n_classes, self.n_features, w.shape[1]
        n_tr = self.x_train.shape[0]
        # softmax in place over the leading class axis, then minus the one-hot label
        resid = self._logits(self._x_train_op, w)
        resid -= resid.max(axis=0)
        np.exp(resid, out=resid)
        resid /= resid.sum(axis=0)
        resid -= self._label_mask
        # column j weighs row i by sigmoid(lam[group of i, j]) / n_tr
        resid *= (expit(lam) / n_tr)[self.group_ids]
        # row-major for the product; its column sums are the bias gradient, and
        # at k > 1 summing them is faster than summing the middle axis of resid
        rows = resid.transpose(1, 0, 2).reshape(n_tr, n_cls * k)
        grad_w = (self._x_train_op.T @ rows).reshape(nf, n_cls, k).transpose(1, 0, 2)
        return np.concatenate([grad_w.reshape(n_cls * nf, k), rows.sum(axis=0).reshape(n_cls, k)])

    def outer_value(self, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
        # a finite but huge model can overflow its logits or their mean: the
        # value is then inf or NaN, which the oracle reports as non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            return self._cross_entropy(self.x_val, self.y_val, w).mean(axis=0)

    def test_metric(self, w: np.ndarray) -> float:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.d,):
            raise DimensionMismatch(f"model has shape {w.shape}, expected ({self.d},)")
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self._cross_entropy(self.x_test, self.y_test, w[:, None]).mean(axis=0)[0])


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
    for name, count in (("n_train", n_train), ("n_val", n_val), ("n_test", n_test),
                        ("n_groups", n_groups), ("corruption_seed", corruption_seed)):
        check_count(count, name, 0)
    if len(dataset) < n_train + n_val + n_test:
        raise InsufficientData(f"dataset has {len(dataset)} rows, need {n_train + n_val + n_test}")
    if not (1 <= n_groups <= n_train):
        raise InsufficientData(f"need 1 <= n_groups <= n_train, got {n_groups}")
    classes, y_all = np.unique(dataset.labels, return_inverse=True)
    if classes.size < 2:
        raise InsufficientData("need at least two classes")
    # CSR even for dense data, unlike logreg's design_matrices: the check in
    # bench/workloads.py calls toarray() on these splits (ROADMAP item 1).
    # The gradient's training operand follows by_density, not this storage.
    x_all = dataset.x

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
    corrupt_idx = rng.choice(n_train, size=math.ceil(0.5 * n_train), replace=False)
    y_noisy = y_clean.copy()
    y_noisy[corrupt_idx] = draw_other_class(y_clean[corrupt_idx], classes.size, rng)

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
