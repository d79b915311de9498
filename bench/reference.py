"""Standalone reference computations for checking hozog's outputs.

Nothing here imports hozog.  Each function restates, in plain dense numpy,
a rule the package documents: the 2:1:1 split, the ridge-logistic inner
loss with a bias-corrected Adam solve, the group-weighted softmax loss with
a GD solve, and the closed-form GD iterate of the synthetic problem.  The
benchmark compares the package's outputs against these.
"""

from __future__ import annotations

import math

import numpy as np

EXP_CAP = 700.0


def split_2_1_1(n: int, seed: int):
    """Row indices of the seeded 2:1:1 split: shuffle, cut at n//2 and 3n//4."""
    order = np.random.default_rng(seed).permutation(n)
    cut1, cut2 = n // 2, (3 * n) // 4
    return order[:cut1], order[cut1:cut2], order[cut2:]


def uniform_box_samples(seed: int, count: int, lo: float, hi: float) -> np.ndarray:
    """``count`` scalar draws from U[lo, hi) by one seeded generator."""
    return lo + (hi - lo) * np.random.default_rng(seed).random((count, 1))


# --- ridge-regularized logistic regression -----------------------------------


def logreg_grad(x: np.ndarray, y: np.ndarray, w: np.ndarray, lam: float) -> np.ndarray:
    """Gradient of sum_i log(1 + exp(-y_i x_i.w)) + e^lam ||w||^2."""
    margins = y * (x @ w)
    coeff = -y / (1.0 + np.exp(margins))
    return x.T @ coeff + 2.0 * math.exp(min(lam, EXP_CAP)) * w


def logreg_loss(x: np.ndarray, y: np.ndarray, w: np.ndarray, lam: float) -> float:
    margins = y * (x @ w)
    reg = math.exp(min(lam, EXP_CAP))
    return float(np.logaddexp(0.0, -margins).sum() + reg * (w @ w))


def log_loss_sum(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """Unregularized summed logistic loss, the logreg outer objective."""
    return float(np.logaddexp(0.0, -y * (x @ w)).sum())


def adam(grad, w0: np.ndarray, steps: int, lr: float,
         beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> np.ndarray:
    """``steps`` Adam updates with bias-corrected moments, from ``w0``."""
    w = w0.copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t in range(1, steps + 1):
        g = grad(w)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def logreg_value(x_tr, y_tr, x_val, y_val, lam: float, steps: int, lr: float) -> float:
    """Validation log-loss sum after Adam from 0 on the ridge-logistic loss."""
    w = adam(lambda v: logreg_grad(x_tr, y_tr, v, lam), np.zeros(x_tr.shape[1]), steps, lr)
    return log_loss_sum(x_val, y_val, w)


# --- group-weighted softmax regression (hyper-cleaning) ----------------------


def _softmax_parts(x, w, n_classes):
    k, nf = n_classes, x.shape[1]
    weights, bias = w[: k * nf].reshape(k, nf), w[k * nf :]
    logits = x @ weights.T + bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    return shifted, log_norm


def cross_entropies(x, y, w, n_classes) -> np.ndarray:
    shifted, log_norm = _softmax_parts(x, w, n_classes)
    return log_norm - shifted[np.arange(len(y)), y]


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


def softmax_weighted_loss(x, y, groups, lam, w, n_classes) -> float:
    """(1/n) sum_i sigmoid(lam[group_i]) * ce_i(w)."""
    ce = cross_entropies(x, y, w, n_classes)
    return float(np.sum(sigmoid(lam)[groups] * ce) / x.shape[0])


def softmax_weighted_grad(x, y, groups, lam, w, n_classes) -> np.ndarray:
    shifted, log_norm = _softmax_parts(x, w, n_classes)
    probs = np.exp(shifted - log_norm[:, None])
    probs[np.arange(len(y)), y] -= 1.0
    probs *= (sigmoid(lam)[groups] / x.shape[0])[:, None]
    return np.concatenate([(probs.T @ x).ravel(), probs.sum(axis=0)])


def gd(grad, w0: np.ndarray, steps: int, lr: float) -> np.ndarray:
    w = w0.copy()
    for _ in range(steps):
        w = w - lr * grad(w)
    return w


def hyperclean_value(x_tr, y_tr, groups, x_val, y_val, lam, n_classes, steps, lr) -> float:
    """Validation mean cross-entropy after GD on the group-weighted loss from 0."""
    d = n_classes * x_tr.shape[1] + n_classes
    w = gd(lambda v: softmax_weighted_grad(x_tr, y_tr, groups, lam, v, n_classes),
           np.zeros(d), steps, lr)
    return float(np.mean(cross_entropies(x_val, y_val, w, n_classes)))


# --- the synthetic problem ----------------------------------------------------


def synthetic_gd_iterate(c: float, lam, eta: float, steps: int):
    """Closed form of GD from w_0 = 0 on 0.5(w-c)^2 + e^lam w^2.

    Each step is w <- (1 - eta*a) w + eta*c with a = 1 + 2e^lam, so
    w_T = (c/a) (1 - (1 - eta*a)^T).
    """
    a = 1.0 + 2.0 * np.exp(np.minimum(lam, EXP_CAP))
    return (c / a) * (1.0 - (1.0 - eta * a) ** steps)


def synthetic_value(c: float, w_star: float, lam, eta: float, steps: int):
    return 0.5 * (synthetic_gd_iterate(c, lam, eta, steps) - w_star) ** 2


def max_pair_ratio(first: np.ndarray, second: np.ndarray, f_first, f_second) -> float:
    """max_i |f(x1_i) - f(x2_i)| / ||x1_i - x2_i|| over pairs with distinct points."""
    gaps = np.linalg.norm(first - second, axis=1)
    keep = gaps > 0.0
    if not np.any(keep):
        return 0.0
    return float(np.max(np.abs(f_first - f_second)[keep] / gaps[keep]))
