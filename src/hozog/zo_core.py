"""The outer loop: averaged zeroth-order hyper-gradients and plain descent.

One meta-iteration draws q random directions u_1..u_q, evaluates the
black-box objective once at lam and once at each lam + mu*u_i, and combines
the differences into the estimate

    g_hat = (p / (mu * q)) * sum_i (f(lam + mu*u_i) - f(lam)) * u_i

followed by the update lam <- lam - gamma * g_hat.  The base value f(lam)
is computed once per meta-iteration and shared across all q difference
terms.  With directions drawn uniformly on the unit sphere the p/(mu*q)
scale makes the estimate unbiased for linear objectives.  Raw Gaussian
directions are available behind the config enum; they already have
E[u u^T] = I, so that scheme uses the Gaussian-smoothing scale 1/(mu*q)
(Nesterov & Spokoiny 2017) instead.

:func:`estimate_hyper_gradient` is the one estimator, and each
meta-iteration of :func:`run_hozog` steps along it.  Its q+1 evaluations
are independent of each other; each goes through
:func:`~hozog.oracle.evaluate`, the k=1 case of the block solve, one after
another in direction order.  A plain callable f(lam) is estimated through
:func:`~hozog.oracle.function_objective`.  All directions are drawn
up-front from a single seeded stream as one (q, p) block.
:func:`combine_differences` is plain arithmetic over the values already
evaluated: one numpy reduction over that block, adding the q weighted rows
in direction-index order (for p = 1 numpy sums the single column pairwise)
and calling no BLAS routine, so its result does not depend on the BLAS
build or thread count.  The trajectory is therefore a deterministic
function of (spec, lambda0, config).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NonFiniteObjective, check_count, check_positive
from .oracle import Evaluation, ObjectiveSpec, check_lambda, evaluate
# Not called here.  bench/tracer.py patches zo_core.evaluate_batch by name, so
# the import stays until the tracer counts block-solved points (ROADMAP item 1).
from .oracle import evaluate_batch  # noqa: F401

__all__ = [
    "ZoConfig",
    "IterationEvent",
    "sample_directions",
    "combine_differences",
    "estimate_hyper_gradient",
    "hozog_step",
    "run_hozog",
]

DIRECTION_SCHEMES = ("sphere", "gaussian")


@dataclass(frozen=True)
class ZoConfig:
    """Estimator and loop constants.

    q: directions per meta-iteration (q+1 oracle calls each).
    mu: smoothing radius; smaller is less biased but more noise-sensitive.
    gamma: outer learning rate.
    iterations: meta-iteration budget T (the only stopping rule).
    direction_scheme: 'sphere' (default, scale p/(mu*q)) or 'gaussian'
        (raw normal directions, scale 1/(mu*q)).
    """

    q: int
    mu: float
    gamma: float
    iterations: int
    seed: int = 0
    direction_scheme: str = "sphere"

    def __post_init__(self):
        check_count(self.q, "q", 1)
        check_positive(self.mu, "mu")
        check_positive(self.gamma, "gamma")
        check_count(self.iterations, "iterations", 0)
        check_count(self.seed, "seed", 0)
        if self.direction_scheme not in DIRECTION_SCHEMES:
            raise InvalidConfig(f"direction_scheme must be one of {DIRECTION_SCHEMES}, "
                                f"got {self.direction_scheme!r}")


@dataclass(frozen=True)
class IterationEvent:
    """One evaluated iterate, as a trace recorder sees it.

    ``evaluation`` is the oracle evaluation at ``hyperparams``, reusable by
    the recorder at no extra oracle cost.  ``gradient`` is the estimate the
    step from this iterate follows, None from a method that makes none.
    ``optimizer_calls`` is the cumulative optimizer-driven oracle count.
    """

    meta_iter: int
    hyperparams: np.ndarray
    evaluation: Evaluation
    gradient: np.ndarray | None
    optimizer_calls: int


def sample_directions(p: int, q: int, scheme: str, rng: np.random.Generator) -> np.ndarray:
    """Draw q direction vectors of length p as a (q, p) array.

    'sphere' normalizes Gaussian draws to unit Euclidean norm; 'gaussian'
    returns the raw standard-normal draws.  Drawing is a pure function of
    the generator state, so replaying a seed reproduces the set exactly.
    """
    check_count(p, "p", 1)
    check_count(q, "q", 1)
    u = rng.standard_normal((q, p))
    if scheme == "gaussian":
        return u
    if scheme != "sphere":
        raise InvalidConfig(f"unknown direction scheme {scheme!r}")
    norms = np.linalg.norm(u, axis=1)
    while np.any(norms == 0.0):  # measure-zero, but never divide by zero
        redo = norms == 0.0
        u[redo] = rng.standard_normal((int(redo.sum()), p))
        norms = np.linalg.norm(u, axis=1)
    return u / norms[:, None]


def combine_differences(
    f_base: float, values: np.ndarray, directions: np.ndarray, cfg: ZoConfig
) -> np.ndarray:
    """The averaged estimate from f(lam) and the q values f(lam + mu*u_i).

    ``directions`` holds the u_i as its rows.  Plain arithmetic: the q
    weighted directions are summed by one numpy reduction over the (q, p)
    block (no BLAS), in direction-index order.
    """
    dim_scale = directions.shape[1] if cfg.direction_scheme == "sphere" else 1
    scale = dim_scale / (cfg.mu * cfg.q)
    return ((np.asarray(values) - f_base)[:, None] * directions).sum(axis=0) * scale


def estimate_hyper_gradient(
    spec: ObjectiveSpec, lam: np.ndarray, cfg: ZoConfig, directions: np.ndarray
) -> tuple[Evaluation, np.ndarray]:
    """The averaged hyper-gradient of ``spec`` at ``lam`` from q+1 evaluations.

    ``directions`` holds the q directions u_i as its (q, p) rows.  lam is
    evaluated first, then each lam + mu*u_i in direction-index order, so a
    non-finite value raises from :func:`~hozog.oracle.evaluate` at the base
    point before any perturbed point runs, else at the first bad perturbed
    point.  Returns the base evaluation and the estimate.
    """
    directions = np.asarray(directions, dtype=float)
    if directions.shape != (cfg.q, spec.p):
        raise InvalidConfig(
            f"direction set has shape {directions.shape}, expected ({cfg.q}, {spec.p})"
        )
    base = evaluate(spec, lam)
    values = np.array([evaluate(spec, point).f_value for point in lam + cfg.mu * directions])
    return base, combine_differences(base.f_value, values, directions, cfg)


def hozog_step(lam: np.ndarray, grad: np.ndarray, gamma: float) -> np.ndarray:
    """One plain descent update, lam - gamma*grad; the input is not modified."""
    grad = np.asarray(grad, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if grad.shape != lam.shape:
        raise InvalidConfig(
            f"gradient shape {grad.shape} does not match lambda shape {lam.shape}"
        )
    return lam - gamma * grad


def run_hozog(
    spec: ObjectiveSpec,
    lambda0,
    cfg: ZoConfig,
    recorder=None,
    max_workers: int = 1,
) -> np.ndarray:
    """Run T meta-iterations of zeroth-order hyper-gradient descent.

    Returns lambda_T.  Each meta-iteration steps along
    :func:`estimate_hyper_gradient`.  The recorder, when given, is called
    with one :class:`IterationEvent` per meta-iteration: the pre-update
    iterate, its base evaluation and the estimate it steps along.  lambda_T
    is never evaluated by the loop, so it is the return value only.
    Optimizer-driven oracle calls total exactly T*(q+1); anything else is
    the recorder's own business.  A non-finite objective aborts the run
    with the meta-iteration index attached: a silently clipped estimate
    would corrupt the descent direction.  ``lambda0`` is checked like any
    evaluated point, up front.  ``max_workers`` is accepted for
    compatibility and has no effect: evaluations always run in sequence.
    """
    lam = check_lambda(spec, lambda0).copy()
    rng = np.random.default_rng(cfg.seed)
    calls = 0
    for t in range(cfg.iterations):
        directions = sample_directions(spec.p, cfg.q, cfg.direction_scheme, rng)
        try:
            base, grad = estimate_hyper_gradient(spec, lam, cfg, directions)
        except NonFiniteObjective as err:
            err.meta_iter = t
            raise
        calls += cfg.q + 1
        if recorder is not None:
            recorder(IterationEvent(meta_iter=t, hyperparams=lam.copy(), evaluation=base,
                                    gradient=grad, optimizer_calls=calls))
        lam = hozog_step(lam, grad, cfg.gamma)
        if spec.bounds is not None:
            lam = np.clip(lam, spec.bounds[:, 0], spec.bounds[:, 1])
    return lam
