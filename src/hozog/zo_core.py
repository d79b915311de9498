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

The q+1 evaluations of a meta-iteration are independent of each other and
run one after another.  All directions are drawn up-front from a single
seeded stream as one (q, p) block, and the combine is one numpy reduction
over that block.  It adds the q weighted rows in direction-index order
(for p = 1 numpy sums the single column pairwise), whatever order the
oracle computed the values in, and it calls no BLAS routine, so its result
does not depend on the BLAS build or thread count.  The trajectory is
therefore a deterministic function of (spec, lambda0, config).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NonFiniteObjective
from .oracle import Evaluation, ObjectiveSpec, evaluate, evaluate_batch

__all__ = [
    "ZoConfig",
    "GradientEstimate",
    "IterationEvent",
    "sample_directions",
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
        if self.q < 1:
            raise InvalidConfig(f"q must be >= 1, got {self.q}")
        if not self.mu > 0:
            raise InvalidConfig(f"mu must be > 0, got {self.mu}")
        if not self.gamma > 0:
            raise InvalidConfig(f"gamma must be > 0, got {self.gamma}")
        if self.iterations < 0:
            raise InvalidConfig(f"iterations must be >= 0, got {self.iterations}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.direction_scheme not in DIRECTION_SCHEMES:
            raise InvalidConfig(
                f"direction_scheme must be one of {DIRECTION_SCHEMES}, "
                f"got {self.direction_scheme!r}"
            )


@dataclass(frozen=True)
class GradientEstimate:
    """An averaged zeroth-order hyper-gradient and its oracle-call cost."""

    vector: np.ndarray
    eval_count: int

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


@dataclass(frozen=True)
class IterationEvent:
    """What a trace recorder sees once per meta-iteration.

    ``evaluation`` is the base oracle evaluation at this iterate, reusable
    by the recorder at no extra oracle cost; it is None on the final event
    (the returned lambda_T, which the loop itself never evaluates).
    ``optimizer_calls`` is the cumulative optimizer-driven oracle count.
    """

    meta_iter: int
    hyperparams: np.ndarray
    evaluation: Evaluation | None
    gradient: GradientEstimate | None
    optimizer_calls: int
    final: bool = False


def sample_directions(p: int, q: int, scheme: str, rng: np.random.Generator) -> np.ndarray:
    """Draw q direction vectors of length p as a (q, p) array.

    'sphere' normalizes Gaussian draws to unit Euclidean norm; 'gaussian'
    returns the raw standard-normal draws.  Drawing is a pure function of
    the generator state, so replaying a seed reproduces the set exactly.
    """
    if p < 1 or q < 1:
        raise InvalidConfig(f"need p >= 1 and q >= 1, got p={p}, q={q}")
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


def estimate_hyper_gradient(
    lam: np.ndarray,
    oracle,
    cfg: ZoConfig,
    directions: np.ndarray,
    batch_oracle=None,
) -> GradientEstimate:
    """Averaged zeroth-order hyper-gradient at lam from a pre-drawn direction set.

    ``oracle`` is a plain callable f(lam) -> float.  ``batch_oracle``, when
    given, maps the (q, p) array of perturbed points to their q values.  The
    oracle is asked for f(lam) once, reused across all difference terms, so
    a caller that already holds f(lam) can pass it as ``lambda _: value``.
    f(lam) is checked before any perturbed point runs; a non-finite
    perturbed value names the first such point.  The q weighted directions
    are summed by one numpy reduction over the (q, p) block (no BLAS), so
    the estimate does not depend on the order the values were computed in.
    The estimate accounts for q+1 oracle values.
    """
    lam = np.asarray(lam, dtype=float)
    p = lam.shape[0]
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape != (cfg.q, p):
        raise InvalidConfig(
            f"direction set has shape {directions.shape}, expected ({cfg.q}, {p})"
        )
    f_base = float(oracle(lam))
    _require_finite(np.array([f_base]), lam[None])
    points = lam + cfg.mu * directions
    if batch_oracle is None:
        batch_oracle = lambda xs: [oracle(x) for x in xs]
    values = np.array([float(v) for v in batch_oracle(points)])
    _require_finite(values, points)
    dim_scale = p if cfg.direction_scheme == "sphere" else 1
    scale = dim_scale / (cfg.mu * cfg.q)
    vector = ((values - f_base)[:, None] * directions).sum(axis=0) * scale
    return GradientEstimate(vector=vector, eval_count=cfg.q + 1)


def _require_finite(values: np.ndarray, points: np.ndarray) -> None:
    """Raise on the first non-finite value, naming the point it came from."""
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteObjective(
            f"oracle returned {values[i]} at lam={np.array2string(points[i], threshold=8)}",
            hyperparams=points[i],
        )


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

    Returns lambda_T.  The recorder, when given, is called with one
    :class:`IterationEvent` per meta-iteration (covering the pre-update
    iterate and its base evaluation) plus a final event for lambda_T.
    Optimizer-driven oracle calls total exactly T*(q+1); anything else is
    the recorder's own business.  A non-finite objective aborts the run
    with the meta-iteration index attached: a silently clipped estimate
    would corrupt the descent direction.  ``max_workers`` is accepted for
    compatibility and has no effect: evaluations always run in sequence.
    """
    lam = np.asarray(lambda0, dtype=float).copy()
    if lam.ndim == 0:
        lam = lam.reshape(1)
    p = spec.p
    if lam.shape != (p,):
        raise InvalidConfig(f"lambda0 has shape {lam.shape}, expected ({p},)")
    rng = np.random.default_rng(cfg.seed)

    def batch_oracle(points):
        return [e.f_value for e in evaluate_batch(spec, points)]

    calls = 0
    for t in range(cfg.iterations):
        directions = sample_directions(p, cfg.q, cfg.direction_scheme, rng)
        try:
            base = evaluate(spec, lam)
            grad = estimate_hyper_gradient(
                lam, lambda _: base.f_value, cfg, directions, batch_oracle=batch_oracle
            )
        except NonFiniteObjective as err:
            err.meta_iter = t
            raise
        calls += grad.eval_count
        if recorder is not None:
            recorder(
                IterationEvent(
                    meta_iter=t,
                    hyperparams=lam.copy(),
                    evaluation=base,
                    gradient=grad,
                    optimizer_calls=calls,
                )
            )
        lam = hozog_step(lam, grad.vector, cfg.gamma)
        if spec.bounds is not None:
            lam = np.clip(lam, spec.bounds[:, 0], spec.bounds[:, 1])
    if recorder is not None:
        recorder(
            IterationEvent(
                meta_iter=cfg.iterations,
                hyperparams=lam.copy(),
                evaluation=None,
                gradient=None,
                optimizer_calls=calls,
                final=True,
            )
        )
    return lam
