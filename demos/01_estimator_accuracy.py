"""How accurate is the averaged zeroth-order hyper-gradient?
================================================================

The estimator only ever sees function values, so the first thing worth
checking is how close it gets to a gradient we can compute by hand.  The
closed-form bilevel problem gives us exactly that: an analytic df/dlam to
compare against.  ``estimate_hyper_gradient`` is the same estimator the
outer loop steps along: it evaluates the objective at lam and at each
lam + mu*u_i, and returns the base evaluation with the estimate.  (A plain
callable f(lam) goes in through ``function_objective(f, p)``.)
"""

import numpy as np

from hozog import ZoConfig, estimate_hyper_gradient, sample_directions
from hozog.problems import make_synthetic, synthetic_analytic_hypergradient

spec = make_synthetic(c=3.0, w_star=1.0)

rng = np.random.default_rng(0)

print("direction count q vs estimate quality at lam = 1.5")
print(f"analytic gradient: {synthetic_analytic_hypergradient(3.0, 1.0, 1.5):+.6f}")
lam = np.array([1.5])
for q in (1, 4, 16, 64):
    cfg = ZoConfig(q=q, mu=1e-3, gamma=1.0, iterations=0)
    # average over repeated fresh direction sets to expose the variance
    estimates = []
    for _ in range(200):
        dirs = sample_directions(1, q, "sphere", rng)
        _, grad = estimate_hyper_gradient(spec, lam, cfg, dirs)
        estimates.append(grad[0])
    estimates = np.array(estimates)
    print(f"q={q:3d}: mean {estimates.mean():+.6f}  std {estimates.std():.2e}")

print()
print("smoothing radius mu controls the bias")
for mu in (1e-1, 1e-2, 1e-3, 1e-4):
    cfg = ZoConfig(q=32, mu=mu, gamma=1.0, iterations=0)
    dirs = sample_directions(1, 32, "sphere", rng)
    est = estimate_hyper_gradient(spec, lam, cfg, dirs)[1][0]
    true = synthetic_analytic_hypergradient(3.0, 1.0, 1.5)
    print(f"mu={mu:7.0e}: estimate {est:+.6f}  error {abs(est - true):.2e}")
