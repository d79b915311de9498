"""Driving a hyperparameter to its analytic optimum
====================================================

The closed-form problem has inner solution w(lam) = c/(1 + 2 e^lam) and a
known best hyperparameter lam* = ln((c/w* - 1)/2).  Here the full outer
loop runs against the exact oracle and we watch the iterates walk to lam*.
"""

from hozog import ZoConfig, run_hozog
from hozog.problems import make_synthetic, synthetic_optimum

c, w_star = 3.0, 1.0
spec = make_synthetic(c, w_star)
lam_star = synthetic_optimum(c, w_star)
print(f"analytic optimum lam* = {lam_star:.4f}")

trail = []
cfg = ZoConfig(q=3, mu=1e-3, gamma=1.0, iterations=60, seed=7)
final = run_hozog(spec, [2.0], cfg, recorder=lambda e: trail.append(e))

print(f"{'iter':>4}  {'lam':>9}  {'f(lam)':>12}")
for event in trail:
    if event.meta_iter % 10 == 0 or event.evaluation is None:
        f = event.evaluation.f_value if event.evaluation else spec.value(event.hyperparams)
        print(f"{event.meta_iter:4d}  {event.hyperparams[0]:9.5f}  {f:12.3e}")

print(f"\n|lam_T - lam*| = {abs(final[0] - lam_star):.2e}")
print(f"oracle calls: {trail[-1].optimizer_calls} (= T * (q+1))")
