"""Tuning a ridge weight for logistic regression, against random search
========================================================================

A 2000-sample binary dataset is split 2:1:1, the inner problem trains a
logistic model with an exp(lam)-weighted ridge penalty, and the outer
objective is the validation log-loss.  The outer loop and a random-search
baseline get the same oracle budget.
"""

from hozog import InnerSolver, RandomSearchConfig, ZoConfig, random_search, run_hozog
from hozog.data_io import random_classification_dataset, split_2_1_1
from hozog.problems import LogRegProblem, logreg_objective

dataset = random_classification_dataset(
    2000, 40, seed=100, class_sep=2.0, noise_flip=0.05
)
train, val, test = split_2_1_1(dataset, seed=0)
problem = LogRegProblem.from_datasets(train, val, test)
spec = logreg_objective(problem, InnerSolver(steps=150, lr=0.1, variant="adam"))

iterations, q = 50, 1
budget = iterations * (q + 1)

descent_trail = []
final = run_hozog(
    spec,
    [5.0],
    ZoConfig(q=q, mu=0.01, gamma=0.05, iterations=iterations, seed=0),
    recorder=lambda e: descent_trail.append(e),
)
descent_f = [e.evaluation.f_value for e in descent_trail]

search_f = []
incumbent = random_search(
    spec,
    RandomSearchConfig(budget=budget, box=[[-10.0, 10.0]], seed=0),
    recorder=lambda e: search_f.append(e.evaluation.f_value),
)

print(f"equal budget: {budget} oracle calls each")
print(f"hyper-gradient descent: lam {final[0]:+.3f}, best f {min(descent_f):.3f} "
      f"(started at {descent_f[0]:.3f})")
print(f"random search:          lam {incumbent[0]:+.3f}, best f {min(search_f):.3f}")

from hozog import evaluate

model = evaluate(spec, final).model
print(f"test misclassification at the tuned lam: {problem.test_metric(model):.3f}")
