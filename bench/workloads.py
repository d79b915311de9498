"""The four benchmark workloads: inputs, set-up, tuning call and output checks.

Each workload makes its inputs from the workload seed alone, so one seed
always gives the same rows, splits, directions and samples.  ``setup``
turns the inputs into a ready ObjectiveSpec and is timed as ``setup_s``;
``run`` is the tuning call timed as ``run_s``; ``check`` compares the
outputs against the standalone computations in ``reference`` and against
properties the method must have, and returns a list of mismatches.
"""

from __future__ import annotations

import csv

import numpy as np

import hozog.baselines as baselines
import hozog.harness.runner as runner
import hozog.lipschitz as lipschitz
import hozog.zo_core as zo_core
from hozog.baselines import RandomSearchConfig
from hozog.data_io import SparseDataset, split_2_1_1
from hozog.harness.config import config_from_dict
from hozog.inner_solvers import InnerSolver
from hozog.lipschitz import lipschitz_product_bound, synthetic_step_jacobians
from hozog.oracle import evaluate
from hozog.problems import (
    LogRegProblem,
    group_corruption_fractions,
    hyperclean_objective,
    logreg_objective,
    make_hyperclean,
    make_synthetic,
)
from hozog.zo_core import ZoConfig

import reference

# Relative tolerance between a hozog objective value and its reference.  The
# two differ only in summation order (sparse CSR products against dense
# ones), which after 150 Adam or 100 GD steps leaves about 1e-13 relative.
VALUE_RTOL = 1e-8
# The Lipschitz ratio over a close pair divides a rounding error by a small gap.
RATIO_RTOL = 1e-6


def blobs(seed: int, n: int, d: int, n_classes: int, sep: float, flip: float):
    """Gaussian-blob rows with class means sep/sqrt(d) apart in scale; a
    ``flip`` share of labels is moved to another class."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_classes, d)) * sep / np.sqrt(d)
    y = rng.integers(0, n_classes, size=n)
    x = rng.standard_normal((n, d)) / np.sqrt(d) + means[y]
    n_flip = int(round(flip * n))
    if n_flip:
        idx = rng.choice(n, size=n_flip, replace=False)
        y[idx] = (y[idx] + rng.integers(1, n_classes, size=n_flip)) % n_classes
    return x, y


def as_dataset(x: np.ndarray, labels: np.ndarray) -> SparseDataset:
    rows = tuple(
        (float(label), tuple((j + 1, float(v)) for j, v in enumerate(row)))
        for label, row in zip(labels, x)
    )
    return SparseDataset(rows=rows, n_features=x.shape[1])


def libsvm_text(x: np.ndarray, labels: np.ndarray) -> str:
    # repr gives shortest round-trip decimals, so parsing restores x exactly
    return "".join(
        f"{float(label)!r} " + " ".join(f"{j + 1}:{float(v)!r}" for j, v in enumerate(row)) + "\n"
        for label, row in zip(labels, x)
    )


def logreg_rows(seed: int):
    """The acceptance-4 data shape: 2000 x 40, labels in {-1, +1}, 5% flipped."""
    x, y = blobs(seed, 2000, 40, 2, sep=2.0, flip=0.05)
    return x, np.where(y == 1, 1.0, -1.0)


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class LogregTraced:
    """``run_experiment`` on a LIBSVM file, trace written at every meta-iteration."""

    name = "logreg_traced"
    iterations, q, steps, lr, lam0 = 10, 1, 150, 0.1, 5.0

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.x, self.y = logreg_rows(seed)
        data = workdir / "logreg.libsvm"
        data.write_text(libsvm_text(self.x, self.y))
        self.trace_path = workdir / "logreg_trace.csv"
        self.config = config_from_dict({
            "method": "hozog",
            "problem": {"kind": "logreg", "data": str(data), "split_seed": seed},
            "inner": {"variant": "adam", "steps": self.steps, "lr": self.lr},
            "hozog": {"q": self.q, "mu": 0.01, "gamma": 0.05,
                      "iterations": self.iterations, "seed": seed},
            "lambda0": self.lam0,
            "output": str(self.trace_path),
            "metric_every": 1,
            "max_workers": 1,
        })
        self.required_evals = self.optimizer_evals = self.iterations * (self.q + 1)

    def setup(self):
        return runner.build_objective(self.config)

    def run(self, spec):
        return runner.run_experiment(self.config)

    def evaluations(self, summary):
        return summary["oracle_calls_optimizer"] + summary["oracle_calls_metrics"], 0

    def same_output(self, a, b) -> bool:
        return a["final_lambda"] == b["final_lambda"]

    def check(self, spec, summary) -> list:
        errors = []
        with open(self.trace_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        t, budget = self.iterations, self.required_evals
        if len(rows) != t + 1:
            errors.append(f"trace has {len(rows)} rows, expected {t + 1}")
        if summary["oracle_calls_optimizer"] != budget or int(rows[-1]["oracle_calls_optimizer"]) != budget:
            errors.append(f"optimizer calls {summary['oracle_calls_optimizer']} != T(q+1) = {budget}")
        f_values = np.array([float(r["f_value"]) for r in rows])
        subopt = np.array([float(r["suboptimality"]) for r in rows])
        if np.any(subopt < 0.0) or subopt[int(np.argmin(f_values))] != 0.0:
            errors.append("suboptimality negative or not 0 at the incumbent")
        if f_values.min() > 0.9 * f_values[0]:
            errors.append(f"best f {f_values.min():.6g} is not 10% below f(lambda0) {f_values[0]:.6g}")
        tr, va, _ = reference.split_2_1_1(len(self.y), self.seed)
        for lam, f in ((self.lam0, f_values[0]), (summary["final_lambda"][0], f_values[-1])):
            ref = reference.logreg_value(self.x[tr], self.y[tr], self.x[va], self.y[va],
                                            lam, self.steps, self.lr)
            if _relative_gap(f, ref) > VALUE_RTOL:
                errors.append(f"f({lam!r}) = {f!r}, reference {ref!r}")
        return errors


class HypercleanWide:
    """``run_hozog`` on group hyper-cleaning with many groups and q = 8."""

    name = "hyperclean_wide"
    n_train, n_val, n_test, n_groups, n_features, n_classes = 400, 200, 200, 100, 15, 3
    iterations, q, mu, gamma, steps, lr = 8, 8, 1.0, 1.0, 100, 0.05

    def __init__(self, seed: int, workdir):
        self.seed = seed
        n = self.n_train + self.n_val + self.n_test
        x, y = blobs(seed, n, self.n_features, self.n_classes, sep=2.5, flip=0.0)
        self.dataset = as_dataset(x, y)
        self.required_evals = self.optimizer_evals = self.iterations * (self.q + 1)

    def setup(self):
        prob = make_hyperclean(self.dataset, n_train=self.n_train, n_val=self.n_val,
                               n_test=self.n_test, n_groups=self.n_groups,
                               corruption_seed=self.seed)
        return hyperclean_objective(prob, InnerSolver(steps=self.steps, lr=self.lr))

    def run(self, spec):
        cfg = ZoConfig(q=self.q, mu=self.mu, gamma=self.gamma,
                       iterations=self.iterations, seed=self.seed)
        return zo_core.run_hozog(spec, np.zeros(spec.p), cfg, max_workers=1)

    def evaluations(self, lam):
        return self.required_evals, 0

    def same_output(self, a, b) -> bool:
        return np.array_equal(a, b)

    def check(self, spec, lam) -> list:
        errors = []
        prob = spec.problem
        fractions = group_corruption_fractions(prob)
        weights = reference.sigmoid(lam)
        bad, clean = weights[fractions >= 0.75], weights[fractions <= 0.25]
        if not (bad.size and clean.size and bad.mean() < clean.mean()):
            errors.append("corrupted groups are not down-weighted below clean ones")

        def ref_value(v):
            return reference.hyperclean_value(
                prob.x_train.toarray(), prob.y_train, prob.group_ids,
                prob.x_val.toarray(), prob.y_val, v, prob.n_classes, self.steps, self.lr)

        f_final, f_start = ref_value(lam), ref_value(np.zeros(prob.p))
        if not f_final < f_start:
            errors.append(f"f(lambda_T) {f_final!r} is not below f(lambda_0) {f_start!r}")
        got = evaluate(spec, lam).f_value
        if _relative_gap(got, f_final) > VALUE_RTOL:
            errors.append(f"f(lambda_T) = {got!r}, reference {f_final!r}")
        return errors


class RandomSearchLogreg:
    """``random_search`` over the logreg box on the logreg_traced problem."""

    name = "random_search_logreg"
    budget, steps, lr, box = 192, 150, 0.1, (-10.0, 10.0)

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.x, self.y = logreg_rows(seed)
        self.dataset = as_dataset(self.x, self.y)
        self.required_evals = self.budget
        self.optimizer_evals = 0  # evaluations made inside HOZOG meta-iterations

    def setup(self):
        train, val, test = split_2_1_1(self.dataset, self.seed)
        prob = LogRegProblem.from_datasets(train, val, test)
        return logreg_objective(prob, InnerSolver(steps=self.steps, lr=self.lr, variant="adam"))

    def run(self, spec):
        events = []
        cfg = RandomSearchConfig(budget=self.budget, box=[list(self.box)], seed=self.seed)
        best = baselines.random_search(spec, cfg, recorder=events.append, max_workers=1)
        return best, events

    def evaluations(self, result):
        return self.budget, self.budget - len(result[1])

    def same_output(self, a, b) -> bool:
        return np.array_equal(a[0], b[0]) and len(a[1]) == len(b[1])

    def check(self, spec, result) -> list:
        errors = []
        best, events = result
        lams = np.array([e.hyperparams[0] for e in events])
        values = np.array([e.evaluation.f_value for e in events])
        if len(events) != self.budget or not np.all(np.isfinite(values)):
            errors.append(f"{len(events)} finite evaluations recorded, budget {self.budget}")
        expected = reference.uniform_box_samples(self.seed, self.budget, *self.box)[:, 0]
        if not np.array_equal(lams, expected):
            errors.append("sampled points differ from the seeded uniform draw of the box")
        if np.any(lams < self.box[0]) or np.any(lams > self.box[1]):
            errors.append("a sample lies outside the box")
        if best[0] != lams[int(np.argmin(values))]:
            errors.append("returned lambda is not the argmin of the recorded values")
        tr, va, _ = reference.split_2_1_1(len(self.y), self.seed)
        for i in sorted({0, int(np.argmin(values)), len(values) - 1}):
            ref = reference.logreg_value(self.x[tr], self.y[tr], self.x[va], self.y[va],
                                         lams[i], self.steps, self.lr)
            if _relative_gap(values[i], ref) > VALUE_RTOL:
                errors.append(f"sample {i}: f = {values[i]!r}, reference {ref!r}")
        return errors


class LipschitzSynthetic:
    """``empirical_lipschitz`` on the iterative synthetic problem (acceptance-6 shape)."""

    name = "lipschitz_synthetic"
    c, w_star, steps, eta, box, n_pairs = 3.0, 1.0, 100, 0.1, (-2.0, 2.0), 2000

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.required_evals = 2 * self.n_pairs
        self.optimizer_evals = 0

    def setup(self):
        return make_synthetic(self.c, self.w_star, inner=InnerSolver(steps=self.steps, lr=self.eta))

    def run(self, spec):
        return lipschitz.empirical_lipschitz(spec, [list(self.box)], n_pairs=self.n_pairs,
                                             seed=self.seed, max_workers=1)

    def evaluations(self, report):
        return self.required_evals, 0

    def same_output(self, a, b) -> bool:
        return a.empirical_max_ratio == b.empirical_max_ratio

    def check(self, spec, report) -> list:
        errors = []
        rng = np.random.default_rng(self.seed)
        lo, hi = self.box
        first = lo + (hi - lo) * rng.random((self.n_pairs, 1))
        second = lo + (hi - lo) * rng.random((self.n_pairs, 1))
        values = [reference.synthetic_value(self.c, self.w_star, pts[:, 0], self.eta, self.steps)
                  for pts in (first, second)]
        expected = reference.max_pair_ratio(first, second, *values)
        if report.samples != self.n_pairs or _relative_gap(report.empirical_max_ratio, expected) > RATIO_RTOL:
            errors.append(f"ratio {report.empirical_max_ratio!r}, closed form gives {expected!r}")
        jacs = synthetic_step_jacobians(self.c, self.w_star, eta=self.eta,
                                        t_inner=self.steps, lambda_box=self.box)
        bound = lipschitz_product_bound(jacs)
        if not report.empirical_max_ratio <= bound:
            errors.append(f"ratio {report.empirical_max_ratio!r} exceeds the product bound {bound!r}")
        return errors


WORKLOADS = {w.name: w for w in (LogregTraced, HypercleanWide, RandomSearchLogreg, LipschitzSynthetic)}
