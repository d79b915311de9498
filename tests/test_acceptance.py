"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk-scale stand-ins replace the full-size experiments: closed-form
oracles give exact ground truth, generated datasets keep runtimes in the
stated budgets, and every tolerance is pinned here.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import expit

from hozog import (
    InnerSolver,
    RandomSearchConfig,
    ZoConfig,
    estimate_hyper_gradient,
    evaluate,
    function_objective,
    lipschitz_product_bound,
    empirical_lipschitz,
    random_search,
    run_hozog,
    sample_directions,
    synthetic_step_jacobians,
)
from hozog.data_io import (
    parse_libsvm,
    random_classification_dataset,
    serialize_libsvm,
    split_2_1_1,
)
from hozog.errors import ParseError
from hozog.harness import run_experiment, sweep
from hozog.harness.config import config_from_dict
from hozog.problems import (
    LogRegProblem,
    group_corruption_fractions,
    hyperclean_objective,
    logreg_objective,
    make_hyperclean,
    make_synthetic,
    synthetic_analytic_hypergradient,
)

from conftest import read_trace, rows_excluding_wall_time


# one line per criterion, echoed in the terminal summary by conftest
REPORTED_LINES = []


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} ({name}): {status}" + (f" -- {detail}" if detail else "")
    REPORTED_LINES.append(line)
    print("\n" + line)
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_estimator_linear_correctness():
    """Sphere-direction estimates are unbiased for a linear objective."""
    t0 = time.perf_counter()
    a = np.array([1.0, -2.0, 0.5, 3.0])
    spec = function_objective(lambda lam: float(a @ lam), p=4)
    n = 100_000
    rng = np.random.default_rng(2024)

    # The mean of n single-direction estimates sharing the base value f(lam)
    # is identically the q=n averaged estimate; spot-check the identity on a
    # prefix, then use the averaged form for all n.
    directions = sample_directions(4, n, "sphere", rng)
    small = directions[:500]
    single_mean = np.mean(
        [
            estimate_hyper_gradient(
                spec, np.zeros(4), ZoConfig(q=1, mu=0.01, gamma=1.0, iterations=0), small[i : i + 1]
            )[1]
            for i in range(500)
        ],
        axis=0,
    )
    _, batched = estimate_hyper_gradient(
        spec, np.zeros(4), ZoConfig(q=500, mu=0.01, gamma=1.0, iterations=0), small
    )
    np.testing.assert_allclose(single_mean, batched, rtol=1e-12)

    _, est = estimate_hyper_gradient(
        spec, np.zeros(4), ZoConfig(q=n, mu=0.01, gamma=1.0, iterations=0), directions
    )
    err = est - a
    tol = 0.01 * float(np.linalg.norm(a))
    elapsed = time.perf_counter() - t0
    ok = np.all(np.abs(err) <= tol) and np.linalg.norm(err) <= tol and elapsed < 5.0
    report(
        1,
        "estimator correctness on linear objective",
        ok,
        f"max coord error {np.max(np.abs(err)):.4f} vs tol {tol:.4f}, {elapsed:.1f}s",
    )


def test_criterion_2_estimator_vs_analytic_gradient():
    """Averaged estimates match the closed-form hyper-gradient on a lam grid."""
    t0 = time.perf_counter()
    c, w_star, mu, q, repeats = 3.0, 1.0, 1e-3, 64, 1000
    spec = make_synthetic(c, w_star)
    cfg = ZoConfig(q=q, mu=mu, gamma=1.0, iterations=0)
    rng = np.random.default_rng(7)
    worst = 0.0
    ok = True
    for lam0 in np.arange(-3.0, 3.0 + 1e-9, 0.25):
        lam = np.array([lam0])
        total = 0.0
        for _ in range(repeats):
            dirs = sample_directions(1, q, "sphere", rng)
            total += estimate_hyper_gradient(spec, lam, cfg, dirs)[1][0]
        mean = total / repeats
        true = synthetic_analytic_hypergradient(c, w_star, lam0)
        tol = max(5 * mu, 0.02 * abs(true))
        gap = abs(mean - true)
        worst = max(worst, gap / tol)
        ok = ok and gap <= tol
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(
        2,
        "estimator vs finite differences on the lam grid",
        ok,
        f"worst error at {worst:.2f}x tolerance, {elapsed:.1f}s",
    )


def test_criterion_3_convergence_on_closed_form():
    """The outer loop lands on the analytic minimizer of the synthetic task."""
    t0 = time.perf_counter()
    spec = make_synthetic(3.0, 1.0)
    cfg = ZoConfig(q=3, mu=1e-3, gamma=1.0, iterations=500, seed=11)
    lam = run_hozog(spec, [2.0], cfg)
    f_final = evaluate(spec, lam).f_value
    elapsed = time.perf_counter() - t0
    ok = abs(lam[0]) <= 1e-2 and f_final <= 1e-4 and elapsed < 10.0
    report(
        3,
        "hozog convergence on the closed-form problem",
        ok,
        f"|lam_T|={abs(lam[0]):.2e}, f={f_final:.2e}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def binary_2000_file(tmp_path_factory):
    ds = random_classification_dataset(2000, 40, seed=100, class_sep=2.0, noise_flip=0.05)
    path = tmp_path_factory.mktemp("acc4") / "binary2000.libsvm"
    path.write_text(serialize_libsvm(ds))
    return path


def test_criterion_4_logreg_desk_run(binary_2000_file, tmp_path):
    """Ridge tuning at the published (q, mu, gamma): descent beats random search."""
    t0 = time.perf_counter()
    iterations, q = 50, 1
    budget = iterations * (q + 1)
    wins = 0
    ok_traces = True
    min_drop = math.inf
    for seed in range(10):
        cfg = config_from_dict(
            {
                "method": "hozog",
                "problem": {
                    "kind": "logreg",
                    "data": str(binary_2000_file),
                    "split_seed": seed,
                },
                "inner": {"variant": "adam", "steps": 150, "lr": 0.1},
                "hozog": {"q": q, "mu": 0.01, "gamma": 0.05, "iterations": iterations, "seed": seed},
                "lambda0": 5.0,
                "output": str(tmp_path / f"hozog_{seed}.csv"),
            }
        )
        summary = run_experiment(cfg)
        rows = read_trace(cfg.output)
        f_values = np.array([float(r["f_value"]) for r in rows])
        subopts = np.array([float(r["suboptimality"]) for r in rows])
        # the incumbent record scores suboptimality exactly zero
        ok_traces = ok_traces and subopts[int(np.argmin(f_values))] == 0.0
        ok_traces = ok_traces and np.all(subopts >= 0.0)
        ok_traces = ok_traces and summary["oracle_calls_optimizer"] == budget
        drop = (f_values[0] - f_values.min()) / f_values[0]
        min_drop = min(min_drop, drop)
        ok_traces = ok_traces and drop >= 0.10

        # same data, same split, same oracle budget for the baseline
        train, val, test = split_2_1_1(parse_libsvm(binary_2000_file.read_text()), seed=seed)
        prob = LogRegProblem.from_datasets(train, val, test)
        spec = logreg_objective(prob, InnerSolver(steps=150, lr=0.1, variant="adam"))
        rs_values = []
        random_search(
            spec,
            RandomSearchConfig(budget=budget, box=[[-10.0, 10.0]], seed=seed),
            recorder=lambda e: rs_values.append(e.evaluation.f_value),
        )
        assert len(rs_values) == budget
        wins += f_values.min() <= min(rs_values)
    elapsed = time.perf_counter() - t0
    ok = ok_traces and wins >= 8 and elapsed < 120.0
    report(
        4,
        "logistic-regression desk run",
        ok,
        f"wins {wins}/10, min validation drop {min_drop:.1%}, {elapsed:.0f}s",
    )


def test_criterion_5_hyperclean_directional_property():
    """Noisy groups end up down-weighted relative to clean groups."""
    t0 = time.perf_counter()
    ds = random_classification_dataset(700, 15, n_classes=3, seed=200, class_sep=2.5)
    separated = 0
    for seed in range(10):
        prob = make_hyperclean(
            ds, n_train=200, n_val=200, n_test=200, n_groups=40, corruption_seed=seed
        )
        spec = hyperclean_objective(prob, InnerSolver(steps=300, lr=0.05))
        lam = run_hozog(
            spec,
            np.zeros(prob.p),
            ZoConfig(q=5, mu=1.0, gamma=1.0, iterations=30, seed=seed),
        )
        fractions = group_corruption_fractions(prob)
        weights = expit(lam)
        mostly_bad = weights[fractions >= 0.75]
        mostly_clean = weights[fractions <= 0.25]
        assert mostly_bad.size and mostly_clean.size
        separated += mostly_bad.mean() < mostly_clean.mean()
    elapsed = time.perf_counter() - t0
    ok = separated >= 8 and elapsed < 300.0
    report(
        5,
        "hyper-cleaning down-weights corrupted groups",
        ok,
        f"separated in {separated}/10 seeds, {elapsed:.0f}s",
    )


def test_criterion_6_lipschitz_bound_dominance():
    """The product bound dominates sampled ratios and grows at most linearly."""
    t0 = time.perf_counter()
    eta, box = 0.1, (-2.0, 2.0)
    bounds = {}
    ok = True
    detail = []
    for t_inner in (10, 100):
        spec = make_synthetic(3.0, 1.0, inner=InnerSolver(steps=t_inner, lr=eta))
        jacs = synthetic_step_jacobians(3.0, 1.0, eta=eta, t_inner=t_inner, lambda_box=box)
        bound = lipschitz_product_bound(jacs)
        reportv = empirical_lipschitz(spec, [list(box)], n_pairs=10_000, seed=5)
        bounds[t_inner] = (bound, jacs)
        ok = ok and reportv.empirical_max_ratio <= bound
        detail.append(f"T={t_inner}: ratio {reportv.empirical_max_ratio:.3f} <= bound {bound:.1f}")
    max_b = float(np.max(bounds[100][1].b))
    linear_ok = bounds[100][0] <= bounds[10][0] + 90.0 * max_b + 1e-9
    elapsed = time.perf_counter() - t0
    ok = ok and linear_ok and elapsed < 30.0
    report(6, "Lipschitz product-bound dominance", ok, "; ".join(detail) + f", {elapsed:.0f}s")


def test_criterion_7_determinism_and_parallel_invariance(tmp_path, logreg_file):
    """Reruns and worker counts change nothing but wall time."""
    t0 = time.perf_counter()
    base = {
        "method": "hozog",
        "problem": {"kind": "logreg", "data": str(logreg_file), "split_seed": 1},
        "inner": {"variant": "gd", "steps": 60, "lr": 0.02},
        "hozog": {"q": 3, "mu": 0.01, "gamma": 0.02, "iterations": 8, "seed": 4},
        "lambda0": 1.0,
    }
    traces = {}
    for tag, workers in (("first", 1), ("again", 1), ("threaded", 4)):
        cfg = config_from_dict(
            {**base, "output": str(tmp_path / f"{tag}.csv"), "max_workers": workers}
        )
        run_experiment(cfg)
        traces[tag] = rows_excluding_wall_time(cfg.output)
    elapsed = time.perf_counter() - t0
    ok = traces["first"] == traces["again"] == traces["threaded"]
    report(
        7,
        "determinism and parallel invariance",
        ok,
        f"3 runs, {len(traces['first'])} records each, {elapsed:.1f}s",
    )


def test_criterion_8_parser_round_trip_and_rejection():
    """1000-line corpus round-trips; malformed lines fail with positions."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    lines = []
    for _ in range(1000):
        label = float(np.round(rng.normal() * 10.0 ** rng.integers(-3, 4), 6))
        n_feats = int(rng.integers(0, 8))
        idx = np.sort(rng.choice(np.arange(1, 200), size=n_feats, replace=False))
        feats = " ".join(f"{int(i)}:{float(np.round(rng.normal(), 9))!r}" for i in idx)
        lines.append(f"{label!r} {feats}".rstrip(" "))
    text = "\n".join(lines) + "\n"
    ds = parse_libsvm(text)
    round_trip_ok = parse_libsvm(serialize_libsvm(ds)) == ds and len(ds) == 1000

    malformed = [
        "abc 1:1.0",
        "1:2 1:1.0",
        "1 x:1.0",
        "1 1.5:1.0",
        "1 +2:1.0",
        "1 0:1.0",
        "1 -3:1.0",
        "1 1:val",
        "1 1:",
        "1 12",
        "1 1:2:3",
        "1 2:1.0 2:2.0",
        "1 5:1.0 3:2.0",
        "1  1:1.0",
        "inf 1:1.0",
    ]
    rejection_ok = True
    for bad in malformed:
        try:
            parse_libsvm(f"1 1:1.0\n{bad}\n")
            rejection_ok = False
        except ParseError as err:
            rejection_ok = rejection_ok and err.line == 2
    elapsed = time.perf_counter() - t0
    ok = round_trip_ok and rejection_ok
    report(
        8,
        "parser round-trip and malformed-line rejection",
        ok,
        f"{len(malformed)} malformed classes, {elapsed:.1f}s",
    )


def test_criterion_9_parameter_robustness_sweeps(tmp_path):
    """Every (mu, q) sweep cell drives f within 1e-2 of the optimum (f* = 0)."""
    t0 = time.perf_counter()
    base = config_from_dict(
        {
            "method": "hozog",
            "problem": {"kind": "synthetic", "c": 3.0, "w_star": 1.0},
            "hozog": {"q": 3, "mu": 0.01, "gamma": 1.0, "iterations": 500, "seed": 0},
            "lambda0": 2.0,
            "metric_every": 10,
            "output": str(tmp_path / "sweep.csv"),
        }
    )
    cells = []
    for axis, values in (("mu", [1e-3, 1e-2, 1e-1]), ("q", [1, 3, 5])):
        for status in sweep(base, axis, values):
            assert status["ok"], status
            best = min(float(r["f_value"]) for r in read_trace(status["trace"]))
            cells.append((f"{axis}={status['value']}", best))
    elapsed = time.perf_counter() - t0
    ok = all(best <= 1e-2 for _, best in cells) and elapsed < 60.0
    worst = max(cells, key=lambda kv: kv[1])
    report(
        9,
        "robustness to mu and q settings",
        ok,
        f"{len(cells)} cells, worst {worst[0]} best-f {worst[1]:.2e}, {elapsed:.1f}s",
    )
