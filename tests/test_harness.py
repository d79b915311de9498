"""Harness tests: metrics, traces, configs, runner, sweep, CLI."""

import gzip
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hozog import (
    InnerSolver,
    IterationEvent,
    ZoConfig,
    evaluate,
    function_objective,
    run_hozog,
)
from hozog.data_io import random_classification_dataset, serialize_libsvm
from hozog.errors import ConfigError, InvalidConfig
from hozog.harness import (
    TRACE_COLUMNS,
    TraceWriter,
    compute_metrics,
    load_config,
    run_experiment,
    sweep,
)
from hozog.harness import runner
from hozog.harness.cli import main as cli_main
from hozog.harness.config import config_from_dict, problem_p
from hozog.harness.runner import build_objective
from hozog.problems import make_synthetic

from conftest import read_trace, rows_excluding_wall_time


class TestComputeMetrics:
    def test_first_record_suboptimality_is_zero(self):
        spec = make_synthetic(3.0, 1.0)
        columns = compute_metrics(spec, np.array([1.0]), math.inf)
        assert list(columns) == list(TRACE_COLUMNS[5:])
        assert columns["suboptimality"] == 0.0

    def test_running_minimum_sequence(self):
        # f-values 5, 3, 4 against the running minimum give 0, 0, 1
        best = math.inf
        subopts = []
        for f_known in (5.0, 3.0, 4.0):
            # a fixed-value oracle per step isolates the bookkeeping
            spec_step = function_objective(lambda lam, v=f_known: v, p=1)
            columns = compute_metrics(spec_step, np.zeros(1), best)
            best = min(best, columns["f_value"])
            subopts.append(columns["suboptimality"])
        assert subopts == [0.0, 0.0, 1.0]
        assert best == 3.0

    def test_gradient_norm_is_the_given_estimates_norm(self):
        spec = function_objective(lambda lam: 2.5, p=2)
        columns = compute_metrics(spec, np.zeros(2), math.inf, gradient=np.array([3.0, -4.0]))
        assert columns["grad_norm_est"] == 5.0
        assert math.isnan(compute_metrics(spec, np.zeros(2), math.inf)["grad_norm_est"])

    def test_an_overflowing_norm_is_inf_without_a_warning(self):
        # filterwarnings=error turns a RuntimeWarning from the norm into a failure
        spec = function_objective(lambda lam: 2.5, p=2)
        columns = compute_metrics(spec, np.zeros(2), math.inf, gradient=np.array([1e300, 1e300]))
        assert columns["grad_norm_est"] == math.inf

    def test_reuses_provided_evaluation(self):
        count = {"n": 0}

        def f(lam):
            count["n"] += 1
            return 1.0

        spec = function_objective(f, p=1)
        ev = evaluate(spec, np.zeros(1))
        count["n"] = 0
        compute_metrics(spec, np.zeros(1), math.inf, evaluation=ev)
        assert count["n"] == 0
        compute_metrics(spec, np.zeros(1), math.inf)
        assert count["n"] == 1  # f itself, the only call without an evaluation

    def test_provided_evaluation_gives_the_fresh_columns(self):
        spec = make_synthetic(3.0, 1.0, inner=InnerSolver(steps=50, lr=0.1))
        lam = np.array([0.4])
        fresh = compute_metrics(spec, lam, -1.0)
        reused = compute_metrics(spec, lam, -1.0, evaluation=evaluate(spec, lam))
        assert reused == fresh
        assert fresh["suboptimality"] > 0.0


class TestTraceWriter:
    @pytest.mark.parametrize("cadence", [0, -1, 2.7, 2.0, True, "2"])
    def test_a_cadence_that_is_not_a_positive_integer_is_rejected(self, tmp_path, cadence):
        spec = function_objective(lambda lam: 1.0, p=1)
        with pytest.raises(InvalidConfig, match=r"^cadence must be (an integer|>= 1), got"):
            TraceWriter(tmp_path / "t.csv", "hozog", spec, cadence=cadence)
        assert not (tmp_path / "t.csv").exists()

    def test_a_numpy_integer_cadence_is_a_count(self, tmp_path):
        spec = function_objective(lambda lam: 1.0, p=1)
        with TraceWriter(tmp_path / "t.csv", "hozog", spec, cadence=np.int64(2)) as writer:
            assert writer.cadence == 2

    @settings(max_examples=100)
    @given(
        # a few repeated values make ties likely
        fs=st.lists(
            st.sampled_from([-1.0, 0.0, 2.0]) | st.floats(-1e6, 1e6), min_size=1, max_size=25
        ),
        cadence=st.integers(1, 6),
        final_f=st.none() | st.floats(-1e6, 1e6),
    )
    def test_rows_and_suboptimality_follow_the_incumbent(self, fs, cadence, final_f):
        # sample i sits at lambda = i; a final_f of None puts the final
        # row at the incumbent's lambda, else at a fresh lambda = n
        n = len(fs)
        values = [*fs, final_f]
        calls = []

        def f(lam):
            calls.append(lam[0])
            return values[int(lam[0])]

        spec = function_objective(f, p=1)
        evaluations = [evaluate(spec, np.array([float(i)])) for i in range(n)]
        calls.clear()
        best = int(np.argmin(fs))  # the first smallest f
        final_lam = float(best if final_f is None else n)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            with TraceWriter(path, "random_search", spec, cadence=cadence) as writer:
                for i, ev in enumerate(evaluations):
                    writer(IterationEvent(meta_iter=i, hyperparams=np.array([float(i)]),
                                          evaluation=ev, gradient=None, optimizer_calls=i + 1))
                writer.finish(np.array([final_lam]), meta_iter=n, optimizer_calls=n)
            rows = read_trace(path)
        written = [i for i in range(n) if i % cadence == 0] + [n]
        assert [int(r["meta_iter"]) for r in rows] == written
        assert writer.records == len(written)
        last_f = fs[best] if final_f is None else final_f
        seen = [*fs, last_f]
        for row, i in zip(rows, written):
            assert float(row["f_value"]) == seen[i]
            assert float(row["suboptimality"]) == seen[i] - min(seen[: i + 1])
        if best % cadence == 0:
            assert float(rows[written.index(best)]["suboptimality"]) == 0.0
        metric_calls = 0 if final_f is None else 1
        assert calls == ([] if final_f is None else [float(n)])
        counts = [int(r["oracle_calls_metrics"]) for r in rows]
        assert counts == [0] * (len(rows) - 1) + [metric_calls]
        assert writer.metric_calls == metric_calls
        if final_f is None:
            assert float(rows[-1]["suboptimality"]) == 0.0

    def test_a_hozog_run_pinned_at_a_bound_ends_on_its_incumbent(self, tmp_path):
        # f = lam with a large step: lambda_1 onwards is clipped to the bound 0
        spec = function_objective(lambda lam: float(lam[0]), p=1, bounds=[[0, 1]])
        cfg = ZoConfig(q=1, mu=0.01, gamma=10.0, iterations=3, seed=0)
        with TraceWriter(tmp_path / "t.csv", "hozog", spec) as writer:
            final = run_hozog(spec, np.array([0.5]), cfg, recorder=writer)
            writer.finish(final, meta_iter=3, optimizer_calls=3 * 2)
        rows = read_trace(tmp_path / "t.csv")
        assert final[0] == 0.0
        assert [r["f_value"] for r in rows] == ["0.5", "0.0", "0.0", "0.0"]
        assert [r["suboptimality"] for r in rows] == ["0.0"] * 4
        assert [r["oracle_calls_metrics"] for r in rows] == ["0"] * 4
        assert writer.metric_calls == 0


def synthetic_config(tmp_path, **overrides):
    cfg = {
        "method": "hozog",
        "problem": {"kind": "synthetic", "c": 3.0, "w_star": 1.0},
        "hozog": {"q": 2, "mu": 0.001, "gamma": 1.0, "iterations": 20, "seed": 0},
        "lambda0": 2.0,
        "output": str(tmp_path / "trace.csv"),
    }
    cfg.update(overrides)
    return cfg


def random_search_config(tmp_path, search, **overrides):
    cfg = {
        "method": "random_search",
        "problem": {"kind": "synthetic", "c": 3.0, "w_star": 1.0},
        "random_search": search,
        "output": str(tmp_path / "rs.csv"),
    }
    cfg.update(overrides)
    return cfg


def lipschitz_report_config(tmp_path):
    return {
        "problem": {"kind": "synthetic", "c": 3.0, "w_star": 1.0},
        "inner": {"variant": "gd", "steps": 20, "lr": 0.1},
        "box": [[-2.0, 2.0]],
        "n_pairs": 200,
        "seed": 0,
        "output": str(tmp_path / "report.json"),
    }


def hyperclean_config(tmp_path, data, lambda0):
    return {
        "method": "hozog",
        "problem": {
            "kind": "hyperclean",
            "data": str(data),
            "n_train": 40,
            "n_val": 40,
            "n_test": 40,
            "n_groups": 4,
        },
        "inner": {"steps": 5},
        "hozog": {"q": 1, "iterations": 1},
        "lambda0": lambda0,
        "output": str(tmp_path / "hc.csv"),
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestRunExperiment:
    def test_writes_trace_and_manifest(self, tmp_path):
        cfg = config_from_dict(synthetic_config(tmp_path))
        summary = run_experiment(cfg)
        rows = read_trace(cfg.output)
        assert len(rows) == 21
        assert list(rows[0].keys()) == list(TRACE_COLUMNS)
        assert summary["oracle_calls_optimizer"] == 20 * 3
        manifest = json.loads((tmp_path / "trace.manifest.json").read_text())
        assert manifest["config"]["method"] == "hozog"
        versions = manifest["versions"]
        assert {"numpy", "blas", "blas_version", "blas_threads", "simd"} <= set(versions)
        threads = versions["blas_threads"]
        assert threads is None or (isinstance(threads, int) and threads >= 1)

    def test_manifest_records_resolved_config(self, tmp_path, logreg_file):
        raw = {
            "method": "hozog",
            "problem": {"kind": "logreg", "data": str(logreg_file)},
            "hozog": {"q": 1, "iterations": 1},
            "output": str(tmp_path / "trace.csv"),
        }
        cfg = config_from_dict(raw)
        summary = run_experiment(cfg)
        config = json.loads(Path(summary["manifest"]).read_text(encoding="utf-8"))["config"]
        inner = config["inner"]
        assert (inner["variant"], inner["steps"], inner["lr"]) == ("adam", 150, 0.1)
        assert config["hozog"]["direction_scheme"] == "sphere"
        assert config["problem"]["split_seed"] == 0
        # the resolved values load back into the config that ran
        assert config_from_dict(config) == cfg

    @pytest.mark.parametrize("kind", ["random_search", "iterative_synthetic", "hyperclean"])
    def test_recorded_config_records_again_unchanged(self, tmp_path, multiclass_file, kind):
        raw = {
            "random_search": random_search_config(tmp_path, {"budget": 4}),
            "iterative_synthetic": {
                "method": "hozog",
                "problem": {"kind": "synthetic", "c": 3.0, "w_star": 1.0},
                "inner": {"variant": "adam", "steps": 7},
                "hozog": {"iterations": 2},
            },
            "hyperclean": hyperclean_config(tmp_path, multiclass_file, 0.0),
        }[kind]
        raw["output"] = str(tmp_path / "trace.csv")

        def recorded(cfg):
            manifest = Path(run_experiment(cfg)["manifest"])
            return json.loads(manifest.read_text(encoding="utf-8"))["config"]

        first = recorded(config_from_dict(raw))
        assert recorded(config_from_dict(first)) == first

    def test_zero_iterations_trace_is_single_initial_record(self, tmp_path):
        cfg = config_from_dict(
            synthetic_config(tmp_path, hozog={"q": 1, "mu": 0.01, "gamma": 1.0, "iterations": 0})
        )
        run_experiment(cfg)
        rows = read_trace(cfg.output)
        assert len(rows) == 1
        assert rows[0]["meta_iter"] == "0"
        assert rows[0]["oracle_calls_optimizer"] == "0"

    def test_random_search_method(self, tmp_path):
        search = {"budget": 30, "box": [[-5.0, 5.0]], "seed": 3}
        cfg = config_from_dict(random_search_config(tmp_path, search))
        summary = run_experiment(cfg)
        rows = read_trace(cfg.output)
        assert len(rows) == 31  # one per sample, then the incumbent's
        assert summary["oracle_calls_optimizer"] == 30
        subopts = [float(r["suboptimality"]) for r in rows]
        assert min(subopts) == 0.0
        last = rows[-1]
        assert (last["meta_iter"], last["oracle_calls_optimizer"]) == ("30", "30")
        assert float(last["f_value"]) == min(float(r["f_value"]) for r in rows)
        # random search makes no gradient estimate
        assert all(math.isnan(float(r["grad_norm_est"])) for r in rows)
        # the last row is the incumbent, whose evaluation the trace already holds
        assert [r["oracle_calls_metrics"] for r in rows] == ["0"] * 31
        assert summary["oracle_calls_metrics"] == 0
        manifest = json.loads(Path(summary["manifest"]).read_text(encoding="utf-8"))
        assert manifest["result"]["oracle_calls_metrics"] == 0
        assert manifest["result"]["oracle_calls_optimizer"] == 30

    def test_random_search_last_row_counts_the_whole_budget_under_a_cadence(self, tmp_path):
        # the cadence skips the last sample, 29, yet the last row says 30
        search = {"budget": 30, "box": [[-5.0, 5.0]], "seed": 3}
        cfg = config_from_dict(random_search_config(tmp_path, search, metric_every=7))
        summary = run_experiment(cfg)
        rows = read_trace(cfg.output)
        assert [int(r["meta_iter"]) for r in rows] == [0, 7, 14, 21, 28, 30]
        manifest = json.loads(Path(summary["manifest"]).read_text(encoding="utf-8"))
        assert manifest["result"]["oracle_calls_optimizer"] == 30
        assert rows[-1]["oracle_calls_optimizer"] == "30"

    def test_hozog_trace_carries_the_optimizers_own_estimate(self, tmp_path):
        cfg = config_from_dict(
            synthetic_config(tmp_path, inner={"variant": "gd", "steps": 30, "lr": 0.1})
        )
        run_experiment(cfg)
        rows = read_trace(cfg.output)
        events = []
        spec = build_objective(cfg)
        run_hozog(spec, np.full(spec.p, cfg.lambda0), cfg.hozog, recorder=events.append)
        norms = [float(np.linalg.norm(e.gradient)) for e in events]
        assert [float(r["grad_norm_est"]) for r in rows[:-1]] == norms
        assert len(norms) == 20 and all(n > 0.0 for n in norms)
        assert math.isnan(float(rows[-1]["grad_norm_est"]))
        assert [r["oracle_calls_metrics"] for r in rows] == ["0"] * 20 + ["1"]

    def test_equal_budget_axes_align(self, tmp_path):
        # T*(q+1) optimizer calls for hozog == budget for random search
        hozog_cfg = config_from_dict(
            synthetic_config(
                tmp_path,
                hozog={"q": 2, "mu": 0.001, "gamma": 1.0, "iterations": 10, "seed": 0},
                output=str(tmp_path / "h.csv"),
            )
        )
        search = {"budget": 30, "box": [[-5.0, 5.0]], "seed": 0}
        rs_cfg = config_from_dict(random_search_config(tmp_path, search))
        a = run_experiment(hozog_cfg)
        b = run_experiment(rs_cfg)
        assert a["oracle_calls_optimizer"] == b["oracle_calls_optimizer"] == 30

    def test_cumulative_calls_strictly_increase(self, tmp_path):
        cfg = config_from_dict(synthetic_config(tmp_path))
        run_experiment(cfg)
        rows = read_trace(cfg.output)
        totals = [
            int(r["oracle_calls_optimizer"]) + int(r["oracle_calls_metrics"]) for r in rows
        ]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_metric_cadence_subsamples_but_keeps_final(self, tmp_path):
        cfg = config_from_dict(synthetic_config(tmp_path, metric_every=7))
        run_experiment(cfg)
        rows = read_trace(cfg.output)
        iters = [int(r["meta_iter"]) for r in rows]
        assert iters == [0, 7, 14, 20]  # cadence plus the final record
        # suboptimality still measured against every explored iterate
        assert all(float(r["suboptimality"]) >= 0.0 for r in rows)

    def test_hyperclean_run(self, tmp_path, multiclass_file):
        cfg = config_from_dict(
            {
                "method": "hozog",
                "problem": {
                    "kind": "hyperclean",
                    "data": str(multiclass_file),
                    "n_train": 40,
                    "n_val": 40,
                    "n_test": 40,
                    "n_groups": 8,
                    "corruption_seed": 1,
                },
                "inner": {"variant": "gd", "steps": 50, "lr": 0.05},
                "hozog": {"q": 2, "mu": 1.0, "gamma": 1.0, "iterations": 3, "seed": 0},
                "output": str(tmp_path / "hc.csv"),
            }
        )
        summary = run_experiment(cfg)
        assert len(summary["final_lambda"]) == 8
        rows = read_trace(cfg.output)
        assert len(rows) == 4
        assert all(np.isfinite(float(r["test_error"])) for r in rows)

    def test_list_lambda0_runs_and_is_recorded(self, tmp_path, multiclass_file):
        cfg = config_from_dict(hyperclean_config(tmp_path, multiclass_file, [0.5, -0.5, 1.0, 0.0]))
        summary = run_experiment(cfg)
        config = json.loads(Path(summary["manifest"]).read_text(encoding="utf-8"))["config"]
        assert config["lambda0"] == [0.5, -0.5, 1.0, 0.0]
        assert len(read_trace(cfg.output)) == 2

    @pytest.mark.parametrize("lambda0", [[], [0.0, 0.0], [0.0] * 5])
    def test_lambda0_of_the_wrong_length_names_it(self, tmp_path, capsys, multiclass_file, lambda0):
        path = write_config(tmp_path, hyperclean_config(tmp_path, multiclass_file, lambda0))
        assert cli_main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"config field 'lambda0': has {len(lambda0)} entries, problem has p=4" in err
        assert not (tmp_path / "hc.csv").exists()

    def test_random_search_in_which_every_sample_diverges(self, tmp_path):
        search = {"budget": 5, "box": [[0.0, 1.0]], "seed": 0}
        inner = {"variant": "gd", "steps": 500, "lr": 10.0}
        cfg = random_search_config(tmp_path, search, inner=inner)
        path = write_config(tmp_path, cfg)
        # a separate process: pytest's log capture would hide what logging
        # prints to stderr when no handler is configured
        roots = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, roots))}
        done = subprocess.run(
            [sys.executable, "-m", "hozog.harness.cli", "run", "--config", str(path)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 3
        assert done.stderr.startswith("non-finite objective: every random-search sample")
        assert done.stderr.count("\n") == 1, done.stderr

    @pytest.mark.parametrize(
        "steps",
        [
            # samples 4 and 5 diverge, so the last sample to record is 3
            3000,
            # every sample is finite, though f reaches 3e243 and 2e298 at
            # samples 4 and 5
            500,
        ],
    )
    def test_random_search_summary_counts_its_whole_budget(self, tmp_path, capsys, steps):
        search = {"budget": 6, "box": [[0.0, 1.0]], "seed": 0}
        inner = {"variant": "gd", "steps": steps, "lr": 0.5}
        cfg = random_search_config(tmp_path, search, inner=inner)
        path = write_config(tmp_path, cfg)
        assert cli_main(["run", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "optimizer calls: 6," in captured.out
        manifest = json.loads((tmp_path / "rs.manifest.json").read_text(encoding="utf-8"))
        assert manifest["result"]["oracle_calls_optimizer"] == 6
        last = read_trace(tmp_path / "rs.csv")[-1]
        assert (last["meta_iter"], last["oracle_calls_optimizer"]) == ("6", "6")

    def test_random_search_runs_where_every_sample_is_finite(self, tmp_path, capsys):
        # f is finite at all 4 samples but not at 0.4127, sample 0 plus 0.01,
        # a point only a gradient probe would evaluate
        search = {"budget": 4, "box": [[0.398, 0.4054]], "seed": 0}
        inner = {"variant": "gd", "steps": 40000, "lr": 0.5}
        cfg = random_search_config(tmp_path, search, inner=inner)
        path = write_config(tmp_path, cfg)
        assert cli_main(["run", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""
        rows = read_trace(tmp_path / "rs.csv")
        assert len(rows) == 5
        assert all(math.isfinite(float(r["f_value"])) for r in rows)


class TestSweep:
    def test_three_values_three_traces(self, tmp_path):
        cfg = config_from_dict(synthetic_config(tmp_path))
        statuses = sweep(cfg, "q", [1, 3, 5])
        assert [s["ok"] for s in statuses] == [True, True, True]
        for status, q in zip(statuses, (1, 3, 5)):
            assert f"_q{q}" in status["trace"]
            assert read_trace(status["trace"])

    def test_degenerate_sweep_equals_direct_run(self, tmp_path):
        cfg = config_from_dict(synthetic_config(tmp_path))
        statuses = sweep(cfg, "gamma", [1.0])
        direct = config_from_dict(synthetic_config(tmp_path, output=str(tmp_path / "direct.csv")))
        run_experiment(direct)
        assert rows_excluding_wall_time(statuses[0]["trace"]) == rows_excluding_wall_time(
            direct.output
        )

    def test_logreg_sweep_reads_the_data_once(self, tmp_path, logreg_file, monkeypatch):
        loads = []
        load = runner.load_libsvm
        monkeypatch.setattr(runner, "load_libsvm", lambda path: loads.append(path) or load(path))
        raw = {
            "method": "hozog",
            "problem": {"kind": "logreg", "data": str(logreg_file)},
            "inner": {"variant": "gd", "steps": 20, "lr": 0.02},
            "hozog": {"q": 1, "mu": 0.01, "gamma": 0.01, "iterations": 3, "seed": 1},
            "lambda0": 0.0,
            "output": str(tmp_path / "sweep.csv"),
        }
        statuses = sweep(config_from_dict(raw), "q", [1, 2, 3])
        assert len(loads) == 1
        # each value's trace is the one its own run_experiment writes
        for status, q in zip(statuses, (1, 2, 3)):
            direct = config_from_dict(
                {**raw, "hozog": {**raw["hozog"], "q": q}, "output": str(tmp_path / f"q{q}.csv")}
            )
            run_experiment(direct)
            assert rows_excluding_wall_time(status["trace"]) == rows_excluding_wall_time(
                direct.output
            )

    def test_a_problem_that_fails_to_build_fails_every_value(self, tmp_path, multiclass_file):
        cfg = config_from_dict(
            {
                "method": "hozog",
                "problem": {"kind": "logreg", "data": str(multiclass_file)},
                "hozog": {"q": 1, "iterations": 2},
                "output": str(tmp_path / "sweep.csv"),
            }
        )
        statuses = sweep(cfg, "mu", [0.01, 0.1])
        assert [(s["value"], s["ok"]) for s in statuses] == [(0.01, False), (0.1, False)]
        assert all("problem.binarize_seed" in str(s["error"]) for s in statuses)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["multi.libsvm"]

    def test_errors_isolate_per_run(self, tmp_path):
        cfg = config_from_dict(
            synthetic_config(
                tmp_path,
                problem={"kind": "synthetic", "c": 3.0, "w_star": 1.0},
                inner={"variant": "gd", "steps": 400, "lr": 0.1},
                hozog={"q": 1, "mu": 0.01, "gamma": 0.5, "iterations": 10, "seed": 0},
                lambda0=0.0,
            )
        )
        # mu large enough to probe into the unstable region at gamma sweep?
        # Instead sweep gamma with one value that drives lam into divergence.
        statuses = sweep(cfg, "gamma", [0.1, 500.0])
        assert statuses[0]["ok"]
        assert not statuses[1]["ok"]
        # an output that cannot be opened fails its own value, and the later values still run
        (tmp_path / "trace_gamma0.2.csv").mkdir()
        statuses = sweep(cfg, "gamma", [0.1, 0.2, 0.3])
        assert [s["ok"] for s in statuses] == [True, False, True]
        assert "trace_gamma0.2.csv" in str(statuses[1]["error"])

    def test_manifest_records_swept_value_and_base_seed(self, tmp_path):
        cfg = config_from_dict(
            synthetic_config(
                tmp_path, hozog={"q": 2, "mu": 0.001, "gamma": 1.0, "iterations": 3, "seed": 7}
            )
        )
        statuses = sweep(cfg, "mu", [0.01, 0.1])
        for status, mu in zip(statuses, (0.01, 0.1)):
            manifest_path = status["trace"].replace(".csv", ".manifest.json")
            manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
            assert manifest["config"]["hozog"] == {
                "q": 2,
                "mu": mu,
                "gamma": 1.0,
                "iterations": 3,
                "seed": 7,
                "direction_scheme": "sphere",
            }
            assert manifest["config"]["hozog"]["seed"] == 7

    def test_every_value_is_checked_before_the_first_run(self, tmp_path, capsys):
        cfg = config_from_dict(synthetic_config(tmp_path))
        with pytest.raises(ConfigError) as excinfo:
            sweep(cfg, "q", [1, 0])
        assert excinfo.value.field == "hozog.q"
        path = write_config(tmp_path, synthetic_config(tmp_path))
        assert cli_main(["sweep", "--config", str(path), "--axis", "q", "--values", "1,0"]) == 2
        assert "hozog.q" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_a_mu_whose_estimate_scale_overflows_is_refused_before_the_first_run(self, tmp_path):
        cfg = config_from_dict(synthetic_config(tmp_path))
        with pytest.raises(ConfigError, match=r"^config field 'hozog.mu': is too small: p/\(mu\*q\)"):
            sweep(cfg, "mu", [0.01, 5e-324])
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_bad_axis_rejected(self, tmp_path):
        cfg = config_from_dict(synthetic_config(tmp_path))
        with pytest.raises(ConfigError):
            sweep(cfg, "seed", [1, 2])


class TestConfigValidation:
    def test_logreg_inner_default_is_finite_over_the_box(self, tmp_path):
        # acceptance-4-shaped data: the loss sums 1000 rows, so GD at lr 0.1
        # diverges for lambda >= 5.5 and only Adam's scaled steps stay finite
        ds = random_classification_dataset(2000, 40, seed=100, class_sep=2.0, noise_flip=0.05)
        data = tmp_path / "logreg.libsvm"
        data.write_text(serialize_libsvm(ds))
        cfg = config_from_dict(
            {
                "method": "hozog",
                "problem": {"kind": "logreg", "data": str(data), "split_seed": 0},
                "hozog": {"q": 1, "mu": 0.01, "gamma": 0.05, "iterations": 0},
                "output": str(tmp_path / "t.csv"),
            }
        )
        assert (cfg.inner.variant, cfg.inner.steps, cfg.inner.lr) == ("adam", 150, 0.1)
        spec = build_objective(cfg)
        for lam in (-10.0, 0.0, 5.5, 10.0):
            assert math.isfinite(evaluate(spec, np.array([lam])).f_value)

    def test_sections_become_runtime_objects_with_defaults(self, tmp_path, logreg_file):
        cfg = config_from_dict(
            {
                "method": "hozog",
                "problem": {"kind": "logreg", "data": str(logreg_file)},
                "hozog": {},
                "output": str(tmp_path / "t.csv"),
            }
        )
        assert cfg.inner == InnerSolver(steps=150, lr=0.1, variant="adam")
        assert cfg.hozog == ZoConfig(q=1, mu=0.01, gamma=0.05, iterations=0)

    @pytest.mark.parametrize(
        "section, value, field",
        [
            ("", {"typo_key": 1}, "typo_key"),
            ("hozog", {"qq": 2}, "hozog.qq"),
            ("hozog", {"mu": -1.0}, "hozog.mu"),
            ("inner", {"lr": 0.0}, "inner.lr"),
            ("inner", {"steps": -1}, "inner.steps"),
            ("inner", {"variant": "sgd"}, "inner.variant"),
            ("hozog", {"q": 0}, "hozog.q"),
            ("hozog", {"seed": -1}, "hozog.seed"),
            ("hozog", {"seed": None}, "hozog.seed"),
            ("hozog", {"q": 2.5}, "hozog.q"),
            ("hozog", {"iterations": 2.5}, "hozog.iterations"),
            ("inner", {"steps": True}, "inner.steps"),
            ("random_search", {"budget": 2.5}, "random_search.budget"),
            ("lambda0", True, "lambda0"),
            # a lipschitz-report config: a dict is merged into its top level,
            # anything else replaces it
            ("lipschitz-report", {"n_pairs": "200"}, "n_pairs"),
            ("lipschitz-report", {"box": [-2, 2]}, "box"),
            ("lipschitz-report", {"seed": -1}, "seed"),
            ("lipschitz-report", "abc", "config"),
            ("lipschitz-report", [3], "config"),
            # NaN is valid JSON to json.load and fails every range check
            ("hozog", {"mu": float("nan")}, "hozog.mu"),
            ("hozog", {"gamma": float("nan")}, "hozog.gamma"),
            ("inner", {"lr": float("nan")}, "inner.lr"),
            ("lipschitz-report", {"n_pairs": 0}, "n_pairs"),
            ("lipschitz-report", {"box": [[2.0, -2.0]]}, "box"),
            # keys that are no longer options
            ("problem", {"mode": "iterative"}, "problem.mode"),
            ("inner", {"beta1": 0.9}, "inner.beta1"),
            ("inner", {"beta2": 1.5}, "inner.beta2"),
            ("inner", {"eps": 1e-8}, "inner.eps"),
            ("lambda0", "zeros", "lambda0"),
            # json.load also reads Infinity, and no number may be non-finite
            ("lambda0", float("nan"), "lambda0"),
            ("hozog", {"mu": float("inf")}, "hozog.mu"),
            ("hozog", {"gamma": float("inf")}, "hozog.gamma"),
            ("problem", {"c": float("nan")}, "problem.c"),
            ("", {"problem": {"kind": "logreg", "data": "/nonexistent/file.libsvm"}}, "problem.data"),
            # relations between keys, checked before any data is read: the
            # data path is this test file, which is not LIBSVM
            ("problem", {"w_star": 3.0}, "problem"),
            (
                "",
                {
                    "problem": {
                        "kind": "hyperclean",
                        "data": __file__,
                        "n_train": 40,
                        "n_val": 40,
                        "n_test": 40,
                        "n_groups": 41,
                    }
                },
                "problem",
            ),
            ("random_search", {"budget": 5, "box": [[-1.0, 1.0], [-1.0, 1.0]]}, "random_search.box"),
            ("random_search", {"budget": 5, "box": [[0.0, 1.0], [1.0, 0.0]]}, "random_search.box"),
            ("lipschitz-report", {"box": [[-2.0, 2.0], [-2.0, 2.0]]}, "box"),
            # a hozog run has no use for a random_search section
            ("", {"random_search": {"budget": 5}}, "random_search"),
            # e^800 is past the double range; the bound takes it through the
            # exp cap, as the solver does, and the step map is expansive
            ("lipschitz-report", {"box": [[-2.0, 800.0]]}, "inner.lr"),
            # values whose type no check looked at first: an integer float()
            # cannot take, a list as a choice, a NUL byte in a path
            ("problem", {"c": 10**400}, "problem.c"),
            ("problem", {"kind": ["synthetic"]}, "problem.kind"),
            ("", {"output": "\u0000"}, "output"),
            ("lipschitz-report", {"output": "\u0000"}, "output"),
            # the estimate's scale p/(mu*q) overflows
            ("hozog", {"mu": 5e-324}, "hozog.mu"),
            # a key is named as repr writes it, on one line
            ("", {"typo\nkey": 1}, "typo\\nkey"),
        ],
    )
    def test_bad_section_value_names_its_field(self, tmp_path, capsys, section, value, field):
        if section == "lipschitz-report":
            command = section
            cfg = lipschitz_report_config(tmp_path)
            cfg = {**cfg, **value} if isinstance(value, dict) else value
        else:
            # a dict is merged into the section ("" is the top level),
            # anything else replaces it
            command = "run"
            cfg = synthetic_config(tmp_path, inner={"steps": 10})
            if section == "random_search":
                cfg["method"] = "random_search"
                del cfg["hozog"]
            if section == "":
                cfg.update(value)
            else:
                cfg[section] = {**cfg.get(section, {}), **value} if isinstance(value, dict) else value
        path = write_config(tmp_path, cfg)
        assert cli_main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}'" in err and err.count("\n") == 1, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("kind", ["synthetic", "logreg", "hyperclean"])
    def test_p_and_default_box_match_the_built_problem(self, tmp_path, multiclass_file, kind):
        problem = {
            "synthetic": {"kind": "synthetic", "c": 3.0, "w_star": 1.0},
            "logreg": {"kind": "logreg", "data": str(multiclass_file), "binarize_seed": 0},
            "hyperclean": hyperclean_config(tmp_path, multiclass_file, 0.0)["problem"],
        }[kind]
        cfg = config_from_dict(random_search_config(tmp_path, {"budget": 1}, problem=problem))
        spec = build_objective(cfg)
        assert problem_p(cfg.problem) == spec.p
        # the declared bounds where the problem has them, else [-5, 5] per coordinate
        expected = np.tile([-5.0, 5.0], (spec.p, 1)) if spec.bounds is None else spec.bounds
        np.testing.assert_array_equal(cfg.random_search.box, expected)

    def test_random_search_configs_compare_by_value(self, tmp_path):
        raw = random_search_config(tmp_path, {"budget": 4, "box": [[0.0, 1.0]]})
        assert config_from_dict(raw) == config_from_dict(raw)
        other = {**raw, "random_search": {"budget": 4, "box": [[0.0, 2.0]]}}
        assert config_from_dict(raw) != config_from_dict(other)

    def test_load_config_from_file(self, tmp_path):
        path = write_config(tmp_path, synthetic_config(tmp_path))
        cfg = load_config(path)
        assert cfg.method == "hozog"


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, synthetic_config(tmp_path))
        assert cli_main(["run", "--config", str(path)]) == 0
        assert "trace written" in capsys.readouterr().out

    def test_nonfinite_exit_three(self, tmp_path, capsys):
        cfg = synthetic_config(
            tmp_path,
            problem={"kind": "synthetic", "c": 3.0, "w_star": 1.0},
            inner={"variant": "gd", "steps": 400, "lr": 5.0},
            lambda0=2.0,
        )
        path = write_config(tmp_path, cfg)
        assert cli_main(["run", "--config", str(path)]) == 3
        assert "meta-iteration 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, change, code, err",
        [
            # the product bound's sum overflows to inf, then the solve diverges
            ("lipschitz-report", {"problem": {"kind": "synthetic", "c": 1e308, "w_star": 1.0}}, 3,
             "non-finite objective: objective is not finite at lam=[0.54784675]\n"),
            # one step at lr 1e308 leaves finite models whose validation score
            # overflows for some samples, which the search skips
            ("run", {"method": "random_search", "inner": {"steps": 1, "lr": 1e308},
                     "random_search": {"budget": 4}}, 0, ""),
        ],
        ids=["bound", "hyperclean"],
    )
    def test_an_overflow_prints_one_line_or_none(
        self, tmp_path, capsys, multiclass_file, command, change, code, err
    ):
        if command == "lipschitz-report":
            cfg = {**lipschitz_report_config(tmp_path), **change}
        else:
            cfg = {**hyperclean_config(tmp_path, multiclass_file, 0.0), **change}
            del cfg["hozog"]
        assert cli_main([command, "--config", str(write_config(tmp_path, cfg))]) == code
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize(
        "argv, stem", [(["run"], "trace"), (["sweep", "--axis", "mu", "--values", "0.001"],
                                            "trace_mu0.001")], ids=["run", "sweep"],
    )
    def test_a_failed_rerun_leaves_its_partial_trace_and_no_manifest(
        self, tmp_path, capsys, argv, stem
    ):
        inner = {"variant": "gd", "steps": 50, "lr": 0.1}
        first = synthetic_config(tmp_path, inner=inner, hozog={"q": 1, "iterations": 2})
        assert cli_main([*argv, "--config", str(write_config(tmp_path, first))]) == 0
        assert (tmp_path / f"{stem}.manifest.json").exists()
        diverging = dict(first, inner={**inner, "lr": 5.0, "steps": 400}, lambda0=2.0)
        assert cli_main([*argv, "--config", str(write_config(tmp_path, diverging))]) == 3
        assert read_trace(tmp_path / f"{stem}.csv") == []
        assert not (tmp_path / f"{stem}.manifest.json").exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "lipschitz-report"])
    @pytest.mark.parametrize("level", ["section", "top"])
    def test_a_repeated_key_is_a_config_error_and_writes_nothing(
        self, tmp_path, capsys, command, level
    ):
        if command == "lipschitz-report":
            cfg, section = lipschitz_report_config(tmp_path), ("inner", "steps")
        else:
            cfg = synthetic_config(tmp_path, inner={"variant": "gd", "steps": 5, "lr": 0.1})
            section = ("hozog", "gamma")
        where, key = (cfg[section[0]], section[1]) if level == "section" else (cfg, "output")
        # JSON that holds the key twice, each value valid: json.dumps cannot write one
        first, last = where[key], str(tmp_path / "other.csv") if key == "output" else 2
        where[key] = "@"
        text = json.dumps(cfg).replace(f'"{key}": "@"', f'"{key}": {json.dumps(first)}, '
                                                        f'"{key}": {json.dumps(last)}')
        path = tmp_path / "config.json"
        path.write_text(text)
        extra = ["--axis", "mu", "--values", "0.001"] if command == "sweep" else []
        before = sorted(p.name for p in tmp_path.iterdir())
        assert cli_main([command, "--config", str(path), *extra]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: config field '{key}': appears more than once in one object\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_sweep_command(self, tmp_path, capsys):
        path = write_config(tmp_path, synthetic_config(tmp_path))
        assert cli_main(["sweep", "--config", str(path), "--axis", "mu", "--values", "0.001,0.01"]) == 0
        out = capsys.readouterr().out
        assert "mu=0.001: ok" in out

    @pytest.mark.parametrize(
        "steps, reason",
        [
            (500, "inner solve diverged"),
            # 50 steps leave a finite iterate whose squared outer loss overflows
            (50, "objective is not finite"),
        ],
    )
    def test_sweep_reports_a_failed_value_and_exits_three(self, tmp_path, capsys, steps, reason):
        cfg = synthetic_config(tmp_path, inner={"variant": "gd", "steps": steps, "lr": 0.1})
        path = write_config(tmp_path, cfg)
        argv = ["sweep", "--config", str(path), "--axis", "mu", "--values", "0.01,10"]
        assert cli_main(argv) == 3
        out = capsys.readouterr().out
        assert "mu=0.01: ok" in out
        assert f"mu=10.0: FAILED (non-finite objective at meta-iteration 0: {reason}" in out

    @pytest.mark.parametrize(
        "data, values, code, failure",
        # mu 0.01's output is a directory; bad.libsvm has the line "bad line", and
        # multi.libsvm (the multiclass_file fixture) 3 classes
        [
            (None, "0.001,0.01,0.1", 1, "error: [Errno 21] Is a directory: "),
            (None, "0.01,10,0.1", 3, "non-finite objective at meta-iteration 0: "),
            ("bad", "0.01,0.1", 1, "parse error: line 2, column 1: label is not a number"),
            ("multi", "0.01,0.1", 2, "config error: config field 'problem.binarize_seed'"),
        ],
        ids=["an output is a directory", "and a value diverges", "bad data", "3 classes"],
    )
    def test_sweep_exits_with_the_highest_code_run_would_give(
        self, tmp_path, capsys, multiclass_file, data, values, code, failure
    ):
        (tmp_path / "bad.libsvm").write_text("1 1:1.0\nbad line\n")
        (tmp_path / "trace_mu0.01.csv").mkdir()
        cfg = synthetic_config(tmp_path, inner={"variant": "gd", "steps": 500, "lr": 0.1})
        if data:
            cfg["problem"] = {"kind": "logreg", "data": str(tmp_path / f"{data}.libsvm")}
        path = write_config(tmp_path, cfg)
        assert cli_main(["sweep", "--config", str(path), "--axis", "mu", "--values", values]) == code
        out = capsys.readouterr().out
        assert f"FAILED ({failure}" in out and ("mu=0.1: ok" in out) == (data is None), out
        if data:  # hozog run prints the same line for the same config
            assert cli_main(["run", "--config", str(path)]) == code
            assert f"mu=0.1: FAILED ({capsys.readouterr().err.strip()})" in out

    def test_sweep_values_that_are_not_numbers_name_values(self, tmp_path, capsys):
        path = write_config(tmp_path, synthetic_config(tmp_path))
        assert cli_main(["sweep", "--config", str(path), "--axis", "mu", "--values", "a,b"]) == 2
        assert "config field 'values'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_parse_data_without_summary(self, tmp_path, logreg_file, capsys):
        assert cli_main(["parse-data", "--input", str(logreg_file)]) == 0
        assert capsys.readouterr().out == "ok: 120 rows\n"

    def test_parse_data_summary(self, tmp_path, logreg_file, capsys):
        assert cli_main(["parse-data", "--input", str(logreg_file), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "rows: 120" in out
        assert "n_features: 8" in out

    # a superscript two passes str.isdigit but not int()
    @pytest.mark.parametrize("line", ["1 0:1.0", "1 \u00b2:1.0"])
    def test_parse_data_failure_exit_one(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.libsvm"
        bad.write_text(f"{line}\n", encoding="utf-8")
        assert cli_main(["parse-data", "--input", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("parse error: line 1, column 3:")

    @pytest.mark.parametrize("command", ["run", "parse-data"])
    def test_an_index_above_a_c_int_is_one_parse_error_line(self, tmp_path, capsys, command):
        # LIBSVM holds a feature index in a C int; a wider one is refused where it stands
        data = tmp_path / "wide.libsvm"
        data.write_text("1 1:1.0\n-1 99999999999999999999:1.0\n", encoding="utf-8")
        config = write_config(
            tmp_path,
            {
                "method": "hozog",
                "problem": {"kind": "logreg", "data": str(data)},
                "hozog": {"iterations": 1},
                "output": str(tmp_path / "trace.csv"),
            },
        )
        argv = {"run": ["run", "--config", str(config)], "parse-data": ["parse-data", "--input", str(data)]}
        assert cli_main(argv[command]) == 1
        assert capsys.readouterr().err == (
            "parse error: line 2, column 4: feature index above 2^31 - 1: '99999999999999999999'\n"
        )

    def test_lipschitz_report_writes_the_configs_box(self, tmp_path, capsys):
        cfg = lipschitz_report_config(tmp_path)
        cfg["box"] = [[-2, 1.5]]
        path = write_config(tmp_path, cfg, name="lip.json")
        assert cli_main(["lipschitz-report", "--config", str(path)]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["domain_box"] == [[-2.0, 1.5]]
        assert '"domain_box": [[-2.0, 1.5]]' in capsys.readouterr().out

    def test_lipschitz_report(self, tmp_path, capsys):
        path = write_config(tmp_path, lipschitz_report_config(tmp_path), name="lip.json")
        assert cli_main(["lipschitz-report", "--config", str(path)]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["bound"] >= payload["empirical_max_ratio"] >= 0.0
        assert payload["samples"] == 200

    @pytest.mark.parametrize("lr", [0.3, 0.1])
    def test_lipschitz_report_of_an_adam_solve_has_no_bound(self, tmp_path, capsys, lr):
        # the product bound models the GD step map, whose precondition
        # (lr 0.3 is expansive over the box) says nothing about Adam
        cfg = lipschitz_report_config(tmp_path)
        cfg["inner"] = {"variant": "adam", "steps": 20, "lr": lr}
        path = write_config(tmp_path, cfg, name="lip.json")
        assert cli_main(["lipschitz-report", "--config", str(path)]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["bound"] is None
        assert payload["samples"] == 200 and payload["empirical_max_ratio"] > 0.0

    @pytest.mark.parametrize(
        "case, code, prefix",
        [
            ("data names a directory", 2, "config error: config field 'problem.data'"),
            ("data is not UTF-8", 1, "parse error: line 2, column 1:"),
            ("parse-data of a missing path", 1, "error: "),
            ("parse-data of a directory", 1, "error: "),
            ("parse-data of a file that is not UTF-8", 1, "parse error: line 2, column 1:"),
            ("config names a directory", 2, "config error: config field 'config'"),
            ("config is not UTF-8", 2, "config error: config field 'config'"),
            ("data is a cut gzip", 1, "error: {cut}: damaged gzip data (Compressed file ended"),
            ("data is a damaged gzip", 1, "error: {damaged}: damaged gzip data (Error -3"),
            ("parse-data of a cut gzip", 1, "error: {cut}: damaged gzip data (Compressed"),
            ("parse-data of a damaged gzip", 1, "error: {damaged}: damaged gzip data (Error -3"),
        ],
    )
    def test_unreadable_file_is_one_line_and_an_exit_code(
        self, tmp_path, capsys, case, code, prefix
    ):
        (tmp_path / "dir").mkdir()
        bad = tmp_path / "bad.libsvm"
        bad.write_bytes(b"1 1:1.0\n\xff\xfe 1:2.0\n")
        text = "".join(f"{(-1) ** i} 1:{i}.5 2:{i * 7}\n" for i in range(300))
        packed = gzip.compress(text.encode(), mtime=0)
        cut, damaged = tmp_path / "cut.libsvm.gz", tmp_path / "damaged.libsvm.gz"
        cut.write_bytes(packed[: len(packed) // 2])
        damaged.write_bytes(packed[:40] + bytes(20) + packed[60:])
        prefix = prefix.format(cut=cut, damaged=damaged)
        data = {
            "data names a directory": tmp_path / "dir",
            "data is not UTF-8": bad,
            "data is a cut gzip": cut,
            "data is a damaged gzip": damaged,
        }
        config = write_config(
            tmp_path,
            {
                "method": "hozog",
                "problem": {"kind": "logreg", "data": str(data.get(case, bad))},
                "hozog": {"iterations": 1},
                "output": str(tmp_path / "trace.csv"),
            },
        )
        (tmp_path / "latin1.json").write_bytes(b'{"method": "\xe9"}')
        argv = {
            "parse-data of a missing path": ["parse-data", "--input", str(tmp_path / "none")],
            "parse-data of a directory": ["parse-data", "--input", str(tmp_path / "dir")],
            "parse-data of a file that is not UTF-8": ["parse-data", "--input", str(bad)],
            "config names a directory": ["run", "--config", str(tmp_path / "dir")],
            "config is not UTF-8": ["run", "--config", str(tmp_path / "latin1.json")],
            "parse-data of a cut gzip": ["parse-data", "--input", str(cut)],
            "parse-data of a damaged gzip": ["parse-data", "--input", str(damaged)],
        }.get(case, ["run", "--config", str(config)])
        before = sorted(p.name for p in tmp_path.iterdir())
        assert cli_main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "command, change, field",
        [
            ("run", {"lambda0": [0.0, 0.0]}, "lambda0"),
            (
                "run",
                {"method": "random_search", "random_search": {"budget": 2, "box": [[0, 1]]}},
                "random_search.box",
            ),
            ("lipschitz-report", {"box": [[0.0, 1.0]] * 3}, "box"),
        ],
    )
    def test_a_length_that_needs_p_fails_before_the_data_is_read(
        self, tmp_path, capsys, command, change, field
    ):
        bad = tmp_path / "bad.libsvm"
        bad.write_text("1 1:1.0 oops\n")
        cfg = {**hyperclean_config(tmp_path, bad, 0.0), **change}
        if command == "lipschitz-report":
            cfg = {key: cfg[key] for key in ("problem", "inner", "box")}
        elif cfg["method"] == "random_search":
            del cfg["hozog"]
        path = write_config(tmp_path, cfg)
        assert cli_main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config field '{field}'"), err
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.libsvm", "config.json"]

    def test_an_os_error_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        def unreadable(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr("hozog.data_io.load_libsvm", unreadable)
        assert cli_main(["parse-data", "--input", str(tmp_path / "x.libsvm")]) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 13] Permission denied")

    @pytest.mark.parametrize("command", ["run", "lipschitz-report"])
    @pytest.mark.parametrize(
        "output, reason",
        [
            ("dir", "is a directory"),
            ("file.txt/out.csv", "no such directory"),
            ("missing/out.csv", "no such directory"),
        ],
    )
    def test_an_output_that_cannot_be_written_fails_before_the_data_is_read(
        self, tmp_path, capsys, command, output, reason
    ):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file.txt").write_text("")
        bad = tmp_path / "bad.libsvm"
        bad.write_text("1 1:1.0 oops\n")
        cfg = {**hyperclean_config(tmp_path, bad, 0.0), "output": str(tmp_path / output)}
        if command == "lipschitz-report":
            cfg = {"problem": cfg["problem"], "inner": cfg["inner"], "output": cfg["output"],
                   "box": [[0.0, 1.0]] * 4}
        path = write_config(tmp_path, cfg)
        before = sorted(p.name for p in tmp_path.iterdir())
        assert cli_main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config field 'output'") and reason in err, err
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_expansive_lipschitz_report_is_rejected_before_sampling(
        self, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("empirical_lipschitz must not be called")

        monkeypatch.setattr("hozog.harness.cli.empirical_lipschitz", never)
        cfg = lipschitz_report_config(tmp_path)
        cfg["inner"] = {"variant": "gd", "steps": 50, "lr": 1.0}
        cfg["n_pairs"] = 20000
        path = write_config(tmp_path, cfg)
        assert cli_main(["lipschitz-report", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config field 'inner.lr'" in err and "expansive" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_multiclass_logreg_needs_binarize_seed(self, tmp_path, capsys, multiclass_file):
        cfg = {
            "method": "hozog",
            "problem": {"kind": "logreg", "data": str(multiclass_file), "binarize_seed": 3},
            "inner": {"steps": 10},
            "hozog": {"q": 1, "iterations": 2},
            "output": str(tmp_path / "trace.csv"),
        }
        path = write_config(tmp_path, cfg)
        assert cli_main(["run", "--config", str(path)]) == 0
        assert len(read_trace(tmp_path / "trace.csv")) == 3
        del cfg["problem"]["binarize_seed"]
        cfg["output"] = str(tmp_path / "other.csv")
        path = write_config(tmp_path, cfg)
        assert cli_main(["run", "--config", str(path)]) == 2
        assert "config field 'problem.binarize_seed'" in capsys.readouterr().err
        assert not (tmp_path / "other.csv").exists()


class TestOutputNames:
    def test_close_sweep_values_write_distinct_files(self, tmp_path, capsys):
        path = write_config(tmp_path, synthetic_config(tmp_path, output=str(tmp_path / "sw.csv")))
        argv = ["sweep", "--config", str(path), "--axis", "mu", "--values", "0.1,0.1000001"]
        assert cli_main(argv) == 0
        assert "mu=0.1000001: ok" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json",
            "sw_mu0.1.csv",
            "sw_mu0.1.manifest.json",
            "sw_mu0.1000001.csv",
            "sw_mu0.1000001.manifest.json",
        ]

    def test_sweep_tags_are_the_printed_values(self, tmp_path, capsys):
        path = write_config(tmp_path, synthetic_config(tmp_path, output=str(tmp_path / "sw.csv")))
        assert cli_main(["sweep", "--config", str(path), "--axis", "mu", "--values", "1"]) == 0
        assert f"mu=1.0: ok -> {tmp_path / 'sw_mu1.0.csv'}" in capsys.readouterr().out

    @pytest.mark.parametrize("values", ["0.1,0.1", "1,1.0"])
    def test_a_repeated_value_is_rejected_before_the_first_run(self, tmp_path, capsys, values):
        path = write_config(tmp_path, synthetic_config(tmp_path))
        assert cli_main(["sweep", "--config", str(path), "--axis", "mu", "--values", values]) == 2
        assert "config field 'values'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_an_output_without_csv_keeps_its_manifest_apart(self, tmp_path):
        cfg = config_from_dict(synthetic_config(tmp_path, output=str(tmp_path / "run")))
        statuses = sweep(cfg, "mu", [0.1, 0.2])
        assert [s["ok"] for s in statuses] == [True, True]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run_mu0.1",
            "run_mu0.1.manifest.json",
            "run_mu0.2",
            "run_mu0.2.manifest.json",
        ]

    @pytest.mark.parametrize(
        "output, manifest",
        [
            ("trace.csv", "trace.manifest.json"),
            ("run", "run.manifest.json"),
            ("run.1", "run.1.manifest.json"),
            ("a.csv.csv", "a.csv.manifest.json"),
        ],
    )
    def test_manifest_name(self, tmp_path, output, manifest):
        cfg = config_from_dict(synthetic_config(tmp_path, output=str(tmp_path / output)))
        assert run_experiment(cfg)["manifest"] == str(tmp_path / manifest)
        assert (tmp_path / manifest).is_file()


class TestRandomSearchRun:
    def test_takes_no_hozog_section(self, tmp_path, capsys):
        hozog = {"seed": 5, "gamma": 123, "iterations": 99}
        cfg = random_search_config(tmp_path, {"budget": 3}, hozog=hozog)
        path = write_config(tmp_path, cfg)
        assert cli_main(["run", "--config", str(path)]) == 2
        assert "config field 'hozog'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_manifest_has_no_hozog_section(self, tmp_path):
        cfg = config_from_dict(random_search_config(tmp_path, {"budget": 3, "seed": 4}))
        manifest = json.loads(Path(run_experiment(cfg)["manifest"]).read_text(encoding="utf-8"))
        assert "hozog" not in manifest["config"]
        assert manifest["config"]["random_search"]["seed"] == 4
