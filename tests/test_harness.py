"""Harness tests: metrics, traces, configs, runner, sweep, CLI."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from hozog import InnerSolver, ZoConfig, evaluate, function_objective
from hozog.data_io import random_classification_dataset, serialize_libsvm
from hozog.errors import ConfigError
from hozog.harness import (
    TRACE_COLUMNS,
    TraceWriter,
    compute_metrics,
    load_config,
    run_experiment,
    sweep,
)
from hozog.harness.cli import main as cli_main
from hozog.harness.config import config_from_dict
from hozog.harness.runner import build_objective
from hozog.problems import make_synthetic

from conftest import read_trace, rows_excluding_wall_time


def metrics_rng():
    return np.random.default_rng(99)


def probe_config(q, mu):
    return ZoConfig(q=q, mu=mu, gamma=1.0, iterations=0)


class TestComputeMetrics:
    def test_first_record_suboptimality_is_zero(self):
        spec = make_synthetic(3.0, 1.0)
        sample = compute_metrics(
            spec, np.array([1.0]), math.inf, probe=probe_config(1, 0.01), metrics_rng=metrics_rng()
        )
        assert sample.suboptimality == 0.0
        assert sample.metric_calls == 2  # f itself plus the q-call probe

    def test_running_minimum_sequence(self):
        # f-values 5, 3, 4 against the running minimum give 0, 0, 1
        rng = metrics_rng()
        history = math.inf
        subopts = []
        for f_known in (5.0, 3.0, 4.0):
            # a fixed-value oracle per step isolates the bookkeeping
            spec_step = function_objective(lambda lam, v=f_known: v, p=1)
            sample = compute_metrics(
                spec_step, np.zeros(1), history, probe=probe_config(1, 0.01), metrics_rng=rng
            )
            history = sample.history_min
            subopts.append(sample.suboptimality)
        assert subopts == [0.0, 0.0, 1.0]
        assert history == 3.0

    def test_constant_oracle_zero_gradient_norm(self):
        spec = function_objective(lambda lam: 2.5, p=3)
        sample = compute_metrics(
            spec, np.zeros(3), math.inf, probe=probe_config(4, 0.1), metrics_rng=metrics_rng()
        )
        assert sample.grad_norm_est == 0.0

    def test_reuses_provided_evaluation(self):
        count = {"n": 0}

        def f(lam):
            count["n"] += 1
            return 1.0

        spec = function_objective(f, p=1)
        ev = evaluate(spec, np.zeros(1))
        count["n"] = 0
        sample = compute_metrics(
            spec,
            np.zeros(1),
            math.inf,
            probe=probe_config(2, 0.1),
            metrics_rng=metrics_rng(),
            evaluation=ev,
        )
        assert count["n"] == 2  # only the q perturbed points of the probe
        assert sample.metric_calls == 2

    def test_provided_evaluation_leaves_gradient_estimate_unchanged(self):
        spec = make_synthetic(3.0, 1.0, inner=InnerSolver(steps=50, lr=0.1))
        lam = np.array([0.4])
        fresh = compute_metrics(
            spec, lam, math.inf, probe=probe_config(3, 0.01), metrics_rng=metrics_rng()
        )
        reused = compute_metrics(
            spec,
            lam,
            math.inf,
            probe=probe_config(3, 0.01),
            metrics_rng=metrics_rng(),
            evaluation=evaluate(spec, lam),
        )
        assert reused.grad_norm_est == fresh.grad_norm_est
        assert (fresh.metric_calls, reused.metric_calls) == (4, 3)


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


def lipschitz_report_config(tmp_path):
    return {
        "problem": {"kind": "synthetic", "c": 3.0, "w_star": 1.0},
        "inner": {"variant": "gd", "steps": 20, "lr": 0.1},
        "box": [[-2.0, 2.0]],
        "n_pairs": 200,
        "seed": 0,
        "output": str(tmp_path / "report.json"),
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
        assert "numpy" in manifest["versions"]

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
            "random_search": {
                "method": "random_search",
                "problem": {"kind": "synthetic", "c": 3.0, "w_star": 1.0},
                "random_search": {"budget": 4},
            },
            "iterative_synthetic": {
                "method": "hozog",
                "problem": {"kind": "synthetic", "c": 3.0, "w_star": 1.0},
                "inner": {"variant": "adam", "steps": 7},
                "hozog": {"iterations": 2},
            },
            "hyperclean": {
                "method": "hozog",
                "problem": {
                    "kind": "hyperclean",
                    "data": str(multiclass_file),
                    "n_train": 40,
                    "n_val": 40,
                    "n_test": 40,
                    "n_groups": 4,
                },
                "inner": {"steps": 5},
                "hozog": {"iterations": 1},
            },
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

    def test_trace_reproducible_up_to_wall_time(self, tmp_path):
        cfg_a = config_from_dict(synthetic_config(tmp_path, output=str(tmp_path / "a.csv")))
        cfg_b = config_from_dict(synthetic_config(tmp_path, output=str(tmp_path / "b.csv")))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        assert rows_excluding_wall_time(cfg_a.output) == rows_excluding_wall_time(cfg_b.output)

    def test_worker_count_invariance(self, tmp_path, logreg_file):
        base = {
            "method": "hozog",
            "problem": {"kind": "logreg", "data": str(logreg_file), "split_seed": 0},
            "inner": {"variant": "gd", "steps": 40, "lr": 0.02},
            "hozog": {"q": 3, "mu": 0.01, "gamma": 0.01, "iterations": 5, "seed": 1},
            "lambda0": 0.0,
        }
        out = {}
        for workers in (1, 4):
            cfg = config_from_dict(
                {**base, "output": str(tmp_path / f"w{workers}.csv"), "max_workers": workers}
            )
            run_experiment(cfg)
            out[workers] = rows_excluding_wall_time(cfg.output)
        assert out[1] == out[4]

    def test_random_search_method(self, tmp_path):
        cfg = config_from_dict(
            {
                "method": "random_search",
                "problem": {"kind": "synthetic", "c": 3.0, "w_star": 1.0},
                "random_search": {"budget": 30, "box": [[-5.0, 5.0]], "seed": 3},
                "output": str(tmp_path / "rs.csv"),
            }
        )
        summary = run_experiment(cfg)
        rows = read_trace(cfg.output)
        assert len(rows) == 30
        assert summary["oracle_calls_optimizer"] == 30
        subopts = [float(r["suboptimality"]) for r in rows]
        assert min(subopts) == 0.0

    def test_equal_budget_axes_align(self, tmp_path):
        # T*(q+1) optimizer calls for hozog == budget for random search
        hozog_cfg = config_from_dict(
            synthetic_config(
                tmp_path,
                hozog={"q": 2, "mu": 0.001, "gamma": 1.0, "iterations": 10, "seed": 0},
                output=str(tmp_path / "h.csv"),
            )
        )
        rs_cfg = config_from_dict(
            {
                "method": "random_search",
                "problem": {"kind": "synthetic", "c": 3.0, "w_star": 1.0},
                "random_search": {"budget": 30, "box": [[-5.0, 5.0]], "seed": 0},
                "output": str(tmp_path / "r.csv"),
            }
        )
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

    def test_bad_axis_rejected(self, tmp_path):
        cfg = config_from_dict(synthetic_config(tmp_path))
        with pytest.raises(ConfigError):
            sweep(cfg, "seed", [1, 2])


class TestConfigValidation:
    def test_unknown_top_level_key_named(self, tmp_path):
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(synthetic_config(tmp_path, typo_key=1))
        assert "typo_key" in str(excinfo.value)

    def test_unknown_nested_key_named(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        cfg["hozog"]["qq"] = 2
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(cfg)
        assert "hozog.qq" in str(excinfo.value)

    def test_missing_data_path(self):
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(
                {
                    "method": "hozog",
                    "problem": {"kind": "logreg", "data": "/nonexistent/file.libsvm"},
                    "hozog": {"q": 1, "mu": 0.01, "gamma": 0.05, "iterations": 1},
                    "output": "t.csv",
                }
            )
        assert "problem.data" in str(excinfo.value)

    def test_range_violations_point_at_section(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        cfg["hozog"]["mu"] = -1.0
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(cfg)
        assert "hozog" in str(excinfo.value)

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
            ("lipschitz-report", {"box": [[-2.0, 2.0], [-2.0, 2.0]]}, "box"),
            # a hozog run has no use for a random_search section
            ("", {"random_search": {"budget": 5}}, "random_search"),
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
            if section == "":
                cfg.update(value)
            else:
                cfg[section] = {**cfg.get(section, {}), **value} if isinstance(value, dict) else value
        path = write_config(tmp_path, cfg)
        assert cli_main([command, "--config", str(path)]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_load_config_from_file(self, tmp_path):
        path = write_config(tmp_path, synthetic_config(tmp_path))
        cfg = load_config(path)
        assert cfg.method == "hozog"


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, synthetic_config(tmp_path))
        assert cli_main(["run", "--config", str(path)]) == 0
        assert "trace written" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, synthetic_config(tmp_path, bogus=1))
        assert cli_main(["run", "--config", str(path)]) == 2
        assert "bogus" in capsys.readouterr().err

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

    def test_sweep_command(self, tmp_path, capsys):
        path = write_config(tmp_path, synthetic_config(tmp_path))
        assert cli_main(["sweep", "--config", str(path), "--axis", "mu", "--values", "0.001,0.01"]) == 0
        out = capsys.readouterr().out
        assert "mu=0.001: ok" in out

    def test_parse_data_summary(self, tmp_path, logreg_file, capsys):
        assert cli_main(["parse-data", "--input", str(logreg_file), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "rows: 120" in out
        assert "n_features: 8" in out

    def test_parse_data_failure_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.libsvm"
        bad.write_text("1 0:1.0\n")
        assert cli_main(["parse-data", "--input", str(bad)]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_lipschitz_report(self, tmp_path, capsys):
        path = write_config(tmp_path, lipschitz_report_config(tmp_path), name="lip.json")
        assert cli_main(["lipschitz-report", "--config", str(path)]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["bound"] >= payload["empirical_max_ratio"] >= 0.0
        assert payload["samples"] == 200
