"""Experiment orchestration: build the objective, run a method, persist traces.

Every run writes its trace CSV and, next to it, a manifest recording the
resolved config (what ran, every default filled in, the random-search box
and the metrics probe included) and the library versions.
"""

from __future__ import annotations

import dataclasses
import json
import platform
from pathlib import Path

import numpy as np
import scipy

from .. import __version__
from ..baselines import RandomSearchConfig, random_search
from ..data_io import binarize, load_libsvm, split_2_1_1
from ..errors import ConfigError, HozogError
from ..oracle import ObjectiveSpec
from ..problems import (
    LogRegProblem,
    hyperclean_objective,
    logreg_objective,
    make_hyperclean,
    make_synthetic,
)
from ..zo_core import ZoConfig, run_hozog
from .config import HOZOG_DEFAULTS, ExperimentConfig, LipschitzConfig, with_hozog
from .metrics import TraceWriter

__all__ = ["build_objective", "run_experiment", "sweep", "SWEEP_AXES"]

SWEEP_AXES = ("q", "mu", "gamma")


def build_objective(cfg: ExperimentConfig | LipschitzConfig) -> ObjectiveSpec:
    """Construct the ObjectiveSpec a config's problem and inner sections describe.

    A synthetic problem without an inner section uses its exact inner solution.
    """
    kind = cfg.problem["kind"]
    if kind == "synthetic":
        return make_synthetic(cfg.problem["c"], cfg.problem["w_star"], inner=cfg.inner)
    if kind == "logreg":
        ds = load_libsvm(cfg.problem["data"], n_features=cfg.problem.get("n_features"))
        labels = {label for label, _ in ds.rows}
        if "binarize_seed" in cfg.problem:
            ds = binarize(ds, cfg.problem["binarize_seed"])
        elif not labels <= {-1.0, 1.0}:
            raise ConfigError(
                "problem.binarize_seed",
                "labels are not {-1, +1}; set binarize_seed to map them",
            )
        train, val, test = split_2_1_1(ds, cfg.problem["split_seed"])
        prob = LogRegProblem.from_datasets(train, val, test)
        return logreg_objective(prob, cfg.inner)
    ds = load_libsvm(cfg.problem["data"])
    prob = make_hyperclean(
        ds,
        n_train=cfg.problem["n_train"],
        n_val=cfg.problem["n_val"],
        n_test=cfg.problem["n_test"],
        n_groups=cfg.problem["n_groups"],
        corruption_seed=cfg.problem["corruption_seed"],
    )
    return hyperclean_objective(prob, cfg.inner)


def _resolve_lambda0(cfg: ExperimentConfig, p: int) -> np.ndarray:
    lam0 = cfg.lambda0
    if isinstance(lam0, float):
        return np.full(p, lam0)
    arr = np.asarray(lam0, dtype=float)
    if arr.shape != (p,):
        raise ConfigError("lambda0", f"has {arr.size} entries, problem has p={p}")
    return arr


def _rs_config(cfg: ExperimentConfig, spec: ObjectiveSpec) -> RandomSearchConfig:
    box = cfg.random_search["box"]
    if box is None:
        if spec.bounds is not None:
            box = spec.bounds
        else:
            # the tasks without declared bounds still need a sampling box
            box = np.tile([-5.0, 5.0], (spec.p, 1))
    elif len(box) != spec.p:
        raise ConfigError("random_search.box", f"has {len(box)} rows, problem has p={spec.p}")
    return RandomSearchConfig(**{**cfg.random_search, "box": box})


def _write_manifest(
    path: Path, cfg: ExperimentConfig, probe: ZoConfig, rs: RandomSearchConfig | None, result: dict
) -> None:
    """Write the resolved config (what ran, defaults filled in) and the library versions.

    A random-search run's hozog section is its metrics probe.  A section
    the run did not use is left out, as a config file leaves it out.
    """
    config = dataclasses.asdict(dataclasses.replace(cfg, hozog=probe))
    if cfg.inner is not None:
        del config["inner"]["w0"]  # not a config key
    if rs is not None:
        config["random_search"] = {**dataclasses.asdict(rs), "box": rs.box.tolist()}
    manifest = {
        "config": {key: value for key, value in config.items() if value is not None},
        "result": result,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "hozog": __version__,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one experiment; writes the trace CSV and a manifest next to it.

    Returns a summary dict (final hyperparameters, record count, call
    counts).  Raises ConfigError for bad configs and NonFiniteObjective for
    diverging runs; the CLI maps those to exit codes 2 and 3.
    """
    spec = build_objective(cfg)
    lam0 = _resolve_lambda0(cfg, spec.p)
    probe = cfg.hozog or HOZOG_DEFAULTS
    rs = None
    if cfg.method == "random_search":
        rs = _rs_config(cfg, spec)
        probe = dataclasses.replace(probe, seed=rs.seed)
    with TraceWriter(
        cfg.output, method=cfg.method, spec=spec, probe=probe, cadence=cfg.metric_every
    ) as writer:
        if cfg.method == "hozog":
            final = run_hozog(spec, lam0, cfg.hozog, recorder=writer)
        else:
            final = random_search(spec, rs, recorder=writer)
        summary = {
            "final_lambda": [float(v) for v in final],
            "records": writer.records,
            "oracle_calls_optimizer": writer.optimizer_calls,
            "oracle_calls_metrics": writer.metric_calls,
            "trace": str(cfg.output),
        }
    manifest_path = Path(cfg.output).with_suffix(".manifest.json")
    _write_manifest(manifest_path, cfg, probe, rs, summary)
    summary["manifest"] = str(manifest_path)
    return summary


def _output_for_value(output: str, axis: str, value) -> str:
    path = Path(output)
    tag = f"{value:g}" if isinstance(value, float) else str(value)
    return str(path.with_name(f"{path.stem}_{axis}{tag}{path.suffix}"))


def sweep(cfg: ExperimentConfig, axis: str, values) -> list:
    """Run one experiment per value of a single estimator parameter.

    All runs share every other setting, including seeds.  Every value is
    checked as a hozog config value before the first run; a ConfigError
    names the first bad one.  A failing run is reported in the returned
    status list but does not stop the others.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError("axis", f"must be one of {SWEEP_AXES}, got {axis!r}")
    if cfg.method != "hozog":
        raise ConfigError("method", "sweep only applies to hozog runs")
    if not values:
        raise ConfigError("values", "need at least one value")
    runs = [with_hozog(cfg, **{axis: value}) for value in values]
    statuses = []
    for run_cfg in runs:
        value = getattr(run_cfg.hozog, axis)
        run_cfg = dataclasses.replace(run_cfg, output=_output_for_value(cfg.output, axis, value))
        try:
            summary = run_experiment(run_cfg)
            statuses.append({"value": value, "ok": True, "trace": summary["trace"]})
        except HozogError as err:
            statuses.append({"value": value, "ok": False, "error": str(err)})
    return statuses
