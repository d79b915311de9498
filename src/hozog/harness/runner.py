"""Experiment orchestration: build the objective, run a method, persist traces.

Every run writes its trace CSV and, once it finishes, a manifest next to
it recording the resolved config (what ran, every default filled in, the
random-search box included), the library versions, and numpy's BLAS build,
BLAS thread count and SIMD extensions.  The manifest's
path is the output's with one trailing ``.csv`` removed, plus
``.manifest.json``.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import json
import platform
from pathlib import Path

import numpy as np
import scipy

from .. import __version__
from ..baselines import random_search
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
from ..zo_core import run_hozog
from .config import ExperimentConfig, LipschitzConfig, with_hozog
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
    ds = load_libsvm(cfg.problem["data"])
    if kind == "logreg":
        if "binarize_seed" in cfg.problem:
            ds = binarize(ds, cfg.problem["binarize_seed"])
        elif not set(ds.labels.tolist()) <= {-1.0, 1.0}:
            raise ConfigError(
                "problem.binarize_seed",
                "labels are not {-1, +1}; set binarize_seed to map them",
            )
        train, val, test = split_2_1_1(ds, cfg.problem["split_seed"])
        prob = LogRegProblem.from_datasets(train, val, test)
        return logreg_objective(prob, cfg.inner)
    prob = make_hyperclean(
        ds,
        n_train=cfg.problem["n_train"],
        n_val=cfg.problem["n_val"],
        n_test=cfg.problem["n_test"],
        n_groups=cfg.problem["n_groups"],
        corruption_seed=cfg.problem["corruption_seed"],
    )
    return hyperclean_objective(prob, cfg.inner)


@functools.cache
def _numpy_build() -> dict:
    """numpy's BLAS name, version and thread count, and its SIMD extensions.

    Looked up once per process; a field the build does not report is None,
    as is every field on numpy before 1.25, whose ``show_config`` has no
    ``mode``.
    """
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "simd": config.get("SIMD Extensions"),
    }


def _blas_threads() -> int | None:
    """The thread count numpy's OpenBLAS runs with, None when no getter resolves."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy before 2.0
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for name in (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    ):
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def _write_manifest(path: str, cfg: ExperimentConfig, result: dict) -> None:
    """Write the resolved config (what ran, defaults filled in) and the library versions and build.

    A section the run did not use is left out, as a config file leaves it out.
    """
    config = dataclasses.asdict(cfg)
    if cfg.inner is not None:
        del config["inner"]["w0"]  # not a config key
    manifest = {
        "config": {key: value for key, value in config.items() if value is not None},
        "result": result,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "hozog": __version__,
            **_numpy_build(),
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
    return _run(cfg, build_objective(cfg))


def _run(cfg: ExperimentConfig, spec: ObjectiveSpec) -> dict:
    """``run_experiment`` on an objective already built from ``cfg``."""
    manifest_path = cfg.output.removesuffix(".csv") + ".manifest.json"
    with TraceWriter(cfg.output, method=cfg.method, spec=spec, cadence=cfg.metric_every) as writer:
        # a run that fails leaves its partial trace and no manifest, not the last run's
        Path(manifest_path).unlink(missing_ok=True)
        if cfg.method == "hozog":
            meta_iter, calls = cfg.hozog.iterations, cfg.hozog.iterations * (cfg.hozog.q + 1)
            final = run_hozog(spec, np.full(spec.p, cfg.lambda0), cfg.hozog, recorder=writer)
        else:
            meta_iter = calls = cfg.random_search.budget  # diverged samples count against it
            final = random_search(spec, cfg.random_search, recorder=writer)
        # the last row, at the returned lambda, carries what the whole run spent
        writer.finish(final, meta_iter, calls)
        summary = {
            "final_lambda": [float(v) for v in final],
            "records": writer.records,
            "oracle_calls_optimizer": calls,
            "oracle_calls_metrics": writer.metric_calls,
            "trace": str(cfg.output),
        }
    _write_manifest(manifest_path, cfg, summary)
    summary["manifest"] = manifest_path
    return summary


def sweep(cfg: ExperimentConfig, axis: str, values) -> list:
    """Run one experiment per value of a single estimator parameter.

    All runs share every other setting, including seeds.  Every value is
    checked as a hozog config value before the first run; a ConfigError
    names the first bad one, or ``values`` when one repeats.  Each run's
    output adds ``_<axis><repr(value)>`` to the stem of ``cfg.output``.  The
    objective is built once, since no swept axis changes it.  A failing run,
    one whose output cannot be opened included, is reported in the returned
    status list, its exception under ``error``, but does not stop the
    others; when building fails, every value reports that error.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError("axis", f"must be one of {SWEEP_AXES}, got {axis!r}")
    if cfg.method != "hozog":
        raise ConfigError("method", "sweep only applies to hozog runs")
    if not values:
        raise ConfigError("values", "need at least one value")
    runs = [with_hozog(cfg, **{axis: value}) for value in values]
    resolved = [getattr(run_cfg.hozog, axis) for run_cfg in runs]
    if len(set(resolved)) != len(resolved):
        raise ConfigError("values", f"a value repeats: {resolved}")
    try:
        spec = build_objective(cfg)
    except HozogError as err:
        return [{"value": value, "ok": False, "error": err} for value in resolved]
    out = Path(cfg.output)
    statuses = []
    for run_cfg, value in zip(runs, resolved):
        output = str(out.with_name(f"{out.stem}_{axis}{value!r}{out.suffix}"))
        run_cfg = dataclasses.replace(run_cfg, output=output)
        try:
            summary = _run(run_cfg, spec)
            statuses.append({"value": value, "ok": True, "trace": summary["trace"]})
        except (HozogError, OSError) as err:
            statuses.append({"value": value, "ok": False, "error": err})
    return statuses
