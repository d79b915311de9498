"""Experiment config files: JSON with nested sections, strictly validated.

Unknown keys anywhere in the tree are errors (a typo silently ignored is a
wrong experiment), every referenced path must exist at load time, and a
key that is present must hold a value of its type (``null`` included).
Each estimator section becomes, at load time, the runtime object that
uses it: ``inner`` an :class:`~hozog.inner_solvers.InnerSolver` and
``hozog`` a :class:`~hozog.zo_core.ZoConfig`, built over the defaults
below, which are the only copy of them in the harness.  ``max_workers``
is still accepted and checked (an integer >= 1) so that existing configs
load, but it has no effect: every evaluation runs in sequence.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from ..errors import ConfigError, InvalidConfig
from ..inner_solvers import InnerSolver
from ..zo_core import ZoConfig

__all__ = ["ExperimentConfig", "load_config"]

_TOP_KEYS = {
    "method",
    "problem",
    "inner",
    "hozog",
    "random_search",
    "lambda0",
    "output",
    "metric_every",
    "max_workers",
}
_PROBLEM_KEYS = {
    "synthetic": {"kind", "c", "w_star", "mode"},
    "logreg": {"kind", "data", "split_seed", "binarize_seed", "n_features"},
    "hyperclean": {
        "kind",
        "data",
        "n_train",
        "n_val",
        "n_test",
        "n_groups",
        "corruption_seed",
    },
}
_INNER_KEYS = {f.name for f in fields(InnerSolver)} - {"w0"}
_HOZOG_KEYS = {f.name for f in fields(ZoConfig)}
_RS_KEYS = {"budget", "box", "seed"}

# keys an inner section leaves out; beta1, beta2 and eps keep InnerSolver's own
_INNER_DEFAULTS = {
    "synthetic": InnerSolver(steps=500, lr=0.1, variant="gd"),
    "logreg": InnerSolver(steps=150, lr=0.1, variant="adam"),
    "hyperclean": InnerSolver(steps=4000, lr=0.05, variant="gd"),
}
# keys a hozog section leaves out (seed and direction_scheme keep ZoConfig's);
# also the metrics probe of a random-search run that has no hozog section
HOZOG_DEFAULTS = ZoConfig(q=1, mu=0.01, gamma=0.05, iterations=0)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description (see README for the file schema)."""

    method: str
    problem: dict
    inner: InnerSolver | None
    hozog: ZoConfig | None
    random_search: dict | None
    lambda0: object
    output: str
    metric_every: int
    raw: dict = field(repr=False, default_factory=dict)


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}" if where else key, "unknown key")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}.{key}", "missing required key")
    return section[key]


def _check_int(section: dict, key: str, where: str, minimum=None):
    if key not in section:
        return None
    value = section[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where}.{key}", f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}.{key}", f"must be >= {minimum}, got {value}")
    return value


def _check_number(section: dict, key: str, where: str, positive=False):
    if key not in section:
        return None
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key}", f"must be a number, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{where}.{key}", f"must be > 0, got {value}")
    return float(value)


def _validate_problem(problem: dict) -> dict:
    if not isinstance(problem, dict):
        raise ConfigError("problem", "must be a section")
    kind = _require(problem, "kind", "problem")
    if kind not in _PROBLEM_KEYS:
        raise ConfigError("problem.kind", f"unknown problem kind {kind!r}")
    _reject_unknown(problem, _PROBLEM_KEYS[kind], "problem")
    if kind == "synthetic":
        c = _check_number(problem, "c", "problem")
        w_star = _check_number(problem, "w_star", "problem")
        if c is None or w_star is None:
            raise ConfigError("problem", "synthetic needs both c and w_star")
        mode = problem.get("mode", "exact")
        if mode not in ("exact", "iterative"):
            raise ConfigError("problem.mode", f"must be 'exact' or 'iterative', got {mode!r}")
        problem = {**problem, "mode": mode}
    else:
        data = _require(problem, "data", "problem")
        if not isinstance(data, str) or not os.path.exists(data):
            raise ConfigError("problem.data", f"path does not exist: {data!r}")
        if kind == "logreg":
            _check_int(problem, "split_seed", "problem", minimum=0)
            _check_int(problem, "binarize_seed", "problem", minimum=0)
            _check_int(problem, "n_features", "problem", minimum=1)
            problem = {**{"split_seed": 0}, **problem}
        else:
            for key in ("n_train", "n_val", "n_test", "n_groups"):
                if _check_int(problem, key, "problem", minimum=1) is None:
                    raise ConfigError(f"problem.{key}", "missing required key")
            problem = {**{"corruption_seed": 0}, **problem}
            _check_int(problem, "corruption_seed", "problem", minimum=0)
    return problem


def _validate_inner(inner, kind: str) -> InnerSolver | None:
    if inner is None:
        if kind == "synthetic":
            return None
        inner = {}
    if not isinstance(inner, dict):
        raise ConfigError("inner", "must be a section")
    _reject_unknown(inner, _INNER_KEYS, "inner")
    if "variant" in inner and inner["variant"] not in ("gd", "adam"):
        raise ConfigError("inner.variant", f"must be 'gd' or 'adam', got {inner['variant']!r}")
    _check_int(inner, "steps", "inner", minimum=0)
    _check_number(inner, "lr", "inner", positive=True)
    for key in ("beta1", "beta2", "eps"):
        _check_number(inner, key, "inner", positive=False)
    return replace(_INNER_DEFAULTS[kind], **inner)


def _validate_hozog(section) -> ZoConfig:
    if not isinstance(section, dict):
        raise ConfigError("hozog", "must be a section")
    _reject_unknown(section, _HOZOG_KEYS, "hozog")
    try:
        zo = replace(HOZOG_DEFAULTS, **section)
    except (InvalidConfig, TypeError) as err:
        raise ConfigError("hozog", str(err)) from None
    _check_int(section, "seed", "hozog", minimum=0)
    return zo


def _validate_rs(section) -> dict:
    if not isinstance(section, dict):
        raise ConfigError("random_search", "must be a section")
    _reject_unknown(section, _RS_KEYS, "random_search")
    if _check_int(section, "budget", "random_search", minimum=1) is None:
        raise ConfigError("random_search.budget", "missing required key")
    if _check_int(section, "seed", "random_search", minimum=0) is None:
        section = {**section, "seed": 0}
    box = section.get("box")
    if box is not None:
        if not isinstance(box, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in box
        ):
            raise ConfigError("random_search.box", "must be a list of [lo, hi] pairs")
        for pair in box:
            if pair[0] >= pair[1]:
                raise ConfigError("random_search.box", f"needs lo < hi, got {pair}")
    return section


def read_json(path):
    """Parse a JSON config file; a missing or malformed file is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError("config", f"not valid JSON: {err}") from None


def load_config(path) -> ExperimentConfig:
    """Load and validate an experiment config file."""
    return config_from_dict(read_json(path))


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")
    _reject_unknown(raw, _TOP_KEYS, "")
    method = _require(raw, "method", "")
    if method not in ("hozog", "random_search"):
        raise ConfigError("method", f"must be 'hozog' or 'random_search', got {method!r}")
    problem = _validate_problem(_require(raw, "problem", ""))
    inner = _validate_inner(raw.get("inner"), problem["kind"])
    hozog = None
    random_search = None
    if method == "hozog":
        hozog = _validate_hozog(_require(raw, "hozog", ""))
    elif "hozog" in raw:
        hozog = _validate_hozog(raw["hozog"])
    if method == "random_search":
        random_search = _validate_rs(_require(raw, "random_search", ""))
    elif "random_search" in raw:
        random_search = _validate_rs(raw["random_search"])

    lambda0 = raw.get("lambda0", "zeros")
    if not (
        lambda0 == "zeros"
        or isinstance(lambda0, (int, float))
        or (isinstance(lambda0, list) and all(isinstance(v, (int, float)) for v in lambda0))
    ):
        raise ConfigError("lambda0", "must be 'zeros', a number, or a list of numbers")

    output = raw.get("output", "trace.csv")
    if not isinstance(output, str) or not output:
        raise ConfigError("output", "must be a non-empty path string")
    parent = Path(output).parent
    if str(parent) not in ("", ".") and not parent.exists():
        raise ConfigError("output", f"directory does not exist: {parent}")

    metric_every = raw.get("metric_every", 1)
    if not isinstance(metric_every, int) or isinstance(metric_every, bool) or metric_every < 1:
        raise ConfigError("metric_every", f"must be an integer >= 1, got {metric_every!r}")

    max_workers = raw.get("max_workers", 1)
    if not isinstance(max_workers, int) or isinstance(max_workers, bool) or max_workers < 1:
        raise ConfigError("max_workers", f"must be an integer >= 1, got {max_workers!r}")

    return ExperimentConfig(
        method=method,
        problem=problem,
        inner=inner,
        hozog=hozog,
        random_search=random_search,
        lambda0=lambda0,
        output=output,
        metric_every=metric_every,
        raw=raw,
    )
