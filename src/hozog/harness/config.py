"""The one parser for every config file the CLI reads.

:func:`config_from_dict` reads an experiment config (``hozog run`` and
``hozog sweep``) and :func:`lipschitz_config` a ``hozog lipschitz-report``
config.  Both are JSON with nested sections, strictly validated: unknown
keys anywhere in the tree are errors (a typo silently ignored is a wrong
experiment), every data path must name an existing file, and a key
that is present must hold a value of its type (``null`` included).  Every
failure is a :class:`~hozog.errors.ConfigError` naming ``section.key``.

A section that configures a runtime object becomes that object at load
time, over the defaults below, which are the only copy of them in the
harness: ``inner`` an :class:`~hozog.inner_solvers.InnerSolver`,
``hozog`` a :class:`~hozog.zo_core.ZoConfig` and ``random_search`` a
:class:`~hozog.baselines.RandomSearchConfig` (its box defaults to the
logreg bounds for logreg, else to [-5, 5] per coordinate).  The loader
checks JSON numbers and boxes itself (a float field takes an int, no
number may be NaN or infinite, a box goes through
:func:`~hozog.oracle.check_box`) and leaves counts, positive numbers and
choices to the class's own check on each key, so each rule is written
once.  The rest is checked here too: problem sizes and seeds,
``metric_every``, the report's ``n_pairs`` and seed, ``0 < w_star < c``,
``n_groups <= n_train``, and each length set by the problem's p
(:func:`problem_p`), that of a list ``lambda0`` and both boxes' row
counts.  So a bad value is a config error before any data is read.  A
run takes only its method's section.  A synthetic problem runs its
``inner`` solver when the section is present and its exact inner
solution otherwise.  ``max_workers`` is still accepted and checked (an
integer >= 1) so that existing configs load, but it has no effect.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

from ..baselines import RandomSearchConfig
from ..errors import ConfigError, InvalidConfig, check_count
from ..inner_solvers import InnerSolver
from ..oracle import check_box
from ..problems import SyntheticBilevel
from ..problems.logreg import LOGREG_BOUNDS
from ..zo_core import ZoConfig

__all__ = ["ExperimentConfig", "LipschitzConfig", "load_config", "problem_p"]

_TOP_KEYS = {"method", "problem", "inner", "hozog", "random_search", "lambda0", "output",
             "metric_every", "max_workers"}
_LIPSCHITZ_KEYS = {"problem", "inner", "box", "n_pairs", "seed", "output", "max_workers"}
_PROBLEM_KEYS = {
    "synthetic": {"kind", "c", "w_star"},
    "logreg": {"kind", "data", "split_seed", "binarize_seed"},
    "hyperclean": {"kind", "data", "n_train", "n_val", "n_test", "n_groups", "corruption_seed"},
}

# keys an inner section leaves out
_INNER_DEFAULTS = {
    "synthetic": InnerSolver(steps=500, lr=0.1, variant="gd"),
    "logreg": InnerSolver(steps=150, lr=0.1, variant="adam"),
    "hyperclean": InnerSolver(steps=4000, lr=0.05, variant="gd"),
}
# keys a hozog section leaves out (seed and direction_scheme keep ZoConfig's)
HOZOG_DEFAULTS = ZoConfig(q=1, mu=0.01, gamma=0.05, iterations=0)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description (see README for the file schema)."""

    method: str
    problem: dict
    inner: InnerSolver | None
    hozog: ZoConfig | None
    random_search: RandomSearchConfig | None
    lambda0: float | list
    output: str
    metric_every: int


@dataclass(frozen=True)
class LipschitzConfig:
    """A validated ``lipschitz-report`` config; its problem is always solved iteratively."""

    problem: dict
    inner: InnerSolver | None
    box: list
    n_pairs: int
    seed: int
    output: str | None


def _int(value, name: str, minimum: int) -> int:
    with config_field(name):
        check_count(value, name.rsplit(".", 1)[-1], minimum)
    return value


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(name, f"must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(name, f"must be finite, got {value!r}")
    return float(value)


def _box(value, name: str) -> list:
    if not isinstance(value, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in value
    ):
        raise ConfigError(name, "must be a list of [lo, hi] pairs")
    return [[_number(lo, name), _number(hi, name)] for lo, hi in value]


# field annotation (a string under postponed evaluation) -> the loader's check, if any
_TYPE_CHECKS = {"float": _number, "tuple": _box}


@contextmanager
def config_field(name: str):
    """Turn a library range check's InvalidConfig into a ConfigError naming ``name``."""
    try:
        yield
    except InvalidConfig as err:
        raise ConfigError(name, str(err)) from None


def _section(section, where: str, base):
    """``base`` with the keys of config section ``where`` replaced.

    A float or box value is checked by the loader, then every value by the
    class's own ``__post_init__`` with that one key replaced, so a failure
    names its key.
    """
    if not isinstance(section, dict):
        raise ConfigError(where, "must be a section")
    # InnerSolver.w0 is for library callers: a config's inner solve starts at zero
    types = {f.name: f.type for f in fields(base) if f.name != "w0"}
    values = {}
    for key, value in section.items():
        name = f"{where}.{key}"
        if key not in types:
            raise ConfigError(name, "unknown key")
        check = _TYPE_CHECKS.get(types[key])
        values[key] = value if check is None else check(value, name)
        with config_field(name):
            replace(base, **{key: values[key]})
    return replace(base, **values)


def with_hozog(cfg: ExperimentConfig, **values) -> ExperimentConfig:
    """``cfg`` with some hozog keys replaced, checked as a hozog section's are."""
    return replace(cfg, hozog=_section(values, "hozog", cfg.hozog))


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}" if where else key, "unknown key")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}.{key}" if where else key, "missing required key")
    return section[key]


def _top_level(raw, allowed: set) -> None:
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")
    _reject_unknown(raw, allowed, "")
    _int(raw.get("max_workers", 1), "max_workers", minimum=1)


def _problem(problem) -> dict:
    if not isinstance(problem, dict):
        raise ConfigError("problem", "must be a section")
    kind = _require(problem, "kind", "problem")
    if kind not in _PROBLEM_KEYS:
        raise ConfigError("problem.kind", f"unknown problem kind {kind!r}")
    _reject_unknown(problem, _PROBLEM_KEYS[kind], "problem")
    if kind == "synthetic":
        if "c" not in problem or "w_star" not in problem:
            raise ConfigError("problem", "synthetic needs both c and w_star")
        c = _number(problem["c"], "problem.c")
        w_star = _number(problem["w_star"], "problem.w_star")
        with config_field("problem"):
            SyntheticBilevel(c=c, w_star=w_star)
        return {"kind": kind, "c": c, "w_star": w_star}
    data = _require(problem, "data", "problem")
    if not isinstance(data, str) or not os.path.isfile(data):
        raise ConfigError("problem.data", f"not an existing file: {data!r}")
    if kind == "logreg":
        problem = {"split_seed": 0, **problem}
    else:
        for key in ("n_train", "n_val", "n_test", "n_groups"):
            _require(problem, key, "problem")
        problem = {"corruption_seed": 0, **problem}
    for key, value in problem.items():
        if key not in ("kind", "data"):
            _int(value, f"problem.{key}", minimum=0 if key.endswith("seed") else 1)
    if kind == "hyperclean" and problem["n_groups"] > problem["n_train"]:
        raise ConfigError("problem", f"need n_groups <= n_train, got {problem['n_groups']}")
    return problem


def problem_p(problem: dict) -> int:
    """The length of lambda for a checked problem section."""
    return problem["n_groups"] if problem["kind"] == "hyperclean" else 1


def _inner(section, kind: str) -> InnerSolver | None:
    if section is None and kind == "synthetic":
        return None
    return _section({} if section is None else section, "inner", _INNER_DEFAULTS[kind])


def _random_search(section, kind: str, p: int) -> RandomSearchConfig:
    box = LOGREG_BOUNDS if kind == "logreg" else [(-5.0, 5.0)] * p
    # budget has no default: a section without one fails _require below
    rs = _section(section, "random_search", RandomSearchConfig(budget=1, box=box))
    _require(section, "budget", "random_search")
    with config_field("random_search.box"):
        check_box(rs.box, p)
    return rs


def _output(value, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(name, "must be a non-empty path string")
    path = Path(value)
    if not path.parent.is_dir():
        raise ConfigError(name, f"no such directory: {path.parent}")
    if path.is_dir():
        raise ConfigError(name, f"is a directory: {value}")
    return value


def read_json(path):
    """Parse a JSON config file; an unreadable or malformed file, or a key
    that repeats within one object, is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as err:
        raise ConfigError("config", f"cannot read {path}: {err.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError("config", f"not valid JSON: {err}") from None


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; json alone would keep a repeated key's last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(key, "appears more than once in one object")
        obj[key] = value
    return obj


def load_config(path) -> ExperimentConfig:
    """Load and validate an experiment config file."""
    return config_from_dict(read_json(path))


def config_from_dict(raw) -> ExperimentConfig:
    """Validate an experiment config; sections become the objects that run them."""
    _top_level(raw, _TOP_KEYS)
    method = _require(raw, "method", "")
    if method not in ("hozog", "random_search"):
        raise ConfigError("method", f"must be 'hozog' or 'random_search', got {method!r}")
    problem = _problem(_require(raw, "problem", ""))
    p = problem_p(problem)
    inner = _inner(raw.get("inner"), problem["kind"])
    hozog = random_search = None
    if method == "hozog":
        hozog = _section(_require(raw, "hozog", ""), "hozog", HOZOG_DEFAULTS)
    else:
        random_search = _random_search(_require(raw, "random_search", ""), problem["kind"], p)
    other = "random_search" if method == "hozog" else "hozog"
    if other in raw:
        raise ConfigError(other, f"only a {other} run takes this section")

    lambda0 = raw.get("lambda0", 0.0)
    if isinstance(lambda0, list):
        lambda0 = [_number(v, "lambda0") for v in lambda0]
        if len(lambda0) != p:
            raise ConfigError("lambda0", f"has {len(lambda0)} entries, problem has p={p}")
    else:
        lambda0 = _number(lambda0, "lambda0")
    return ExperimentConfig(
        method=method,
        problem=problem,
        inner=inner,
        hozog=hozog,
        random_search=random_search,
        lambda0=lambda0,
        output=_output(raw.get("output", "trace.csv"), "output"),
        metric_every=_int(raw.get("metric_every", 1), "metric_every", minimum=1),
    )


def lipschitz_config(raw) -> LipschitzConfig:
    """Validate a ``lipschitz-report`` config with the experiment config's section checks.

    ``n_pairs >= 1``, lo < hi in each box row and one row per
    hyperparameter are checked here, before the objective is built.
    """
    _top_level(raw, _LIPSCHITZ_KEYS)
    problem = _problem(_require(raw, "problem", ""))
    inner = _inner(_require(raw, "inner", ""), problem["kind"])
    box = _box(_require(raw, "box", ""), "box")
    with config_field("box"):
        check_box(box, problem_p(problem))
    return LipschitzConfig(
        problem=problem,
        inner=inner,
        box=box,
        n_pairs=_int(raw.get("n_pairs", 1000), "n_pairs", minimum=1),
        seed=_int(raw.get("seed", 0), "seed", minimum=0),
        output=_output(raw["output"], "output") if "output" in raw else None,
    )
