"""The one reader of every config file the CLI reads.

:func:`config_from_dict` reads an experiment config (``hozog run`` and
``hozog sweep``), :func:`lipschitz_config` a ``hozog lipschitz-report``
config.  :func:`_leaf` reads every value in them as its kind (an integer
with a minimum, a number, a choice among strings, a string, a box of
``[lo, hi]`` pairs, an existing data file or an output path), checking
the type first: a list never reaches a choice lookup, an integer past the
double range never reaches a float conversion, a NUL byte never reaches
``open``.  :func:`_read` reads every section against a table of its keys'
kinds, required keys and defaults: one per config's top level and one per
problem kind.  A key the table lacks is an error (a typo silently ignored
is a wrong experiment), and so is ``null`` where a value is due.  Every
failure is a :class:`~hozog.errors.ConfigError` naming ``section.key``.

A section that configures a runtime object becomes it, over the defaults
below (the harness's only copy): ``inner`` an
:class:`~hozog.inner_solvers.InnerSolver`, ``hozog`` a
:class:`~hozog.zo_core.ZoConfig`, ``random_search`` a
:class:`~hozog.baselines.RandomSearchConfig` (its box defaults to the
logreg bounds for logreg, else to [-5, 5] per coordinate).  Its table is
its class's field annotations; its ranges are the class's own checks, run
with one key replaced so that a failure names its key.  Relations between
keys are checked here, before any data is read: ``0 < w_star < c``,
``n_groups <= n_train``, the lengths the problem's p sets
(:func:`problem_p`: a list ``lambda0``, both boxes' rows) and a finite
hozog scale p/(mu*q).  A run takes only its method's section.  A
synthetic problem runs its ``inner`` solver when the section is present,
else its exact inner solution.  ``max_workers`` is checked (an integer
>= 1) so that existing configs load, but it has no effect.
"""

from __future__ import annotations

import json
import math
import os
import sys
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

# Tables: each key's kind (see _leaf); None marks a section or lambda0, read on its own
_TOP = {"method": ("hozog", "random_search"), "problem": None, "inner": None, "hozog": None,
        "random_search": None, "lambda0": None, "output": "output", "metric_every": 1,
        "max_workers": 1}
_LIPSCHITZ = {"problem": None, "inner": None, "box": "box", "n_pairs": 1, "seed": 0,
              "output": "output", "max_workers": 1}
# per problem kind: the kinds of its keys, the keys it requires and the defaults of the rest
_PROBLEMS = {
    "synthetic": ({"kind": str, "c": float, "w_star": float}, ("c", "w_star"), {}),
    "logreg": ({"kind": str, "data": "data", "split_seed": 0, "binarize_seed": 0},
               ("data",), {"split_seed": 0}),
    "hyperclean": ({"kind": str, "data": "data", "n_train": 1, "n_val": 1, "n_test": 1,
                    "n_groups": 1, "corruption_seed": 0},
                   ("data", "n_train", "n_val", "n_test", "n_groups"), {"corruption_seed": 0}),
}
# a field annotation (a string under postponed evaluation) -> its kind
_ANNOTATED = {"int": int, "float": float, "str": str, "tuple": "box"}

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


@contextmanager
def config_field(name: str):
    """Turn a library range check's InvalidConfig into a ConfigError naming ``name``."""
    try:
        yield
    except InvalidConfig as err:
        raise ConfigError(name, str(err)) from None


def _leaf(value, name: str, kind):
    """Config leaf ``name`` read as ``kind``, which is an int m (an integer >= m),
    ``int`` (an integer its class range-checks), ``float`` (a finite number, as a
    float), ``str``, a tuple of strings (one of them), ``"box"`` (a list of [lo, hi]
    numbers), ``"data"`` (an existing file), ``"output"`` (a path a file can be
    created at) or None (returned as it is, for its own reader)."""
    if kind is None:
        return value
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(name, "is an integer past the double range")
    if kind is int or isinstance(kind, int):
        with config_field(name):
            check_count(value, name.rsplit(".", 1)[-1], -math.inf if kind is int else kind)
        return value
    if kind is float:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and math.isfinite(value)):
            raise ConfigError(name, f"must be a finite number, got {value!r}")
        return float(value)
    if kind == "box":
        if not (isinstance(value, list) and all(isinstance(r, list) and len(r) == 2 for r in value)):
            raise ConfigError(name, "must be a list of [lo, hi] pairs")
        return [[_leaf(lo, name, float), _leaf(hi, name, float)] for lo, hi in value]
    if not isinstance(value, str):
        raise ConfigError(name, f"must be a string, got {value!r}")
    if isinstance(kind, tuple) and value not in kind:
        raise ConfigError(name, f"must be one of {kind}, got {value!r}")
    if kind not in ("data", "output"):
        return value
    try:
        usable = bool(value) and "\0" not in value and bool(os.fsencode(value))
    except UnicodeEncodeError:  # a lone surrogate, which no file name holds
        usable = False
    if not usable:
        raise ConfigError(name, "must be a non-empty path string with no NUL")
    path = Path(value)
    if kind == "data" and not path.is_file():
        raise ConfigError(name, f"not an existing file: {value!r}")
    if kind == "output" and not path.parent.is_dir():
        raise ConfigError(name, f"no such directory: {str(path.parent)!r}")
    if kind == "output" and path.is_dir():
        raise ConfigError(name, f"is a directory: {value!r}")
    return value


def _read(raw, where: str, kinds: dict, required=(), defaults=None) -> dict:
    """Config section ``where`` ("" for the top level), each value read as its kind in
    ``kinds``; the ``required`` keys must be present, ``defaults`` fill in the rest."""
    if not isinstance(raw, dict):
        raise ConfigError(where or "config", "must be an object")
    prefix = f"{where}." if where else ""
    for key in raw:
        if key not in kinds:
            raise ConfigError(prefix + key, "unknown key")
    for key in required:
        if key not in raw:
            raise ConfigError(prefix + key, "missing required key")
    values = {**(defaults or {}), **raw}
    return {key: _leaf(value, prefix + key, kinds[key]) for key, value in values.items()}


def _section(raw, where: str, base, required=()):
    """``base`` with the keys of config section ``where`` replaced, each read as its
    field's annotation, then checked by the class with that one key replaced."""
    # InnerSolver.w0 is for library callers: a config's inner solve starts at zero
    kinds = {f.name: _ANNOTATED[f.type] for f in fields(base) if f.name != "w0"}
    values = _read(raw, where, kinds, required)
    for key, value in values.items():
        with config_field(f"{where}.{key}"):
            replace(base, **{key: value})
    return replace(base, **values)


def _hozog(raw, problem: dict, base: ZoConfig) -> ZoConfig:
    """A hozog section over ``base``, whose estimate's scale p/(mu*q) must be finite."""
    hozog = _section(raw, "hozog", base)
    p = problem_p(problem)
    if not math.isfinite(p / (hozog.mu * hozog.q)):  # zo_core.combine_differences' scale
        raise ConfigError("hozog.mu", f"is too small: p/(mu*q) overflows at p={p}, q={hozog.q}")
    return hozog


def with_hozog(cfg: ExperimentConfig, **values) -> ExperimentConfig:
    """``cfg`` with some hozog keys replaced, checked as a hozog section's are."""
    return replace(cfg, hozog=_hozog(values, cfg.problem, cfg.hozog))


def _problem(raw) -> dict:
    """The problem section, read against its kind's table, and the relations of its keys."""
    if not isinstance(raw, dict):
        raise ConfigError("problem", "must be an object")
    if "kind" not in raw:
        raise ConfigError("problem.kind", "missing required key")
    kinds, required, defaults = _PROBLEMS[_leaf(raw["kind"], "problem.kind", tuple(_PROBLEMS))]
    problem = _read(raw, "problem", kinds, required, defaults)
    if problem["kind"] == "synthetic":
        with config_field("problem"):
            SyntheticBilevel(c=problem["c"], w_star=problem["w_star"])
    elif problem["kind"] == "hyperclean" and problem["n_groups"] > problem["n_train"]:
        raise ConfigError("problem", f"need n_groups <= n_train, got {problem['n_groups']}")
    return problem


def problem_p(problem: dict) -> int:
    """The length of lambda for a checked problem section."""
    return problem["n_groups"] if problem["kind"] == "hyperclean" else 1


def _inner(top: dict, kind: str) -> InnerSolver | None:
    if "inner" not in top and kind == "synthetic":
        return None
    return _section(top.get("inner", {}), "inner", _INNER_DEFAULTS[kind])


def _random_search(raw, problem: dict) -> RandomSearchConfig:
    p = problem_p(problem)
    box = LOGREG_BOUNDS if problem["kind"] == "logreg" else [(-5.0, 5.0)] * p
    # budget has no default: the placeholder 1 is replaced by the required key
    rs = _section(raw, "random_search", RandomSearchConfig(budget=1, box=box), ("budget",))
    with config_field("random_search.box"):
        check_box(rs.box, p)
    return rs


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
    top = _read(raw, "", _TOP, ("method", "problem"),
                {"lambda0": 0.0, "output": "trace.csv", "metric_every": 1})
    method = top["method"]
    problem = _problem(top["problem"])
    inner = _inner(top, problem["kind"])
    if method not in top:
        raise ConfigError(method, "missing required key")
    other = "random_search" if method == "hozog" else "hozog"
    if other in top:
        raise ConfigError(other, f"only a {other} run takes this section")
    hozog = _hozog(top["hozog"], problem, HOZOG_DEFAULTS) if method == "hozog" else None
    random_search = _random_search(top["random_search"], problem) if hozog is None else None

    lambda0, p = top["lambda0"], problem_p(problem)
    if isinstance(lambda0, list):
        lambda0 = [_leaf(v, "lambda0", float) for v in lambda0]
        if len(lambda0) != p:
            raise ConfigError("lambda0", f"has {len(lambda0)} entries, problem has p={p}")
    else:
        lambda0 = _leaf(lambda0, "lambda0", float)
    return ExperimentConfig(method=method, problem=problem, inner=inner, hozog=hozog,
                            random_search=random_search, lambda0=lambda0, output=top["output"],
                            metric_every=top["metric_every"])


def lipschitz_config(raw) -> LipschitzConfig:
    """Validate a ``lipschitz-report`` config with the experiment config's section checks."""
    top = _read(raw, "", _LIPSCHITZ, ("problem", "inner", "box"), {"n_pairs": 1000, "seed": 0})
    problem = _problem(top["problem"])
    inner = _inner(top, problem["kind"])  # required: the report always solves iteratively
    with config_field("box"):
        check_box(top["box"], problem_p(problem))
    return LipschitzConfig(problem=problem, inner=inner, box=top["box"], n_pairs=top["n_pairs"],
                           seed=top["seed"], output=top.get("output"))
