"""Command-line entry point.

Subcommands:
  run                run one experiment from a config file
  sweep              rerun a hozog config across values of q, mu, or gamma
  parse-data         strict-parse a LIBSVM file, optionally print a summary
  lipschitz-report   product upper bound and empirical Lipschitz sampling

Exit codes: 0 success, 1 data/runtime error, 2 config error (the message
names the offending field), 3 non-finite objective (diverging inner solve).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter

import numpy as np

from ..errors import ConfigError, HozogError, NonFiniteObjective, ParseError
from ..lipschitz import empirical_lipschitz, lipschitz_product_bound, synthetic_step_jacobians
from .config import config_from_dict, load_config, read_json
from .runner import SWEEP_AXES, build_objective, run_experiment, sweep

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hozog",
        description="Hyperparameter optimization with zeroth-order hyper-gradients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", required=True, help="path to a JSON experiment config")

    p_sweep = sub.add_parser("sweep", help="parameter-sensitivity sweep over q, mu, or gamma")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")

    p_parse = sub.add_parser("parse-data", help="validate a LIBSVM file")
    p_parse.add_argument("--input", required=True)
    p_parse.add_argument("--summary", action="store_true", help="print dataset statistics")

    p_lip = sub.add_parser("lipschitz-report", help="Lipschitz bound and empirical ratio")
    p_lip.add_argument("--config", required=True, help="path to a JSON report config")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    summary = run_experiment(cfg)
    print(f"trace written to {summary['trace']}")
    print(
        f"optimizer calls: {summary['oracle_calls_optimizer']}, "
        f"metric calls: {summary['oracle_calls_metrics']}, records: {summary['records']}"
    )
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    tokens = [tok for tok in args.values.split(",") if tok.strip()]
    if not tokens:
        raise ConfigError("values", "need at least one value")
    if args.axis == "q":
        try:
            values = [int(tok) for tok in tokens]
        except ValueError:
            raise ConfigError("values", f"q values must be integers, got {args.values!r}") from None
    else:
        try:
            values = [float(tok) for tok in tokens]
        except ValueError:
            raise ConfigError("values", f"values must be numbers, got {args.values!r}") from None
    statuses = sweep(cfg, args.axis, values)
    failed = False
    for status in statuses:
        if status["ok"]:
            print(f"{args.axis}={status['value']}: ok -> {status['trace']}")
        else:
            failed = True
            print(f"{args.axis}={status['value']}: FAILED ({status['error']})")
    return 3 if failed else 0


def _cmd_parse_data(args) -> int:
    from ..data_io import load_libsvm

    ds = load_libsvm(args.input)
    if args.summary:
        nnz = sum(len(feats) for _, feats in ds.rows)
        label_counts = Counter(label for label, _ in ds.rows)
        print(f"rows: {len(ds)}")
        print(f"n_features: {ds.n_features}")
        print(f"nonzeros: {nnz}")
        for label in sorted(label_counts):
            print(f"label {label:g}: {label_counts[label]}")
    else:
        print(f"ok: {len(ds)} rows")
    return 0


_LIP_KEYS = {"problem", "inner", "box", "n_pairs", "seed", "output", "max_workers"}


def _cmd_lipschitz(args) -> int:
    raw = read_json(args.config)
    for key in raw:
        if key not in _LIP_KEYS:
            raise ConfigError(key, "unknown key")
    for key in ("problem", "inner", "box"):
        if key not in raw:
            raise ConfigError(key, "missing required key")

    cfg = config_from_dict(
        {
            "method": "hozog",
            "problem": raw["problem"],
            "inner": raw["inner"],
            "hozog": {},
            "max_workers": raw.get("max_workers", 1),
        }
    )
    if cfg.problem["kind"] == "synthetic" and cfg.problem["mode"] != "iterative":
        cfg = dataclasses.replace(cfg, problem={**cfg.problem, "mode": "iterative"})
    spec = build_objective(cfg)
    box = np.asarray(raw["box"], dtype=float)
    n_pairs = raw.get("n_pairs", 1000)
    seed = raw.get("seed", 0)
    report = empirical_lipschitz(spec, box, n_pairs=n_pairs, seed=seed)
    bound = None
    if cfg.problem["kind"] == "synthetic":
        jacs = synthetic_step_jacobians(
            c=cfg.problem["c"],
            w_star=cfg.problem["w_star"],
            eta=cfg.inner.lr,
            t_inner=cfg.inner.steps,
            lambda_box=box[0],
        )
        bound = lipschitz_product_bound(jacs)
    payload = {
        "bound": bound,
        "empirical_max_ratio": report.empirical_max_ratio,
        "samples": report.samples,
        "domain_box": box.tolist(),
    }
    output = raw.get("output")
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"report written to {output}")
    print(json.dumps(payload))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "parse-data": _cmd_parse_data,
        "lipschitz-report": _cmd_lipschitz,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NonFiniteObjective as err:
        where = f" at meta-iteration {err.meta_iter}" if err.meta_iter is not None else ""
        print(f"non-finite objective{where}: {err}", file=sys.stderr)
        return 3
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 1
    except HozogError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
