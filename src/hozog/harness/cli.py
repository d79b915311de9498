"""Command-line entry point.

Subcommands:
  run                run one experiment from a config file
  sweep              rerun a hozog config across values of q, mu, or gamma
  parse-data         strict-parse a LIBSVM file, optionally print a summary
  lipschitz-report   product upper bound and empirical Lipschitz sampling

Every config file is read and checked by :mod:`hozog.harness.config`
before anything runs, as are the ``sweep --values``.

Exit codes: 0 success, 1 data/runtime error, 2 config error (the message
names the offending field), 3 non-finite objective (diverging inner solve).
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from collections import Counter

from ..errors import ConfigError, HozogError, NonFiniteObjective, ParseError
from ..lipschitz import empirical_lipschitz, lipschitz_product_bound, synthetic_step_jacobians
from .config import lipschitz_config, load_config, read_json
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
    try:
        # each value's type and range are the swept hozog key's, checked by sweep
        values = [ast.literal_eval(tok) for tok in args.values.split(",") if tok.strip()]
    except (ValueError, SyntaxError, TypeError):
        raise ConfigError("values", f"not comma-separated numbers: {args.values!r}") from None
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


def _cmd_lipschitz(args) -> int:
    cfg = lipschitz_config(read_json(args.config))
    spec = build_objective(cfg)
    if len(cfg.box) != spec.p:
        raise ConfigError("box", f"has {len(cfg.box)} rows, problem has p={spec.p}")
    report = empirical_lipschitz(spec, cfg.box, n_pairs=cfg.n_pairs, seed=cfg.seed)
    bound = None
    if cfg.problem["kind"] == "synthetic":
        jacs = synthetic_step_jacobians(
            c=cfg.problem["c"],
            w_star=cfg.problem["w_star"],
            eta=cfg.inner.lr,
            t_inner=cfg.inner.steps,
            lambda_box=cfg.box[0],
        )
        bound = lipschitz_product_bound(jacs)
    payload = {
        "bound": bound,
        "empirical_max_ratio": report.empirical_max_ratio,
        "samples": report.samples,
        "domain_box": report.domain_box.tolist(),
    }
    if cfg.output is not None:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"report written to {cfg.output}")
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
