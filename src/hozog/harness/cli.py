"""Command-line entry point.

Subcommands:
  run                run one experiment from a config file
  sweep              rerun a hozog config across values of q, mu, or gamma
  parse-data         strict-parse a LIBSVM file, optionally print a summary
  lipschitz-report   product upper bound and empirical Lipschitz sampling

Every config file is read and checked by :mod:`hozog.harness.config`
before anything runs, as are the ``sweep --values``.

Exit codes: 0 success, 1 data/runtime error (an unreadable file and a count
too large for memory included), 2 config error (naming the offending field)
or usage error, 3 non-finite objective (diverging inner solve).  Every
failure prints one line, never a traceback; ``sweep`` prints ``run``'s line
for each failed value and exits with their highest code.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from collections import Counter

from .. import data_io
from ..errors import ConfigError, HozogError, NonFiniteObjective, ParseError
from ..lipschitz import empirical_lipschitz, lipschitz_product_bound, synthetic_step_jacobians
from .config import config_field, lipschitz_config, load_config, read_json
from .runner import SWEEP_AXES, build_objective, run_experiment, sweep

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line; argparse's own prints the usage line first
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hozog",
        description="Hyperparameter optimization with zeroth-order hyper-gradients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", required=True, help="path to a JSON experiment config")
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="parameter-sensitivity sweep over q, mu, or gamma")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_parse = sub.add_parser("parse-data", help="validate a LIBSVM file")
    p_parse.add_argument("--input", required=True)
    p_parse.add_argument("--summary", action="store_true", help="print dataset statistics")
    p_parse.set_defaults(handler=_cmd_parse_data)

    p_lip = sub.add_parser("lipschitz-report", help="Lipschitz bound and empirical ratio")
    p_lip.add_argument("--config", required=True, help="path to a JSON report config")
    p_lip.set_defaults(handler=_cmd_lipschitz)
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
    code = 0
    for status in sweep(cfg, args.axis, values):
        if status["ok"]:
            print(f"{args.axis}={status['value']}: ok -> {status['trace']}")
        else:
            value_code, line = _failure(status["error"])
            code = max(code, value_code)
            print(f"{args.axis}={status['value']}: FAILED ({line})")
    return code


def _cmd_parse_data(args) -> int:
    ds = data_io.load_libsvm(args.input)
    if args.summary:
        label_counts = Counter(ds.labels.tolist())
        print(f"rows: {len(ds)}")
        print(f"n_features: {ds.n_features}")
        print(f"nonzeros: {ds.x.nnz}")  # stored entries, an explicit idx:0 included
        for label in sorted(label_counts):
            print(f"label {label:g}: {label_counts[label]}")
    else:
        print(f"ok: {len(ds)} rows")
    return 0


def _cmd_lipschitz(args) -> int:
    cfg = lipschitz_config(read_json(args.config))
    spec = build_objective(cfg)
    bound = None
    if cfg.problem["kind"] == "synthetic" and cfg.inner.variant == "gd":
        # the bound models the GD step map; its precondition is checked
        # before any point is sampled
        with config_field("inner.lr"):
            jacs = synthetic_step_jacobians(
                c=cfg.problem["c"],
                w_star=cfg.problem["w_star"],
                eta=cfg.inner.lr,
                t_inner=cfg.inner.steps,
                lambda_box=cfg.box[0],
            )
        bound = lipschitz_product_bound(jacs)
    report = empirical_lipschitz(spec, cfg.box, n_pairs=cfg.n_pairs, seed=cfg.seed)
    payload = {
        "bound": bound,
        "empirical_max_ratio": report.empirical_max_ratio,
        "samples": report.samples,
        "domain_box": cfg.box,
    }
    if cfg.output is not None:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"report written to {cfg.output}")
    print(json.dumps(payload))
    return 0


def _failure(err: HozogError | OSError | MemoryError) -> tuple[int, str]:
    """The exit code of a failure and the one line that reports it."""
    if isinstance(err, NonFiniteObjective):
        where = f" at meta-iteration {err.meta_iter}" if err.meta_iter is not None else ""
        return 3, f"non-finite objective{where}: {err}"
    if isinstance(err, ConfigError):
        return 2, f"config error: {err}"
    return 1, f"parse error: {err}" if isinstance(err, ParseError) else f"error: {err}"


def _joined_values(argv: list) -> list:
    """``argv`` with ``--values -1,2`` as ``--values=-1,2``, in any spelling argparse takes (``--v`` on):
    argparse takes a token that starts with a minus and is not one number for an option."""
    out = []
    for tok in argv:
        if out and len(out[-1]) >= 3 and "--values".startswith(out[-1]) and not tok.startswith("--"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(_joined_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as done:  # argparse exits after --help and after a usage error
        return done.code
    try:
        return args.handler(args)
    except (HozogError, OSError, MemoryError) as err:
        code, line = _failure(err)
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
