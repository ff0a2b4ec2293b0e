"""Command line interface for the twin-experiment harness.

Commands:

* ``mpfilter run <config> [--preset NAME] [--seed N] [--out DIR] [--filter F]``
* ``mpfilter list-presets``
* ``mpfilter check <config>``

The ``MPFILTER_LOG`` environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from mpfilter.config import (
    ConfigError,
    load_config,
    load_preset,
    preset_names,
    validate,
)
from mpfilter.experiment import run_twin_experiment
from mpfilter.models import IntegrationBlowupError
from mpfilter.mpf import NonFiniteGradientError
from mpfilter.ssm import NumericalDegeneracyError

log = logging.getLogger("mpfilter")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpfilter",
        description="Mapping particle filter twin-experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a twin experiment")
    run.add_argument("config", nargs="?", help="path to a flat key = value config file")
    run.add_argument("--preset", help="named preset (see list-presets)")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--out", default=".", help="output directory (default: cwd)")
    run.add_argument("--filter", choices=("mpf", "sir", "enkf"),
                     help="override the configured filter")

    sub.add_parser("list-presets", help="list shipped experiment presets")

    check = sub.add_parser("check", help="validate a config file and exit")
    check.add_argument("config", help="path to the config file")
    return parser


def _resolve_config(args) -> tuple:
    if args.preset is not None:
        cfg = load_preset(args.preset)
        name = args.preset
    elif args.config:
        cfg = load_config(args.config)
        name = os.path.splitext(os.path.basename(args.config))[0]
    else:
        raise ConfigError("run needs a config path or --preset NAME")
    if args.seed is not None:
        cfg.seed = args.seed
    if args.filter is not None:
        cfg.filter = args.filter
    validate(cfg)
    return cfg, name


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("MPFILTER_LOG", "INFO"))
    args = _build_parser().parse_args(argv)

    if args.command == "list-presets":
        for name in preset_names():
            print(name)
        return 0

    if args.command == "check":
        try:
            load_config(args.config)
        except ConfigError as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 1
        print("ok")
        return 0

    try:
        cfg, name = _resolve_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        result = run_twin_experiment(cfg, out_dir=args.out, name=name)
    except (ConfigError, NumericalDegeneracyError, NonFiniteGradientError,
            IntegrationBlowupError) as exc:
        # the rows written before the failure stay in the partial CSV
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if result.records:
        log.info(
            "%s: %d cycles, time-mean RMSE %.4g",
            name, len(result.records), result.time_mean_rmse(),
        )
    print(result.csv_path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
