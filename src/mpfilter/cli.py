"""Command line interface for the twin-experiment harness.

Commands:

* ``mpfilter run (<config> | --preset NAME) [--seed N] [--out DIR] [--filter F]``
* ``mpfilter list-presets``
* ``mpfilter check <config>``

``check`` builds the run's setup with ``experiment.build_setup``, the
builder ``run`` uses, so a config ``check`` accepts is not rejected by
``run`` before its first cycle.  A start that is not shipped is
integrated during ``check`` as during ``run``.  The ``MPFILTER_LOG``
environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from mpfilter.config import FILTERS, ConfigError, load_config, load_preset, preset_names
from mpfilter.core import FilterFailure
from mpfilter.experiment import build_setup, run_twin_experiment

log = logging.getLogger("mpfilter")
# a bad config or a failed run: one line, exit 1
_RUN_ERRORS = (ConfigError, FilterFailure)


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
    run.add_argument("--filter", choices=FILTERS,
                     help="override the configured filter")

    sub.add_parser("list-presets", help="list shipped experiment presets")

    check = sub.add_parser("check", help="build a config's setup and exit")
    check.add_argument("config", help="path to the config file")
    return parser


def _resolve_config(args) -> tuple:
    if args.preset is not None and args.config:
        raise ConfigError("run takes a config path or --preset NAME, not both")
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
    return cfg, name


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("MPFILTER_LOG", "INFO")
    if not isinstance(logging.getLevelName(level), int):
        print(f"error: MPFILTER_LOG = {level!r} is not a log level", file=sys.stderr)
        return 1
    logging.basicConfig(level=level)
    args = _build_parser().parse_args(argv)

    if args.command == "list-presets":
        for name in preset_names():
            print(name)
        return 0

    if args.command == "check":
        try:
            build_setup(load_config(args.config))
        except _RUN_ERRORS as exc:
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
    except _RUN_ERRORS as exc:
        # the rows written before the failure stay in the partial CSV
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # reading a config raises ConfigError, so an output failed
        print(f"error: --out {args.out}: {exc}", file=sys.stderr)
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
