"""Command-line entry point.

    sismfg solve CONFIG.json [--out DIR] [--seed S] [--validate-only]

Exit codes: 0 when at least one run/point succeeded, 1 for an invalid
configuration, 2 when every point failed.  The default output directory is
--out, then $SISMFG_OUTPUT_DIR, then ./sismfg_out.
"""

from __future__ import annotations

import argparse
import os
import sys
from .config import ConfigError, parse_config, parse_config_dict
from .runs import run_scenario

ENV_OUTPUT_DIR = "SISMFG_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ALL_FAILED = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sismfg",
        description="Solve and simulate the strategic SIS mean-field game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run a scenario config")
    solve.add_argument("config", help="path to a scenario JSON file")
    solve.add_argument("--out", help="output directory (overrides config and environment)")
    solve.add_argument("--seed", type=int, help="override the config seed")
    solve.add_argument(
        "--validate-only", action="store_true", help="parse and validate, then exit"
    )
    return parser


def _output_dir(args, cfg) -> str:
    if args.out:
        return args.out
    if cfg.output.dir:
        return cfg.output.dir
    return os.environ.get(ENV_OUTPUT_DIR, "sismfg_out")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:  # validated like the file's own seed
            cfg = parse_config_dict({**cfg.source, "seed": args.seed})
    except ConfigError as exc:
        print("configuration invalid:", file=sys.stderr)
        for err in exc.errors:
            print(f"  {err}", file=sys.stderr)
        return EXIT_CONFIG
    if args.validate_only:
        print(f"{args.config}: valid ({cfg.run} run, d={cfg.model.d})")
        return EXIT_OK
    bundle = run_scenario(cfg, _output_dir(args, cfg))
    for failure in bundle.failures:
        print(f"failure: {failure}", file=sys.stderr)
    if bundle.n_succeeded == 0:
        return EXIT_ALL_FAILED
    for name, path in sorted(bundle.artifacts.items()):
        print(f"{name}: {path}")
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
