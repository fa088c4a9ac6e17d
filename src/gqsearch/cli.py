"""Command line entry point.

    gqsearch run --config experiment.ini [--seed N] [--out PATH] [--format csv|json]
    gqsearch sweep --config sweep.ini [--seed N] [--out PATH] [--format csv|json]
    gqsearch validate

Exit codes: 0 success, 1 configuration problem, 2 numerical validation
failure (any ``linalg.NumericalFailure``).  A failure prints one stderr line.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import ConfigError, emit_report, load_config, load_sweep_configs
from .harness import run_experiment, run_validation
from .linalg import NumericalFailure


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through ConfigError
    # instead so usage problems land on exit code 1
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gqsearch", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, helptext in (
        ("run", "execute one configured experiment"),
        ("sweep", "expand comma lists in the config and run the product"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="path to an ini config")
        cmd.add_argument("--seed", type=int, default=None, help="override seed")
        cmd.add_argument("--out", default=None, help="override output path")
        cmd.add_argument("--format", default=None, help="override format: csv or json")
    sub.add_parser("validate", help="run the numerical invariant suite")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("a command is required: run, sweep, or validate")
        if args.command == "validate":
            return 0 if run_validation() else 2

        flags = {"seed": args.seed, "out": args.out, "format": args.format}
        overrides = {name: value for name, value in flags.items() if value is not None}
        if args.command == "run":
            configs = [load_config(args.config, **overrides)]
        else:
            configs = load_sweep_configs(args.config, **overrides)

        fmt = configs[0].format
        out = configs[0].out or f"report.{fmt}"
        # open the report path before any run: append mode keeps an existing
        # file, and one made here is removed, so a failed run leaves nothing
        existed = os.path.lexists(out)
        with open(out, "a", encoding="ascii"):
            pass
        if not existed:
            os.remove(out)
        rows = []
        for config in configs:
            rows.extend(run_experiment(config))
        emit_report(rows, fmt, out)
        print(f"wrote {len(rows)} row(s) to {out}")
        return 0
    except NumericalFailure as exc:
        code, message = 2, f"numerical validation failure: {exc}"
    except ValueError as exc:
        code, message = 1, f"config error: {exc}"
    except MemoryError as exc:
        code, message = 1, f"config error: {exc}; lower n or q_max"
    except OSError as exc:
        code, message = 1, f"io error: {exc}"
    # ConfigParser and NumPy word some errors over several lines; print one
    print(" ".join(message.splitlines()), file=sys.stderr)
    return code

