"""Command-line entry point.

Verbs: run (single point at the configured budget), sweep-power,
sweep-elements, validate-config. Every invocation logs the resolved
config, the master seed, and the package version to stderr, so a run can
be reproduced from its log alone. Error exit codes: 2 bad config or
arguments, 3 numeric domain, 4 I/O, 5 oversized enumeration.
"""

import argparse
import logging
import os
import sys
import tempfile

from . import __version__
from .config import SCHEME_NAMES, format_config, load_config, parse_config
from .errors import ConfigError, DimensionError, NumericError, SizeError
from .experiment import emit_csv, sweep

log = logging.getLogger("fr3ris")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
EXIT_SIZE = 5


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="flat key=value scenario file (defaults apply)")
    # each flag's dest is the config key it overrides
    common.add_argument("--seed", dest="master_seed", metavar="U64",
                        help="override master_seed")
    common.add_argument("--realizations", metavar="N",
                        help="override Monte Carlo realization count")
    common.add_argument("--schemes", metavar="LIST",
                        help="comma list among: " + ", ".join(SCHEME_NAMES))

    parser = argparse.ArgumentParser(
        prog="fr3ris",
        description="RIS-assisted FR3 downlink simulator: power allocation "
                    "and IU-RIS association sweeps")
    parser.add_argument("--version", action="version",
                        version=f"fr3ris {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", parents=[common],
                           help="single sweep point at the configured budget")
    p_run.add_argument("--out", required=True, metavar="PATH",
                       help="output CSV path")

    p_pow = sub.add_parser("sweep-power", parents=[common],
                           help="sum rate vs AP power budget")
    p_pow.add_argument("--out", required=True, metavar="PATH")
    p_pow.add_argument("--values", dest="power_sweep_dbm", metavar="LIST",
                       help="override power_sweep_dbm, a comma list of dBm "
                            "points")

    p_el = sub.add_parser("sweep-elements", parents=[common],
                          help="sum rate vs RIS element count")
    p_el.add_argument("--out", required=True, metavar="PATH")
    p_el.add_argument("--values", dest="element_sweep", metavar="LIST",
                      help="override element_sweep, a comma list of element "
                           "counts")

    sub.add_parser("validate-config", parents=[common],
                   help="parse, validate, and echo the resolved config")
    return parser


_FLAG_KEYS = ("master_seed", "realizations", "schemes", "power_sweep_dbm",
              "element_sweep")


def _load(args):
    """Config file (or defaults) with the given flags applied as overrides
    of their keys, so a flag passes the same checks as a config line."""
    overrides = [(key, getattr(args, key)) for key in _FLAG_KEYS
                 if getattr(args, key, None) is not None]
    if args.config:
        return load_config(args.config, overrides)
    return parse_config("", overrides)


def _log_run_context(cfg):
    log.info("fr3ris %s", __version__)
    log.info("master seed: %d", cfg.master_seed)
    for line in format_config(cfg).splitlines():
        log.info("config: %s", line)


def _probe_output(path):
    # fail on unwritable paths before burning compute, without creating
    # anything at `path`: emit_csv writes beside it and renames
    if os.path.isdir(path):
        raise OSError(f"output path {path} is a directory")
    try:
        with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))):
            pass
    except OSError as exc:
        raise OSError(f"output path {path} is not writable: {exc}") from exc


def dispatch(args):
    cfg = _load(args)
    _log_run_context(cfg)
    if args.verb == "validate-config":
        print(format_config(cfg))
        return EXIT_OK

    _probe_output(args.out)
    if args.verb == "run":
        cfg = cfg.with_updates(power_sweep_dbm=(cfg.p_max_dbm,))
    variable = "elements" if args.verb == "sweep-elements" else "power"
    result = sweep(cfg, variable)
    emit_csv(result, args.out)
    log.info("wrote %s (%d sweep points, %d schemes, %d realizations)",
             args.out, len(result.values), len(result.schemes),
             result.realizations)
    return EXIT_OK


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return dispatch(args)
    except ConfigError as exc:
        log.error("config: %s", exc)
        return EXIT_CONFIG
    except SizeError as exc:
        log.error("size: %s", exc)
        return EXIT_SIZE
    except (NumericError, DimensionError, ValueError, ArithmeticError) as exc:
        log.error("numeric: %s", exc)
        return EXIT_NUMERIC
    except OSError as exc:
        log.error("io: %s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
