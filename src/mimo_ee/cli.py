"""Command-line front end.

Subcommands: sweep, optimize, compare-fixed-m. Every setting is a config
key except four flags: --config, sweep --out, optimize --objective and
compare-fixed-m --m-fixed. Exit codes: 0 success, 1 configuration or usage
error (an unwritable --out too), 2 numerical failure. The PA share of the
relaxed optimum is the f_pa line of `optimize --objective relaxed`.
"""

from __future__ import annotations

import argparse
import sys

from mimo_ee.capacity import CapacityError
from mimo_ee.params import ParameterError
from mimo_ee.regimes import classify
from mimo_ee.sweep import (
    REPORT_FIELDS,
    ConfigError,
    compare_fixed_m,
    emit_csv,
    evaluate,
    fmt,
    point_from_config,
    report_fields,
    run_sweep,
    sweep_spec_from_config,
)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors.

    argparse would exit with status 2, which this CLI reserves for numerical
    failure. Flags must be spelled in full. Subparsers are built from the
    same class.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _add_command(sub, name: str, run, help: str) -> argparse.ArgumentParser:
    """Declare subcommand `name`, run as `run(args)`, with its --config."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.set_defaults(run=run)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mimo-ee",
        description="Energy-efficiency-optimal antenna dimensioning for a "
                    "single-user massive-MIMO downlink")
    sub = parser.add_subparsers(dest="command", required=True)
    p = _add_command(sub, "sweep", _cmd_sweep,
                     "run a trade-off sweep and emit CSV")
    p.add_argument("--out", required=True, help="CSV output path")
    p = _add_command(sub, "optimize", _cmd_optimize,
                     "optimize a single operating point")
    p.add_argument("--objective", default="exact",
                   help="objective to optimize (default exact)")
    p = _add_command(sub, "compare-fixed-m", _cmd_compare_fixed_m,
                     "optimal EE over EE at a frozen antenna count")
    p.add_argument("--m-fixed", type=int, default=1)
    return parser


def _cmd_sweep(args) -> int:
    curve = run_sweep(sweep_spec_from_config(args.config))
    emit_csv(curve, args.out)
    failures = sum(1 for pt in curve.points if pt.status != "ok")
    print(f"wrote {len(curve.points)} rows to {args.out}"
          + (f" ({failures} failed points)" if failures else ""))
    return 2 if failures else 0


def _cmd_optimize(args) -> int:
    params, R, estimator = point_from_config(args.config)
    texts = report_fields(args.objective,
                          evaluate(args.objective, R, params, estimator),
                          classify(R, params))
    for name, text in zip(REPORT_FIELDS, texts):
        print(f"{name} = {text}")
    return 0


def _cmd_compare_fixed_m(args) -> int:
    params, R, estimator = point_from_config(args.config)
    ratio = compare_fixed_m(R, params, args.m_fixed, config=estimator)
    print(f"eta_ratio = {fmt(ratio)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (ConfigError, ParameterError, CapacityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, OSError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
