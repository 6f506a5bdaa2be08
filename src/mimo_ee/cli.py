"""Command-line front end.

Subcommands: sweep, optimize, pa-fraction, compare-fixed-m. Every setting
is a config key except four flags: --config, sweep --out, optimize
--objective and compare-fixed-m --m-fixed. Exit codes: 0 success, 1
configuration or usage error (an unwritable --out too), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from mimo_ee.capacity import CapacityError
from mimo_ee.params import ParameterError, pa_fraction_closed_form
from mimo_ee.regimes import classify
from mimo_ee.sweep import (
    ConfigError,
    compare_fixed_m,
    emit_csv,
    evaluate,
    point_from_config,
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


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="flat key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mimo-ee",
        description="Energy-efficiency-optimal antenna dimensioning for a "
                    "single-user massive-MIMO downlink")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a trade-off sweep and emit CSV")
    _add_config(p)
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("optimize", help="optimize a single operating point")
    _add_config(p)
    p.add_argument("--objective", default="exact",
                   help="objective to optimize (default exact)")

    p = sub.add_parser("pa-fraction",
                       help="closed-form PA share of total power")
    _add_config(p)

    p = sub.add_parser("compare-fixed-m",
                       help="optimal EE over EE at a frozen antenna count")
    _add_config(p)
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
    result = evaluate(args.objective, R, params, estimator)
    regime = classify(R, params)
    print(f"objective = {args.objective}")
    print(f"M = {result.M:.9g}")
    print(f"gamma = {result.gamma:.9g}")
    print(f"zeta = {result.zeta:.9g}")
    print(f"eta_bits_per_joule = {result.eta:.9g}")
    print(f"f_pa = {result.breakdown.f_pa:.9g}")
    print(f"regime = {regime.regime}")
    return 0


def _cmd_pa_fraction(args) -> int:
    params, R, _ = point_from_config(args.config)
    print(f"f_pa = {pa_fraction_closed_form(params, R):.9g}")
    return 0


def _cmd_compare_fixed_m(args) -> int:
    params, R, estimator = point_from_config(args.config)
    ratio = compare_fixed_m(R, params, args.m_fixed, config=estimator)
    print(f"eta_ratio = {ratio:.9g}")
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
    "pa-fraction": _cmd_pa_fraction,
    "compare-fixed-m": _cmd_compare_fixed_m,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, ParameterError, CapacityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, OSError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
