"""Command-line front end.

Subcommands: sweep, optimize, pa-fraction, compare-fixed-m. Exit codes:
0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from mimo_ee.capacity import CapacityError
from mimo_ee.params import ParameterError, normalize, pa_fraction_closed_form
from mimo_ee.regimes import classify
from mimo_ee.sweep import (
    ConfigError,
    compare_fixed_m,
    emit_csv,
    estimator_from_config,
    params_from_config,
    parse_config,
    run_sweep,
    sweep_spec_from_config,
    _evaluate,
    _get_float,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the Monte Carlo seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimo-ee",
        description="Energy-efficiency-optimal antenna dimensioning for a "
                    "single-user massive-MIMO downlink")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a trade-off sweep and emit CSV")
    _add_common(p)
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--objective", default=None,
                   help="comma list: exact,bound,relaxed,fixed-m-1")

    p = sub.add_parser("optimize", help="optimize a single operating point")
    _add_common(p)
    p.add_argument("--objective", default="exact",
                   help="objective to optimize (default exact)")

    p = sub.add_parser("pa-fraction",
                       help="closed-form PA share of total power")
    _add_common(p)

    p = sub.add_parser("compare-fixed-m",
                       help="optimal EE over EE at a frozen antenna count")
    _add_common(p)
    p.add_argument("--m-fixed", type=int, default=1)
    return parser


def _cmd_sweep(args) -> int:
    spec = sweep_spec_from_config(args.config, out=args.out, seed=args.seed,
                                  objectives=args.objective)
    if spec.output_path is None:
        raise ConfigError("no output path: set 'out' in the config or --out")
    curve = run_sweep(spec)
    emit_csv(curve, spec.output_path)
    failures = sum(1 for pt in curve.points if pt.status != "ok")
    print(f"wrote {len(curve.points)} rows to {spec.output_path}"
          + (f" ({failures} failed points)" if failures else ""))
    return 2 if failures else 0


def _cmd_optimize(args) -> int:
    cfg = parse_config(args.config)
    params = params_from_config(cfg)
    estimator = estimator_from_config(cfg, seed=args.seed)
    R = _get_float(cfg, "R")
    result = _evaluate(args.objective, R, params, estimator)
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
    cfg = parse_config(args.config)
    params = params_from_config(cfg)
    R = _get_float(cfg, "R")
    print(f"f_pa = {pa_fraction_closed_form(params, R):.9g}")
    return 0


def _cmd_compare_fixed_m(args) -> int:
    cfg = parse_config(args.config)
    params = params_from_config(cfg)
    estimator = estimator_from_config(cfg, seed=args.seed)
    R = _get_float(cfg, "R")
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
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ParameterError, CapacityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, OSError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
