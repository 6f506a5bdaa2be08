"""Command-line front end.

Subcommands: sweep, optimize, compare-fixed-m. Every setting is a config
key except four flags: --config, sweep --out, optimize --objective and
compare-fixed-m --m-fixed. Exit codes: 0 success, 1 configuration or usage
error, or output that cannot be written (stdout or --out), 2 numerical
failure. The PA share of the relaxed optimum is the f_pa line of
`optimize --objective relaxed`.

`parse_argv` reads argv by one grammar: the command, then flags spelled in
full as --flag value or --flag=value, a later repeat winning. -h or --help
anywhere prints a fixed 80-column help screen and exits 0. Any other usage
error is a ConfigError that starts with the program name, so it exits 1.
argparse is not used: its first message lookup imports gettext and locale.
"""

from __future__ import annotations

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
    run_sweep,
    sweep_spec_from_config,
)

PROG = "mimo-ee"


def _cmd_sweep(config: str, out: str) -> int:
    curve = run_sweep(sweep_spec_from_config(config))
    emit_csv(curve, out)
    failures = sum(1 for pt in curve.points if pt.status != "ok")
    note = f" ({failures} failed)" if failures else ""
    sys.stdout.write(f"wrote {len(curve.points)} rows to {out}{note}\n")
    return 2 if failures else 0


def _cmd_optimize(config: str, objective: str) -> int:
    params, R, estimator = point_from_config(config)
    result = evaluate(objective, R, params, estimator)
    texts = (objective, *map(fmt, result), classify(R, params))
    sys.stdout.write("".join(f"{name} = {text}\n"
                             for name, text in zip(REPORT_FIELDS, texts)))
    return 0


def _cmd_compare_fixed_m(config: str, m_fixed: int) -> int:
    params, R, estimator = point_from_config(config)
    ratio = compare_fixed_m(R, params, m_fixed, config=estimator)
    sys.stdout.write(f"eta_ratio = {fmt(ratio)}\n")
    return 0


HELP = """\
usage: mimo-ee [-h] {sweep,optimize,compare-fixed-m} ...

Energy-efficiency-optimal antenna dimensioning for a single-user massive-MIMO
downlink

positional arguments:
  {sweep,optimize,compare-fixed-m}
    sweep               run a trade-off sweep and emit CSV
    optimize            optimize a single operating point
    compare-fixed-m     optimal EE over EE at a frozen antenna count

options:
  -h, --help            show this help message and exit
"""

# Command -> (handler, flags, help screen). A flag maps to its default, or to
# None if it is required; a flag with an int default (--m-fixed) takes an
# int. The handler takes each flag as a keyword (--m-fixed as m_fixed),
# writes its stdout in one write and returns the exit code.
COMMANDS = {
    "sweep": (_cmd_sweep, {"--config": None, "--out": None}, """\
usage: mimo-ee sweep [-h] --config CONFIG --out OUT

options:
  -h, --help       show this help message and exit
  --config CONFIG  flat key=value config file
  --out OUT        CSV output path
"""),
    "optimize": (_cmd_optimize, {"--config": None,
                                 "--objective": "exact"}, """\
usage: mimo-ee optimize [-h] --config CONFIG [--objective OBJECTIVE]

options:
  -h, --help            show this help message and exit
  --config CONFIG       flat key=value config file
  --objective OBJECTIVE
                        objective to optimize (default exact)
"""),
    "compare-fixed-m": (_cmd_compare_fixed_m, {"--config": None,
                                               "--m-fixed": 1}, """\
usage: mimo-ee compare-fixed-m [-h] --config CONFIG [--m-fixed M_FIXED]

options:
  -h, --help         show this help message and exit
  --config CONFIG    flat key=value config file
  --m-fixed M_FIXED
"""),
}

def parse_argv(argv: list[str]):
    """The handler of argv's command and its keyword arguments.

    argv[0] is the command. Every later token is --flag=value, --flag value
    (the next token, which may not start with --) or unrecognized, and a
    later repeat of a flag wins. -h or --help, as a whole token anywhere,
    prints the command's help screen, or the program's if argv[0] is no
    command, and exits 0.
    """
    command = argv[0] if argv else None
    run, flags, text = COMMANDS.get(command, (None, None, HELP))
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(text)
        sys.stdout.flush()  # a failed write is main's OSError, not exit's
        raise SystemExit(0)
    if command is None:
        raise ConfigError(f"{PROG}: the following arguments are required: "
                          f"command")
    if run is None:
        raise ConfigError(f"{PROG}: argument command: invalid choice: "
                          f"{command!r} (choose from "
                          f"{', '.join(map(repr, COMMANDS))})")
    prog = f"{PROG} {command}"
    values, unknown = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        if name not in flags:
            unknown.append(token)
            continue
        if not eq:
            value = next(tokens, "--")  # none left reads as a flag
            if value.startswith("--"):
                raise ConfigError(f"{prog}: argument {name}: expected one "
                                  f"argument")
        if isinstance(flags[name], int):
            try:
                value = int(value)
            except ValueError:
                raise ConfigError(f"{prog}: argument {name}: invalid int "
                                  f"value: {value!r}") from None
        values[name] = value
    missing = [f for f, d in flags.items() if d is None and f not in values]
    if missing:
        raise ConfigError(f"{prog}: the following arguments are required: "
                          + ", ".join(missing))
    if unknown:
        raise ConfigError(f"{PROG}: unrecognized arguments: "
                          + " ".join(unknown))
    return run, {f[2:].replace("-", "_"): values.get(f, d)
                 for f, d in flags.items()}


def main(argv: list[str] | None = None) -> int:
    try:
        run, kwargs = parse_argv(sys.argv[1:] if argv is None else argv)
        code = run(**kwargs)
        sys.stdout.flush()
        return code
    except (ConfigError, ParameterError, CapacityError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except ArithmeticError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except OSError as exc:  # from stdout: an unwritable --out is a ConfigError
        sys.stderr.write(f"cannot write output: {exc}\n")
        try:  # drop the unwritten text, so exit does not retry it
            sys.stdout.close()
        except OSError:
            pass
        return 1


if __name__ == "__main__":
    sys.exit(main())
