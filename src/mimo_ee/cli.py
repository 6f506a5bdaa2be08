"""Command-line front end.

Subcommands: sweep, optimize, compare-fixed-m. Every setting is a config
key except four flags: --config, sweep --out, optimize --objective and
compare-fixed-m --m-fixed. Exit codes: 0 success, 1 configuration or usage
error (an unwritable --out too), 2 numerical failure. The PA share of the
relaxed optimum is the f_pa line of `optimize --objective relaxed`.

`parse_argv` reads argv from the COMMANDS table with argparse's grammar and
messages, without importing argparse, whose first message lookup imports
gettext and locale. -h/--help prints argparse's 80-column help screen, kept
as fixed text; any other usage error is a ConfigError that starts with the
program name, so it exits 1 (argparse would exit 2, a numerical failure).
"""

from __future__ import annotations

import re
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

PROG = "mimo-ee"


def _cmd_sweep(config: str, out: str) -> int:
    curve = run_sweep(sweep_spec_from_config(config))
    emit_csv(curve, out)
    failures = sum(1 for pt in curve.points if pt.status != "ok")
    print(f"wrote {len(curve.points)} rows to {out}"
          + (f" ({failures} failed points)" if failures else ""))
    return 2 if failures else 0


def _cmd_optimize(config: str, objective: str) -> int:
    params, R, estimator = point_from_config(config)
    texts = report_fields(objective, evaluate(objective, R, params, estimator),
                          classify(R, params))
    for name, text in zip(REPORT_FIELDS, texts):
        print(f"{name} = {text}")
    return 0


def _cmd_compare_fixed_m(config: str, m_fixed: int) -> int:
    params, R, estimator = point_from_config(config)
    ratio = compare_fixed_m(R, params, m_fixed, config=estimator)
    print(f"eta_ratio = {fmt(ratio)}")
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
# int. The handler takes each flag as a keyword (--m-fixed as m_fixed).
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

# what argparse reads as a negative number, a value rather than a flag
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_flag(token: str, flags) -> bool:
    """Whether argparse reads token as a flag, never as a flag's value."""
    return len(token) > 1 and token[0] == "-" and (
        token.partition("=")[0] in (*flags, "--help")
        or token.startswith("-h")
        or not (" " in token or _NEGATIVE_NUMBER.match(token)))


def _help(token: str, prog: str, text: str) -> None:
    """Print text and exit 0 if token asks for help, as -h, --help or -hh.

    Text glued to the flag is refused: --help=x, -h=x and -hx are errors.
    """
    name, eq, glued = token.partition("=")
    if name not in ("-h", "--help"):
        if not token.startswith("-h"):
            return
        eq, glued = "", token[2:]
    refused = glued if name == "--help" else glued.lstrip("h")
    if refused or (eq and not glued):
        raise ConfigError(f"{prog}: argument -h/--help: ignored explicit "
                          f"argument {refused!r}")
    print(text, end="")
    raise SystemExit(0)


def parse_argv(argv: list[str]):
    """The handler of argv's command and its keyword arguments.

    Flags are spelled in full, as --flag value or --flag=value, and a later
    repeat wins. A value may not look like a flag; a negative number may.
    """
    unknown: list[str] = []
    for i, token in enumerate(argv):   # the program's own flags
        _help(token, PROG, HELP)
        # a last "--" is dropped; any other is read as the command
        if not _is_flag(token, ()) or token == "--" and i + 1 < len(argv):
            break
        unknown.append(token)
    else:
        raise ConfigError(f"{PROG}: the following arguments are required: "
                          f"command")
    command, rest = token, argv[i + 1:]
    if command not in COMMANDS:
        raise ConfigError(f"{PROG}: argument command: invalid choice: "
                          f"{command!r} (choose from "
                          f"{', '.join(map(repr, COMMANDS))})")
    run, flags, text = COMMANDS[command]
    prog = f"{PROG} {command}"
    values = {}
    tokens = iter(rest)
    for token in tokens:
        _help(token, prog, text)
        if token == "--":   # the rest are values, which no flag takes
            unknown += [token, *tokens]
            break
        name, eq, value = token.partition("=")
        if name not in flags:
            unknown.append(token)
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or _is_flag(value, flags):
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
        return run(**kwargs)
    except (ConfigError, ParameterError, CapacityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, OSError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
