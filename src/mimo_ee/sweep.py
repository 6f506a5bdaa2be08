"""Sweep driver: config parsing, trade-off curve computation, CSV output.

The config format is a flat ``key = value`` text file ('#' starts a comment).
`KEYS` declares every key with its reader and its default. Units follow the
internal SI convention except at this boundary: Gc is given in dB and P_dec
in W per Gbit/s, both converted at parse time.
"""

from __future__ import annotations

import math
import sys
from codecs import BOM_UTF8
from dataclasses import dataclass
from typing import NamedTuple

from mimo_ee.capacity import (
    DEFAULT_CONFIG,
    EstimatorConfig,
    check_rate,
    prefetch_gamma0,
)
from mimo_ee.optimizer import (
    EEResult,
    exact_stencil,
    optimize_bound,
    optimize_exact,
    relaxed_optimum,
    with_units,
    zeta_exact,
)
from mimo_ee.params import SystemParams, normalize
from mimo_ee.regimes import classify

# The fields of every printed answer: `optimize` lines and CSV columns.
REPORT_FIELDS = ("objective", "M", "gamma", "zeta", "eta_bits_per_joule",
                 "f_pa", "regime")
CSV_HEADER = ",".join(("sweep_var", "sweep_value", *REPORT_FIELDS, "status"))

# Objective name -> (R, theta, config) -> EEResult in Theta units. Each entry
# looks its function up in this module when called, so a function rebound
# here after import (a tracing wrapper, say) is the one that runs.
OBJECTIVES = {
    "exact": lambda R, theta, config: optimize_exact(R, theta, config),
    "bound": lambda R, theta, config: optimize_bound(R, theta),
    "relaxed": lambda R, theta, config: relaxed_optimum(R, theta),
    "fixed-m-1": lambda R, theta, config: zeta_exact(1, R, theta, config),
}

MAX_GRID_POINTS = 100_000
# Grid points per Monte Carlo prefetch (`run_sweep`): at most 3 pairs each,
# so a chunk's pairs all stay in capacity's gamma0 cache until read.
SWEEP_CHUNK = 1024


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


@dataclass(frozen=True)
class SweepSpec:
    variable: str                 # "R" or "Gc"
    grid: tuple[float, ...]       # R in bits/s/Hz, Gc in dB
    fixed_value: float            # the non-swept quantity (R, or Gc in dB)
    params: SystemParams          # a Gc sweep replaces Gc per grid point
    objectives: tuple[str, ...]
    estimator: EstimatorConfig = DEFAULT_CONFIG

    def __post_init__(self):
        if self.variable not in ("R", "Gc"):
            raise ConfigError(f"unknown sweep variable {self.variable!r}")
        if not self.grid:
            raise ConfigError("sweep grid is empty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError("sweep grid must be strictly increasing")
        for R in self.grid if self.variable == "R" else (self.fixed_value,):
            check_rate(R)
        if not (self.objectives and set(self.objectives) <= OBJECTIVES.keys()):
            raise ConfigError(f"objectives must be a nonempty subset of "
                              f"{tuple(OBJECTIVES)}, got {self.objectives}")
        if len(set(self.objectives)) < len(self.objectives):
            raise ConfigError(f"objectives must not repeat, got "
                              f"{self.objectives}")


class CurvePoint(NamedTuple):
    sweep_value: float
    objective: str
    result: EEResult | None       # None when the point failed
    regime: str                   # classify's name of the point's regime
    status: str                   # "ok" or an error summary


class TradeoffCurve(NamedTuple):
    variable: str
    points: tuple[CurvePoint, ...]


def db_to_linear(db: float) -> float:
    """Gc in dB to linear. A Gc_dB whose gain overflows a float, or falls
    below the smallest normal float (Gc_dB below about -3076.5), is a
    ConfigError.
    """
    try:
        gain = 10.0 ** (db / 10.0)
    except OverflowError:
        raise ConfigError(f"Gc_dB = {db!r} overflows a float as a linear "
                          f"gain") from None
    if gain < sys.float_info.min:
        raise ConfigError(f"Gc_dB = {db!r} underflows a float as a linear "
                          f"gain")
    return gain


def parse_config(path: str) -> dict[str, str]:
    """Read a flat key = value file into a string dict.

    The file is UTF-8 text, with or without a byte-order mark, read in one
    read. A line ends in LF, CRLF or CR, as in text mode's universal
    newlines, and only there: other Unicode line breaks stay in the line.
    The mark is cut from the bytes: decoding as "utf-8-sig" would import
    that codec's module on a process's first config. A repeated key keeps
    its last value.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().removeprefix(BOM_UTF8).decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    out: dict[str, str] = {}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        out[key.strip()] = value.strip()
    return out


def _to_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r}: not finite: {text!r}")
    return value


def _to_int(key: str, text: str) -> int:
    try:
        return int(text)  # exactly, above 2^53 too
    except ValueError:  # such as 1e3, read as a float of integer value
        value = _to_float(key, text)
    if value != int(value):
        raise ConfigError(f"config key {key!r}: not an integer: {text!r}")
    return int(value)


def _to_text(key: str, text: str) -> str:
    return text


# Every config key -> (reader, default). A key whose default is None is
# required by the commands that read it; a key outside this table is a
# ConfigError. Gc_dB is in dB and P_dec in W per Gbit/s.
KEYS = {
    **dict.fromkeys(("B", "N0", "Gc_dB", "R"), (_to_float, None)),
    "pa_efficiency": (_to_float, 1.0),
    **dict.fromkeys(("P_BS", "P_UT", "P_OSC", "P_s", "P_dec", "C0"),
                    (_to_float, 0.0)),
    "variable": (_to_text, "Gc"),
    "grid": (_to_text, None),
    "objectives": (_to_text, "exact,relaxed"),
    "estimator": (_to_text, DEFAULT_CONFIG.method),
    "mc_samples": (_to_int, DEFAULT_CONFIG.mc_samples),
    "seed": (_to_int, DEFAULT_CONFIG.seed),
}


def _read(cfg: dict[str, str], key: str):
    """The value of `key` (a key of KEYS): its text in cfg through the
    key's reader, or its default when cfg does not set it."""
    reader, default = KEYS[key]
    if key in cfg:
        return reader(key, cfg[key])
    if default is None:
        raise ConfigError(f"missing required config key {key!r}")
    return default


def params_from_config(cfg: dict[str, str], gc_db: float | None = None) -> SystemParams:
    """Build SystemParams from config keys; Gc enters in dB, P_dec in W/Gbit/s.

    Every command reads its config through here, so this is also where keys
    outside KEYS (typos that would silently fall back to a default) are
    rejected. A malformed key, Gc_dB or pa_efficiency is a ConfigError;
    a field outside its range is the constructor's ParameterError, which the
    CLI prints as it prints a ConfigError.
    """
    if not cfg.keys() <= KEYS.keys():
        raise ConfigError("unknown config key(s): " + ", ".join(
            map(repr, sorted(cfg.keys() - KEYS.keys()))))
    if gc_db is None:
        gc_db = _read(cfg, "Gc_dB")
    eff = _read(cfg, "pa_efficiency")
    if not 0 < eff <= 1:
        raise ConfigError("pa_efficiency must be in (0, 1]")
    alpha = 1.0 / eff
    if alpha == math.inf:
        raise ConfigError(f"pa_efficiency = {eff!r}: 1/pa_efficiency "
                          f"overflows a float")
    return SystemParams(
        B=_read(cfg, "B"),
        N0=_read(cfg, "N0"),
        Gc=db_to_linear(gc_db),
        alpha=alpha,
        P_BS=_read(cfg, "P_BS"),
        P_UT=_read(cfg, "P_UT"),
        P_OSC=_read(cfg, "P_OSC"),
        P_s=_read(cfg, "P_s"),
        P_dec=_read(cfg, "P_dec") * 1e-9,  # W/Gbit/s -> W/bit/s
        C0=_read(cfg, "C0"),
    )


def estimator_from_config(cfg: dict[str, str]) -> EstimatorConfig:
    """The estimator the config names; DEFAULT_CONFIG, the record the keys'
    defaults build, when it names none of the estimator keys."""
    keys = ("estimator", "mc_samples", "seed")  # its fields, in order
    if cfg.keys().isdisjoint(keys):
        return DEFAULT_CONFIG
    return EstimatorConfig(*(_read(cfg, key) for key in keys))


def point_from_config(path: str) -> tuple[SystemParams, float, EstimatorConfig]:
    """Read one operating point: its parameters, its rate R, its estimator."""
    cfg = parse_config(path)
    params, estimator = params_from_config(cfg), estimator_from_config(cfg)
    return params, check_rate(_read(cfg, "R")), estimator


def _parse_grid(text: str) -> tuple[float, ...]:
    """The grid a `start:stop:step` range or a comma list names.

    A range's last point is stop itself where it falls within 1e-9 steps of
    stop. A range with no point (stop below start) is a ConfigError here,
    before a sweep reads its first point or its fixed key.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid range must be start:stop:step, got {text!r}")
        start, stop, step = (_to_float("grid", p) for p in parts)
        if step <= 0:
            raise ConfigError("grid step must be > 0")
        span = (stop - start) / step + 1e-9
        if not span < MAX_GRID_POINTS:  # also an overflowed (infinite) span
            raise ConfigError(f"grid {text!r} has more than "
                              f"{MAX_GRID_POINTS} points")
        if span < 0:  # stop below start, by any span, even an infinite one
            raise ConfigError("sweep grid is empty")
        last = math.floor(span)  # the last point's index
        end = stop if span - last <= 2e-9 else start + last * step
        return (*(start + i * step for i in range(last)), end)
    return tuple(_to_float("grid", p) for p in text.split(","))


def sweep_spec_from_config(path: str) -> SweepSpec:
    cfg = parse_config(path)
    variable = _read(cfg, "variable")
    if variable not in ("R", "Gc"):  # before its fixed key is read
        raise ConfigError(f"unknown sweep variable {variable!r}")
    grid = _parse_grid(_read(cfg, "grid"))
    fixed = _read(cfg, "R" if variable == "Gc" else "Gc_dB")
    params = params_from_config(cfg, grid[0] if variable == "Gc" else fixed)
    objectives = tuple(o.strip() for o in _read(cfg, "objectives").split(",")
                       if o.strip())
    return SweepSpec(variable, grid, fixed, params, objectives,
                     estimator_from_config(cfg))


def evaluate(objective: str, R: float, params: SystemParams,
             config: EstimatorConfig) -> EEResult:
    """Optimize one objective (a key of OBJECTIVES) at rate R, with units."""
    if objective not in OBJECTIVES:
        raise ConfigError(f"unknown objective {objective!r}")
    result = OBJECTIVES[objective](R, normalize(params), config)
    return with_units(result, params, R)


def _grid_point(spec: SweepSpec, value: float) -> tuple[SystemParams, float]:
    """The parameters and the rate R at one grid value."""
    if spec.variable == "Gc":
        return spec.params.with_gc(db_to_linear(value)), spec.fixed_value
    return spec.params, value


def _stencil_pairs(spec: SweepSpec, points):
    """Yield the (M, R) pairs whose gamma0 the exact objectives of points
    read: each `exact_stencil`, and M = 1 for fixed-m-1. A point whose
    stencil fails is left out; its row reports the failure.
    """
    exact = "exact" in spec.objectives
    fixed = "fixed-m-1" in spec.objectives
    for params, R in points:
        if fixed:
            yield 1, R
        if exact:
            try:
                stencil = exact_stencil(R, normalize(params))
            except (ValueError, ArithmeticError):
                continue
            for m in stencil:
                yield m, R


def run_sweep(spec: SweepSpec) -> TradeoffCurve:
    """Evaluate every requested objective at every grid point.

    Every grid point is resolved first, so a grid Gc_dB outside the float
    range ends the sweep before its first row. Per-point numerical failures
    (ArithmeticError) are recorded in the row status and do not abort the
    sweep; any other error, such as an M-hat above M_MAX or an EE that
    underflows or overflows, ends it. Before each chunk of SWEEP_CHUNK
    rows, `capacity.prefetch_gamma0` solves the Monte Carlo gamma0 of every
    chunk point's `exact_stencil` (max(M-hat - 1, 1), M-hat) in one batch
    (see there): these are the pairs the exact answer reads, so the exact
    rows read only the cache.
    """
    points = [_grid_point(spec, value) for value in spec.grid]
    solvers = [(objective, OBJECTIVES[objective])
               for objective in spec.objectives]
    config, rows = spec.estimator, []
    for i, (value, (params, R)) in enumerate(zip(spec.grid, points)):
        if i % SWEEP_CHUNK == 0:
            prefetch_gamma0(_stencil_pairs(spec, points[i:i + SWEEP_CHUNK]),
                            config)
        regime = classify(R, params)
        theta = normalize(params)
        for objective, solve in solvers:
            try:
                result = with_units(solve(R, theta, config), params, R)
                status = "ok"
            except ArithmeticError as exc:
                result = None
                status = f"error: {exc}"
            rows.append(CurvePoint(value, objective, result, regime, status))
    return TradeoffCurve(variable=spec.variable, points=tuple(rows))


# The format spec of every printed number: 9 significant digits.
NUMBER_SPEC = ".9g"
# An `ok` CSV row: the row's "sweep_var,sweep_value" head, REPORT_FIELDS and
# status, each number in NUMBER_SPEC (a %-conversion formats as format()
# does).
_OK_ROW = ",".join(("%s", "%s", *["%" + NUMBER_SPEC] * 5, "%s", "ok"))


def fmt(x: float) -> str:
    """The one number format of every printed answer."""
    return format(x, NUMBER_SPEC)


def emit_csv(curve: TradeoffCurve, path: str) -> None:
    """Write the curve as deterministic UTF-8 CSV (9 significant digits).

    A path that cannot be written is a ConfigError (a usage error).
    """
    if not curve.points:
        raise ValueError("refusing to write an empty trade-off curve")
    lines = [CSV_HEADER]
    last = head = None
    for value, objective, result, regime, status in curve.points:
        if value is not last:  # the rows of one grid point share its value
            last, head = value, f"{curve.variable},{fmt(value)}"
        if status == "ok":  # an EEResult's fields are the five numbers
            lines.append(_OK_ROW % (head, objective, *result, regime))
        else:  # the five numbers are blank
            lines.append(",".join((head, objective, *[""] * 5, regime,
                                   status.replace(",", ";"))))
    lines.append("")  # the final newline
    data = "\n".join(lines).encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ConfigError(f"cannot write CSV to {path}: {exc}") from exc


def compare_fixed_m(R: float, params: SystemParams, M_fixed: int,
                    config: EstimatorConfig = DEFAULT_CONFIG) -> float:
    """Optimal exact EE over the EE at M_fixed antennas: a ratio of zetas.

    Both answers pass `with_units`' check, so an EE that underflows is a
    CapacityError here as it is for `optimize`.
    """
    theta = normalize(params)
    best = with_units(optimize_exact(R, theta, config), params, R)
    fixed = with_units(zeta_exact(M_fixed, R, theta, config), params, R)
    return best.zeta / fixed.zeta
