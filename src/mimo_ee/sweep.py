"""Sweep driver: config parsing, trade-off curve computation, CSV output.

The config format is a flat ``key = value`` text file ('#' starts a comment).
Units follow the internal SI convention except at this boundary: Gc is given
in dB and P_dec in W per Gbit/s, both converted at parse time.
"""

from __future__ import annotations

import math
import sys
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
from mimo_ee.params import ParameterError, SystemParams, normalize
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

CONFIG_KEYS = frozenset({
    "B", "N0", "Gc_dB", "pa_efficiency",
    "P_BS", "P_UT", "P_OSC", "P_s", "P_dec", "C0",
    "R", "variable", "grid", "objectives",
    "estimator", "mc_samples", "seed",
})


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


@dataclass(frozen=True)
class SweepSpec:
    variable: str                 # "R" or "Gc"
    grid: tuple[float, ...]       # R in bits/s/Hz, Gc in dB
    fixed_value: float            # the non-swept quantity (R, or Gc in dB)
    params: SystemParams          # Gc field is overwritten per grid point
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
        unknown = set(self.objectives) - set(OBJECTIVES)
        if unknown or not self.objectives:
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
    """Read a flat key = value file into a string dict."""
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return out


def _to_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r}: not finite: {text!r}")
    return value


def _get_float(cfg: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    return _to_float(key, cfg[key])


def _get_int(cfg: dict[str, str], key: str, default: int) -> int:
    value = _get_float(cfg, key, default)
    if value != int(value):
        raise ConfigError(f"config key {key!r}: not an integer: {cfg[key]!r}")
    return int(value)


def params_from_config(cfg: dict[str, str], gc_db: float | None = None) -> SystemParams:
    """Build SystemParams from config keys; Gc enters in dB, P_dec in W/Gbit/s.

    Every command reads its config through here, so this is also where keys
    outside CONFIG_KEYS (typos that would silently fall back to a default)
    are rejected.
    """
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ConfigError("unknown config key(s): "
                          + ", ".join(map(repr, unknown)))
    if gc_db is None:
        gc_db = _get_float(cfg, "Gc_dB")
    eff = _get_float(cfg, "pa_efficiency", 1.0)
    if not 0 < eff <= 1:
        raise ConfigError("pa_efficiency must be in (0, 1]")
    try:
        return SystemParams(
            B=_get_float(cfg, "B"),
            N0=_get_float(cfg, "N0"),
            Gc=db_to_linear(gc_db),
            alpha=1.0 / eff,
            P_BS=_get_float(cfg, "P_BS", 0.0),
            P_UT=_get_float(cfg, "P_UT", 0.0),
            P_OSC=_get_float(cfg, "P_OSC", 0.0),
            P_s=_get_float(cfg, "P_s", 0.0),
            P_dec=_get_float(cfg, "P_dec", 0.0) * 1e-9,  # W/Gbit/s -> W/bit/s
            C0=_get_float(cfg, "C0", 0.0),
        )
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def estimator_from_config(cfg: dict[str, str]) -> EstimatorConfig:
    return EstimatorConfig(
        method=cfg.get("estimator", DEFAULT_CONFIG.method),
        mc_samples=_get_int(cfg, "mc_samples", DEFAULT_CONFIG.mc_samples),
        seed=_get_int(cfg, "seed", DEFAULT_CONFIG.seed),
    )


def point_from_config(path: str) -> tuple[SystemParams, float, EstimatorConfig]:
    """Read one operating point: its parameters, its rate R, its estimator."""
    cfg = parse_config(path)
    params = params_from_config(cfg)
    estimator = estimator_from_config(cfg)
    return params, check_rate(_get_float(cfg, "R")), estimator


def _parse_grid(text: str) -> tuple[float, ...]:
    text = text.strip()
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
        return tuple(start + i * step for i in range(int(math.floor(span)) + 1))
    return tuple(_to_float("grid", p) for p in text.split(","))


def sweep_spec_from_config(path: str) -> SweepSpec:
    cfg = parse_config(path)
    variable = cfg.get("variable", "Gc")
    if "grid" not in cfg:
        raise ConfigError("missing required config key 'grid'")
    grid = _parse_grid(cfg["grid"])
    if variable == "Gc":
        fixed = _get_float(cfg, "R")
        params = params_from_config(cfg, gc_db=grid[0])
    else:
        fixed = _get_float(cfg, "Gc_dB")
        params = params_from_config(cfg, gc_db=fixed)
    obj_text = cfg.get("objectives", "exact,relaxed")
    return SweepSpec(
        variable=variable,
        grid=grid,
        fixed_value=fixed,
        params=params,
        objectives=tuple(o.strip() for o in obj_text.split(",") if o.strip()),
        estimator=estimator_from_config(cfg),
    )


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
    need: each walk's stencil, and M = 1 for fixed-m-1. A point whose
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

    Per-point numerical failures (ArithmeticError) are recorded in the row
    status and do not abort the sweep; any other error, such as an exact
    start above M_MAX or an EE that underflows, ends it. Before the rows,
    `capacity.prefetch_gamma0` solves the Monte Carlo gamma0 of every
    point's stencil {M-hat - 1, M-hat, M-hat + 1} in one threaded batch
    where that pays (see there): the exact walk reads just these pairs
    whenever it ends at its start M-hat, so the exact rows mostly read the
    cache.
    """
    points = []
    for value in spec.grid:
        try:
            points.append(_grid_point(spec, value))
        except ValueError:  # raised again by its row, after the rows before
            break
    prefetch_gamma0(_stencil_pairs(spec, points), spec.estimator)
    rows = []
    for i, value in enumerate(spec.grid):
        params, R = points[i] if i < len(points) else _grid_point(spec, value)
        regime = classify(R, params)
        for objective in spec.objectives:
            try:
                result = evaluate(objective, R, params, spec.estimator)
                status = "ok"
            except ArithmeticError as exc:
                result = None
                status = f"error: {exc}"
            rows.append(CurvePoint(value, objective, result, regime, status))
    return TradeoffCurve(variable=spec.variable, points=tuple(rows))


# The format spec of every printed number: 9 significant digits.
NUMBER_SPEC = ".9g"
# An `ok` CSV row: sweep_var, sweep_value, REPORT_FIELDS and status, each
# number in NUMBER_SPEC (a %-conversion formats as format() does).
_OK_ROW = ",".join(("%s", "%" + NUMBER_SPEC, "%s",
                    *["%" + NUMBER_SPEC] * 5, "%s", "ok"))


def fmt(x: float) -> str:
    """The one number format of every printed answer."""
    return format(x, NUMBER_SPEC)


def emit_csv(curve: TradeoffCurve, path: str) -> None:
    """Write the curve as deterministic UTF-8 CSV (9 significant digits).

    A path that cannot be written is a ConfigError (a usage error).
    """
    if not curve.points:
        raise ValueError("refusing to write an empty trade-off curve")
    variable = curve.variable
    lines = [CSV_HEADER]
    for value, objective, result, regime, status in curve.points:
        if status == "ok":  # an EEResult's fields are the five numbers
            lines.append(_OK_ROW % (variable, value, objective, *result,
                                    regime))
        else:  # the five numbers are blank
            lines.append(",".join((variable, fmt(value), objective,
                                   *[""] * 5, regime,
                                   status.replace(",", ";"))))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
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
