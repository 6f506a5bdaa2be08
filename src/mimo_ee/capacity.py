"""Ergodic capacity of the maximum-ratio-beamformed Rayleigh link.

The effective channel power ||h||^2 of an M-antenna beamformer with unit
variance complex Gaussian entries is Gamma(M, 1) distributed, so the capacity
is E[log2(1 + gamma * X)], X ~ Gamma(M, 1). The default estimator is one
trapezoid rule, the same for every M, on the Frullani form of that mean; the
Monte Carlo cross-check gives equal weights to seeded Gamma draws. Both are
reached through `_estimator`, so evaluation and rate inversion are shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_FLOAT_MAX = np.finfo(np.float64).max
_LOG2E = 1.4426950408889634

# Trapezoid nodes s_j = e^{t_j}, t_j = -100:0.25:4, weights 0.25 e^{-s_j}.
_NODES = np.exp(np.linspace(-100.0, 4.0, 417))
_WEIGHTS = 0.25 * np.exp(-_NODES)


class CapacityError(ValueError):
    """Invalid input to a capacity computation."""


class BracketError(RuntimeError):
    """Rate inversion could not bracket or converge; carries diagnostics."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Evaluation settings for the capacity expectation.

    method : "quadrature" (deterministic, default) or "monte-carlo"
    mc_samples : Monte Carlo sample count
    seed : Monte Carlo seed; ignored by quadrature
    rate_tol : convergence tolerance of the rate inversion (bits/s/Hz)
    """

    method: str = "quadrature"
    mc_samples: int = 1_000_000
    seed: int = 0
    rate_tol: float = 1e-6

    def __post_init__(self):
        if self.method not in ("quadrature", "monte-carlo"):
            raise CapacityError(f"unknown estimator method {self.method!r}")
        if self.mc_samples < 2:
            raise CapacityError("sample count must be >= 2")
        if self.rate_tol <= 0:
            raise CapacityError("rate_tol must be > 0")


DEFAULT_CONFIG = EstimatorConfig()


@dataclass(frozen=True)
class CapacityEstimate:
    value: float            # bits/s/Hz
    method: str             # "quadrature" or "monte-carlo"
    abs_error_bound: float  # bits/s/Hz


@dataclass(frozen=True)
class SnrSolution:
    gamma: float
    residual: float         # capacity(gamma) - R, bits/s/Hz
    iterations: int


def _validate_inputs(M: int, name: str, value: float) -> None:
    """Reject a non-positive-integer M, or a non-finite or non-positive value."""
    if not (isinstance(M, (int, np.integer)) and M >= 1):
        raise CapacityError(f"M must be a positive integer, got {M!r}")
    if not (math.isfinite(value) and value > 0):
        raise CapacityError(f"{name} must be finite and > 0, got {value!r}")


def _frullani(M: int, nodes, weights):
    """gamma -> log2(e) * Sum_j w_j * (1 - (1 + gamma * s_j)^-M)."""
    def cap(gamma: float) -> float:
        return -float(np.dot(weights, np.expm1(
            -M * np.log1p(gamma * nodes)))) * _LOG2E
    return cap


def _estimator(M: int, config: EstimatorConfig):
    """The evaluator gamma -> capacity estimate, and the nodes it scales.

    Quadrature uses Frullani's integral with E[e^{-sX}] = (1 + s)^-M:

        E[ln(1 + gamma X)] = int_R e^{-e^t} (1 - (1 + gamma e^t)^-M) dt,

    summed by the trapezoid rule on fixed nodes that do not depend on M. It
    is accurate to roundoff for every M and gamma: in the strip |Im t| <
    pi/2 the integrand is analytic and bounded (e^t and 1 + gamma e^t have
    positive real part there), so the discretization error is about
    e^{-pi^2/h} = 7e-18; the tail beyond t = 4 is below e^{-e^4} = 2e-24;
    the tail below t = -100 is at most M gamma e^{-100}.

    Monte Carlo is the equal-weight rule on seeded Gamma(M, 1) draws; the
    draws depend on (seed, M) and not on gamma, so every gamma probe of one
    inversion reuses them (common random numbers) and the estimate stays
    monotone in gamma along the sample path.
    """
    if config.method == "quadrature":
        return _frullani(M, _NODES, _WEIGHTS), _NODES
    rng = np.random.default_rng((config.seed, M))
    x = rng.gamma(shape=M, scale=1.0, size=config.mc_samples)
    weights = np.full(config.mc_samples, 1.0 / config.mc_samples)

    def cap(gamma: float) -> float:
        return float(np.dot(weights, np.log1p(gamma * x))) * _LOG2E
    return cap, x


def ergodic_capacity(M: int, gamma: float,
                     config: EstimatorConfig = DEFAULT_CONFIG) -> CapacityEstimate:
    """E[log2(1 + gamma * X)], X ~ Gamma(M, 1).

    The quadrature error bound is the difference against the rule of twice
    the step, plus the truncated lower tail; the Monte Carlo bound is a 99%
    confidence half-width.
    """
    _validate_inputs(M, "gamma", gamma)
    cap, nodes = _estimator(M, config)
    if gamma > _FLOAT_MAX / float(nodes.max()):
        raise OverflowError(
            f"gamma * ||h||^2 exceeds float range (M={M}, gamma={gamma:g})")
    value = cap(gamma)
    if config.method == "quadrature":
        coarse = _frullani(M, _NODES[::2], 2.0 * _WEIGHTS[::2])(gamma)
        bound = (abs(value - coarse) + M * gamma * math.exp(-100.0) * _LOG2E
                 + 1e-12 * (1.0 + abs(value)))
    else:
        spread = float(np.log1p(gamma * nodes).std(ddof=1)) * _LOG2E
        bound = 2.5758293035489004 * spread / math.sqrt(len(nodes))
    return CapacityEstimate(value=value, method=config.method,
                            abs_error_bound=bound)


def capacity_bounds(M: int, gamma: float) -> tuple[float, float]:
    """Jensen bounds (log2(1 + (M-1) gamma), log2(1 + M gamma))."""
    _validate_inputs(M, "gamma", gamma)
    return (math.log2(1.0 + (M - 1) * gamma), math.log2(1.0 + M * gamma))


def snr_lower_bound_rate(M: int, R: float) -> float:
    """Closed-form SNR (2^R - 1)/(M - 1) achieving rate R via the lower bound."""
    if M < 2:
        raise CapacityError("closed-form SNR requires M >= 2")
    if R <= 0:
        raise CapacityError("R must be > 0")
    return (2.0 ** R - 1.0) / (M - 1)


def invert_capacity(M: int, R: float, tol: float | None = None,
                    config: EstimatorConfig = DEFAULT_CONFIG) -> SnrSolution:
    """Solve ergodic_capacity(M, gamma) = R for gamma by bisection.

    The initial bracket [(2^R - 1)/M, (2^R - 1)/max(M - 1, 1/2)] follows from
    the Jensen bounds for M >= 2; for M = 1 the upper end is expanded until
    the target rate is enclosed.
    """
    _validate_inputs(M, "R", R)
    tol = config.rate_tol if tol is None else tol
    if tol <= 0:
        raise CapacityError("tol must be > 0")

    snr_scale = 2.0 ** R - 1.0
    lo = snr_scale / M
    hi = snr_scale / max(M - 1, 0.5)
    cap, _ = _estimator(M, config)

    expansions = 0
    while (c_hi := cap(hi)) < R and expansions < 64:
        hi *= 2.0
        expansions += 1
    if c_hi < R:
        raise BracketError(
            f"upper bracket failed after {expansions} expansions "
            f"(M={M}, R={R}, hi={hi:g}, C(hi)={c_hi:.6g})")
    if (c_lo := cap(lo)) > R + tol:
        raise BracketError(
            f"lower bracket violated: C({lo:g}) = {c_lo:.6g} > R = {R} "
            f"(estimator error likely exceeds tol={tol:g})")

    for iters in range(1, 201):
        gamma = 0.5 * (lo + hi)
        residual = cap(gamma) - R
        if abs(residual) <= tol or (hi - lo) <= 1e-15 * gamma:
            break
        if residual < 0:
            lo = gamma
        else:
            hi = gamma
    if abs(residual) > tol:
        raise BracketError(
            f"bisection stalled at residual {residual:.3g} > tol {tol:g} "
            f"(M={M}, R={R}; estimator error bound may exceed tol)")
    return SnrSolution(gamma=gamma, residual=residual, iterations=iters)
