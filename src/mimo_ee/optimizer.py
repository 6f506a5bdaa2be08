"""Energy-efficiency objectives and antenna-count optimization.

Three objectives share the inverse-EE form
    1/zeta = rho_d + (M*rho + rho_c)/R + alpha*gamma/R:
"exact" uses the numerically inverted capacity SNR, "bound" the closed-form
SNR (2^R - 1)/(M - 1), and "relaxed" the continuous minimizer of the bound
objective, which has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from mimo_ee.capacity import (
    DEFAULT_CONFIG,
    CapacityError,
    EstimatorConfig,
    invert_capacity,
    snr_lower_bound_rate,
)
from mimo_ee.params import PowerBreakdown, SystemParams, Theta, total_power


@dataclass(frozen=True)
class EEResult:
    """An energy-efficiency evaluation or optimization outcome.

    M is integral for the exact/bound objectives and real for the relaxed
    one. eta and breakdown are only available when physical parameters were
    supplied (the normalized objectives need only Theta).
    """

    M: float
    gamma: float
    zeta: float
    eta: float | None = None              # bits/Joule
    breakdown: PowerBreakdown | None = None


def _inverse_zeta(M: float, gamma: float, R: float, theta: Theta) -> float:
    return theta.rho_d + (M * theta.rho + theta.rho_c) / R \
        + theta.alpha * gamma / R


def _attach_physical(result: EEResult,
                     params: SystemParams | None, R: float) -> EEResult:
    if params is None:
        return result
    eta = result.zeta * params.Gc / params.N0
    p_t = result.gamma * params.N0 * params.B / params.Gc
    breakdown = total_power(params, result.M, R, p_t)
    return EEResult(M=result.M, gamma=result.gamma, zeta=result.zeta,
                    eta=eta, breakdown=breakdown)


@lru_cache(maxsize=65536)
def _gamma0(M: int, R: float, config: EstimatorConfig) -> float:
    return invert_capacity(M, R, config=config).gamma


def zeta_exact(M: int, R: float, theta: Theta,
               params: SystemParams | None = None,
               config: EstimatorConfig = DEFAULT_CONFIG) -> EEResult:
    """Normalized EE at the capacity-exact SNR for a given antenna count."""
    gamma = _gamma0(int(M), R, config)
    zeta = 1.0 / _inverse_zeta(M, gamma, R, theta)
    return _attach_physical(
        EEResult(M=int(M), gamma=gamma, zeta=zeta),
        params, R)


def zeta_bound(M: int, R: float, theta: Theta,
               params: SystemParams | None = None) -> EEResult:
    """Normalized EE at the closed-form SNR; defined for M >= 2 only."""
    gamma = snr_lower_bound_rate(int(M), R)
    zeta = 1.0 / _inverse_zeta(M, gamma, R, theta)
    return _attach_physical(
        EEResult(M=int(M), gamma=gamma, zeta=zeta),
        params, R)


def relaxed_antenna_count(R: float, theta: Theta) -> float:
    """Continuous minimizer 1 + sqrt((alpha/rho)(2^R - 1)) of the bound objective."""
    if R <= 0:
        raise CapacityError("R must be > 0")
    return 1.0 + math.sqrt(theta.alpha / theta.rho * (2.0 ** R - 1.0))


def relaxed_optimum(R: float, theta: Theta,
                    params: SystemParams | None = None) -> EEResult:
    """Closed-form continuous relaxation of the bound-objective optimum."""
    m_star = relaxed_antenna_count(R, theta)
    zeta = R / (theta.rho + theta.rho_c + R * theta.rho_d
                + 2.0 * math.sqrt(theta.alpha * theta.rho * (2.0 ** R - 1.0)))
    gamma = (2.0 ** R - 1.0) / (m_star - 1.0)
    return _attach_physical(
        EEResult(M=m_star, gamma=gamma, zeta=zeta),
        params, R)


def optimize_bound(R: float, theta: Theta,
                   params: SystemParams | None = None) -> EEResult:
    """Integer minimizer of the bound objective over M >= 2.

    Convexity in M makes floor/ceil of the continuous minimizer sufficient;
    ties break toward the smaller antenna count.
    """
    m_real = relaxed_antenna_count(R, theta)
    candidates = sorted({max(2, math.floor(m_real)), max(2, math.ceil(m_real))})
    best = max((zeta_bound(m, R, theta) for m in candidates),
               key=lambda r: r.zeta)  # the first maximum: the smaller M
    return _attach_physical(best, params, R)


def optimize_exact(R: float, theta: Theta,
                   params: SystemParams | None = None,
                   config: EstimatorConfig = DEFAULT_CONFIG) -> EEResult:
    """Integer minimizer of the exact objective over M >= 1.

    The inverse objective is linear in M plus alpha*gamma0(M)/R, and
    gamma0(M) is discretely convex (positive second differences, checked in
    the tests), so 1/zeta is discretely convex too and a local minimum over
    the integers is the global one. Descent from round(M') therefore finds
    it: step down while the neighbour is strictly better, then step up while
    it is strictly better; the starting point wins ties. The walk ends
    because each step strictly lowers the objective, which is bounded below
    and grows at least like rho*M/R.

    With the Monte Carlo estimator the draws depend on (seed, M), so the
    estimated objective need not be convex, and descent returns a local
    minimum of the estimate.
    """
    def inv(m: int) -> float:
        return _inverse_zeta(m, _gamma0(m, R, config), R, theta)

    m = max(1, round(relaxed_antenna_count(R, theta)))
    v = inv(m)
    for step in (-1, 1):
        while m + step >= 1 and (w := inv(m + step)) < v:
            m, v = m + step, w
    return zeta_exact(m, R, theta, params=params, config=config)
