"""Energy-efficiency objectives and antenna-count optimization.

Three objectives share the inverse-EE form
    1/zeta = rho_d + (M*rho + rho_c)/R + alpha*gamma/R:
"exact" uses the numerically inverted capacity SNR, "bound" the closed-form
SNR (2^R - 1)/(M - 1), and "relaxed" the continuous minimizer of the bound
objective, which has a closed form. Every objective works in Theta units
only; `with_units` attaches eta in bits/Joule and the PA share.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from mimo_ee.capacity import (
    DEFAULT_CONFIG,
    EstimatorConfig,
    check_rate,
    gamma0,
    pow2m1,
    snr_lower_bound_rate,
)
from mimo_ee.params import ParameterError, SystemParams, Theta


class EEResult(NamedTuple):
    """An energy-efficiency evaluation or optimization outcome.

    M is integral for the exact/bound objectives and real for the relaxed
    one. eta and f_pa are None until `with_units` attaches them (the
    objectives need only Theta).
    """

    M: float
    gamma: float
    zeta: float
    eta: float | None = None     # bits/Joule
    f_pa: float | None = None    # PA share of the total power


def _inverse_zeta(M: float, gamma: float, R: float, theta: Theta) -> float:
    return theta.rho_d + (M * theta.rho + theta.rho_c) / R \
        + theta.alpha * gamma / R


def with_units(result: EEResult, params: SystemParams, R: float) -> EEResult:
    """Attach eta = zeta*Gc/N0 in bits/Joule and f_pa = alpha*gamma*zeta/R,
    the PA term's share of R/zeta = M*rho + rho_c + R*rho_d + alpha*gamma.
    """
    M, gamma, zeta = result.M, result.gamma, result.zeta
    return EEResult(M, gamma, zeta, zeta * params.Gc / params.N0,
                    params.alpha * gamma * zeta / R)


def zeta_exact(M: int, R: float, theta: Theta,
               config: EstimatorConfig = DEFAULT_CONFIG) -> EEResult:
    """Normalized EE at the capacity-exact SNR for a given antenna count."""
    gamma = gamma0(M, R, config)
    return EEResult(M=M, gamma=gamma,
                    zeta=1.0 / _inverse_zeta(M, gamma, R, theta))


def zeta_bound(M: int, R: float, theta: Theta) -> EEResult:
    """Normalized EE at the closed-form SNR; defined for M >= 2 only."""
    gamma = snr_lower_bound_rate(M, R)
    return EEResult(M=M, gamma=gamma,
                    zeta=1.0 / _inverse_zeta(M, gamma, R, theta))


def _antenna_scale(R: float, theta: Theta) -> float:
    """k = (alpha/rho)(2^R - 1), the square of M' - 1 for the relaxed M'.

    A k that overflows a float (a tiny rho) is a ParameterError in the
    config's terms, as is an overflowing alpha*rho*(2^R - 1) below.
    """
    check_rate(R)
    k = theta.alpha / theta.rho * pow2m1(R)
    if k == math.inf:
        raise ParameterError(
            f"the antenna count overflows: (2^R - 1)*N0*B/(pa_efficiency*Gc*"
            f"(P_BS + 2*C0*B)) = inf at R = {R!r}")
    return k


def relaxed_antenna_count(R: float, theta: Theta) -> float:
    """Continuous minimizer 1 + sqrt((alpha/rho)(2^R - 1)) of the bound objective."""
    return 1.0 + math.sqrt(_antenna_scale(R, theta))


def relaxed_pa_power(R: float, theta: Theta) -> float:
    """s = sqrt(alpha*rho*(2^R - 1)) = alpha*gamma' = rho*(M' - 1), the PA
    term of the relaxed optimum's R/zeta' in Theta units.

    A product that overflows or underflows is taken root by root, which
    keeps s finite and nonzero whenever it is so in exact arithmetic.
    """
    scale = pow2m1(R)
    product = theta.alpha * theta.rho * scale
    if sys.float_info.min <= product < math.inf:
        return math.sqrt(product)
    return math.sqrt(theta.alpha) * math.sqrt(theta.rho) * math.sqrt(scale)


def relaxed_optimum(R: float, theta: Theta) -> EEResult:
    """Closed-form continuous relaxation of the bound-objective optimum."""
    m_star = relaxed_antenna_count(R, theta)
    # gamma' = s/alpha avoids M' - 1 ~ 0
    s = relaxed_pa_power(R, theta)
    if s == math.inf:
        raise ParameterError(
            f"the relaxed PA power overflows: (2^R - 1)*Gc*(P_BS + 2*C0*B)/"
            f"(pa_efficiency*N0*B) = inf at R = {R!r}")
    zeta = R / (theta.rho + theta.rho_c + R * theta.rho_d + 2.0 * s)
    return EEResult(M=m_star, gamma=s / theta.alpha, zeta=zeta)


def optimize_bound(R: float, theta: Theta) -> EEResult:
    """Integer minimizer of the bound objective over M >= 2.

    Going from M to M + 1 changes R/zeta by rho - alpha*(2^R - 1)/(M(M - 1)),
    which rises with M. The optimum is therefore the smallest M >= 2 with
    M(M - 1) >= k = (alpha/rho)(2^R - 1), the larger root of M^2 - M = k
    rounded up; a tie (equality) goes to the smaller antenna count. The root
    1/2 + sqrt(1/4 + k) is (1 + sqrt(1 + 4k))/2 to the bit, but finite for
    every finite k.
    """
    k = _antenna_scale(R, theta)
    m = max(2, math.ceil(0.5 + math.sqrt(0.25 + k)))
    return zeta_bound(m, R, theta)


def _descent_start(R: float, theta: Theta) -> int:
    """round(M'), at least 1: where optimize_exact's descent starts."""
    return max(1, round(relaxed_antenna_count(R, theta)))


def exact_stencil(R: float, theta: Theta) -> tuple[int, ...]:
    """The antenna counts m0 - 1, m0, m0 + 1 (those >= 1) around the descent
    start m0: what optimize_exact evaluates when the optimum is m0.
    """
    m = _descent_start(R, theta)
    return (m - 1, m, m + 1) if m > 1 else (1, 2)


def optimize_exact(R: float, theta: Theta,
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
        return _inverse_zeta(m, gamma0(m, R, config), R, theta)

    m = _descent_start(R, theta)
    v = inv(m)
    for step in (-1, 1):
        while m + step >= 1 and (w := inv(m + step)) < v:
            m, v = m + step, w
    return zeta_exact(m, R, theta, config=config)
