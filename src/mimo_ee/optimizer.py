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
    M_MAX,
    CapacityError,
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


def _result(M: float, gamma: float, R: float, theta: Theta) -> EEResult:
    """The answer at M antennas and SNR gamma, zeta = 1/(rho_d + (M*rho +
    rho_c)/R + alpha*gamma/R), in Theta units."""
    inverse = theta.rho_d + (M * theta.rho + theta.rho_c) / R \
        + theta.alpha * gamma / R
    return EEResult(M, gamma, 1.0 / inverse)


# The smallest normal float: an EE below it has lost digits or reads 0.
_MIN_NORMAL = sys.float_info.min


def with_units(result: EEResult, params: SystemParams, R: float) -> EEResult:
    """Attach eta = zeta*Gc/N0 in bits/Joule and f_pa = alpha*gamma*zeta/R,
    the PA term's share of R/zeta = M*rho + rho_c + R*rho_d + alpha*gamma.

    A zeta or eta below the smallest normal float (R/zeta overflows, or
    eta underflows) is a CapacityError naming M and R, and so is an f_pa
    below it at a gamma above 0 (an f_pa of 0 at gamma = 0 is exact):
    every printed answer passes through here, and none may read 0 or lose
    its digits.
    """
    M, gamma, zeta = result.M, result.gamma, result.zeta
    eta = zeta * params.Gc / params.N0
    if zeta < _MIN_NORMAL or eta < _MIN_NORMAL:
        raise CapacityError(f"the EE underflows at M = {M:g}, R = {R!r}")
    # zeta/R first: alpha*gamma*zeta can underflow where the share does not
    f_pa = params.alpha * gamma * (zeta / R)
    if f_pa < _MIN_NORMAL and gamma > 0:
        raise CapacityError(f"the PA share underflows at M = {M:g}, "
                            f"R = {R!r}")
    return EEResult(M, gamma, zeta, eta, f_pa)


def zeta_exact(M: int, R: float, theta: Theta,
               config: EstimatorConfig = DEFAULT_CONFIG) -> EEResult:
    """Normalized EE at the capacity-exact SNR for a given antenna count."""
    return _result(M, gamma0(M, R, config), R, theta)


def zeta_bound(M: int, R: float, theta: Theta) -> EEResult:
    """Normalized EE at the closed-form SNR; defined for M >= 2 only."""
    return _result(M, snr_lower_bound_rate(M, R), R, theta)


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


def _threshold_count(k: float, c: float) -> int:
    """The smallest integer M with (M - c)(M + 1 - c) >= k: where the drop
    g/((M - c)(M + 1 - c)) of the model gamma = g/(M - c) first falls to
    rho/alpha, for k = (alpha/rho) g. It is the larger root c - 1/2 +
    sqrt(1/4 + k) of the equality rounded up, finite for every finite k.
    """
    return math.ceil(c - 0.5 + math.sqrt(0.25 + k))


def optimize_bound(R: float, theta: Theta) -> EEResult:
    """Integer minimizer of the bound objective over M >= 2.

    Going from M to M + 1 changes R/zeta by rho - alpha*(2^R - 1)/(M(M - 1)),
    which rises with M. The optimum is therefore the smallest M >= 2 with
    M(M - 1) >= k = (alpha/rho)(2^R - 1): `_threshold_count` at c = 1, where
    c - 1/2 is exactly 1/2. A tie (equality) goes to the smaller antenna
    count. The root 1/2 + sqrt(1/4 + k) is (1 + sqrt(1 + 4k))/2 to the bit,
    but finite for every finite k.
    """
    m = max(2, _threshold_count(_antenna_scale(R, theta), 1.0))
    return zeta_bound(m, R, theta)


def _exact_start(R: float, theta: Theta) -> int:
    """M-hat, where optimize_exact's walk starts: `_threshold_count` on the
    model gamma0 = g/(M - a0/2), a0 = 1 - 2^-R, the limit of
    `capacity._newton`'s c as M grows; at least 1. A start above M_MAX is
    a CapacityError, raised before any inversion.
    """
    m = max(1, _threshold_count(_antenna_scale(R, theta),
                                -0.5 * math.expm1(-R * math.log(2.0))))
    if m > M_MAX:
        raise CapacityError(f"the exact optimum starts at M = {m:g}, above "
                            f"M_MAX = {M_MAX:g}, at R = {R!r}")
    return m


def exact_stencil(R: float, theta: Theta) -> tuple[int, ...]:
    """The antenna counts M-hat - 1, M-hat, M-hat + 1 (those >= 1) around
    the walk's start M-hat: the gamma0 that optimize_exact reads when the
    optimum is M-hat.
    """
    m = _exact_start(R, theta)
    return (m - 1, m, m + 1) if m > 1 else (1, 2)


def optimize_exact(R: float, theta: Theta,
                   config: EstimatorConfig = DEFAULT_CONFIG) -> EEResult:
    """Integer minimizer of the exact objective over M >= 1.

    Going from M to M + 1 changes R/zeta by rho - alpha*D(M), with the drop
    D(M) = gamma0(M) - gamma0(M + 1), the SNR that antenna M + 1 saves. So
    M* is the smallest M with D(M) <= rho/alpha, and a tie goes to the
    smaller antenna count. The decision compares no constant term (rho_d,
    rho_c/R), which in a comparison of whole objectives can swamp the
    M-dependent part at float resolution.

    The walk starts at `_exact_start`'s M-hat. If D(M-hat) > rho/alpha it
    steps up while D(m) > rho/alpha; otherwise it steps down while m > 1
    and D(m - 1) <= rho/alpha. It stops at D(M*) <= rho/alpha < D(M* - 1)
    (only the first half at M* = 1), which certifies M*: after a step up,
    the last step's D(M* - 1) > rho/alpha is the second half. gamma0 is
    discretely convex (positive second differences, checked in the tests
    up to M = 1e7 but not proven), so D falls with M, the certified M* is
    the rule's one answer whatever the start, and it minimizes the
    objective. The walk keeps each gamma0 it reads, reads each once, and
    returns the answer at the gamma0(M*) it certified. M-hat mostly is M*,
    so the walk mostly reads gamma0 at M* - 1, M* and M* + 1 only.

    M-hat above M_MAX = 1e6 is a CapacityError: past it the walk would run
    where D is not resolved in float and need not end. In windows of 40
    consecutive M starting at 1e6, 2e6 and 4e6, D fell strictly at every R
    in {0.01, 1, 5, 20, 60, 100}; the first rises appeared in the windows
    at M = 1e7 (R = 100) and 3e7 (R = 20).

    With the Monte Carlo estimator the draws depend on (seed, M), so the
    estimated D need not fall with M, and the walk certifies its answer
    only against its two neighbours.
    """
    limit = theta.rho / theta.alpha
    m = _exact_start(R, theta)
    here, above = gamma0(m, R, config), gamma0(m + 1, R, config)
    if here - above > limit:
        while here - above > limit:
            m += 1
            here, above = above, gamma0(m + 1, R, config)
    else:
        while m > 1 and (below := gamma0(m - 1, R, config)) - here <= limit:
            m -= 1
            here = below
    return _result(m, here, R, theta)
