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
    eta underflows) is a CapacityError naming M and R, and so is an eta
    that overflows a float or an f_pa below the smallest normal float at a
    gamma above 0 (an f_pa of 0 at gamma = 0 is exact): every printed
    answer passes through here, and none may read 0, overflow or lose its
    digits.
    """
    M, gamma, zeta = result.M, result.gamma, result.zeta
    eta = zeta * params.Gc / params.N0
    if zeta < _MIN_NORMAL or eta < _MIN_NORMAL:
        raise CapacityError(f"the EE underflows at M = {M:g}, R = {R!r}")
    if eta == math.inf:
        raise CapacityError(f"the EE overflows at M = {M:g}, R = {R!r}")
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


def _antenna_scale(R: float, theta: Theta) -> tuple[float, float]:
    """(k, g): k = (alpha/rho) g, the square of M' - 1 for the relaxed M',
    and g = 2^R - 1.

    A k that overflows a float (a tiny rho) is a ParameterError in the
    config's terms, as is an overflowing alpha*rho*(2^R - 1) below.
    """
    check_rate(R)
    g = pow2m1(R)
    k = theta.alpha / theta.rho * g
    if k == math.inf:
        raise ParameterError(
            f"the antenna count overflows: (2^R - 1)*N0*B/(pa_efficiency*Gc*"
            f"(P_BS + 2*C0*B)) = inf at R = {R!r}")
    return k, g


def relaxed_antenna_count(R: float, theta: Theta) -> float:
    """Continuous minimizer 1 + sqrt((alpha/rho)(2^R - 1)) of the bound objective."""
    return 1.0 + math.sqrt(_antenna_scale(R, theta)[0])


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


# The offset bound K: |c(M) - a0/2| <= K/M, gamma0(M) = g/(M - c(M)), on
# which optimize_exact's bracket and its one-read decision rest (measured,
# and held by the tests, at K = 1/10).
OFFSET_BOUND = 0.1
# The relative margin by which one read's bound on the drop must clear
# rho/alpha (optimize_exact): above the computed drop's float error.
_ONE_READ_MARGIN = 1e-7


def _threshold_root(k: float, c: float) -> float:
    """The larger root c - 1/2 + sqrt(1/4 + k) of (M - c)(M + 1 - c) = k,
    finite for every finite k. Its ceiling is the smallest integer M with
    (M - c)(M + 1 - c) >= k: where the drop g/((M - c)(M + 1 - c)) of the
    model gamma = g/(M - c) first falls to rho/alpha, for k = (alpha/rho) g.
    """
    return c - 0.5 + math.sqrt(0.25 + k)


def optimize_bound(R: float, theta: Theta) -> EEResult:
    """Integer minimizer of the bound objective over M >= 2.

    Going from M to M + 1 changes R/zeta by rho - alpha*(2^R - 1)/(M(M - 1)),
    which rises with M. The optimum is therefore the smallest M >= 2 with
    M(M - 1) >= k = (alpha/rho)(2^R - 1): the ceiling of `_threshold_root`
    at c = 1, where c - 1/2 is exactly 1/2. A tie (equality) goes to the
    smaller antenna count. The root 1/2 + sqrt(1/4 + k) is (1 + sqrt(1 +
    4k))/2 to the bit, but finite for every finite k.
    """
    k, _ = _antenna_scale(R, theta)
    m = max(2, math.ceil(_threshold_root(k, 1.0)))
    return zeta_bound(m, R, theta)


def _stencil_root(R: float, theta: Theta) -> tuple[float, float, float]:
    """(x, h, g): the root x = h + sqrt(1/4 + k) whose ceiling is M-hat
    (see `exact_stencil`), h = a0/2 to the ulp of c' = (1 + a0)/2, a0 =
    1 - 2^-R, and g = 2^R - 1. An M-hat above M_MAX is a CapacityError,
    raised before any inversion.
    """
    k, g = _antenna_scale(R, theta)
    c = 0.5 - 0.5 * math.expm1(-R * math.log(2.0))
    x = _threshold_root(k, c)
    if x > M_MAX:
        raise CapacityError(f"the exact optimum's bracket reaches M = "
                            f"{math.ceil(x):g}, above M_MAX = {M_MAX:g}, at "
                            f"R = {R!r}")
    return x, c - 0.5, g


def exact_stencil(R: float, theta: Theta) -> tuple[int, int]:
    """The antenna counts (max(M-hat - 1, 1), M-hat), (1, 1) at M-hat = 1:
    the only gamma0 that optimize_exact may read. It reads M-tilde first
    and the other count only where one read cannot decide (see there); a
    Monte Carlo answer reads both.

    M-hat is the ceiling of `_threshold_root` on the model drop g/((M -
    c')(M + 1 - c')), c' = (1 + a0)/2, a0 = 1 - 2^-R; it is at least 1, as
    the root is at least 1/2. An M-hat above M_MAX is a CapacityError,
    raised before any inversion.
    """
    m = math.ceil(_stencil_root(R, theta)[0])
    return (m - 1 if m > 1 else 1), m


def optimize_exact(R: float, theta: Theta,
                   config: EstimatorConfig = DEFAULT_CONFIG) -> EEResult:
    """Integer minimizer of the exact objective over M >= 1, from gamma0 at
    one or both of `exact_stencil`'s antenna counts.

    Going from M to M + 1 changes R/zeta by rho - alpha*Delta(M), with the
    drop Delta(M) = gamma0(M) - gamma0(M + 1), the SNR that antenna M + 1
    saves. So M* is the smallest M with Delta(M) <= rho/alpha, and a tie
    goes to the smaller antenna count. The decision compares no constant
    term (rho_d, rho_c/R), which in a comparison of whole objectives can
    swamp the M-dependent part at float resolution. gamma0 is discretely
    convex (positive second differences, checked in the tests up to M = 1e7
    but not proven), so Delta falls with M and M* minimizes the objective.

    With g = 2^R - 1, a0 = 1 - 2^-R and c' = (1 + a0)/2, the model drop is
    D(M) = g/((M - c')(M + 1 - c')), and M-hat is the smallest M >= 1 with
    D(M) <= rho/alpha. The answer is the pair's lower count, or M-hat if
    the drop across the pair passes rho/alpha: Delta(M-hat - 1), or 0 at
    M-hat = 1, where the pair is (1, 1). It is M* by two steps:

    1. Reduction. If D(M + 1) <= Delta(M) <= D(M) for every M >= 1, then
       Delta(M-hat) <= D(M-hat) <= rho/alpha gives M* <= M-hat, and
       Delta(M) >= D(M + 1) > rho/alpha for every M <= M-hat - 2 gives
       M* >= M-hat - 1. No convexity enters. Step 2 gives both sides a
       margin, (1 + t/M) D(M + 1) <= Delta(M) <= (1 - t/M) D(M) with t =
       1/10, and the margin absorbs a float ceil of `_threshold_root` that
       lands one count off. The float root is within a few ulps d of the
       exact one, so where the two roots straddle an integer n >= 2, D(n)
       is within about 15 eps of rho/alpha relative (d ln((n - c')(n + 1 -
       c'))/dn <= 3/n), far inside t/n >= 1e-7 for n <= M_MAX. So
       Delta(n - 1) > rho/alpha if the float M-hat is n + 1 and the exact
       one n, and Delta(n) <= rho/alpha if the float M-hat is n and the
       exact one n + 1. If the float M-hat is 1 and the exact one 2, the
       exact root lies in (1, 1 + d], so k = (alpha/rho) g <= P + 3d with P
       = (1 - c')(2 - c') = g/D(1). Then Delta(1) <= 3g/2 (from 0 <= c <=
       1/2 below) is at most rho/alpha = g/k where P <= 2/3 - 3d, and
       Delta(1) <= (9/10) D(1) is where P >= 27d; one of the two holds at
       every R, so M* = 1 there too.

    2. Sandwich. Write gamma0(M) = g/(M - c(M)). As ln(1 + gamma X) =
       ln gamma + ln(X + b), b = 1/gamma, the equation C(gamma0) = R reads
       E ln(X + b) = ln((1 + g) b) = ln(M + b - c) at b = 1/gamma0: c is
       the gap between the arithmetic and the geometric mean of X + b, X ~
       Gamma(M, 1). So c >= 0, and c <= M - e^psi(M) < 1/2, as a geometric
       mean is superadditive. Let |c(M) - a0/2| <= K/M for every M, with
       K = OFFSET_BOUND = 1/10 (the offset bound), and put h = a0/2, u =
       M - h >= 1/2, e(M) = c(M) - h and q = K/M. Then

           Delta(M) = g (1 + e(M) - e(M + 1))/((u - e(M))(u + 1 - e(M + 1))),
           D(M) = g/((u - 1/2)(u + 1/2)),  D(M + 1) = g/((u + 1/2)(u + 3/2)),

       and with |e(M)|, |e(M + 1)| <= q and u <= M (so q u^2 <= K u and
       q u <= K), the two sides with their margins follow from

           (1 - t/M)(u - q)(u + 1 - q) - (1 + 2q)(u^2 - 1/4)
             >= u + 1/4 - 2q u^2 - 2q u - q/2 - (t/M) u (u + 1)
             >= (1 - t - 2K) u + 1/4 - t - 5K/2 = 0.7 u - 0.1 > 0,
           (1 - 2q)(u + 1/2)(u + 3/2) - (1 + t/M)(u + q)(u + 1 + q)
             >= u + 3/4 - 2q u^2 - 6q u - 5q/2 - q^2
                - (t/M)(u (u + 1) + q (2u + 1 + q))
             >= (1 - t - 2K) u + 3/4 - t - 17K/2 - K^2 - tK (3 + K)
             > 0.7 u - 0.25 > 0.

       The offset bound is the one step that is measured, not derived.
       Expanding ln(X + b) about M + b with the Gamma moments gives
       `capacity._newton`'s c = a0/2 + (3 a0^3/8 - 5 a0^2/12)/M + O(M^-2),
       whose 1/M coefficient lies in [-0.077, 0]; as R grows, c tends to
       M - e^psi(M), and M (c - 1/2) runs from -0.0615 at M = 1 to -1/24.
       At M = 1...200 and 40 M up to M_MAX, at 2001 rates from 1e-3 to
       100, M |c - a0/2| is at most 0.0834 (M = 1, R = 3.13), and the
       margins M (1 - Delta(M)/D(M)) and M (Delta(M)/D(M + 1) - 1) are at
       least 5/8 and 7/8, their limits at M = 1 as R -> 0. Tier-1 tests
       hold the offset bound, 0 <= c < 1/2 and both margins t/M at 81 of
       those rates, and at all 2001 for M = 1...4.

    In float, Delta is off by about 2 R ln2 eps M relative, twice gamma0's
    rounding over Delta/gamma0 ~ 1/M: 1.5e-8 at M = M_MAX and R = 100,
    inside the margin t/M = 1e-7. So the float drops obey the bracket too,
    and the answer is M* unless Delta(M-hat - 1) ties rho/alpha within that
    error. An M-hat above M_MAX = 1e6 is a CapacityError: past it that
    error nears the margin, and the drops stop falling in float. In windows
    of 40 consecutive M starting at 1e6, 2e6 and 4e6, Delta fell strictly
    at every R in {0.01, 1, 5, 20, 60, 100}; the first rises appeared in
    the windows at M = 1e7 (R = 100) and 3e7 (R = 20).

    One read. At M-hat = 1 the answer reads gamma0(1) once. Otherwise it
    reads gamma0 first at M-tilde = ceil(x - 1/2), x = a0/2 + sqrt(1/4 + k)
    with M-hat = ceil(x): the threshold count of the model drop with c =
    a0/2, one of the pair, and M* at 99.6% of random points. The offset
    bound puts gamma0 at the pair's other count n in [g/(n - a0/2 + K/n),
    g/(n - a0/2 - K/n)], an interval about 2K/n as wide as the drop, and
    its lower end l bounds Delta(M-hat - 1): from below by l -
    gamma0(M-hat) where M-tilde = M-hat, from above by gamma0(M-hat - 1) -
    l where M-tilde = M-hat - 1. With quadrature, if the first bound is
    above rho/alpha (1 + 1e-7), the answer is M-hat; if the second is at or
    below rho/alpha (1 - 1e-7), it is M-hat - 1. Either way the answer is
    M-tilde, from the one read. Otherwise gamma0(n) is read too, and the
    computed drop decides as above. The margin 1e-7 covers the computed
    drop's float error, 2 R ln2 eps M relative (1.5e-8 at M_MAX and R =
    100), and the rounding of l, a few eps M relative to the drop once it
    cancels against gamma0(M-tilde). So wherever the offset bound holds,
    the computed drop would decide as the one read does, and every answer
    has the bits of the two reads. A Monte Carlo answer reads both counts:
    the bound is about the exact gamma0, not the draws' estimate.

    With the Monte Carlo estimator the bracket is a fact about the exact
    gamma0 that the draws estimate: the answer is still M-hat - 1 or M-hat,
    chosen by the estimated Delta(M-hat - 1), whose draws depend on (seed,
    M) and need not fall with M.
    """
    x, h, g = _stencil_root(R, theta)
    high, first = math.ceil(x), math.ceil(x - 0.5)  # M-hat, M-tilde
    if high == 1:
        return _result(1, gamma0(1, R, config), R, theta)
    limit = theta.rho / theta.alpha
    gamma = gamma0(first, R, config)
    if config.method == "quadrature":
        other = 2 * high - 1 - first
        least = g / (other - h + OFFSET_BOUND / other)  # <= gamma0(other)
        if (least - gamma > limit * (1.0 + _ONE_READ_MARGIN) if first == high
                else gamma - least <= limit * (1.0 - _ONE_READ_MARGIN)):
            return _result(first, gamma, R, theta)
    below = gamma if first < high else gamma0(high - 1, R, config)
    above = gamma if first == high else gamma0(high, R, config)
    if below - above > limit:
        return _result(high, above, R, theta)
    return _result(high - 1, below, R, theta)
