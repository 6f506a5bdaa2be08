"""Ergodic capacity of the maximum-ratio-beamformed Rayleigh link.

The effective channel power ||h||^2 of an M-antenna beamformer with unit
variance complex Gaussian entries is Gamma(M, 1) distributed, so the capacity
is E[log2(1 + gamma * X)], X ~ Gamma(M, 1). The default estimator is one
trapezoid rule, the same for every M, on the Frullani form of that mean; the
Monte Carlo cross-check gives equal weights to seeded Gamma draws, summed
block by block in `_pairwise` with the bits of one np.add.reduce. Both
share the rate inversion `_newton` and its cache `gamma0`; a lone solve
builds its evaluator in `_estimator`, `prefetch_gamma0` in `_monte_carlo`.
"""

from __future__ import annotations

import collections
import contextlib
import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_FLOAT_MAX = float(np.finfo(np.float64).max)
_LOG2E = 1.4426950408889634

# Trapezoid nodes s_j = e^{t_j}, t_j = -100:0.25:4, weights 0.25 e^{-s_j};
# the slope dC/dgamma uses weights w_j s_j.
_NODES = np.exp(np.linspace(-100.0, 4.0, 417))
_WEIGHTS = 0.25 * np.exp(-_NODES)
_SLOPE_WEIGHTS = _WEIGHTS * _NODES

# Largest rate accepted by invert_capacity, bits/s/Hz.
R_MAX = 100.0
# Largest M-hat, the top of the exact optimum's bracket {M-hat - 1, M-hat}
# (optimizer.optimize_exact): the drops gamma0(M) - gamma0(M + 1) still fall
# strictly with M there, and their float error stays inside the bracket's
# margin.
M_MAX = 10**6
# Largest Monte Carlo sample count, and the bytes that the solves a batch
# runs at once may hold: the draws and one block of work per solve
# (`_mc_workers`), so two solves at MAX_MC_SAMPLES.
MAX_MC_SAMPLES = 10**7
_MC_BYTES = 240 * 10**6
# Most samples one Monte Carlo block holds (`_pairwise`). Smaller blocks cost
# interpreter-lock handoffs between the prefetch workers: on two threads at
# 1e5 samples, blocks of 50,000 cost the same as no blocks, 25,000 cost
# 20-40% more and 16,384 about 70% more.
_MC_BLOCK = 2**16


class CapacityError(ValueError):
    """Invalid input to a capacity computation."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Evaluation settings for the capacity expectation.

    method : "quadrature" (deterministic, default) or "monte-carlo"
    mc_samples : Monte Carlo sample count
    seed : Monte Carlo seed; ignored by quadrature
    """

    method: str = "quadrature"
    mc_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("quadrature", "monte-carlo"):
            raise CapacityError(f"unknown estimator method {self.method!r}")
        for name in ("mc_samples", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise CapacityError(f"{name} must be an integer, got {value!r}")
        if not 2 <= self.mc_samples <= MAX_MC_SAMPLES:
            raise CapacityError(f"mc_samples must be in [2, {MAX_MC_SAMPLES}]")
        if self.seed < 0:
            raise CapacityError(f"seed must be >= 0, got {self.seed}")


DEFAULT_CONFIG = EstimatorConfig()


class CapacityEstimate(NamedTuple):
    value: float            # bits/s/Hz
    method: str             # "quadrature" or "monte-carlo"
    abs_error_bound: float  # bits/s/Hz


class SnrSolution(NamedTuple):
    gamma: float
    error_bound: float      # gamma* - gamma in [0, error_bound] if C is exact
    iterations: int


def pow2m1(R: float) -> float:
    """2^R - 1 to full relative accuracy: by expm1 below R = 1, where
    2^R - 1 would cancel, and as written from R = 1 on, where it does not.
    """
    return math.expm1(R * math.log(2.0)) if R < 1.0 else 2.0 ** R - 1.0


def check_rate(R: float) -> float:
    """Return R if 0 < R <= R_MAX (false for NaN), every objective's range."""
    if not 0 < R <= R_MAX:
        raise CapacityError(
            f"R = {R!r} is outside the valid range (0, {R_MAX:g}] bits/s/Hz")
    return R


def _validate_inputs(M: int, gamma: float | None) -> None:
    """Reject a non-positive-integer M, or a given gamma not in (0, inf)."""
    if not (isinstance(M, (int, np.integer)) and M >= 1):
        raise CapacityError(f"M must be a positive integer, got {M!r}")
    if M > _FLOAT_MAX:  # M itself may have thousands of digits
        raise CapacityError(f"M must be at most {_FLOAT_MAX:g}")
    if gamma is not None and not (math.isfinite(gamma) and gamma > 0):
        raise CapacityError(f"gamma must be finite and > 0, got {gamma!r}")


def _quadrature(M: int, log1p, work):
    """The rule's evaluator gamma -> (C, dC/dgamma) at M antennas, writing
    only into the two node-sized arrays log1p and work.

    With S0 = sum_j w_j ((1 + gamma s_j)^-M - 1) and S1 = sum_j w_j s_j
    (1 + gamma s_j)^-(M+1), C = -S0 log2(e) bits and dC/dgamma = M S1
    log2(e). The rule is Frullani's integral with E[e^{-sX}] = (1 + s)^-M:

        E[ln(1 + gamma X)] = int_R e^{-e^t} (1 - (1 + gamma e^t)^-M) dt,

    summed by the trapezoid rule on fixed nodes that do not depend on M. It
    is accurate to roundoff for every M and gamma: in the strip |Im t| <
    pi/2 the integrand is analytic and bounded (e^t and 1 + gamma e^t have
    positive real part there), so the discretization error is about
    e^{-pi^2/h} = 7e-18; the tail beyond t = 4 is below e^{-e^4} = 2e-24;
    the tail below t = -100 is at most M gamma e^{-100}.
    """
    power0, power1 = -float(M), -float(M + 1)  # as numpy converts -M, -(M + 1)

    def cap(gamma: float) -> tuple[float, float]:
        np.log1p(np.multiply(gamma, _NODES, out=log1p), out=log1p)
        s0 = np.dot(np.expm1(np.multiply(power0, log1p, out=work), out=work),
                    _WEIGHTS)
        s1 = np.dot(np.exp(np.multiply(power1, log1p, out=work), out=work),
                    _SLOPE_WEIGHTS)
        return -float(s0) * _LOG2E, M * float(s1) * _LOG2E
    return cap


def _estimator(M: int, config: EstimatorConfig):
    """The evaluator gamma -> (C, dC/dgamma), its nodes and their mean.

    Quadrature is `_quadrature`, Monte Carlo is `_monte_carlo` on the
    generator seeded by (seed, M); each writes into two arrays allocated
    here: two of one entry per node, or the draws and one block of work.

    The mean is the rule's first moment: M for quadrature (exact for the
    Gamma(M, 1) law), the sample mean for Monte Carlo.
    """
    if config.method == "quadrature":
        n = len(_NODES)
        return _quadrature(M, np.empty(n), np.empty(n)), _NODES, float(M)
    n = config.mc_samples
    return _monte_carlo(M, np.random.default_rng((config.seed, M)),
                        np.empty(n), np.empty(_largest_block(n)))


def _monte_carlo(M: int, rng, x, work):
    """Draw Gamma(M, 1) samples into x; return the equal-weight evaluator on
    them, x and the sample mean.

    The draws depend on rng, seeded by (seed, M), and not on gamma, so every
    gamma probe of one inversion reuses them (common random numbers) and the
    estimate stays monotone in gamma along the sample path. The evaluator
    sums over x one block at a time (`_pairwise`), writing each block's
    terms into the first entries of work, so a call allocates no array:
    log1p(gamma x) first, then gamma x again, 1 + gamma x and x/(1 + gamma
    x). Every element and mean has the bits of the direct expressions (a
    mean is np.add.reduce / n, as in ndarray.mean).
    """
    n = len(x)
    if M > _FLOAT_MAX / (2 * n):
        raise CapacityError(f"M = {M:g} is too large for mc_samples = {n}: "
                            f"the sum of the draws would overflow")
    rng.standard_gamma(M, out=x)

    def cap(gamma: float) -> tuple[float, float]:
        value = _pairwise(x, work, lambda xb, wb: np.log1p(
            np.multiply(gamma, xb, out=wb), out=wb)) / n
        slope = _pairwise(x, work, lambda xb, wb: np.divide(xb, np.add(
            1.0, np.multiply(gamma, xb, out=wb), out=wb), out=wb)) / n
        return value * _LOG2E, slope * _LOG2E
    return cap, x, _pairwise(x, work, lambda xb, wb: xb) / n


def _pairwise(x, work, fill) -> float:
    """np.add.reduce(fill(x, work[:len(x)])) to the bit, filled one block
    of at most _MC_BLOCK entries at a time: fill(x block, work view of its
    length) returns the block's terms.

    np.add.reduce over a run of m > 128 contiguous float64 entries sums its
    first h = m//2 - (m//2) % 8 entries and the other m - h apart, then
    adds the two sums. Splitting by that rule until no block has more than
    _MC_BLOCK entries, reducing each block by np.add.reduce and adding the
    two halves' sums therefore makes the additions of one np.add.reduce
    over the whole run.
    """
    m = len(x)
    if m <= _MC_BLOCK:
        return float(np.add.reduce(fill(x, work[:m])))
    h = m // 2 - m // 2 % 8
    return _pairwise(x[:h], work, fill) + _pairwise(x[h:], work, fill)


def _largest_block(n: int) -> int:
    """Entries of the largest block `_pairwise` cuts from n samples, which
    work must hold; it may be the left half's.
    """
    if n <= _MC_BLOCK:
        return n
    h = n // 2 - n // 2 % 8
    return max(_largest_block(h), _largest_block(n - h))


def ergodic_capacity(M: int, gamma: float,
                     config: EstimatorConfig = DEFAULT_CONFIG) -> CapacityEstimate:
    """E[log2(1 + gamma * X)], X ~ Gamma(M, 1).

    The quadrature error bound is the a-priori one derived in `_quadrature`
    (truncated lower tail plus roundoff); the Monte Carlo bound is a 99%
    confidence half-width.
    """
    _validate_inputs(M, gamma)
    cap, nodes, _ = _estimator(M, config)
    if gamma > _FLOAT_MAX / float(nodes.max()):
        raise OverflowError(
            f"gamma * ||h||^2 exceeds float range (M={M}, gamma={gamma:g})")
    if config.method == "quadrature":
        value, _ = cap(gamma)
        bound = (M * gamma * math.exp(-100.0) * _LOG2E
                 + 1e-12 * (1.0 + abs(value)))
    else:
        # ndarray.mean and .std(ddof=1) of t = log1p(gamma x) over the
        # blocks, with their sums and divisions. The draws are this call's
        # own, so each pass writes over them: t, then (t - mean)^2
        n = len(nodes)
        mean = _pairwise(nodes, nodes, lambda xb, _: np.log1p(
            np.multiply(gamma, xb, out=xb), out=xb)) / n
        squares = _pairwise(nodes, nodes, lambda xb, _: np.square(
            np.subtract(xb, mean, out=xb), out=xb))
        value = mean * _LOG2E
        spread = math.sqrt(squares / (n - 1)) * _LOG2E
        bound = 2.5758293035489004 * spread / math.sqrt(n)
    return CapacityEstimate(value=value, method=config.method,
                            abs_error_bound=bound)


def snr_lower_bound_rate(M: int, R: float) -> float:
    """Closed-form SNR (2^R - 1)/(M - 1) achieving rate R via the lower bound."""
    if not (isinstance(M, (int, np.integer)) and M >= 2):
        raise CapacityError("closed-form SNR requires an integer M >= 2, "
                            f"got {M!r}")
    _validate_inputs(M, None)
    check_rate(R)
    return pow2m1(R) / (M - 1)


def invert_capacity(M: int, R: float,
                    config: EstimatorConfig = DEFAULT_CONFIG) -> SnrSolution:
    """Solve the estimated capacity C(gamma) = R for gamma by `_newton`,
    which starts at the second-order asymptotic root and mostly needs one or
    two evaluations of C: the returned gamma is at most error_bound <
    2^-53 gamma below exact C's root.

    R is limited to R_MAX, where the quadrature's truncated tail
    M gamma e^{-100} is still about 1e-13, and raises CapacityError where
    the Jensen point (2^R - 1)/m is below 2^-1040, m the rule's first moment.
    """
    _validate_inputs(M, None)
    check_rate(R)
    cap, _, mean = _estimator(M, config)
    return _newton(M, R, cap, mean)


def _newton(M: int, R: float, cap, mean: float) -> SnrSolution:
    """Newton's method on cap(gamma) = R from near the root; it returns
    gamma + s at the first step |s| <= 2^-27 gamma, and raises
    ArithmeticError if no step is that small after 64 evaluations.

    The start only saves evaluations. With g = 2^R - 1 write gamma* =
    g/(M - c). Put v = gamma M, a = v/(1 + v) and Y = X/M - 1, so that
    ln(1 + gamma X) = ln(1 + v) + ln(1 + aY) and C(gamma*) = R reads
    ln(1 + v) = ln(1 + g) - E ln(1 + aY). Expanding both sides in 1/M with
    the Gamma moments E Y^2 = 1/M, E Y^3 = 2/M^2 and E Y^4 = 3/M^2 + 6/M^3
    (the higher ones are O(M^-3)) gives

        c = (a0/2) (1 + (3 a0^2/4 - 5 a0/6)/M) + O(M^-2),  a0 = 1 - 2^-R,

    which tends to 1/2 - 1/(24 M) = M - e^{psi(M)} + O(M^-2) as R grows.
    The start is g/(m - c), m the rule's first moment, or the Jensen point
    g/m where c > m/2, so it lies in [g/m, 2 g/m]; the iterates never go
    below g/m, which Jensen's inequality C(gamma) <= log2(1 + gamma m)
    puts at or below the root (exactly for the empirical Monte Carlo rule,
    to roundoff for the quadrature).

    Both estimators are positive-weight sums of terms that increase and are
    concave in gamma: w_j (1 - (1 + gamma s_j)^-M) for quadrature,
    log1p(gamma x_i) / n for Monte Carlo. A Newton step on an increasing
    concave C lands at or below the root from either side, so after the
    first step the iterates rise to it. Every term log(1 + gamma x) of
    C = E[log2(1 + gamma X)] also satisfies gamma |C''| <= C', as y^2/(1 +
    y)^2 <= y/(1 + y) for y = gamma x >= 0, so gamma C'(gamma) is
    nondecreasing. The returned gamma + s is at most `error_bound` below
    gamma*:

    - from below (s >= 0): C'(gamma*) >= C'(gamma) gamma/gamma*, and by
      concavity R - C(gamma) >= C'(gamma*) (gamma* - gamma), so s >= gamma
      (gamma* - gamma)/gamma*, which gives 0 <= gamma* - (gamma + s) <=
      s^2/(gamma - s);
    - from above (s < 0): Taylor at gamma puts gamma* - (gamma + s) at
      |C''(xi)| (gamma - gamma*)^2/(2 C'(gamma)) for some xi in [gamma*,
      gamma], and |C''(xi)| <= C'(xi)/xi <= gamma C'(gamma)/xi^2 with
      gamma + s <= gamma* <= xi and gamma - gamma* <= |s|, which gives
      0 <= gamma* - (gamma + s) <= gamma s^2/(2 (gamma + s)^2).

    Either bound is below 2^-53 gamma for |s| <= 2^-27 gamma. The Monte
    Carlo rule meets gamma |C''| <= C' exactly at any sample size; the
    quadrature rule meets it to its accuracy. The bound covers Newton's
    error on C evaluated exactly only: rounding in C moves the root by
    about R ln2 eps relative, up to 6.5e-15 measured at R <= 100 on
    one-sample Monte Carlo rules.

    An R whose Jensen point g/m is below 2^-1040 raises CapacityError.
    There gamma is subnormal, and each term gamma s_j or gamma x_i rounds
    by up to 2^-1075, which moves C by up to about 2^-1070/gamma relative:
    2^-30 at gamma = 2^-1040, but more than the stop step 2^-27 near
    2^-1046, where the quadrature rule at M = 1 was measured not to settle.
    """
    nats = R * math.log(2.0)
    g = math.expm1(nats)
    floor = g / mean
    if floor < 2.0 ** -1040:
        raise CapacityError(f"R = {R!r} is too small to solve at M = {M:g}: "
                            f"the Jensen point (2^R - 1)/{mean:g} is below "
                            f"2^-1040, too close to float underflow")
    a0 = -math.expm1(-nats)
    c = 0.5 * a0 * (1.0 + (0.75 * a0 * a0 - 5.0 / 6.0 * a0) / M)
    gamma = g / (mean - c) if c <= 0.5 * mean else floor
    for iterations in range(1, 65):
        value, slope = cap(gamma)
        step = (R - value) / slope
        if abs(step) <= 2.0 ** -27 * gamma:
            bound = (step * step / (gamma - step) if step >= 0
                     else 0.5 * gamma * (step / (gamma + step)) ** 2)
            return SnrSolution(gamma + step, bound, iterations)
        gamma = max(gamma + step, floor)
    raise ArithmeticError(
        f"Newton iteration did not settle (M={M}, R={R}, gamma={gamma:g})")


def _usable_cores() -> int:
    """The cores this process may run on (all of them where the platform
    cannot say).
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _mc_workers(mc_samples: int) -> int:
    """How many Monte Carlo solves of mc_samples draws `prefetch_gamma0`
    runs at once: one per usable core, as many as _MC_BYTES holds at 8
    bytes per sample and per entry of work (two at MAX_MC_SAMPLES), and at
    least one.
    """
    solve = 8 * (mc_samples + _largest_block(mc_samples))
    return max(1, min(_usable_cores(), _MC_BYTES // solve))


# gamma0 by what it depends on: (M, R) for quadrature, (M, R, mc_samples,
# seed) for Monte Carlo. Keys are builtins, so that a lookup hashes and
# compares no dataclass, and a sweep can fill it ahead.
_GAMMA0: dict[tuple, float] = {}
_GAMMA0_SIZE = 65536


def gamma0(M: int, R: float, config: EstimatorConfig) -> float:
    """invert_capacity(M, R, config).gamma, cached for an int M."""
    # numpy integers and bools pass invert_capacity's check and are solved
    # uncached, so keys hold builtin ints; a float M such as 57.0 raises there
    if type(M) is not int:
        return invert_capacity(M, R, config=config).gamma
    key = ((M, R) if config.method == "quadrature"
           else (M, R, config.mc_samples, config.seed))
    gamma = _GAMMA0.get(key)
    if gamma is None:
        gamma = invert_capacity(M, R, config=config).gamma
        _store(key, gamma)
    return gamma


def _store(key: tuple, gamma: float) -> None:
    """Cache gamma0 under key; the oldest entry goes once the cache is full."""
    if len(_GAMMA0) >= _GAMMA0_SIZE:
        del _GAMMA0[next(iter(_GAMMA0))]
    _GAMMA0[key] = gamma


def prefetch_gamma0(pairs, config: EstimatorConfig) -> None:
    """Cache the Monte Carlo gamma0 for every (M, R) of the iterable pairs,
    solved on up to `_mc_workers` threads at once by the lone `_monte_carlo`
    draws, seeded by (seed, M), and `_newton` loop, so each pair gets the
    lone bits whichever worker takes it. The draws and array passes release
    the interpreter lock, so the workers overlap. A pair whose checks or
    solve raise stays uncached: its reader's lone solve raises the error.

    The calling thread checks and seeds each uncached pair into one deque,
    whose popleft is thread-safe, and allocates two arrays per worker, so no
    worker allocates an array; it is one of the workers, and joins the
    others before it caches the results in the order of pairs; as the one
    worker (one usable core, or memory for one solve) it starts no thread.
    pairs is not read for quadrature, whose answers solve each gamma0 alone
    in one or two evaluations of the 417-node rule.
    """
    n, seed = config.mc_samples, config.seed
    if config.method == "quadrature":
        return
    gammas = dict.fromkeys((M, R) for M, R in pairs
                           if (M, R, n, seed) not in _GAMMA0)
    waiting = collections.deque()
    for M, R in gammas:
        with contextlib.suppress(Exception):  # its reader's solve raises
            _validate_inputs(M, None)
            check_rate(R)
            waiting.append((M, R, np.random.default_rng((seed, M))))
    if not waiting:
        return
    arrays = [(np.empty(n), np.empty(_largest_block(n)))
              for _ in range(min(len(waiting), _mc_workers(n)))]

    def work(x, buffer) -> None:
        while True:
            try:
                M, R, rng = waiting.popleft()
            except IndexError:  # the queue is empty
                return
            with contextlib.suppress(Exception):  # its reader's solve raises
                cap, _, mean = _monte_carlo(M, rng, x, buffer)
                gammas[M, R] = _newton(M, R, cap, mean).gamma

    threads = [threading.Thread(target=work, args=pair)
               for pair in arrays[1:]]
    for thread in threads:
        thread.start()
    try:
        work(*arrays[0])
    finally:
        waiting.clear()  # on an interrupt, the others stop after their pair
        for thread in threads:
            thread.join()
    for (M, R), gamma in gammas.items():
        if gamma is not None:
            _store((M, R, n, seed), gamma)
