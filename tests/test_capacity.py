import math
import random
import re
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import exp1, expn

from mimo_ee import capacity
from mimo_ee.capacity import (
    MAX_MC_SAMPLES,
    R_MAX,
    CapacityError,
    EstimatorConfig,
    ergodic_capacity,
    invert_capacity,
    snr_lower_bound_rate,
)
from mimo_ee.optimizer import zeta_exact
from mimo_ee.params import normalize

from conftest import capacity_bounds, reference_params

M_GRID = [1, 2, 4, 8, 16, 64, 256]
GAMMA_GRID = np.logspace(-3, 3, 13)


def closed_form_rate(M, gamma):
    """log2(e) Sum_{k<=M} f_k, f_k = e^x E_k(x), x = 1/gamma: the MRC
    capacity of Alouini & Goldsmith (IEEE TVT 1999).

    scipy's expn is off by 1.6e-8 relative at n = 200, x = 100, so only
    f_k0, k0 = min(M, ceil(x)), is computed directly; the rest follow from
    f_{k+1} = (1 - x f_k)/k, run upwards for k >= x and downwards for
    k < x, the directions in which it is stable.
    """
    x = 1.0 / gamma
    k0 = min(M, math.ceil(x))
    f = [0.0] * (M + 1)
    f[k0] = scaled_expn(k0, x)
    for k in range(k0 - 1, 0, -1):
        f[k] = (1.0 - k * f[k + 1]) / x
    for k in range(k0, M):
        f[k + 1] = (1.0 - x * f[k]) / k
    return math.fsum(f) / math.log(2)


def count_evaluations(monkeypatch):
    """Route `_estimator` through a wrapper; return the list of gamma at
    which every evaluator it makes is called, in call order."""
    calls = []
    estimator = capacity._estimator

    def counting(M, config):
        cap, nodes, mean = estimator(M, config)

        def counted(gamma):
            calls.append(gamma)
            return cap(gamma)
        return counted, nodes, mean

    monkeypatch.setattr(capacity, "_estimator", counting)
    return calls


def seeded_pairs(rng, n):
    """n pairs (M, R), M log-uniform in [1, 1e4] and R uniform in
    [0.25, 15]."""
    return [(max(1, round(10 ** rng.uniform(0, 4))), rng.uniform(0.25, 15.0))
            for _ in range(n)]


def scaled_expn(n, x):
    """e^x E_n(x). For x > 1, where e^x alone overflows beyond x = 709, from
    the continued fraction of E_n (modified Lentz, as in Numerical Recipes
    section 6.3), which converges there for every n."""
    if x <= 1.0:
        return math.exp(x) * expn(n, x)
    b = x + n
    c, d = 1e300, 1.0 / b
    h = d
    for i in range(1, 10_000):
        a = -i * (n - 1 + i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        h *= c * d
        if abs(c * d - 1.0) < 1e-16:
            return h
    raise RuntimeError(f"continued fraction of E_{n}({x}) did not converge")


class TestErgodicCapacity:
    def test_single_antenna_closed_form(self):
        # M = 1: E[log2(1 + gamma X)], X exponential, has the closed form
        # e^{1/gamma} E1(1/gamma) / ln 2 -- an oracle independent of the
        # quadrature path
        for gamma in (0.1, 1.0, 10.0, 100.0):
            exact = math.exp(1 / gamma) * exp1(1 / gamma) / math.log(2)
            est = ergodic_capacity(1, gamma)
            assert abs(est.value - exact) <= est.abs_error_bound + 1e-9
        # low gamma converges to near machine precision at default nodes
        assert ergodic_capacity(1, 1.0).value == pytest.approx(
            math.e * exp1(1.0) / math.log(2), abs=1e-10)

    @pytest.mark.parametrize("M", [1, 2, 3, 5, 10, 50, 200, 1000, 10000])
    def test_matches_closed_form_to_roundoff(self, M):
        for gamma in np.logspace(-2, 5, 15):
            est = ergodic_capacity(M, float(gamma))
            err = abs(est.value - closed_form_rate(M, float(gamma)))
            assert err <= 1e-12
            assert err <= est.abs_error_bound

    def test_single_antenna_monte_carlo_oracle(self):
        rng = np.random.default_rng(1234)
        x = rng.exponential(size=10 ** 7)
        mc = float(np.log2(1 + x).mean())
        ci = 2.576 * float(np.log2(1 + x).std(ddof=1)) / math.sqrt(len(x))
        est = ergodic_capacity(1, 1.0)
        assert abs(est.value - mc) < ci + est.abs_error_bound

    def test_monte_carlo_method_agrees_with_quadrature(self):
        cfg = EstimatorConfig(method="monte-carlo", mc_samples=200_000, seed=7)
        for M, gamma in [(1, 1.0), (4, 0.3), (64, 0.5)]:
            mc = ergodic_capacity(M, gamma, cfg)
            quad = ergodic_capacity(M, gamma)
            assert mc.method == "monte-carlo"
            assert abs(mc.value - quad.value) < mc.abs_error_bound \
                + quad.abs_error_bound

    def test_zero_snr_limit(self):
        for M in (1, 8, 64):
            assert ergodic_capacity(M, 1e-12).value == pytest.approx(
                0.0, abs=1e-10)

    @pytest.mark.parametrize("M", M_GRID)
    def test_sandwich(self, M):
        for gamma in GAMMA_GRID:
            est = ergodic_capacity(M, float(gamma))
            lo, hi = capacity_bounds(M, float(gamma))
            assert lo - est.abs_error_bound <= est.value <= \
                hi + est.abs_error_bound

    def test_monotone_in_gamma_and_m(self):
        for M in (1, 4, 64):
            vals = [ergodic_capacity(M, float(g)).value for g in GAMMA_GRID]
            assert all(b > a for a, b in zip(vals, vals[1:]))
        for gamma in (0.01, 1.0, 100.0):
            vals = [ergodic_capacity(M, gamma).value for M in M_GRID]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_bound_gap_closes_at_large_m(self):
        M, R = 256, 5.0
        gamma = (2.0 ** R - 1.0) / M
        lo, hi = capacity_bounds(M, gamma)
        assert hi - lo < 0.01

    def test_overflow_guarded(self):
        with pytest.raises(OverflowError):
            ergodic_capacity(1, 1e308)

    def test_rejects_bad_inputs(self):
        with pytest.raises(CapacityError):
            ergodic_capacity(0, 1.0)
        with pytest.raises(CapacityError):
            ergodic_capacity(4, 0.0)
        with pytest.raises(CapacityError):
            ergodic_capacity(4, math.nan)


class TestMonteCarloEvaluator:
    @pytest.mark.parametrize("n", [20_000, 65_537, 131_073, 300_001])
    @pytest.mark.parametrize("M, seed", [(1, 0), (16, 3), (256, 11)])
    def test_equals_direct_expressions(self, M, seed, n):
        # the evaluator reuses one work array; gammas in non-monotone order
        # show that nothing of one call leaks into the next; above 2^16
        # samples the sums run over blocks
        cfg = EstimatorConfig(method="monte-carlo", mc_samples=n, seed=seed)
        cap, x, mean = capacity._estimator(M, cfg)
        assert mean == float(x.mean())
        for g in (0.3, 1e-4, 50.0, 0.3, 2.0, 1e-4):
            value, slope = cap(g)
            assert value == float(np.log1p(g * x).mean()) * capacity._LOG2E
            assert slope == float((x / (1.0 + g * x)).mean()) \
                * capacity._LOG2E

    def test_call_allocates_no_sample_sized_array(self):
        # the direct expressions peak at two arrays the size of x per call
        cfg = EstimatorConfig(method="monte-carlo", mc_samples=100_000,
                              seed=3)
        cap, x, _ = capacity._estimator(16, cfg)
        cap(0.5)
        tracemalloc.start()
        try:
            cap(0.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes // 10

    def test_block_sums_are_one_reduce(self):
        # the blocks' sums, added in tree order, have the bits of one
        # np.add.reduce over the array, at sizes that split 0 to 6 times;
        # 131,080 splits into 65,536 | 32,768 + 32,776, so its largest
        # block is the left half, which work must hold
        assert capacity._largest_block(131_080) == 65_536
        rng = random.Random(8)
        sizes = [2, 129, 2 ** 16, 2 ** 16 + 1, 2 ** 17 + 1, 131_080, 300_001,
                 *(rng.randint(2, 3_000_007) for _ in range(30))]
        for n in sizes:
            a = np.log1p(np.random.default_rng(n).standard_gamma(
                rng.choice((1, 4, 300)), size=n))
            work = np.empty(capacity._largest_block(n))
            assert capacity._pairwise(a, work, lambda xb, wb: xb) \
                == float(np.add.reduce(a)), n
            assert capacity._pairwise(
                a, work, lambda xb, wb: np.multiply(xb, xb, out=wb)) \
                == float(np.add.reduce(a * a)), n

    def test_lone_solve_holds_the_draws_and_one_block(self):
        # 300,001 samples split into eight blocks of at most 37,505, so a
        # solve holds 1.125 arrays of draws (the direct expressions, two)
        n = 300_001
        cfg = EstimatorConfig(method="monte-carlo", mc_samples=n, seed=2)
        invert_capacity(16, 5.0, config=cfg)
        tracemalloc.start()
        try:
            invert_capacity(16, 5.0, config=cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 8 * n
        assert capacity._largest_block(n) == 37_505

    def test_capacity_holds_the_draws_and_one_block(self):
        # ergodic_capacity writes its two passes over its own draws, so a
        # call holds them and the estimator's block: 1.125 arrays of draws
        n = 300_001
        cfg = EstimatorConfig(method="monte-carlo", mc_samples=n, seed=6)
        ergodic_capacity(4, 0.3, cfg)
        tracemalloc.start()
        try:
            ergodic_capacity(4, 0.3, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 8 * n

    @pytest.mark.parametrize("n", [20_000, 131_073, 300_001])
    def test_bound_equals_direct_expression(self, n):
        # the value is ndarray.mean of the terms and the 99% half-width's
        # spread their ndarray.std(ddof=1)
        cfg = EstimatorConfig(method="monte-carlo", mc_samples=n, seed=6)
        for M, gamma in [(1, 1.0), (4, 0.3), (64, 1e-3)]:
            x = np.random.default_rng((cfg.seed, M)).standard_gamma(M, size=n)
            terms = np.log1p(gamma * x)
            spread = float(terms.std(ddof=1)) * capacity._LOG2E
            estimate = ergodic_capacity(M, gamma, cfg)
            assert estimate.value == float(terms.mean()) * capacity._LOG2E
            assert estimate.abs_error_bound \
                == 2.5758293035489004 * spread / math.sqrt(n)

    def test_draws_into_an_array_as_gamma_draws(self):
        # standard_gamma(M, out=x) takes the stream and the bits of
        # gamma(shape=M, scale=1.0, size=n), whose scale multiplies by 1.0
        rng = random.Random(5)
        for _ in range(200):
            n, seed = rng.randint(1, 3000), rng.randrange(2 ** 32)
            M = rng.choice((1, 2, rng.randint(3, 100), rng.randint(1, 10 ** 7)))
            x = np.empty(n)
            np.random.default_rng((seed, M)).standard_gamma(M, out=x)
            drawn = np.random.default_rng((seed, M)).gamma(
                shape=M, scale=1.0, size=n)
            assert x.tobytes() == drawn.tobytes(), (n, seed, M)

    def test_sample_count_bounded(self):
        # rejected before any draw: 10**12 samples would need 7.3 TiB
        assert EstimatorConfig(mc_samples=MAX_MC_SAMPLES).mc_samples \
            == MAX_MC_SAMPLES
        for n in (1, MAX_MC_SAMPLES + 1, 10 ** 12):
            with pytest.raises(CapacityError, match="mc_samples"):
                EstimatorConfig(method="monte-carlo", mc_samples=n)

    @pytest.mark.parametrize("field, value", [
        ("mc_samples", 1000.5), ("mc_samples", 1000.0), ("mc_samples", "9"),
        ("seed", 1.5), ("seed", 2.0), ("seed", None)])
    def test_non_integer_setting_rejected(self, field, value):
        # rejected here, in the field's name, not by numpy at the first draw
        with pytest.raises(CapacityError, match=f"{field} must be an integer"):
            EstimatorConfig(method="monte-carlo", **{field: value})


class TestCapacityBounds:
    def test_lower_bound_collapses_at_m1(self):
        assert capacity_bounds(1, 7.0) == pytest.approx((0.0, 3.0))

    def test_direct_formula(self):
        lo, hi = capacity_bounds(2, 1.0)
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(math.log2(3))

    @pytest.mark.parametrize("M", [2, 8, 64])
    def test_gamma_moments_monte_carlo(self, M):
        # the Jensen endpoints rest on E[X] = M and E[1/X] = 1/(M-1)
        rng = np.random.default_rng(99 + M)
        x = rng.gamma(shape=M, scale=1.0, size=10 ** 6)
        assert float(x.mean()) == pytest.approx(M, rel=5e-3)
        assert float((1 / x).mean()) == pytest.approx(1 / (M - 1), rel=5e-3)


class TestSnrLowerBoundRate:
    def test_trivial_values(self):
        assert snr_lower_bound_rate(2, 1.0) == pytest.approx(1.0)
        assert snr_lower_bound_rate(32, 5.0) == pytest.approx(1.0)

    def test_rejects_single_antenna(self):
        with pytest.raises(CapacityError):
            snr_lower_bound_rate(1, 5.0)

    @pytest.mark.parametrize("M", [2, 4, 16, 64])
    @pytest.mark.parametrize("R", [1.0, 5.0, 10.0])
    def test_dominates_exact_snr(self, M, R):
        assert snr_lower_bound_rate(M, R) >= invert_capacity(M, R).gamma


class TestAntennaCountAboveFloatRange:
    # -float(M), the Monte Carlo draw and / (M - 1) overflow past the largest
    # float; such an M is an input error, named, not an OverflowError
    @pytest.mark.parametrize("call", [
        lambda M: invert_capacity(M, 5.0),
        lambda M: invert_capacity(M, 5.0, EstimatorConfig("monte-carlo", 100)),
        lambda M: ergodic_capacity(M, 1.0),
        lambda M: ergodic_capacity(M, 1.0, EstimatorConfig("monte-carlo", 100)),
        lambda M: zeta_exact(M, 5.0, normalize(reference_params())),
        lambda M: snr_lower_bound_rate(M, 5.0),
    ], ids=["invert", "invert-mc", "ergodic", "ergodic-mc", "zeta-exact",
            "lower-bound-snr"])
    @pytest.mark.parametrize("M", [int(sys.float_info.max) + 1,
                                   10 ** 400, 10 ** 4000])
    def test_rejected_by_name(self, call, M):
        with pytest.raises(CapacityError,
                           match=r"^M must be at most 1\.79769e\+308$"):
            call(M)

    def test_largest_float_accepted(self):
        M = int(sys.float_info.max)
        assert snr_lower_bound_rate(M, 5.0) == 31.0 / sys.float_info.max
        assert invert_capacity(M, 5.0).gamma > 0

    # mc_samples draws near M each sum past the largest float, so the mean,
    # the Newton start and the slope would break down; an M above
    # max float / (2 mc_samples) is named before anything is drawn
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("M, mc_samples", [
        (10 ** 304, 100_000), (int(sys.float_info.max), 100),
        (int(sys.float_info.max / 200) + 2 ** 970, 100)],
        ids=["1e304-100000", "max-float-100", "just-above-limit-100"])
    def test_monte_carlo_sum_overflow_rejected_by_name(self, M, mc_samples):
        cfg = EstimatorConfig("monte-carlo", mc_samples)
        message = re.escape(f"M = {M:g} is too large for mc_samples = "
                            f"{mc_samples}: the sum of the draws would "
                            f"overflow")
        with pytest.raises(CapacityError, match=f"^{message}$"):
            invert_capacity(M, 5.0, cfg)
        with pytest.raises(CapacityError, match=f"^{message}$"):
            ergodic_capacity(M, 1e-300, cfg)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mc_samples", [2, 100, 100_000])
    def test_largest_summable_monte_carlo_m_accepted(self, mc_samples):
        M = int(sys.float_info.max / (2 * mc_samples))
        cfg = EstimatorConfig("monte-carlo", mc_samples)
        for R in (1e-3, 5.0, R_MAX):
            sol = invert_capacity(M, R, cfg)
            assert 0 < sol.gamma < math.inf
            assert abs(ergodic_capacity(M, sol.gamma, cfg).value - R) \
                <= 1e-12 * R


class TestInvertCapacity:
    @pytest.mark.parametrize("M", [2, 4, 8, 16, 64, 256])
    @pytest.mark.parametrize("R", [1.0, 5.0, 10.0])
    def test_bracket_property(self, M, R):
        gamma = invert_capacity(M, R).gamma
        scale = 2.0 ** R - 1.0
        assert scale / M - 1e-12 <= gamma <= scale / (M - 1) + 1e-12

    def test_large_m_approximation(self):
        gamma = invert_capacity(64, 5.0).gamma
        assert gamma == pytest.approx((2 ** 5 - 1) / 64, rel=0.03)

    @pytest.mark.parametrize("M", [1, 2, 64])
    def test_round_trip(self, M):
        R = 3.3
        sol = invert_capacity(M, R)
        assert abs(ergodic_capacity(M, sol.gamma).value - R) <= 1e-14
        assert 0 <= sol.error_bound < 2.0 ** -53 * sol.gamma

    @pytest.mark.parametrize("M", [1, 2, 3, 10, 100, 1000])
    @pytest.mark.parametrize("R", [0.01, 0.25, 5.0, 15.0, 60.0, 100.0])
    def test_meets_closed_form_rate(self, M, R):
        gamma = invert_capacity(M, R).gamma
        assert abs(closed_form_rate(M, gamma) - R) <= 1e-12

    def test_newton_converges_over_the_valid_range(self):
        # Newton from the asymptotic start: few steps, C(gamma) - R at
        # roundoff, for antenna counts far beyond any optimum
        for M in np.unique(np.round(np.logspace(0, 20, 41))):
            for R in np.logspace(-2, math.log10(R_MAX), 25):
                sol = invert_capacity(int(M), float(R))
                assert sol.iterations <= 8
                value = ergodic_capacity(int(M), sol.gamma).value
                assert abs(value - R) <= 1e-12 * max(1.0, R)

    def test_rate_below_float_resolution_of_two_to_the_r(self):
        # 2^R - 1 rounds to 0 here; the start must not
        sol = invert_capacity(1, 1e-20)
        assert sol.gamma == pytest.approx(1e-20 * math.log(2), rel=1e-12)
        assert abs(ergodic_capacity(1, sol.gamma).value - 1e-20) <= 1e-32

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("config", [
        EstimatorConfig(), EstimatorConfig("monte-carlo", 100)],
        ids=["quadrature", "monte-carlo"])
    @pytest.mark.parametrize("M, R", [
        (1, 5e-324), (1, 1e-320), (2, 5e-324), (4, 5e-324), (1000, 5e-324),
        (10 ** 300, 1e-300)],
        ids=["1-5e-324", "1-1e-320", "2-5e-324", "4-5e-324", "1000-5e-324",
             "1e300-1e-300"])
    def test_start_underflow_rejected_by_name(self, M, R, config):
        # (2^R - 1)/m is below 2^-1040: it rounds to 0, where the error
        # bound s^2/(gamma - s) would divide by zero, or to a subnormal,
        # where the rule's rounding can outgrow the stop step. At (2, 5e-324)
        # the 100-sample mean is below 2 and the start rounds up to 5e-324;
        # the solve returned gamma = 0
        message = re.escape(f"R = {R!r} is too small to solve at M = {M:g}")
        with pytest.raises(CapacityError, match=f"^{message}: "):
            invert_capacity(M, R, config)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("config", [
        EstimatorConfig(), EstimatorConfig("monte-carlo", 100)],
        ids=["quadrature", "monte-carlo"])
    @pytest.mark.parametrize("M", [1, 2, 3, 100, 10 ** 300],
                             ids=["1", "2", "3", "100", "1e300"])
    def test_subnormal_start_settles_from_the_limit_up(self, M, config):
        # every start (2^R - 1)/m from 2^-1040 on meets the two-sided stop
        # rule; just below 2^-1040 the rate is rejected by name
        cap, _, mean = capacity._estimator(M, config)

        def rate(start):
            return math.log1p(start * mean) / math.log(2.0)

        for k in range(1, 60):
            R = rate(2.0 ** (-1040 + k / 8))
            sol = invert_capacity(M, R, config)
            assert 0 <= sol.error_bound / sol.gamma < 2.0 ** -53
            assert abs(cap(sol.gamma)[0] - R) <= 2.0 ** -27 * R
        R = rate(2.0 ** -1040 * (1 - 2 ** -20))
        with pytest.raises(CapacityError, match="too small to solve"):
            invert_capacity(M, R, config)

    @pytest.mark.parametrize("pairs, mean_max", [
        ([(M, 5.0) for M in range(1, 1001)], 1.3),
        (seeded_pairs(random.Random(25), 1500), 2.0)],
        ids=["m-1-to-1000", "seeded-1500"])
    def test_quadrature_evaluations_per_inversion(self, monkeypatch, pairs,
                                                  mean_max):
        # the asymptotic start is within 2^-27 of the root for most pairs
        calls = count_evaluations(monkeypatch)
        counts = []
        for M, R in pairs:
            before = len(calls)
            invert_capacity(M, R)
            counts.append(len(calls) - before)
        assert sum(counts) / len(counts) <= mean_max
        assert max(counts) <= 6

    @pytest.mark.parametrize("Ms, most", [
        ([1], 4), (range(2, 7), 3), (range(7, 157), 2),
        (list(range(157, 400)) + [1713, 10**4, 10**5, 10**6], 1)],
        ids=["m-1", "m-2-to-6", "m-7-to-156", "m-157-up"])
    def test_newton_steps_at_rate_five(self, Ms, most):
        # the counts the README states, held as upper bounds so that a
        # better start still passes
        assert max(invert_capacity(M, 5.0).iterations for M in Ms) <= most

    def test_monte_carlo_evaluations_per_inversion(self, monkeypatch):
        calls = count_evaluations(monkeypatch)
        cfg = EstimatorConfig(method="monte-carlo", mc_samples=100_000,
                              seed=3)
        sol = invert_capacity(16, 5.0, config=cfg)
        # one evaluation (value and slope together) per Newton step; the
        # start may lie above the root, and after the first step the
        # iterates rise monotonically
        assert len(calls) == sol.iterations
        assert calls[1:] == sorted(calls[1:])

    def test_unsettled_iteration_raises(self, monkeypatch):
        # the loop bound is a safety net: an evaluator stuck below R trips it
        monkeypatch.setattr(capacity, "_estimator",
                            lambda M, config: (lambda g: (0.0, 1.0), None, 1.0))
        with pytest.raises(ArithmeticError, match="did not settle"):
            invert_capacity(4, 5.0)

    def test_deterministic(self):
        a = invert_capacity(16, 5.0)
        b = invert_capacity(16, 5.0)
        assert a == b

    def test_monte_carlo_common_random_numbers(self):
        cfg = EstimatorConfig(method="monte-carlo", mc_samples=500_000,
                              seed=3)
        a = invert_capacity(16, 5.0, config=cfg)
        b = invert_capacity(16, 5.0, config=cfg)
        assert a == b
        quad = invert_capacity(16, 5.0)
        assert a.gamma == pytest.approx(quad.gamma, rel=0.02)

    def test_monte_carlo_starts_from_sample_mean(self):
        # seed chosen so the 1000-sample estimate at (2^R - 1)/M overshoots
        # the target rate: only the sample mean gives a floor (2^R - 1)/m,
        # under every iterate after the first, below the root
        cfg = EstimatorConfig(method="monte-carlo", mc_samples=1000, seed=20)
        R = 5.0
        assert ergodic_capacity(256, (2 ** R - 1) / 256, cfg).value > R
        sol = invert_capacity(256, R, config=cfg)
        assert abs(ergodic_capacity(256, sol.gamma, cfg).value - R) <= 1e-12
        assert 0 <= sol.error_bound < 2.0 ** -53 * sol.gamma

    def test_rejects_bad_inputs(self):
        with pytest.raises(CapacityError):
            invert_capacity(0, 5.0)
        with pytest.raises(CapacityError):
            invert_capacity(4, -1.0)
        for R in (R_MAX * 1.5, math.nan):
            with pytest.raises(CapacityError, match="valid range"):
                invert_capacity(4, R)


class TestStopBound:
    # _newton returns gamma + s at the first step |s| <= 2^-27 gamma, within
    # s^2/(gamma - s) below the root from below and gamma s^2/(2 (gamma +
    # s)^2) from above; the proof needs gamma |C''| <= C'

    def test_rule_sums_meet_the_property(self):
        # a node term's own ratio gamma |t''|/t' is (M + 1) gamma s/(1 +
        # gamma s), above 1 wherever gamma s > 1/M, so only the sums can meet
        # it: |C''| = M (M + 1) log2(e) sum_j w_j s_j^2 (1 + gamma s_j)^-(M+2)
        nodes = capacity._NODES
        weights = capacity._WEIGHTS * nodes ** 2 * capacity._LOG2E
        for M in np.unique(np.round(np.geomspace(1, 1e7, 29))):
            cap = capacity._estimator(int(M), EstimatorConfig())[0]
            for gamma in np.geomspace(1e-12, 1e6, 37):
                terms = np.exp(-(M + 2) * np.log1p(gamma * nodes))
                curvature = M * (M + 1) * np.dot(weights, terms)
                slope = cap(float(gamma))[1]
                assert 0 < gamma * curvature <= slope * (1 + 1e-12), (M, gamma)

    @pytest.mark.parametrize("R", [1e-3, 0.1, 1.0, 5.0, 20.0, 100.0])
    def test_newton_brackets_the_root_of_one_sample(self, R):
        # one sample x: C = log2(1 + gamma x) has the root (2^R - 1)/x.
        # Evaluated to 200 bits, its roundoff cannot hide the bound. The
        # first moment m = x = 1 starts Newton above the root, as c > 0;
        # m = 3x and 1e3 x start it below. An x that puts the root 1e-12
        # below or above the start of m = 1 settles at the first step, from
        # above or from below
        with mpmath.workprec(200):
            g = mpmath.mpf(2) ** R - 1
            # an evaluator at the rate returns the start itself
            start = capacity._newton(1, R, lambda gamma: (R, 1.0), 1.0).gamma
            cases = [(1.0, 1.0), (0.37, 3 * 0.37), (0.37, 370.0),
                     (g / (start * (1 - 1e-12)), 1.0),
                     (g / (start * (1 + 1e-12)), 1.0)]
            starts, ends = set(), set()
            for x, mean in cases:
                x = mpmath.mpf(x)
                probes = []

                def cap(gamma):
                    probes.append(gamma)
                    return (mpmath.log(1 + gamma * x, 2),
                            x / ((1 + gamma * x) * mpmath.log(2)))

                sol = capacity._newton(1, R, cap, mean)
                root = g / x
                starts.add("above" if probes[0] > root else "below")
                ends.add("above" if probes[-1] > root else "below")
                assert sol.gamma <= root <= sol.gamma + sol.error_bound
                assert 0 <= sol.error_bound < 2.0 ** -53 * sol.gamma
            assert sol.iterations == 1
        assert starts == ends == {"above", "below"}


def split_off(rng, pairs):
    """A batch of 1 to 80 pairs from the front of pairs, and the rest."""
    size = rng.randint(1, 80)
    return pairs[:size], pairs[size:]


class TestPrefetchGamma0:
    CFG = EstimatorConfig(method="monte-carlo", mc_samples=3000, seed=4)
    TAIL = (CFG.mc_samples, CFG.seed)  # a Monte Carlo key is (M, R) + TAIL
    # repeated pairs, M = 1 and rates from 0.01 to R_MAX
    PAIRS = [(1, 5.0), (2, 5.0), (7, 0.5), (7, 0.5), (56, 5.0),
             (300, 12.0), (2, 5.0), (1, 0.01), (4096, 100.0)]

    def lone(self, pairs):
        return [invert_capacity(M, R, config=self.CFG).gamma.hex()
                for M, R in pairs]

    def cached(self, pairs):
        """The cached gamma0 of each pair, as hex; None where uncached."""
        gammas = [capacity._GAMMA0.get(pair + self.TAIL) for pair in pairs]
        return [None if g is None else g.hex() for g in gammas]

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        capacity._GAMMA0.clear()

    @pytest.mark.parametrize("cores, workers", [
        (1, 1), (2, 2), (3, 3), (64, 1)], ids=["1", "2", "3", "memory-cap"])
    def test_matches_lone_inversion_to_the_bit(self, monkeypatch, cores,
                                               workers):
        # every worker count caches each pair to the lone bits; the calling
        # thread is one of the workers, so one worker, by cores or by
        # _MC_BYTES, starts no thread
        monkeypatch.setattr(capacity, "_usable_cores", lambda: cores)
        if workers < cores:
            monkeypatch.setattr(capacity, "_MC_BYTES",
                                16 * self.CFG.mc_samples * workers)
        assert capacity._mc_workers(self.CFG.mc_samples) == workers
        started, thread = [], threading.Thread
        monkeypatch.setattr(threading, "Thread", lambda **kwargs: (
            started.append(kwargs) or thread(**kwargs)))
        capacity.prefetch_gamma0(iter(self.PAIRS), self.CFG)
        assert len(started) == workers - 1
        lone = self.lone(self.PAIRS)
        assert self.cached(self.PAIRS) == lone
        assert [capacity.gamma0(M, R, self.CFG).hex()
                for M, R in self.PAIRS] == lone

    def test_multi_block_pairs_give_the_lone_bits(self, monkeypatch):
        # 150,001 samples split into four blocks, whose evaluations the
        # workers run at once into their own work arrays
        monkeypatch.setattr(capacity, "_usable_cores", lambda: 3)
        cfg = EstimatorConfig(method="monte-carlo", mc_samples=150_001,
                              seed=9)
        pairs = [(1, 5.0), (2, 0.5), (7, 5.0), (56, 12.0), (300, 5.0)]
        capacity.prefetch_gamma0(pairs, cfg)
        cached = [capacity._GAMMA0[pair + (cfg.mc_samples, cfg.seed)].hex()
                  for pair in pairs]
        assert cached == [invert_capacity(M, R, config=cfg).gamma.hex()
                          for M, R in pairs]

    def test_cached_in_the_order_of_pairs(self, monkeypatch):
        monkeypatch.setattr(capacity, "_usable_cores", lambda: 3)
        capacity.prefetch_gamma0(self.PAIRS, self.CFG)
        assert list(capacity._GAMMA0) == [
            pair + self.TAIL for pair in dict.fromkeys(self.PAIRS)]

    def test_any_order_and_grouping_gives_the_lone_bits(self, monkeypatch):
        monkeypatch.setattr(capacity, "_usable_cores", lambda: 3)
        pairs = [(M, R) for M in (1, 2, 3, 9, 56, 300, 4096)
                 for R in (0.01, 0.5, 5.0, 12.0, 100.0)]
        lone = dict(zip(pairs, self.lone(pairs)))
        rng = random.Random(20)
        pairs = rng.sample(pairs, len(pairs))
        while pairs:
            batch, pairs = split_off(rng, pairs)
            capacity._GAMMA0.clear()
            capacity.prefetch_gamma0(batch, self.CFG)
            assert self.cached(batch) == [lone[p] for p in batch]

    def test_each_pair_drawn_once_by_more_workers_than_cores(
            self, monkeypatch):
        # a pair taken twice or skipped would show in the draws; switching
        # threads every microsecond makes such a race likely
        workers = capacity._usable_cores() + 2
        monkeypatch.setattr(capacity, "_usable_cores", lambda: workers)
        drawn = []
        monte_carlo = capacity._monte_carlo

        def counting(M, rng, x, work):
            drawn.append(M)
            return monte_carlo(M, rng, x, work)

        monkeypatch.setattr(capacity, "_monte_carlo", counting)
        pairs = [(M, 3.0) for M in range(1, 41)]
        threads = threading.active_count()
        runner = threading.Thread(
            target=capacity.prefetch_gamma0, args=(pairs, self.CFG))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert sorted(drawn) == list(range(1, 41))
        assert threading.active_count() == threads
        monkeypatch.setattr(capacity, "_monte_carlo", monte_carlo)
        assert self.cached(pairs) == self.lone(pairs)

    def test_unsettled_pair_stays_uncached(self, monkeypatch):
        # an evaluator stuck below R never settles; the pair stays uncached,
        # its reader's lone solve raises, and the other pairs are cached
        monkeypatch.setattr(capacity, "_usable_cores", lambda: 2)
        monte_carlo = capacity._monte_carlo

        def stuck_at_three(M, rng, x, work):
            cap, nodes, mean = monte_carlo(M, rng, x, work)
            return (lambda g: (0.0, 1.0)) if M == 3 else cap, nodes, mean

        monkeypatch.setattr(capacity, "_monte_carlo", stuck_at_three)
        pairs = [(2, 5.0), (3, 5.0), (4, 5.0)]
        capacity.prefetch_gamma0(pairs, self.CFG)
        assert self.cached(pairs)[1] is None
        with pytest.raises(ArithmeticError, match="did not settle"):
            capacity.gamma0(3, 5.0, self.CFG)
        assert self.cached(pairs[::2]) == self.lone(pairs[::2])

    def test_worker_error_falls_to_the_reader(self, monkeypatch):
        # a worker's error leaves its pair uncached, the others are cached,
        # no thread is left running, and the reader's lone solve raises it
        monkeypatch.setattr(capacity, "_usable_cores", lambda: 3)
        monte_carlo = capacity._monte_carlo

        def broken_at_seven(M, rng, x, work):
            if M == 7:
                raise RuntimeError(f"broken at M={M}")
            return monte_carlo(M, rng, x, work)

        monkeypatch.setattr(capacity, "_monte_carlo", broken_at_seven)
        threads = threading.active_count()
        capacity.prefetch_gamma0(self.PAIRS, self.CFG)
        assert threading.active_count() == threads
        others = [pair for pair in self.PAIRS if pair[0] != 7]
        assert self.cached([(7, 0.5)]) == [None]
        assert self.cached(others) == self.lone(others)
        with pytest.raises(RuntimeError, match="broken at M=7"):
            capacity.gamma0(7, 0.5, self.CFG)

    def test_workers_bounded_by_cores_and_memory(self, monkeypatch):
        # the draws and one block of work per worker, 240 MB in all
        monkeypatch.setattr(capacity, "_usable_cores", lambda: 64)
        assert capacity._mc_workers(MAX_MC_SAMPLES) == 2
        assert capacity._mc_workers(MAX_MC_SAMPLES // 2) == 5
        assert capacity._mc_workers(100_000) == 64
        monkeypatch.setattr(capacity, "_usable_cores", lambda: 1)
        assert capacity._mc_workers(2) == 1

    def test_bad_pairs_stay_uncached(self, monkeypatch):
        # pairs invert_capacity rejects, one of which (M = 2.0, M = -3)
        # cannot even be seeded; each reader raises the CapacityError
        monkeypatch.setattr(capacity, "_usable_cores", lambda: 2)
        bad = [(0, 5.0), (2.0, 5.0), (-3, 5.0), (4, R_MAX * 1.5),
               (4, math.nan)]
        capacity.prefetch_gamma0(bad + [(5, 5.0)], self.CFG)
        assert list(capacity._GAMMA0) == [(5, 5.0) + self.TAIL]
        for M, R in bad:
            with pytest.raises(CapacityError):
                capacity.gamma0(M, R, self.CFG)

    def test_nothing_uncached_starts_no_thread(self, monkeypatch):
        # a warm pass finds every pair cached: it must not pay for threads
        # or for counting the usable cores
        monkeypatch.setattr(capacity, "_usable_cores", lambda: 2)
        capacity.prefetch_gamma0(self.PAIRS, self.CFG)

        def forbidden(*args, **kwargs):
            raise AssertionError("started a thread or counted the cores")

        monkeypatch.setattr(threading, "Thread", forbidden)
        monkeypatch.setattr(capacity, "_usable_cores", forbidden)
        capacity.prefetch_gamma0(self.PAIRS, self.CFG)
        capacity.prefetch_gamma0([], self.CFG)
        capacity.prefetch_gamma0([(-3, 5.0)], self.CFG)  # seeding fails
