import math

import numpy as np
import pytest

from mimo_ee.capacity import CapacityError, pow2m1
from mimo_ee.optimizer import relaxed_optimum, relaxed_pa_power, with_units
from mimo_ee.params import SystemParams, Theta, normalize
from mimo_ee.regimes import classify

from conftest import reference_params, relaxed_f_pa

# Closed-form limits of the relaxed optimum in each regime, the oracles the
# tests below hold the program's answers against.


def small_r_approx(R: float, theta: Theta) -> tuple[float, float]:
    """Small-rate limit: zeta' ~ R/(rho + rho_c), single antenna."""
    return (R / (theta.rho + theta.rho_c), 1.0)


def large_r_approx(R: float, theta: Theta) -> float:
    """Large-rate limit of zeta'; decays to zero as R grows."""
    return 1.0 / (theta.rho_d + 2.0 * math.sqrt(
        theta.alpha * theta.rho * pow2m1(R) / R ** 2))


def large_gc_approx(R: float, params: SystemParams) -> float:
    """Large-gain limit of eta' in bits/Joule; independent of Gc."""
    return R * params.B / (params.per_antenna_power + params.P_C
                           + R * params.B * params.P_dec)


def small_gc_approx(R: float, params: SystemParams) -> tuple[float, float]:
    """Small-gain limit: eta' proportional to sqrt(Gc), M to 1/sqrt(Gc)."""
    snr_scale = params.alpha * pow2m1(R)
    eta = math.sqrt(params.Gc) * R / (
        2.0 * math.sqrt(params.N0 / params.B)
        * math.sqrt(snr_scale * params.per_antenna_power))
    m = 1.0 + math.sqrt(params.N0 * params.B / params.Gc) \
        * math.sqrt(snr_scale / params.per_antenna_power)
    return (eta, m)


class TestSmallRateApprox:
    def test_formula(self):
        th = normalize(reference_params(-150.0))
        zeta, m = small_r_approx(0.5, th)
        assert zeta == pytest.approx(0.5 / (th.rho + th.rho_c), rel=1e-12)
        assert m == 1.0

    def test_matches_relaxed_at_tiny_rate(self):
        th = normalize(reference_params(-150.0))
        R = 1e-6
        zeta, _ = small_r_approx(R, th)
        assert relaxed_optimum(R, th).zeta == pytest.approx(zeta, rel=0.01)

    def test_linear_in_rate(self):
        th = normalize(reference_params(-150.0))
        assert small_r_approx(2e-6, th)[0] == pytest.approx(
            2 * small_r_approx(1e-6, th)[0], rel=1e-12)


class TestLargeRateApprox:
    def test_no_load_term_form(self):
        th = normalize(reference_params(-150.0))
        th0 = type(th)(alpha=th.alpha, rho=th.rho, rho_c=th.rho_c, rho_d=0.0)
        R = 20.0
        expected = R / (2 * math.sqrt(th.alpha * th.rho * (2 ** R - 1)))
        assert large_r_approx(R, th0) == pytest.approx(expected, rel=1e-12)

    def test_decays_to_zero(self):
        th = normalize(reference_params(-150.0))
        vals = [large_r_approx(R, th) for R in (20, 40, 80)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6

    def test_matches_relaxed_at_large_rate(self):
        th = normalize(reference_params(-150.0))
        assert large_r_approx(25.0, th) == pytest.approx(
            relaxed_optimum(25.0, th).zeta, rel=0.02)

    def test_relaxed_decay_window(self):
        # strict decrease of the optimal trade-off over R in [15, 30]
        th = normalize(reference_params(-150.0))
        grid = np.linspace(15, 30, 16)
        vals = [relaxed_optimum(float(R), th).zeta for R in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0] / 2


class TestLargeGainApprox:
    def test_desk_value(self):
        assert large_gc_approx(5.0, reference_params(-150.0)) == pytest.approx(
            6.937e5, rel=1e-3)

    def test_independent_of_gain(self):
        a = large_gc_approx(5.0, reference_params(-90.0))
        b = large_gc_approx(5.0, reference_params(-100.0))
        assert a == b

    def test_relaxed_eta_flat_at_large_gain(self):
        etas = []
        for gc_db in (-90.0, -100.0):
            p = reference_params(gc_db)
            etas.append(
                with_units(relaxed_optimum(5.0, normalize(p)), p, 5.0).eta)
        assert abs(etas[0] - etas[1]) / etas[1] < 0.01

    def test_flat_across_decade(self):
        # the exact optimum sits at M = 1 here and is flat to < 1%; the
        # relaxed optimum keeps slightly more than one antenna and drifts
        # a little further (< 2%)
        from mimo_ee.optimizer import optimize_exact
        exact, relaxed = [], []
        for gc in (1e-11, 1e-10, 1e-9):
            p = reference_params(-150.0).with_gc(gc)
            th = normalize(p)
            exact.append(with_units(optimize_exact(5.0, th), p, 5.0).eta)
            relaxed.append(with_units(relaxed_optimum(5.0, th), p, 5.0).eta)
        assert (max(exact) - min(exact)) / min(exact) < 0.01
        assert (max(relaxed) - min(relaxed)) / min(relaxed) < 0.02


class TestSmallGainApprox:
    def test_sqrt_scaling_exact_in_formula(self):
        p = reference_params(-160.0)
        eta1, _ = small_gc_approx(5.0, p)
        eta4, _ = small_gc_approx(5.0, p.with_gc(p.Gc * 4))
        assert eta4 == pytest.approx(2 * eta1, rel=1e-12)

    def test_quartering_gain_doubles_excess_antennas(self):
        p = reference_params(-160.0)
        _, m1 = small_gc_approx(5.0, p)
        _, m2 = small_gc_approx(5.0, p.with_gc(p.Gc / 4))
        assert m2 - 1 == pytest.approx(2 * (m1 - 1), rel=1e-12)

    def test_relaxed_eta_slope_approaches_half(self):
        # deep in the PA-dominated regime the slope settles at 1/2; one
        # window higher the fixed circuit draw still bends it below
        def slope(lo_exp, hi_exp):
            gains = np.logspace(lo_exp, hi_exp, 9)
            etas = [with_units(relaxed_optimum(5.0, normalize(
                reference_params(-150.0).with_gc(float(gc)))),
                reference_params(-150.0).with_gc(float(gc)), 5.0).eta
                for gc in gains]
            return np.polyfit(np.log(gains), np.log(etas), 1)[0]

        assert 0.48 <= slope(-21, -19) <= 0.52
        assert 0.44 <= slope(-18, -16) < 0.48

    def test_relaxed_m_slope_is_minus_half(self):
        gains = np.logspace(-18, -16, 9)
        ms = [relaxed_optimum(5.0, normalize(reference_params(-150.0).with_gc(
            float(gc)))).M - 1 for gc in gains]
        slope = np.polyfit(np.log(gains), np.log(ms), 1)[0]
        assert -0.52 <= slope <= -0.48


def _watt_form_satisfied(R, p):
    """The regime inequalities with both gain rows written in watts."""
    th = normalize(p)
    rate_lhs = R * th.rho_d + 2.0 * math.sqrt(
        th.alpha * th.rho * (2.0 ** R - 1.0))
    gain_lhs = 2.0 * math.sqrt(p.N0 * p.B / p.Gc) * math.sqrt(
        p.alpha * (2.0 ** R - 1.0) * p.per_antenna_power)
    checks = (
        ("small-R", rate_lhs * 10 < th.rho),
        ("large-Gc", gain_lhs * 10 < p.per_antenna_power),
        ("small-Gc", gain_lhs > 10 * (p.per_antenna_power
                                      + R * p.B * p.P_dec + p.P_C)),
        ("large-R", rate_lhs > 10 * (th.rho + th.rho_c)),
    )
    return tuple(name for name, holds in checks if holds)


def _random_hardware(n, seed):
    """(R, params) draws, log-uniform over several decades per parameter."""
    rng = np.random.default_rng(seed)

    def u(lo, hi):
        return float(10.0 ** rng.uniform(lo, hi))

    return [(u(-3, 1.5), SystemParams(
        B=u(5, 8), N0=u(-21, -19), Gc=u(-18, -7),
        alpha=float(rng.uniform(1, 5)), P_BS=u(-3, 0), P_UT=u(-3, 0),
        P_OSC=u(-2, 1), P_s=u(-1, 1.5), P_dec=u(-12, -7), C0=u(-11, -8)))
        for _ in range(n)]


POINT_SETS = {
    "gc-sweep": [(5.0, reference_params(-180.0 + 0.5 * i))
                 for i in range(161)],
    "R-grid": [(0.25 * k, reference_params(-150.0)) for k in range(1, 61)],
    "random-hardware": _random_hardware(300, seed=0),
}


class TestClassify:
    def test_tiny_rate_is_small_r(self):
        p = reference_params(-150.0)
        assert classify(1e-5, p) == "small-R"
        assert small_r_approx(1e-5, normalize(p))[1] == 1.0

    def test_large_gain(self):
        # rho/pa is ~2.8 at -100 dB, short of the 10x dominance, so the point
        # is transitional; at -85 dB the large-Gc inequality holds
        assert classify(5.0, reference_params(-100.0)) == "transitional"
        assert classify(5.0, reference_params(-85.0)) == "large-Gc"

    def test_small_gain(self):
        p = reference_params(-170.0)
        assert classify(5.0, p) == "small-Gc"
        assert small_gc_approx(5.0, p)[1] > 100

    def test_large_rate(self):
        # load-dependent draw inflated so the rate inequality holds while
        # the gain inequality does not
        p = reference_params(-150.0)
        assert classify(25.0, p) in ("large-R", "small-Gc")

    @pytest.mark.parametrize("R", [-1.0, 0.0, math.nan, 150.0, 3000.0])
    def test_rejects_rate_outside_range(self, R):
        # formerly a math domain error at -1, an OverflowError at 3000 and a
        # report full of NaN at nan
        with pytest.raises(CapacityError, match="outside the valid range"):
            classify(R, reference_params(-150.0))

    def test_boundary_is_transitional(self):
        # alpha = 1, R = 1, P_BS = 400 gives rho = 400 and every lhs = 40, so
        # lhs * 10 equals rhs exactly and the strict comparisons all fail
        p = SystemParams(B=1.0, N0=1.0, Gc=1.0, alpha=1.0, P_BS=400.0)
        assert normalize(p).rho == 400.0
        assert 2.0 * relaxed_pa_power(1.0, normalize(p)) == 40.0
        assert classify(1.0, p) == "transitional"

    @pytest.mark.parametrize("alpha, rho, R", [(1e10, 1e300, 5.0),
                                               (1.0, 1e-300, 1e-30)],
                             ids=["overflow", "underflow"])
    def test_pa_term_finite_when_its_product_is_not(self, alpha, rho, R):
        # alpha*rho*(2^R - 1) overflows (or underflows to 0) here, but
        # pa = 2*sqrt of it is finite and nonzero, and so is its dominance
        p = SystemParams(B=1.0, N0=1.0, Gc=1.0, alpha=alpha, P_BS=rho)
        assert normalize(p) == Theta(alpha=alpha, rho=rho, rho_c=0.0,
                                     rho_d=0.0)
        pa = 2.0 * math.sqrt(alpha) * math.sqrt(rho) * math.sqrt(pow2m1(R))
        assert 0.0 < pa < math.inf
        assert 2.0 * relaxed_pa_power(R, normalize(p)) \
            == pytest.approx(pa, rel=1e-15)
        # an infinite pa would read small-Gc at both points, a zero one
        # small-R at both
        assert classify(R, p) == ("small-R" if pa * 10 < rho else "small-Gc")

    @pytest.mark.parametrize("points", POINT_SETS.values(), ids=POINT_SETS)
    def test_theta_units_match_watt_form(self, points):
        # classify names the first inequality that holds, most specific
        # first, or "transitional"
        assert [classify(R, p) for R, p in points] \
            == [(_watt_form_satisfied(R, p) or ("transitional",))[0]
                for R, p in points]

    def test_random_hardware_reaches_every_regime(self):
        labels = {_watt_form_satisfied(R, p)
                  for R, p in POINT_SETS["random-hardware"]}
        assert {name for sat in labels for name in sat} \
            == {"small-R", "large-Gc", "small-Gc", "large-R"}
        assert () in labels

    def test_small_r_point_has_near_unit_antenna_count(self):
        p = reference_params(-150.0)
        assert classify(1e-5, p) == "small-R"
        assert relaxed_optimum(1e-5, normalize(p)).M < 1.5

    def test_small_gc_point_has_pa_dominance(self):
        p = reference_params(-170.0)
        assert classify(5.0, p) == "small-Gc"
        assert relaxed_f_pa(p, 5.0) > 0.4
