import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import minimize_scalar

from mimo_ee import capacity, optimizer
from mimo_ee.capacity import (
    DEFAULT_CONFIG,
    M_MAX,
    CapacityError,
    EstimatorConfig,
    invert_capacity,
    pow2m1,
)
from mimo_ee.optimizer import (
    optimize_bound,
    optimize_exact,
    relaxed_antenna_count,
    relaxed_optimum,
    with_units,
    zeta_bound,
    zeta_exact,
)
from mimo_ee.params import Theta, normalize

from conftest import reference_params

THETA_150 = normalize(reference_params(-150.0))


@pytest.fixture
def gamma0_reads(monkeypatch):
    """The counts, in order, at which the optimizer reads gamma0."""
    read, reads = optimizer.gamma0, []
    monkeypatch.setattr(optimizer, "gamma0",
                        lambda M, *args: reads.append(M) or read(M, *args))
    return reads


def inv_zeta_bound(m, R, th):
    return th.rho_d + (m * th.rho + th.rho_c) / R \
        + th.alpha / R * (2.0 ** R - 1.0) / (m - 1.0)


theta_strategy = st.builds(
    Theta,
    alpha=st.floats(min_value=1.0, max_value=20.0),
    rho=st.floats(min_value=1e-6, max_value=1e3),
    rho_c=st.floats(min_value=0.0, max_value=1e4),
    rho_d=st.floats(min_value=0.0, max_value=10.0),
)


class TestZetaObjectives:
    @pytest.mark.parametrize("M", [2, 4, 16, 64])
    def test_exact_dominates_bound(self, M):
        ze = zeta_exact(M, 5.0, THETA_150)
        zb = zeta_bound(M, 5.0, THETA_150)
        assert ze.zeta >= zb.zeta

    def test_pa_only_objective(self):
        # negligible circuit terms: zeta reduces to R/(alpha*gamma0)
        th = Theta(alpha=3.0, rho=1e-15, rho_c=0.0, rho_d=0.0)
        R = 4.0
        r = zeta_exact(8, R, th)
        gamma0 = invert_capacity(8, R).gamma
        assert r.zeta == pytest.approx(R / (3.0 * gamma0), rel=1e-9)

    def test_inverse_identity(self):
        r = zeta_exact(16, 5.0, THETA_150)
        th = THETA_150
        inv = th.rho_d + (r.M * th.rho + th.rho_c) / 5.0 \
            + th.alpha * r.gamma / 5.0
        assert 1.0 / r.zeta == pytest.approx(inv, rel=1e-12)

    def test_bound_closed_form_value(self):
        # rho_d = rho_c = 0, rho = alpha, R = 1: 1/zeta1 = alpha*(M + 1/(M-1))
        th = Theta(alpha=2.0, rho=2.0, rho_c=0.0, rho_d=0.0)
        for m in (2, 3, 10):
            r = zeta_bound(m, 1.0, th)
            assert 1.0 / r.zeta == pytest.approx(2.0 * (m + 1.0 / (m - 1)),
                                                 rel=1e-12)
        # exhaustive scan: integer minimum at M = 2
        vals = {m: 1.0 / zeta_bound(m, 1.0, th).zeta for m in range(2, 101)}
        assert min(vals, key=vals.get) == 2

    def test_bound_rejects_single_antenna(self):
        with pytest.raises(CapacityError):
            zeta_bound(1, 5.0, THETA_150)

    @pytest.mark.parametrize("M", [2.7, 2.0, math.nan])
    def test_non_integer_antenna_count_rejected(self, M):
        # int(M) used to evaluate M = 2.7 as 2; a float 2.0 must not reach a
        # cached M = 2 either
        zeta_exact(2, 5.0, THETA_150)
        with pytest.raises(CapacityError, match="integer"):
            zeta_exact(M, 5.0, THETA_150)
        with pytest.raises(CapacityError, match="integer"):
            zeta_bound(M, 5.0, THETA_150)

    def test_numpy_integer_antenna_count_accepted(self):
        assert zeta_exact(np.int64(16), 5.0, THETA_150).zeta \
            == zeta_exact(16, 5.0, THETA_150).zeta
        assert zeta_bound(np.int64(16), 5.0, THETA_150).zeta \
            == zeta_bound(16, 5.0, THETA_150).zeta

    def test_bound_vanishes_at_large_m(self):
        assert zeta_bound(10 ** 6, 5.0, THETA_150).zeta < 1e-3

    def test_exact_matches_monte_carlo_pipeline(self):
        # independent route: Monte Carlo capacity inversion with common
        # random numbers instead of quadrature
        cfg = EstimatorConfig(method="monte-carlo", mc_samples=10 ** 6,
                              seed=11)
        quad = zeta_exact(64, 5.0, THETA_150)
        mc = zeta_exact(64, 5.0, THETA_150, config=cfg)
        assert mc.gamma == pytest.approx(quad.gamma, rel=0.01)
        assert mc.zeta == pytest.approx(quad.zeta, rel=0.01)

    def test_unnormalization_identity(self):
        p = reference_params(-150.0)
        r = with_units(zeta_exact(16, 5.0, normalize(p)), p, 5.0)
        assert r.eta == pytest.approx(r.zeta * p.Gc / p.N0, rel=1e-12)


class TestRelaxedOptimum:
    def test_reference_point_desk_values(self):
        r = relaxed_optimum(5.0, THETA_150)
        assert r.M == pytest.approx(56.7, abs=0.05)
        assert r.zeta == pytest.approx(1.072, abs=0.002)

    def test_reference_point_unnormalized(self):
        p = reference_params(-150.0)
        r = with_units(relaxed_optimum(5.0, THETA_150), p, 5.0)
        assert r.eta == pytest.approx(2.692e5, rel=2e-3)

    def test_unit_ratio_gives_m_two(self):
        th = Theta(alpha=2.0, rho=2.0, rho_c=0.0, rho_d=0.0)
        assert relaxed_optimum(1.0, th).M == pytest.approx(2.0, rel=1e-12)

    def test_small_rate_limit(self):
        assert relaxed_optimum(1e-9, THETA_150).M == pytest.approx(1.0,
                                                                   abs=1e-3)

    def test_rate_below_roundoff(self):
        # 2.0**R - 1 would round to 0 here; M' - 1 ~ 3e-8 keeps only about
        # 8 digits, so the SNR must not be divided by it
        R, th = 1e-17, THETA_150
        e = math.expm1(R * math.log(2.0))
        s = math.sqrt(th.alpha * th.rho * e)
        r = relaxed_optimum(R, th)
        assert r.M == 1.0 + math.sqrt(th.alpha / th.rho * e)
        assert r.gamma == pytest.approx(math.sqrt(th.rho * e / th.alpha),
                                        rel=1e-14)
        assert r.zeta == pytest.approx(
            R / (th.rho + th.rho_c + R * th.rho_d + 2.0 * s), rel=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(theta_strategy, st.floats(min_value=0.1, max_value=15.0))
    def test_matches_golden_section_search(self, th, R):
        r = relaxed_optimum(R, th)
        res = minimize_scalar(lambda m: inv_zeta_bound(m, R, th),
                              bounds=(1.0 + 1e-9, 10.0 * r.M + 10.0),
                              method="bounded",
                              options={"xatol": 1e-9 * r.M, "maxiter": 500})
        # a numerical search cannot localize the minimizer beyond the
        # roundoff/curvature limit sqrt(eps * |f| / f''), so compare within it
        localization = (r.M - 1.0) ** 1.5 * math.sqrt(
            8 * np.finfo(float).eps * abs(res.fun) * R
            / (th.alpha * (2.0 ** R - 1.0)))
        assert abs(r.M - res.x) <= max(1e-6 * r.M, localization)
        assert 1.0 / r.zeta == pytest.approx(res.fun, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(theta_strategy, st.floats(min_value=0.1, max_value=15.0))
    def test_stationary_point(self, th, R):
        m = relaxed_antenna_count(R, th)
        h = 1e-4 * (m - 1)  # curvature scale is set by M - 1
        d = (inv_zeta_bound(m + h, R, th)
             - inv_zeta_bound(m - h, R, th)) / (2 * h)
        # roundoff floor: differencing a function of this magnitude at step h
        # cannot resolve slopes below ~eps * |f| / h
        noise = 16 * np.finfo(float).eps * inv_zeta_bound(m, R, th) / h
        assert abs(d) <= 1e-6 * th.rho / R + noise


class TestOptimizeBound:
    @settings(max_examples=100, deadline=None)
    @given(theta_strategy, st.floats(min_value=0.1, max_value=15.0))
    def test_near_relaxed_and_convex(self, th, R):
        m_real = relaxed_antenna_count(R, th)
        r = optimize_bound(R, th)
        assert abs(r.M - m_real) < 1.0 or (m_real < 2 and r.M == 2)
        # discrete convexity of the inverse objective
        for m in range(2, 30):
            d2 = (inv_zeta_bound(m + 1, R, th)
                  - 2 * inv_zeta_bound(m, R, th)
                  + inv_zeta_bound(m - 1, R, th)) if m >= 3 else None
            if d2 is not None:
                assert d2 > 0

    @settings(max_examples=15, deadline=None)
    @given(theta_strategy, st.floats(min_value=0.5, max_value=12.0))
    def test_agrees_with_exhaustive_scan(self, th, R):
        r = optimize_bound(R, th)
        ms = np.arange(2, max(int(2 * r.M) + 10, 100))
        scan = int(ms[np.argmin(inv_zeta_bound(ms, R, th))])
        assert r.M == scan or math.isclose(inv_zeta_bound(r.M, R, th),
                                           inv_zeta_bound(scan, R, th),
                                           rel_tol=1e-12)

    def test_tie_breaks_toward_smaller_m(self):
        # alpha/rho and R chosen so the continuous optimum sits exactly
        # between two integers: M' = 3.5 -> 1/zeta equal at 3 and 4
        # requires 2.5^2 = (alpha/rho)(2^R - 1) with symmetric objective;
        # instead construct equality directly and check the <= comparison
        th = Theta(alpha=1.0, rho=1.0 / 6.0, rho_c=0.0, rho_d=0.0)
        # 1/zeta1 = (M/6 + 1/(M-1))/R: equal at M = 3 and M = 4 for R = 1
        a = inv_zeta_bound(3, 1.0, th)
        b = inv_zeta_bound(4, 1.0, th)
        assert a == pytest.approx(b, rel=1e-12)
        assert optimize_bound(1.0, th).M == 3

    def test_root_where_four_k_overflows(self):
        # k = (alpha/rho)(2^5 - 1) = 1e308 is finite but 1 + 4k is not; the
        # root (1 + sqrt(1 + 4k))/2 once raised OverflowError at ceil(inf)
        th = Theta(alpha=1.0, rho=31.0 / 1e308, rho_c=0.0, rho_d=0.0)
        r = optimize_bound(5.0, th)
        assert math.isclose(r.M, 1e154, rel_tol=1e-12)
        assert math.isfinite(r.zeta) and r.zeta > 0


class TestOptimizeExact:
    def test_reference_point_close_to_relaxed(self):
        p = reference_params(-150.0)
        r = with_units(optimize_exact(5.0, THETA_150), p, 5.0)
        relaxed = with_units(relaxed_optimum(5.0, THETA_150), p, 5.0)
        assert abs(r.M - 57) <= 3
        assert r.eta == pytest.approx(relaxed.eta, rel=0.03)

    def test_single_antenna_at_large_gain(self):
        p = reference_params(-110.0)
        assert optimize_exact(5.0, normalize(p)).M == 1

    def test_exact_beats_bound_optimum(self):
        rb = optimize_bound(5.0, THETA_150)
        re = optimize_exact(5.0, THETA_150)
        assert re.zeta >= rb.zeta

    def test_exact_beats_neighbours(self):
        r = optimize_exact(5.0, THETA_150)
        for m in (int(r.M) - 1, int(r.M) + 1):
            assert zeta_exact(m, 5.0, THETA_150).zeta <= r.zeta

    @pytest.mark.parametrize("R", [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0,
                                   20.0, 40.0, 60.0])
    def test_gamma0_discretely_convex(self, R):
        # the property that makes the threshold rule's answer the optimum
        # (the drops gamma0(M) - gamma0(M + 1) fall with M), checked at 40
        # log-spaced M up to 1e7; the second difference is about 2/M^2 of
        # gamma0 there, still above roundoff
        ms = np.unique(np.geomspace(2, 1e7, 40).round().astype(int))
        assert len(ms) == 40
        for m in ms:
            g = [invert_capacity(int(k), R).gamma for k in (m - 1, m, m + 1)]
            assert g[2] - 2.0 * g[1] + g[0] > 0, m

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(min_value=1.0, max_value=20.0),
           R=st.floats(min_value=0.05, max_value=15.0),
           m_relaxed=st.floats(min_value=1.001, max_value=120.0),
           rho_c=st.floats(min_value=0.0, max_value=1e4),
           rho_d=st.floats(min_value=0.0, max_value=10.0))
    def test_matches_brute_force_argmin(self, alpha, R, m_relaxed, rho_c,
                                        rho_d):
        # rho is solved from M' so that the brute-force range stays small
        rho = alpha * (2.0 ** R - 1.0) / (m_relaxed - 1.0) ** 2
        th = Theta(alpha=alpha, rho=rho, rho_c=rho_c, rho_d=rho_d)
        r = optimize_exact(R, th)
        ms = range(1, 2 * math.ceil(relaxed_antenna_count(R, th)) + 21)
        inv = {m: 1.0 / zeta_exact(m, R, th).zeta for m in ms}
        best = min(inv, key=inv.get)
        assert r.M == best or math.isclose(inv[r.M], inv[best],
                                           rel_tol=1e-12)

    def test_reads_gamma0_at_the_stencil_only(self, gamma0_reads):
        # the answer reads gamma0 only at exact_stencil's counts, M-tilde
        # first and no count twice, and is built from a count it read. With
        # quadrature it reads once exactly where M-hat = 1, or where the
        # offset bound's least gamma0 at the other count l = g/(n - a0/2 +
        # 1/(10 n)) puts the drop Delta(M-hat - 1) beyond rho/alpha by the
        # 1e-7 margin, on M-tilde's side
        rng = np.random.default_rng(11)
        points = [(5.0, normalize(reference_params(float(gc))))
                  for gc in np.linspace(-180.0, -100.0, 161)]
        for _ in range(300):  # M* from 1 to about 1e5
            R = float(10 ** rng.uniform(-2, 1.5))
            alpha = float(rng.uniform(1, 10))
            rho = alpha * math.expm1(R * math.log(2.0)) \
                / float(10 ** rng.uniform(0, 5)) ** 2
            points.append((R, Theta(alpha=alpha, rho=rho,
                                    rho_c=float(rng.uniform(0, 10)) * rho,
                                    rho_d=float(rng.uniform(0, 1)))))
        optima, once = [], 0
        for R, th in points:
            gamma0_reads.clear()
            answer, got = optimize_exact(R, th), list(gamma0_reads)
            low, high = optimizer.exact_stencil(R, th)
            g, a0 = pow2m1(R), -math.expm1(-R * math.log(2.0))
            first = math.ceil(a0 / 2 + math.sqrt(0.25 + th.alpha / th.rho * g)
                              - 0.5) if high > 1 else 1
            assert first in (low, high)
            assert got[0] == first, (R, th)
            assert set(got) <= {low, high}
            assert len(got) == len(set(got))
            assert answer.M in got
            assert answer == zeta_exact(answer.M, R, th)
            gamma = capacity.gamma0(first, R, DEFAULT_CONFIG)
            limit = th.rho / th.alpha
            other = low if first == high else high
            least = g / (other - a0 / 2 + 0.1 / other)
            decided = high == 1 or (
                least - gamma > limit * (1 + 1e-7) if first == high
                else gamma - least <= limit * (1 - 1e-7))
            assert (len(got) == 1) == decided, (R, th)
            once += decided
            optima.append(answer.M)
        assert {1, 557} <= set(optima)
        assert max(optima) > 5e4
        assert once >= 400

    def test_monte_carlo_reads_both_counts(self, gamma0_reads):
        # the offset bound is about the exact gamma0, not a draw-based
        # estimate, so a Monte Carlo answer reads the whole stencil, M-tilde
        # (here M* = 56) first
        cfg = EstimatorConfig(method="monte-carlo", mc_samples=2000, seed=3)
        answer = optimize_exact(5.0, THETA_150, cfg)
        assert gamma0_reads == [56, 57]
        assert answer == zeta_exact(answer.M, 5.0, THETA_150, cfg)

    def test_start_above_m_max_raises_before_any_inversion(self,
                                                           monkeypatch):
        # at R = 60, M-hat is about 1e10, where gamma0(M) - gamma0(M + 1)
        # is past float resolution; M-hat is a closed form, so the error
        # comes before any inversion
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return invert_capacity(*args, **kwargs)

        monkeypatch.setattr(capacity, "invert_capacity", counting)
        capacity._GAMMA0.clear()
        with pytest.raises(CapacityError, match=r"bracket reaches M = "
                           r"1\.07\d*e\+10, above M_MAX = 1e\+06, at "
                           r"R = 60\.0"):
            optimize_exact(60.0, THETA_150)
        with pytest.raises(CapacityError, match="M_MAX"):
            optimizer.exact_stencil(60.0, THETA_150)
        assert calls == []

    @pytest.mark.parametrize("R", [0.01, 1.0, 5.0, 20.0, 60.0, 100.0])
    def test_drops_fall_strictly_at_m_max(self, R):
        # the margin behind M_MAX: over 40 consecutive M at M_MAX the drops
        # gamma0(M) - gamma0(M + 1) still fall strictly, so the threshold
        # rule's drops are resolved in float up to the largest M-hat
        g = [invert_capacity(m, R).gamma
             for m in range(M_MAX - 20, M_MAX + 21)]
        drops = [a - b for a, b in zip(g, g[1:])]
        assert len(drops) == 40
        assert all(b < a for a, b in zip(drops, drops[1:]))


class TestGammaCache:
    def test_float_antenna_count_still_rejected(self):
        # the cache is keyed on builtins, and 2.0 == 2: a float M must
        # still meet invert_capacity's check, not the cached gamma0(2)
        cfg = EstimatorConfig()
        assert zeta_exact(2, 5.0, THETA_150, cfg).gamma > 0
        with pytest.raises(CapacityError, match="positive integer"):
            zeta_exact(2.0, 5.0, THETA_150, cfg)

    def test_non_builtin_antenna_count_solved_uncached(self):
        # keys hold builtin ints: a numpy integer or a bool is solved alone,
        # to the bits the cache holds, and a float M equal to an int raises
        capacity._GAMMA0.clear()
        numpy_m = capacity.gamma0(np.int64(57), 5.0, DEFAULT_CONFIG)
        bool_m = capacity.gamma0(True, 5.0, DEFAULT_CONFIG)
        assert not capacity._GAMMA0
        assert numpy_m.hex() == capacity.gamma0(57, 5.0, DEFAULT_CONFIG).hex()
        assert bool_m.hex() == capacity.gamma0(1, 5.0, DEFAULT_CONFIG).hex()
        assert list(capacity._GAMMA0) == [(57, 5.0), (1, 5.0)]
        with pytest.raises(CapacityError, match="positive integer, got 57.0"):
            capacity.gamma0(57.0, 5.0, DEFAULT_CONFIG)

    def test_entries_shared_where_the_estimator_allows(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return invert_capacity(*args, **kwargs)

        monkeypatch.setattr(capacity, "invert_capacity", counting)
        capacity._GAMMA0.clear()
        # quadrature ignores the Monte Carlo settings, so its entries are
        # shared across them; Monte Carlo's are not
        for seed in (0, 0, 5):
            zeta_exact(7, 5.0, THETA_150, EstimatorConfig(seed=seed))
        assert len(calls) == 1
        for seed in (0, 0, 5):
            zeta_exact(7, 5.0, THETA_150, EstimatorConfig(
                method="monte-carlo", mc_samples=100, seed=seed))
        assert len(calls) == 3

    def test_bounded_oldest_first(self, monkeypatch):
        monkeypatch.setattr(capacity, "_GAMMA0_SIZE", 3)
        capacity._GAMMA0.clear()
        for m in range(1, 6):
            zeta_exact(m, 5.0, THETA_150)
        assert [key[0] for key in capacity._GAMMA0] == [3, 4, 5]

    def test_prefetch_reads_no_quadrature_pair(self):
        # the answers solve quadrature pairs alone as they need them, so a
        # quadrature sweep neither reads its stencils nor solves them
        capacity._GAMMA0.clear()

        def pairs():
            raise AssertionError("read the pairs")
            yield

        capacity.prefetch_gamma0(pairs(), EstimatorConfig())
        assert not capacity._GAMMA0

    def test_prefetch_fills_the_cache_by_monte_carlo(self, monkeypatch):
        # with two usable cores the Monte Carlo pairs are solved in one
        # threaded batch, each to the lone inversion's bits
        cfg = EstimatorConfig(method="monte-carlo", mc_samples=2000, seed=3)
        monkeypatch.setattr(capacity, "_usable_cores", lambda: 2)
        capacity._GAMMA0.clear()
        capacity.prefetch_gamma0(iter([(5, 5.0), (6, 5.0), (5, 5.0)]), cfg)
        assert list(capacity._GAMMA0) == [(5, 5.0, 2000, 3),
                                           (6, 5.0, 2000, 3)]
        lone = invert_capacity(6, 5.0, config=cfg).gamma
        # read from the cache: a lone inversion would call None
        monkeypatch.setattr(capacity, "invert_capacity", None)
        assert zeta_exact(6, 5.0, THETA_150, cfg).gamma.hex() == lone.hex()

    @pytest.mark.parametrize("gc_db", [-175.0, -150.0, -120.0, -90.0])
    def test_stencil_is_the_bracket(self, gc_db):
        # M-hat is the smallest M >= 1 whose model drop g/((M - c)(M + 1 -
        # c)), c = (1 + a0)/2, a0 = 1 - 2^-R, is at most rho/alpha, and the
        # stencil is (max(M-hat - 1, 1), M-hat): (1, 1) at M-hat = 1 (-90 dB)
        th = normalize(reference_params(gc_db))
        k = th.alpha / th.rho * (2.0 ** 5 - 1.0)
        c = (1.0 + (1.0 - 2.0 ** -5)) / 2
        m_hat = next(m for m in range(1, 10 ** 4)
                     if (m - c) * (m + 1 - c) >= k)
        stencil = optimizer.exact_stencil(5.0, th)
        assert stencil == (max(m_hat - 1, 1), m_hat)
        assert optimize_exact(5.0, th).M in stencil


def bound_by_floor_ceil(R, th):
    """The former optimize_bound: the better of floor and ceil of M'."""
    m_real = relaxed_antenna_count(R, th)
    candidates = sorted({max(2, math.floor(m_real)),
                         max(2, math.ceil(m_real))})
    return max((zeta_bound(m, R, th) for m in candidates),
               key=lambda r: r.zeta)  # the first maximum: the smaller M


class TestThresholdRule:
    # Adding an antenna changes R/zeta by rho - alpha*(gamma(M) - gamma(M+1)),
    # so M* is where that gain stops paying for rho: it depends on R and
    # rho/alpha only, and falls as Gc (hence rho) grows.

    @pytest.mark.parametrize("R", [0.25, 1.0, 5.0, 10.0, 15.0])
    def test_optimum_non_increasing_in_gain(self, R):
        thetas = [normalize(reference_params(float(gc)))
                  for gc in np.linspace(-180.0, -100.0, 161)]
        for solve in (optimize_exact, optimize_bound):
            ms = [solve(R, th).M for th in thetas]
            assert all(b <= a for a, b in zip(ms, ms[1:])), solve.__name__

    @pytest.mark.parametrize("gc_db", [-170.0, -150.0, -120.0, -100.0])
    def test_optimum_non_decreasing_in_rate(self, gc_db):
        # M* is the smallest M whose drop gamma0(M) - gamma0(M + 1) is at
        # most rho/alpha; the drop rises with R, so M* should never fall
        th = normalize(reference_params(gc_db))
        ms = [optimize_exact(k / 100, th).M for k in range(1, 2001)]
        assert all(b >= a for a, b in zip(ms, ms[1:]))

    def test_drop_rises_with_rate(self):
        # the drop gamma0(M; R) - gamma0(M + 1; R) rises strictly with R at
        # every M (by at least 0.85% between neighbouring rates here), so at
        # fixed rho/alpha M* never falls as R grows, and it moves from M to
        # M + 1 at the one rate where the drop equals rho/alpha
        rates = sorted(np.logspace(-2, 2, 161).tolist() + [5.0])
        ms = [*range(1, 101), 200, 557, 1000, 10 ** 4, 10 ** 5, M_MAX - 1]
        counts, drops = {*ms, *(m + 1 for m in ms)}, {m: [] for m in ms}
        for R in rates:
            gamma = {m: invert_capacity(m, R).gamma for m in counts}
            for m in ms:
                drops[m].append(gamma[m] - gamma[m + 1])
        for m in ms:
            assert all(b > a for a, b in zip(drops[m], drops[m][1:])), m

    @pytest.mark.parametrize("change", [
        {}, {"P_s": 500.0}, {"P_dec": 1e-6}, {"P_OSC": 0.0}, {"P_UT": 3.0},
        {"P_s": 500.0, "P_dec": 1e-6, "P_OSC": 0.0, "P_UT": 3.0},
    ], ids=["reference", "P_s", "P_dec", "P_OSC", "P_UT", "all"])
    def test_exact_optimum_ignores_fixed_and_rate_draws(self, change):
        for gc_db, m_star in ((-170.0, 557), (-150.0, 56), (-130.0, 6)):
            p = dataclasses.replace(reference_params(gc_db), **change)
            assert optimize_exact(5.0, normalize(p)).M == m_star, gc_db

    def test_certificate_at_random_points(self):
        # the answer's certificate D(M*) <= rho/alpha < D(M* - 1), with
        # D(M) = gamma0(M) - gamma0(M + 1), where rho_d and rho_c/R may
        # dwarf the M-dependent part of 1/zeta: a comparison of whole
        # objectives loses the decision there at float resolution
        rng = np.random.default_rng(7)

        def drop(m, R):
            return (invert_capacity(m, R).gamma
                    - invert_capacity(m + 1, R).gamma)

        checked = 0
        for _ in range(3000):
            R = float(10 ** rng.uniform(-3, 2))
            k = float(10 ** rng.uniform(-3, 12))
            alpha = float(rng.uniform(1, 10))
            rho = alpha * math.expm1(R * math.log(2.0)) / k
            th = Theta(alpha=alpha, rho=rho,
                       rho_c=float(rng.uniform(0, 10)) * rho,
                       rho_d=float(rng.uniform(0, 1)))
            try:
                m = optimize_exact(R, th).M
            except CapacityError as exc:  # M-hat above M_MAX
                assert "M_MAX" in str(exc)
                continue
            checked += 1
            assert drop(m, R) <= th.rho / th.alpha, (R, th, m)
            assert m == 1 or drop(m - 1, R) > th.rho / th.alpha, (R, th, m)
        assert checked >= 2900

    @pytest.mark.parametrize("m", [1, 2, 57, 1000])
    def test_constructed_tie_goes_to_the_smaller_count(self, m):
        # with alpha = 1 the threshold is rho itself: at rho = D(m) adding
        # antenna m + 1 gains exactly what it costs, so m wins the tie; one
        # ulp less and m + 1 pays
        R = 5.0
        d = invert_capacity(m, R).gamma - invert_capacity(m + 1, R).gamma
        tie = Theta(alpha=1.0, rho=d, rho_c=0.0, rho_d=0.0)
        below = Theta(alpha=1.0, rho=math.nextafter(d, 0.0), rho_c=0.0,
                      rho_d=0.0)
        assert optimize_exact(R, tie).M == m
        assert optimize_exact(R, below).M == m + 1

    @settings(max_examples=300, deadline=None)
    @given(theta_strategy, st.floats(min_value=0.1, max_value=15.0))
    def test_bound_closed_form_matches_floor_ceil(self, th, R):
        oracle = bound_by_floor_ceil(R, th)
        assume(oracle.M < 1e6)
        r = optimize_bound(R, th)
        # the threshold M(M - 1) >= k > (M - 1)(M - 2), up to k's rounding
        tol = 4 * np.finfo(float).eps
        k = th.alpha / th.rho * (2.0 ** R - 1.0)
        assert r.M * (r.M - 1) >= k * (1 - tol)
        assert r.M == 2 or (r.M - 1) * (r.M - 2) < k * (1 + tol)
        # the oracle agrees except where roundoff cannot order the zeta of
        # two neighbouring M (large M with a dominant rho_c)
        assert r == oracle or (abs(r.M - oracle.M) == 1 and math.isclose(
            r.zeta, oracle.zeta, rel_tol=tol))


# The bracket's checks: 81 rates from 1e-3 to 100 at M = 1...200 and 40
# log-spaced M up to M_MAX, and 2001 rates at M = 1...4, where the offset
# bound is tightest.
BRACKET_GRID = [(R, m) for R in np.geomspace(1e-3, 100.0, 81).tolist()
                for m in list(range(1, 201)) + np.unique(np.geomspace(
                    201, M_MAX, 40).round().astype(int)).tolist()] + [
    (R, m) for R in np.geomspace(1e-3, 100.0, 2001).tolist()
    for m in range(1, 5)]


class TestBracket:
    # optimize_exact's proof: the offset c(M) = M - g/gamma0(M) is within
    # K/M of a0/2, which puts each drop Delta(M) = gamma0(M) - gamma0(M + 1)
    # between the model drops D(M + 1) and D(M), D(M) = g/((M - c')(M + 1 -
    # c')), c' = (1 + a0)/2, with a margin t/M on each side (K = t = 1/10).
    # So M* is M-hat - 1 or M-hat.

    def test_offset_bound(self):
        # also 0 <= c < 1/2, which bounds Delta(1) by 3g/2
        worst = 0.0
        for R, m in BRACKET_GRID:
            g, a0 = pow2m1(R), -math.expm1(-R * math.log(2.0))
            c = m - g / capacity.gamma0(m, R, DEFAULT_CONFIG)
            assert 0.0 <= c < 0.5, (m, R)
            worst = max(worst, m * abs(c - a0 / 2))
        assert 0.08 < worst <= 0.1
        # the one constant the bracket and the one-read decision use
        assert optimizer.OFFSET_BOUND == 0.1

    def test_drops_between_model_drops(self):
        for R, m in BRACKET_GRID:
            # M - c' = M - 1 + 2^-R/2 keeps M = 1's factor where c' rounds
            # to 1
            g, q = pow2m1(R), 0.5 * 2.0 ** -R
            drop = (capacity.gamma0(m, R, DEFAULT_CONFIG)
                    - capacity.gamma0(m + 1, R, DEFAULT_CONFIG))
            upper = g / ((m - 1 + q) * (m + q))
            lower = g / ((m + q) * (m + 1 + q))
            assert (1 + 0.1 / m) * lower <= drop <= (1 - 0.1 / m) * upper, \
                (m, R)

    @pytest.mark.parametrize("seed, log_k", [(13, (-3, 10)), (29, (6, 12))])
    def test_optimum_in_the_bracket_at_random_points(self, seed, log_k):
        # the threshold rule by steps from M-hat (up while Delta(m) >
        # rho/alpha, then down while Delta(m - 1) <= rho/alpha) ends in the
        # stencil, on both of its counts, as optimize_exact answers
        rng = np.random.default_rng(seed)

        def drop(m, R):
            return (capacity.gamma0(m, R, DEFAULT_CONFIG)
                    - capacity.gamma0(m + 1, R, DEFAULT_CONFIG))

        found = {}
        for _ in range(1500):
            R = float(10 ** rng.uniform(-3, 2))
            alpha = float(rng.uniform(1, 10))
            rho = alpha * pow2m1(R) / float(10 ** rng.uniform(*log_k))
            th = Theta(alpha=alpha, rho=rho,
                       rho_c=float(rng.uniform(0, 10)) * rho,
                       rho_d=float(rng.uniform(0, 1)))
            try:
                stencil = optimizer.exact_stencil(R, th)
            except CapacityError as exc:  # M-hat above M_MAX
                assert "M_MAX" in str(exc)
                continue
            limit, m = th.rho / th.alpha, stencil[-1]
            while drop(m, R) > limit:
                m += 1
            while m > 1 and drop(m - 1, R) <= limit:
                m -= 1
            assert m in stencil, (R, th, m, stencil)
            assert optimize_exact(R, th).M == m, (R, th)
            found[stencil[-1] - m] = found.get(stencil[-1] - m, 0) + 1
        assert sum(found.values()) >= 1400
        assert min(found[0], found[1]) >= 300, found


def two_read_answer(R, th):
    """The answer from gamma0 at both of exact_stencil's counts: M-hat if
    the drop across them is above rho/alpha, else the lower count."""
    low, high = optimizer.exact_stencil(R, th)
    below = capacity.gamma0(low, R, DEFAULT_CONFIG)
    above = capacity.gamma0(high, R, DEFAULT_CONFIG)
    return zeta_exact(high if below - above > th.rho / th.alpha else low, R,
                      th)


class TestOneRead:
    # optimize_exact answers from gamma0(M-tilde) alone where the offset
    # bound already decides the bracket, and that answer must be the one
    # the two reads give

    def test_one_read_answers_match_two_reads(self, gamma0_reads):
        rng = np.random.default_rng(41)
        once = 0
        for _ in range(20000):  # M* from 1 to about 1e5
            R = float(10 ** rng.uniform(-3, 2))
            alpha = float(rng.uniform(1, 10))
            rho = alpha * pow2m1(R) / float(10 ** rng.uniform(-3, 10))
            th = Theta(alpha=alpha, rho=rho,
                       rho_c=float(rng.uniform(0, 10)) * rho,
                       rho_d=float(rng.uniform(0, 1)))
            gamma0_reads.clear()
            answer, got = optimize_exact(R, th), len(gamma0_reads)
            assert answer == two_read_answer(R, th), (R, th)
            once += got == 1
        assert once >= 18000

    @pytest.mark.parametrize("R", [0.01, 1.0, 5.0, 20.0])
    def test_near_ties_match_two_reads(self, gamma0_reads, R):
        # rho/alpha = Delta(m) (1 -+ gap) puts M* at m + 1 or m, and where
        # gap is well inside the bracket's margin of about 1/m, the decisive
        # drop Delta(M-hat - 1) is Delta(m) itself; within the 1e-7 margin
        # no bound can tell the sides apart, so the answer reads both counts
        for m in (1, 2, 3, 10, 57, 1000, 10 ** 5):
            drop = (capacity.gamma0(m, R, DEFAULT_CONFIG)
                    - capacity.gamma0(m + 1, R, DEFAULT_CONFIG))
            gaps = [gap for gap in np.logspace(-9, -5, 9).tolist()
                    if gap <= 0.1 / m]
            assert len(gaps) >= 7
            for gap in gaps:
                for side, m_star in ((-1, m + 1), (1, m)):
                    th = Theta(alpha=1.0, rho=drop * (1 + side * gap),
                               rho_c=0.0, rho_d=0.0)
                    assert optimizer.exact_stencil(R, th) == (m, m + 1)
                    gamma0_reads.clear()
                    answer, got = optimize_exact(R, th), sorted(gamma0_reads)
                    assert answer == two_read_answer(R, th), (m, gap, side)
                    assert answer.M == m_star
                    if gap < 1e-7:
                        assert got == [m, m + 1], (m, gap, side)


class TestClosedFormBracket:
    # Jensen gives gamma0(M) >= (2^R - 1)/M, and min over x > 0 of x rho +
    # alpha (2^R - 1)/x is 2s, so R/zeta* >= R/zeta' - rho with R/zeta' =
    # rho + rho_c + R rho_d + 2s; gamma0(M) <= (2^R - 1)/(M - 1) gives
    # R/zeta* <= R/zeta_bound. The exact optimum is never better than the
    # paper's closed form by more than one antenna's draw rho.

    @staticmethod
    def points():
        """(R, Theta, exact optimum) at 3000 seeded random points, less
        those whose M-hat is above M_MAX."""
        rng = np.random.default_rng(2014)
        for _ in range(3000):
            R = float(10 ** rng.uniform(-3, 2))
            alpha = float(rng.uniform(1, 10))
            m = float(10 ** rng.uniform(-3, 7))  # M' - 1
            rho = alpha * math.expm1(R * math.log(2.0)) / m ** 2
            th = Theta(alpha=alpha, rho=rho,
                       rho_c=float(rho * 10 ** rng.uniform(-6, 2)),
                       rho_d=float(rho * 10 ** rng.uniform(-6, 2)))
            try:
                exact = optimize_exact(R, th)
            except CapacityError as exc:  # M-hat above M_MAX
                assert "M_MAX" in str(exc)
                continue
            yield R, th, exact

    def test_exact_optimum_between_closed_forms(self):
        checked = 0
        for R, th, exact in self.points():
            checked += 1
            inv = R / exact.zeta
            tol = 1e-12 * inv
            assert R / relaxed_optimum(R, th).zeta - th.rho <= inv + tol, \
                (R, th)
            assert inv <= R / optimize_bound(R, th).zeta + tol, (R, th)
        assert checked >= 2000

    def test_second_order_closed_form_tracks_exact_optimum(self):
        # R/zeta'' = rho_c + R rho_d + (a0/2) rho + 2 sqrt(alpha rho g),
        # a0 = 1 - 2^-R and g = 2^R - 1, minimises the model gamma0 =
        # g/(M - a0/2) over real M. Put u = M* - a0/2, s = sqrt(alpha g/rho)
        # (the model's optimal u) and delta = c - a0/2, where gamma0(M*) =
        # g/(M* - c); then gap = (R/zeta* - R/zeta'')/rho satisfies
        #     gap u = (u - s)^2 + s^2 delta/(u - delta).
        # The first term is the integer rounding: M* is the count whose u
        # is nearest s, to O(1/M*), so it is at most 1/4. The offset bound
        # |delta| <= K/M*, K = 1/10 (TestBracket), and s ~ u keep the second
        # within about +-K. So gap u is in [-K, 1/4 + K] to O(1/M*); the
        # lower end is exact, as gamma0(M*) >= g/(u + K/M*) and x rho +
        # alpha g/x >= 2 sqrt(alpha rho g) give gap >= -K/M*. Measured at
        # the 1521 points with M* >= 10: gap u from -0.0760 to 0.2453. The
        # gap is formed from M* rho + alpha gamma0, not as a difference of
        # two R/zeta, whose digits a large rho_c cancels.
        K = 0.1
        checked = 0
        for R, th, exact in self.points():
            if exact.M < 10:
                continue
            checked += 1
            g = pow2m1(R)
            half = -0.5 * math.expm1(-R * math.log(2.0))  # a0/2
            gap = (exact.M * th.rho + th.alpha * exact.gamma
                   - half * th.rho
                   - 2.0 * math.sqrt(th.alpha * th.rho * g)) / th.rho
            assert -K <= gap * (exact.M - half) <= 0.25 + K, (R, th, exact)
        assert checked >= 1500


class TestScalingLaw:
    def test_antenna_count_grows_as_sqrt_of_snr(self):
        # in the massive regime log2(M' - 1) - R/2 is constant
        offsets = [math.log2(relaxed_antenna_count(R, THETA_150) - 1) - R / 2
                   for R in range(10, 21, 2)]
        assert max(offsets) - min(offsets) < 0.1
