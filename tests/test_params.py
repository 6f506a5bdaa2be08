import functools
import math
import re
import sys
from dataclasses import astuple

import pytest
from hypothesis import example, given, settings, strategies as st

from mimo_ee import optimizer
from mimo_ee.capacity import CapacityError
from mimo_ee.optimizer import relaxed_optimum, with_units
from mimo_ee.params import ParameterError, SystemParams, Theta, normalize

from conftest import (
    REFERENCE_KW,
    reference_params,
    relaxed_f_pa,
    relaxed_pa_share,
)


def unit_params(**overrides):
    base = dict(B=1.0, N0=1.0, Gc=1.0, alpha=1.0)
    base.update(overrides)
    return SystemParams(**base)


def unit_theta(**overrides):
    base = dict(alpha=1.0, rho=1.0, rho_c=0.0, rho_d=0.0)
    base.update(overrides)
    return Theta(**base)


# field -> (an out-of-range value, its message), for each checked record
RANGE_MESSAGES = {
    unit_params: {
        "B": (0.0, "B must be > 0"),
        "N0": (-1.0, "N0 must be > 0"),
        "Gc": (0.0, "Gc must be > 0"),
        "alpha": (0.99, "alpha must be >= 1"),
        "P_BS": (-0.1, "P_BS must be >= 0"),
        "P_UT": (-1.0, "P_UT must be >= 0"),
        "P_OSC": (-1.0, "P_OSC must be >= 0"),
        "P_s": (-1.0, "P_s must be >= 0"),
        "P_dec": (-1e-9, "P_dec must be >= 0"),
        "C0": (-1e-12, "C0 must be >= 0"),
    },
    unit_theta: {
        "alpha": (0.5, "alpha must be >= 1"),
        "rho": (0.0, "rho must be > 0"),
        "rho_c": (-1.0, "rho_c must be >= 0"),
        "rho_d": (-1e-300, "rho_d must be >= 0"),
    },
}


def _message_cases():
    """(make, message) for every checked field set to nan, inf and a value
    out of range, the other fields valid."""
    for make, fields in RANGE_MESSAGES.items():
        record = make.__name__.removeprefix("unit_")
        for name, (bad, message) in fields.items():
            for value, text in ((math.nan, f"{name} must be finite, got nan"),
                                (math.inf, f"{name} must be finite, got inf"),
                                (bad, message)):
                yield pytest.param(functools.partial(make, **{name: value}),
                                   text, id=f"{record}-{name}-{value!r}")


class TestNormalize:
    def test_unit_normalization(self):
        th = normalize(unit_params(P_BS=1.0))
        assert (th.alpha, th.rho, th.rho_c, th.rho_d) == (1.0, 1.0, 0.0, 0.0)

    def test_computed_once_per_instance(self):
        p = reference_params(-150.0)
        assert normalize(p) is normalize(p)
        # the cached Theta takes no part in equality or hashing
        assert p == reference_params(-150.0)
        assert hash(p) == hash(reference_params(-150.0))
        assert normalize(p) == normalize(reference_params(-150.0))

    def test_reference_set_rho(self):
        # frozen from an independent desk evaluation of the ratio formulas
        th = normalize(reference_params(-150.0))
        assert th.rho == pytest.approx(0.0256212416014, rel=1e-9)
        assert th.rho_c == pytest.approx(1.78343936637, rel=1e-9)
        assert th.rho_d == pytest.approx(2.888669396236e-4, rel=1e-9)
        assert th.alpha == pytest.approx(1 / 0.39, rel=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_consistency_in_gc(self, c):
        p = reference_params(-150.0)
        th = normalize(p)
        th_scaled = normalize(p.with_gc(p.Gc * c))
        assert th_scaled.rho == pytest.approx(th.rho * c, rel=1e-12)
        assert th_scaled.rho_c == pytest.approx(th.rho_c * c, rel=1e-12)
        assert th_scaled.rho_d == pytest.approx(th.rho_d * c, rel=1e-12)

    @given(st.floats(min_value=5e-324, allow_infinity=False))
    def test_with_gc_is_the_direct_record(self, gc):
        # a Gc sweep's copy, made after self's Theta is cached, is the
        # record built directly: equal, hashed alike, same Theta bits
        p = reference_params(-150.0)
        normalize(p)
        copy = p.with_gc(gc)
        direct = SystemParams(Gc=gc, **REFERENCE_KW)
        assert copy == direct and hash(copy) == hash(direct)
        try:
            want = [x.hex() for x in astuple(normalize(direct))]
        except ParameterError as exc:
            with pytest.raises(ParameterError, match=re.escape(str(exc))):
                normalize(copy)
        else:
            assert [x.hex() for x in astuple(normalize(copy))] == want

    @pytest.mark.parametrize("gc, message", [
        (0.0, "Gc must be > 0"), (-1.0, "Gc must be > 0"),
        (math.nan, "Gc must be finite, got nan"),
        (math.inf, "Gc must be finite, got inf")])
    def test_with_gc_rejects_as_the_constructor(self, gc, message):
        p = reference_params(-150.0)
        normalize(p)
        with pytest.raises(ParameterError) as info:
            p.with_gc(gc)
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", [
        dict(B=0.0), dict(B=-1.0), dict(N0=0.0), dict(Gc=0.0),
        dict(alpha=0.9), dict(B=math.inf), dict(Gc=math.nan),
        dict(P_BS=-0.1), dict(P_dec=-1e-9),
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ParameterError):
            unit_params(**bad)

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: unit_params(B=math.inf),
                     "B must be finite, got inf", id="finite"),
        pytest.param(lambda: unit_params(P_dec=-1e-9), "P_dec must be >= 0",
                     id="non-negative"),
        pytest.param(lambda: Theta(alpha=1.0, rho=math.nan, rho_c=0.0,
                                   rho_d=0.0),
                     "rho must be finite, got nan", id="theta-finite"),
        *_message_cases(),
    ])
    def test_error_message_names_the_value(self, make, message):
        # messages are formatted only when a check fails
        with pytest.raises(ParameterError) as info:
            make()
        assert str(info.value) == message

    @pytest.mark.parametrize("overrides, message", [
        (dict(P_BS=0.0), "per-antenna power P_BS + 2*C0*B must be > 0"),
        (dict(C0=1e308, B=1e6),
         "per-antenna power P_BS + 2*C0*B must be finite, got inf"),
        (dict(N0=1e-320, B=1e-10),
         "noise power N0*B underflows to 0 (N0 = 1e-320, B = 1e-10)"),
        (dict(N0=1e308, B=1e6), "noise power N0*B overflows a float, so "
         "Gc/(N0*B) is 0 (Gc_dB = 0, N0 = 1e+308, B = 1000000.0)"),
        (dict(Gc=5e-324, N0=1e10), "Gc/(N0*B)*(P_BS + 2*C0*B) underflows to "
         "0 (Gc/(N0*B) = 0, P_BS + 2*C0*B = 1; Gc_dB = -3233.06, N0 = "
         "10000000000.0, B = 1.0)"),
        (dict(Gc=1e300, N0=1e-300), "Theta overflows: Gc/(N0*B) = inf times "
         "the power draws (Gc_dB = 3000)"),
    ], ids=["no-draw", "infinite-draw", "noise-underflow", "noise-overflow",
            "rho-underflow", "theta-overflow"])
    def test_theta_fault_messages(self, overrides, message):
        # a valid Theta skips the named checks; each fault still gets its
        # own message, the first in the checks' order
        with pytest.raises(ParameterError) as info:
            normalize(unit_params(**{"P_BS": 1.0, **overrides}))
        assert str(info.value) == message

    def test_derived_p_c(self):
        p = reference_params()
        assert p.P_C == pytest.approx(7.1, rel=1e-12)


def watt_total(p, M, R, P_T):
    """The paper's total power in watts, term by term."""
    return (M * (p.P_BS + 2 * p.C0 * p.B) + p.P_UT + p.P_OSC + p.P_s
            + R * p.B * p.P_dec + p.alpha * P_T)


def with_units_at(p, M, R, P_T):
    """with_units on the Theta-unit answer (M, gamma, zeta) for P_T watts."""
    gamma = P_T * p.Gc / (p.N0 * p.B)
    return with_units(optimizer._result(M, gamma, R, normalize(p)), p, R)


class TestTotalPower:
    # with_units reads eta and the PA share off Theta units; these tests
    # rebuild both from the total power in watts

    def test_no_radiated_power(self):
        p = reference_params()
        r = with_units_at(p, M=1, R=5.0, P_T=0.0)
        assert r.eta == pytest.approx(5.0 * p.B / watt_total(p, 1, 5.0, 0.0),
                                      rel=1e-12)
        assert r.f_pa == 0.0

    def test_reference_point_term_by_term(self):
        # desk evaluation: M=1, R=5, P_T=1 W
        p = reference_params()
        total = 0.102 + 7.1 + 5.75e-3 + 1 / 0.39
        r = with_units_at(p, M=1, R=5.0, P_T=1.0)
        assert r.eta == pytest.approx(5e6 / total, rel=1e-12)
        assert r.f_pa == pytest.approx(1 / 0.39 / total, rel=1e-12)

    def test_doubling_m_doubles_only_antenna_terms(self):
        # total = R*B/eta and PA power = f_pa*total; going from 8 to 16
        # antennas adds 8*(P_BS + 2*C0*B) and leaves the PA draw alone
        p = reference_params()
        a = with_units_at(p, M=8, R=5.0, P_T=2.0)
        b = with_units_at(p, M=16, R=5.0, P_T=2.0)
        total_a = 5.0 * p.B / a.eta
        total_b = 5.0 * p.B / b.eta
        assert total_b - total_a == pytest.approx(
            8 * (p.P_BS + 2 * p.C0 * p.B), rel=1e-12)
        assert b.f_pa * total_b == pytest.approx(a.f_pa * total_a, rel=1e-12)

    def test_total_is_sum_of_components(self):
        p = reference_params()
        M, R, P_T = 37, 3.7, 0.42
        s = (M * p.P_BS + p.P_UT + p.P_OSC + 2 * M * p.C0 * p.B + p.P_s
             + R * p.B * p.P_dec + p.alpha * P_T)
        r = with_units_at(p, M=M, R=R, P_T=P_T)
        assert R * p.B / r.eta == pytest.approx(s, rel=1e-12)
        assert r.f_pa == pytest.approx(p.alpha * P_T / s, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(p=st.builds(
               SystemParams,
               B=st.floats(1e3, 1e9),
               N0=st.floats(1e-22, 1e-17),
               Gc=st.floats(-190.0, -60.0).map(lambda db: 10 ** (db / 10)),
               alpha=st.floats(1.0, 10.0),
               P_BS=st.floats(1e-3, 10.0),
               P_UT=st.floats(0.0, 10.0),
               P_OSC=st.floats(0.0, 10.0),
               P_s=st.floats(0.0, 10.0),
               P_dec=st.floats(0.0, 1e-8),
               C0=st.floats(0.0, 1e-8)),
           M=st.floats(1.0, 1e5),
           R=st.floats(0.01, 20.0),
           gamma=st.floats(0.0, 1e6))
    @example(p=SystemParams(B=1e3, N0=1e-22, Gc=1e-6, alpha=1.0, P_BS=4.5),
             M=89189.0, R=0.015625, gamma=3.970032589507398e-292)
    def test_with_units_matches_watt_total(self, p, M, R, gamma):
        # eta = R*B/P_total and f_pa = alpha*P_T/P_total. A positive PA
        # share below the smallest normal float has lost digits, so
        # with_units raises there; within 1e-12 of it either outcome holds
        P_T = gamma * p.N0 * p.B / p.Gc
        total = watt_total(p, M, R, P_T)
        share = p.alpha * P_T / total
        if P_T > 0 and share < sys.float_info.min * (1 - 1e-12):
            with pytest.raises(CapacityError, match="the PA share underflows"):
                with_units_at(p, M, R, P_T)
            return
        try:
            r = with_units_at(p, M, R, P_T)
        except CapacityError:
            assert share < sys.float_info.min * (1 + 1e-12)
            return
        assert r.eta == pytest.approx(R * p.B / total, rel=1e-12, abs=0)
        assert r.f_pa == pytest.approx(share, rel=1e-12, abs=0)


class TestPaFraction:
    def test_small_gain_limit_is_half(self):
        p = reference_params().with_gc(1e-40)
        assert relaxed_f_pa(p, 5.0) == pytest.approx(0.5, abs=1e-9)

    def test_small_rate_limit_is_zero(self):
        p = reference_params(-150.0)
        assert relaxed_f_pa(p, 1e-12) == pytest.approx(0.0, abs=1e-6)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(CapacityError):
            relaxed_f_pa(reference_params(), 0.0)

    def test_strictly_below_half_and_monotone(self):
        p = reference_params(-150.0)
        rates = [0.1, 0.5, 1, 2, 5, 10, 20]
        vals = [relaxed_f_pa(p, r) for r in rates]
        assert all(0 < v < 0.5 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        gains = [1e-18, 1e-16, 1e-14, 1e-12, 1e-10]
        vals = [relaxed_f_pa(p.with_gc(g), 5.0) for g in gains]
        assert all(0 < v < 0.5 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("gc_db", [-170, -150, -130, -110])
    def test_consistent_with_breakdown_route(self, gc_db):
        # rebuild f_pa in watts from the near-optimal antenna count and the
        # closed-form SNR; must agree with the relaxed answer's f_pa
        p = reference_params(gc_db)
        R = 5.0
        m = 1.0 + math.sqrt(p.N0 * p.B / p.Gc) * math.sqrt(
            p.alpha * (2.0 ** R - 1.0) / p.per_antenna_power)
        gamma = (2.0 ** R - 1.0) / (m - 1.0)
        p_t = gamma * p.N0 * p.B / p.Gc
        f_pa = p.alpha * p_t / watt_total(p, m, R, p_t)
        assert f_pa == pytest.approx(relaxed_f_pa(p, R), rel=1e-9)

    @pytest.mark.parametrize("gc_db", [-170, -150, -110, 0, 200, 230])
    def test_relaxed_answer_matches_closed_form(self, gc_db):
        # the relaxed SNR comes from the PA draw, not from M' - 1, which
        # cancels as M' nears 1 at large gain
        p = reference_params(gc_db)
        r = with_units(relaxed_optimum(5.0, normalize(p)), p, 5.0)
        assert r.f_pa == pytest.approx(relaxed_pa_share(p, 5.0),
                                       rel=1e-12, abs=0)
