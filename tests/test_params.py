import math

import pytest
from hypothesis import given, strategies as st

from mimo_ee.params import (
    ParameterError,
    SystemParams,
    Theta,
    normalize,
    pa_fraction_closed_form,
    total_power,
)

from conftest import reference_params


def unit_params(**overrides):
    base = dict(B=1.0, N0=1.0, Gc=1.0, alpha=1.0)
    base.update(overrides)
    return SystemParams(**base)


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

    @pytest.mark.parametrize("bad", [
        dict(B=0.0), dict(B=-1.0), dict(N0=0.0), dict(Gc=0.0),
        dict(alpha=0.9), dict(B=math.inf), dict(Gc=math.nan),
        dict(P_BS=-0.1), dict(P_dec=-1e-9),
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ParameterError):
            unit_params(**bad)

    @pytest.mark.parametrize("make, message", [
        (lambda: unit_params(B=math.inf), "B must be finite, got inf"),
        (lambda: unit_params(P_dec=-1e-9), "P_dec must be >= 0"),
        (lambda: Theta(alpha=1.0, rho=math.nan, rho_c=0.0, rho_d=0.0),
         "rho must be finite, got nan"),
    ], ids=["finite", "non-negative", "theta-finite"])
    def test_error_message_names_the_value(self, make, message):
        # messages are formatted only when a check fails
        with pytest.raises(ParameterError) as info:
            make()
        assert str(info.value) == message

    def test_derived_p_c(self):
        p = reference_params()
        assert p.P_C == pytest.approx(7.1, rel=1e-12)


class TestTotalPower:
    def test_no_radiated_power(self):
        p = reference_params()
        bd = total_power(p, M=1, R=0.0, P_T=0.0)
        assert bd.total == pytest.approx(p.P_BS + 2 * p.C0 * p.B + p.P_C,
                                         rel=1e-12)
        assert bd.f_pa == 0.0

    def test_reference_point_term_by_term(self):
        # desk evaluation: M=1, R=5, P_T=1 W
        p = reference_params()
        bd = total_power(p, M=1, R=5.0, P_T=1.0)
        assert bd.p_rf_bs + bd.p_lp == pytest.approx(0.102, rel=1e-12)
        assert bd.p_rf_fixed + bd.p_fixed == pytest.approx(7.1, rel=1e-12)
        assert bd.p_load == pytest.approx(5.75e-3, rel=1e-12)
        assert bd.p_pa == pytest.approx(1 / 0.39, rel=1e-12)
        assert bd.total == pytest.approx(0.102 + 7.1 + 5.75e-3 + 1 / 0.39,
                                         rel=1e-12)

    def test_doubling_m_doubles_only_antenna_terms(self):
        p = reference_params()
        a = total_power(p, M=8, R=5.0, P_T=2.0)
        b = total_power(p, M=16, R=5.0, P_T=2.0)
        assert b.p_rf_bs + b.p_lp == pytest.approx(2 * (a.p_rf_bs + a.p_lp),
                                                   rel=1e-12)
        for field in ("p_rf_fixed", "p_fixed", "p_load", "p_pa"):
            assert getattr(b, field) == getattr(a, field)

    def test_total_is_sum_of_components(self):
        p = reference_params()
        bd = total_power(p, M=37, R=3.7, P_T=0.42)
        s = (bd.p_rf_bs + bd.p_rf_fixed + bd.p_lp + bd.p_fixed + bd.p_load
             + bd.p_pa)
        assert bd.total == pytest.approx(s, rel=1e-12)
        assert bd.f_pa == pytest.approx(bd.p_pa / bd.total, rel=1e-12)

    def test_rejects_negative_inputs(self):
        p = reference_params()
        with pytest.raises(ParameterError):
            total_power(p, M=0, R=1.0, P_T=0.0)
        with pytest.raises(ParameterError):
            total_power(p, M=1, R=-1.0, P_T=0.0)
        with pytest.raises(ParameterError):
            total_power(p, M=1, R=1.0, P_T=-0.5)


class TestPaFraction:
    def test_small_gain_limit_is_half(self):
        p = reference_params().with_gc(1e-40)
        assert pa_fraction_closed_form(p, 5.0) == pytest.approx(0.5, abs=1e-9)

    def test_small_rate_limit_is_zero(self):
        p = reference_params(-150.0)
        assert pa_fraction_closed_form(p, 1e-12) == pytest.approx(0.0, abs=1e-6)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ParameterError):
            pa_fraction_closed_form(reference_params(), 0.0)

    def test_strictly_below_half_and_monotone(self):
        p = reference_params(-150.0)
        rates = [0.1, 0.5, 1, 2, 5, 10, 20]
        vals = [pa_fraction_closed_form(p, r) for r in rates]
        assert all(0 < v < 0.5 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        gains = [1e-18, 1e-16, 1e-14, 1e-12, 1e-10]
        vals = [pa_fraction_closed_form(p.with_gc(g), 5.0) for g in gains]
        assert all(0 < v < 0.5 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("gc_db", [-170, -150, -130, -110])
    def test_consistent_with_breakdown_route(self, gc_db):
        # rebuild f_pa from the near-optimal antenna count and the
        # closed-form SNR; must agree with the one-line formula
        p = reference_params(gc_db)
        R = 5.0
        m = 1.0 + math.sqrt(p.N0 * p.B / p.Gc) * math.sqrt(
            p.alpha * (2.0 ** R - 1.0) / p.per_antenna_power)
        gamma = (2.0 ** R - 1.0) / (m - 1.0)
        p_t = gamma * p.N0 * p.B / p.Gc
        bd = total_power(p, M=m, R=R, P_T=p_t)
        assert bd.f_pa == pytest.approx(pa_fraction_closed_form(p, R),
                                        rel=1e-9)
