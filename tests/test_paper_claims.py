"""The abstract's claims, checked on the exact (capacity-inverted) optimum.

Each test quotes the sentence it checks and evaluates it with the reference
hardware of conftest.py.
"""

import dataclasses
import math

import numpy as np
import pytest

from mimo_ee.optimizer import optimize_exact, with_units
from mimo_ee.params import normalize

from conftest import reference_params, relaxed_f_pa


def pa_elasticity(R: float, gc_db: float, h: float = 0.05) -> float:
    """d ln(eta*) / d ln(alpha) of the exact optimum, by central difference."""
    base = reference_params(gc_db)

    def log_eta(alpha: float) -> float:
        p = dataclasses.replace(base, alpha=alpha)
        return math.log(with_units(optimize_exact(R, normalize(p)), p, R).eta)

    return (log_eta(base.alpha * math.exp(h))
            - log_eta(base.alpha * math.exp(-h))) / (2.0 * h)


def test_ee_insensitive_to_pa_efficiency():
    # "for sufficiently small SE (or large Gc), the EE is insensitive to the
    # power amplifier efficiency"
    assert abs(pa_elasticity(0.01, -150.0)) < 0.02        # small SE: -0.0098
    for R in (0.01, 0.5, 1.0):                            # large Gc
        assert abs(pa_elasticity(R, -110.0)) <= 2e-4      # at most 1.8e-4
    # contrast: at R = 5, -150 dB the PA draws about a third of the power
    assert pa_elasticity(5.0, -150.0) < -0.25             # -0.307


def test_ee_rises_with_se_at_small_se():
    # "the EE increases with increasing SE when SE is sufficiently small".
    # Nearer the peak (R = 4.72, M* = 51 at -150 dB) each integer M has its
    # own peak in R and zeta* is their upper envelope, whose slope changes
    # sign three times on a 0.01 grid; so the rise is checked on a window
    # below it
    th = normalize(reference_params(-150.0))
    zetas = [optimize_exact(float(R), th).zeta
             for R in np.arange(25, 451) / 100.0]
    assert all(b > a for a, b in zip(zetas, zetas[1:]))


def test_ee_scales_as_sqrt_gain_at_small_gain():
    # "for sufficiently small Gc, the optimal EE decreases as O(sqrt(Gc))
    # with decreasing Gc": the log-log slope of eta* over a two-decade
    # window moves toward 1/2 as the window moves down (0.4663, 0.4963,
    # 0.4996 at R = 5)
    def slope(lo_exp):
        gains = np.logspace(lo_exp, lo_exp + 2, 9)
        etas = []
        for gc in gains:
            p = reference_params(-150.0).with_gc(float(gc))
            etas.append(with_units(optimize_exact(5.0, normalize(p)), p,
                                   5.0).eta)
        return float(np.polyfit(np.log(gains), np.log(etas), 1)[0])

    gaps = [0.5 - slope(lo_exp) for lo_exp in (-18, -20, -22)]
    assert 0 < gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 1e-3


@pytest.mark.parametrize("gc_db, m_star", [
    (-170.0, 557), (-150.0, 56), (-120.0, 2)])
def test_elasticities_are_the_pa_share(gc_db, m_star):
    # between breakpoints of M* the envelope theorem gives d ln eta*/d ln Gc
    # = f_pa* and d ln eta*/d ln alpha = -f_pa*, so the sqrt(Gc) law reads
    # f_pa -> 1/2 and PA insensitivity reads f_pa -> 0. -170 dB is 0.0004 dB
    # above the 557/558 breakpoint, which h = 1e-4 already crosses
    R, h = 5.0, 1e-5
    base = reference_params(gc_db)

    def answer(p):
        return with_units(optimize_exact(R, normalize(p)), p, R)

    centre = answer(base)
    assert centre.M == m_star
    for vary, sign in [(lambda t: base.with_gc(base.Gc * t), 1.0),
                       (lambda t: dataclasses.replace(
                           base, alpha=base.alpha * t), -1.0)]:
        lo, hi = answer(vary(math.exp(-h))), answer(vary(math.exp(h)))
        assert lo.M == hi.M == m_star
        slope = (math.log(hi.eta) - math.log(lo.eta)) / (2.0 * h)
        assert slope == pytest.approx(sign * centre.f_pa, rel=1e-7)


def test_criterion_7_window_holds_the_share_048_gain():
    # on the relaxed optimum d ln eta'/d ln Gc = f_pa' = s/(rho + rho_c +
    # R rho_d + 2s) exactly. rho + rho_c + R rho_d = Gc K1 and s^2 = alpha
    # rho1 g Gc, so f_pa' = 1/(2 + K1 sqrt(Gc/(alpha rho1 g))) reaches 0.48
    # at Gc* = alpha rho1 g/(144 K1^2), inside criterion 7's window, across
    # which f_pa' falls from 0.4902 to 0.4165: its fitted slope is below 0.48
    R, p = 5.0, reference_params()
    g = 2.0 ** R - 1.0
    rho1 = p.per_antenna_power / (p.N0 * p.B)
    k1 = (p.per_antenna_power + p.P_C) / (p.N0 * p.B) + R * p.P_dec / p.N0
    gc_star = p.alpha * rho1 * g / (144.0 * k1 ** 2)
    assert relaxed_f_pa(p.with_gc(gc_star), R) == pytest.approx(0.48,
                                                               rel=1e-12)
    assert 1e-18 < gc_star < 1e-16
    assert relaxed_f_pa(p.with_gc(1e-18), R) == pytest.approx(0.4902,
                                                              abs=5e-5)
    assert relaxed_f_pa(p.with_gc(1e-16), R) == pytest.approx(0.4165,
                                                              abs=5e-5)
