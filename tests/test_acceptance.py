"""Acceptance gate: ten end-to-end checks, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines
for passing checks too).
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from mimo_ee.capacity import ergodic_capacity, invert_capacity
from mimo_ee.cli import main
from mimo_ee.optimizer import (
    optimize_bound,
    optimize_exact,
    relaxed_antenna_count,
    relaxed_optimum,
    with_units,
    zeta_exact,
)
from mimo_ee.params import Theta, normalize

from conftest import capacity_bounds, reference_params, relaxed_f_pa


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_01_ee_gain_over_single_antenna():
    # optimal-vs-single-antenna EE ratio at R = 5 for two channel gains
    ratios = {}
    for gc_db, expected in ((-140.0, 5.65), (-150.0, 29.59)):
        p = reference_params(gc_db)
        th = normalize(p)
        ratios[gc_db] = (optimize_exact(5.0, th).zeta
                         / zeta_exact(1, 5.0, th).zeta, expected)
    ok = all(abs(r - e) / e <= 0.10 for r, e in ratios.values())
    detail = ", ".join(f"{gc} dB: {r:.3f} vs {e} +-10%"
                       for gc, (r, e) in ratios.items())
    assert report(1, "EE gain over single antenna", ok, detail)


def test_02_single_antenna_region():
    # a single antenna should be optimal at R = 5 for every gain >= -120 dB
    grid = [float(g) for g in np.arange(-120.0, -89.0, 2.0)]
    ms = {gc: optimize_exact(5.0, normalize(reference_params(gc))).M
          for gc in grid}
    bad = {gc: m for gc, m in ms.items() if m != 1}
    ok = not bad
    detail = "all M = 1" if ok else \
        f"M > 1 at {sorted(bad)} dB (M = {sorted(set(bad.values()))})"
    assert report(2, "single-antenna region", ok, detail)


def test_03_relaxation_near_optimality():
    gaps = []
    for gc_db in (-150.0, -145.0, -140.0):
        p = reference_params(gc_db)
        th = normalize(p)
        exact = with_units(optimize_exact(5.0, th), p, 5.0).eta
        relaxed = with_units(relaxed_optimum(5.0, th), p, 5.0).eta
        gaps.append(abs(relaxed - exact) / exact)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        th = Theta(alpha=float(rng.uniform(1.0, 20.0)),
                   rho=float(10.0 ** rng.uniform(-6.0, 3.0)),
                   rho_c=float(10.0 ** rng.uniform(-3.0, 4.0)),
                   rho_d=float(10.0 ** rng.uniform(-6.0, 1.0)))
        R = float(rng.uniform(0.1, 15.0))
        worst = max(worst, abs(optimize_bound(R, th).M
                               - relaxed_antenna_count(R, th)))
    ok = max(gaps) < 0.03 and worst < 1.0
    assert report(3, "relaxation near-optimality", ok,
                  f"max EE gap {max(gaps):.2%}, max |M* - M'| {worst:.3f}")


def test_04_capacity_sandwich():
    violations = 0
    for M in (1, 2, 4, 8, 16, 64, 256):
        for gamma in np.logspace(-3, 3, 13):
            est = ergodic_capacity(M, float(gamma))
            lo, hi = capacity_bounds(M, float(gamma))
            if not (lo - est.abs_error_bound <= est.value
                    <= hi + est.abs_error_bound):
                violations += 1
    ok = violations == 0
    assert report(4, "capacity bound sandwich", ok,
                  f"{violations} violations over 91 points")


def test_05_inversion_bracket():
    violations = 0
    for M in (2, 4, 8, 16, 64, 256):
        for R in (1.0, 5.0, 10.0):
            gamma = invert_capacity(M, R).gamma
            scale = 2.0 ** R - 1.0
            if not (scale / M - 1e-12 <= gamma <= scale / (M - 1) + 1e-12):
                violations += 1
    ok = violations == 0
    assert report(5, "rate-inversion bracket", ok,
                  f"{violations} violations over 18 points")


def test_06_small_rate_linearity():
    # zeta'(R)/R flat at 1/(rho + rho_c) wherever the small-rate term is
    # dominated tenfold
    th = normalize(reference_params(-150.0))
    base = 1.0 / (th.rho + th.rho_c)
    devs = []
    for R in np.logspace(-7, -3, 41):
        lhs = R * th.rho_d + 2.0 * math.sqrt(
            th.alpha * th.rho * (2.0 ** R - 1.0))
        if lhs * 10.0 < th.rho:
            devs.append(abs(relaxed_optimum(float(R), th).zeta / R - base)
                        / base)
    ok = bool(devs) and max(devs) < 0.02
    assert report(6, "small-rate linearity", ok,
                  f"{len(devs)} qualifying rates, max deviation "
                  f"{max(devs):.2%}" if devs else "no qualifying rates")


def test_07_small_gain_scaling():
    gains = np.logspace(-18, -16, 9)
    etas, ms = [], []
    for gc in gains:
        p = reference_params(-150.0).with_gc(float(gc))
        r = with_units(relaxed_optimum(5.0, normalize(p)), p, 5.0)
        etas.append(r.eta)
        ms.append(r.M - 1.0)
    eta_slope = float(np.polyfit(np.log(gains), np.log(etas), 1)[0])
    m_slope = float(np.polyfit(np.log(gains), np.log(ms), 1)[0])
    ok = 0.48 <= eta_slope <= 0.52 and -0.52 <= m_slope <= -0.48
    assert report(7, "small-gain square-root scaling", ok,
                  f"eta slope {eta_slope:.4f} (want [0.48, 0.52]), "
                  f"M-1 slope {m_slope:.4f} (want [-0.52, -0.48])")


def test_08_pa_fraction_limits():
    worst = max(relaxed_f_pa(reference_params(float(gc)), float(R))
                for gc in np.arange(-180.0, -79.0, 10.0)
                for R in (0.1, 1.0, 5.0, 10.0, 20.0))
    lo_gain = relaxed_f_pa(reference_params(-170.0), 5.0)
    hi_gain = relaxed_f_pa(reference_params(-100.0), 5.0)
    ok = worst < 0.5 and lo_gain > 0.45 and hi_gain < 0.05
    assert report(8, "PA power-fraction limits", ok,
                  f"max {worst:.4f} < 0.5, f(-170 dB) = {lo_gain:.3f} > 0.45, "
                  f"f(-100 dB) = {hi_gain:.4f} < 0.05")


def test_09_bound_objective_convexity():
    rng = np.random.default_rng(7)
    m = np.arange(1, 1002, dtype=np.float64)
    convex_ok = True
    match_err = 0.0
    for _ in range(100):
        th = Theta(alpha=float(rng.uniform(1.0, 20.0)),
                   rho=float(10.0 ** rng.uniform(-6.0, 3.0)),
                   rho_c=float(10.0 ** rng.uniform(-3.0, 4.0)),
                   rho_d=float(10.0 ** rng.uniform(-6.0, 1.0)))
        R = float(rng.uniform(0.1, 15.0))
        inv = th.rho_d + (m * th.rho + th.rho_c) / R \
            + th.alpha / R * (2.0 ** R - 1.0) / np.maximum(m - 1.0, 1e-300)
        d2 = inv[2:] - 2.0 * inv[1:-1] + inv[:-2]
        convex_ok &= bool(np.all(d2[1:] > 0))  # second difference for M >= 3
        m_star = relaxed_antenna_count(R, th)
        res = minimize_scalar(
            lambda x: th.rho * x / R
            + th.alpha / R * (2.0 ** R - 1.0) / (x - 1.0),
            bounds=(1.0 + 1e-12, 10.0 * m_star + 10.0), method="bounded",
            options={"xatol": 1e-10 * m_star, "maxiter": 500})
        match_err = max(match_err, abs(res.x - m_star) / m_star)
    ok = convex_ok and match_err < 1e-6
    assert report(9, "bound-objective convexity", ok,
                  f"second differences positive: {convex_ok}, "
                  f"max minimizer mismatch {match_err:.2e}")


def test_10_sweep_determinism(tmp_path):
    cfg = tmp_path / "gain_sweep.cfg"
    cfg.write_text(
        "B = 1e6\n"
        f"N0 = {10 ** -20.4!r}\n"
        "pa_efficiency = 0.39\n"
        "P_BS = 0.1\nP_UT = 0.1\nP_OSC = 2.0\nP_s = 5.0\n"
        "P_dec = 1.15\nC0 = 1e-9\n"
        "R = 5\nvariable = Gc\ngrid = -160:-140:5\n"
        "objectives = exact,relaxed,fixed-m-1\n")
    blobs = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp_path / name
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1]
    assert report(10, "sweep determinism", ok,
                  f"{len(blobs[0])} bytes, byte-identical: {ok}")
