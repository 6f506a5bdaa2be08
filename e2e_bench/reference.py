"""Independent output check: mpmath capacity reference and the EE formulas.

The reference rate is the closed-form MRC capacity over Rayleigh fading
(Alouini & Goldsmith, IEEE TVT 1999):

    C(M, gamma) = log2(e) * sum_{k=1..M} e^{1/gamma} E_k(1/gamma)

evaluated in mpmath. The terms f_k = e^x E_k(x), x = 1/gamma, obey
f_{k+1} = (1 - x f_k)/k, which loses digits going up while k < x and going
down while k > x. So f_k is computed once at k0 = min(M, floor(x)) and the
recurrence runs down to 1 and up to M from there, stable both ways.

Nothing here imports the package under test: the energy-efficiency values
are recomputed from the config's physical parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

from workloads import REFERENCE_HARDWARE, Point

# A reported SNR may be off by this share before its row fails; a 1% error
# is caught with a 2x margin (the self-test checks it). The seed's M = 1
# quadrature defect, up to about 0.3% in SNR, stays below it and shows in
# rate_err_max instead.
SNR_REL_TOL = 5e-3
# Monte Carlo rows also get this many standard errors of the estimator.
MC_SIGMAS = 5.0
# Values printed with 9 significant digits agree with the recomputation to
# this relative tolerance.
PRINT_REL_TOL = 1e-7

REGIMES = ("small-R", "large-R", "large-Gc", "small-Gc", "transitional")

_DPS = 30


def _f_k0(k: int, x):
    """e^x E_k(x) by the modified Lentz continued fraction (x >= 1)."""
    tiny = mp.mpf(10) ** (-_DPS - 50)
    eps = mp.mpf(10) ** (2 - _DPS)
    b = x + k
    c = 1 / tiny
    d = 1 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (k - 1 + i)
        b += 2
        d = 1 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1) < eps:
            return h


@lru_cache(maxsize=None)
def capacity_ref(M: int, gamma: float) -> float:
    """Ergodic capacity E[log2(1 + gamma X)], X ~ Gamma(M, 1), bits/s/Hz."""
    with mp.workdps(_DPS):
        x = 1 / mp.mpf(gamma)
        if x <= 1:
            k0, f0 = 1, mp.exp(x) * mp.e1(x)
        else:
            k0 = min(M, int(mp.floor(x)))
            f0 = _f_k0(k0, x)
        total = f = f0
        for k in range(k0 - 1, 0, -1):
            f = (1 - k * f) / x
            total += f
        f = f0
        for k in range(k0, M):
            f = (1 - x * f) / k
            total += f
        return float(total / mp.log(2))


def capacity_quad(M: int, gamma: float) -> float:
    """The same expectation by direct tanh-sinh quadrature (slow; self-test)."""
    with mp.workdps(_DPS):
        g = mp.mpf(gamma)
        log_norm = mp.loggamma(M)

        def integrand(t):
            if t <= 0:
                return mp.mpf(0)
            return mp.log(1 + g * t) * mp.exp((M - 1) * mp.log(t) - t - log_norm)

        s = mp.sqrt(M)
        cuts = sorted({mp.mpf(0), max(mp.mpf(0), M - 12 * s), mp.mpf(M),
                       M + 12 * s, M + 60 * s + 60})
        return float(mp.quad(integrand, cuts + [mp.inf]) / mp.log(2))


def rate_band(M: int, gamma: float, mc_samples: int | None) -> float:
    """Allowed |C_ref(M, gamma) - R| for a reported SNR gamma.

    SNR_REL_TOL of SNR, turned into rate by dC/dln(gamma). For Monte Carlo,
    add MC_SIGMAS standard errors: log2(1 + gamma X) is 1-Lipschitz in ln X
    (up to log2 e), so its variance is at most log2(e)^2 trigamma(M).
    """
    h = 1e-6
    slope = (capacity_ref(M, gamma * (1 + h)) - capacity_ref(M, gamma)) \
        / math.log1p(h)
    band = SNR_REL_TOL * slope
    if mc_samples:
        sigma = float(mp.sqrt(mp.psi(1, M))) / math.log(2)
        band += MC_SIGMAS * sigma / math.sqrt(mc_samples)
    return band


@dataclass(frozen=True)
class Hardware:
    """Physical parameters in SI units, from the values the configs carry."""

    B: float
    N0: float
    alpha: float
    P_BS: float
    P_UT: float
    P_OSC: float
    P_s: float
    P_dec: float     # W per bit/s
    C0: float

    @classmethod
    def reference(cls) -> "Hardware":
        hw = {k: float(v) for k, v in REFERENCE_HARDWARE.items()}
        return cls(B=hw["B"], N0=hw["N0"], alpha=1.0 / hw["pa_efficiency"],
                   P_BS=hw["P_BS"], P_UT=hw["P_UT"], P_OSC=hw["P_OSC"],
                   P_s=hw["P_s"], P_dec=hw["P_dec"] * 1e-9, C0=hw["C0"])


def expected_values(hw: Hardware, point: Point, M: float, gamma: float) -> dict:
    """zeta, eta and f_pa that (M, gamma) must produce at this point."""
    R = point.R
    gc = 10.0 ** (point.gc_db / 10.0)
    per_antenna = hw.P_BS + 2.0 * hw.C0 * hw.B
    fixed = hw.P_UT + hw.P_OSC + hw.P_s
    scale = gc / (hw.N0 * hw.B)
    rho, rho_c, rho_d = scale * per_antenna, scale * fixed, gc * hw.P_dec / hw.N0
    zeta = 1.0 / (rho_d + (M * rho + rho_c) / R + hw.alpha * gamma / R)
    p_pa = hw.alpha * gamma * hw.N0 * hw.B / gc
    total = M * per_antenna + fixed + R * hw.B * hw.P_dec + p_pa
    return {"zeta": zeta, "eta": zeta * gc / hw.N0, "f_pa": p_pa / total,
            "m_relaxed": 1.0 + math.sqrt(hw.alpha / rho * (2.0 ** R - 1.0))}


def _close(a: float, b: float, rel: float = PRINT_REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


@dataclass
class RowCheck:
    errors: list[str]
    rate_err: float | None = None     # |C_ref(M, gamma) - R| for inverted SNRs


def check_row(hw: Hardware, point: Point, objective: str, row: dict,
              mc_samples: int | None = None) -> RowCheck:
    """Check one result: M, gamma, zeta, eta, f_pa (floats) and regime."""
    if row.get("status", "ok") != "ok":
        return RowCheck([f"status {row['status']!r}"])
    try:
        M, gamma = float(row["M"]), float(row["gamma"])
        got = {k: float(row[k]) for k in ("zeta", "eta", "f_pa")}
    except (KeyError, ValueError) as exc:
        return RowCheck([f"unparsable row: {exc}"])
    errors = []
    rate_err = None
    R = point.R
    ref = expected_values(hw, point, M, gamma)
    if objective in ("exact", "fixed-m-1"):
        if M != int(M) or M < 1 or (objective == "fixed-m-1" and M != 1):
            errors.append(f"bad antenna count M={M}")
        elif not (math.isfinite(gamma) and gamma > 0):
            errors.append(f"bad SNR gamma={gamma}")
        else:
            rate_err = abs(capacity_ref(int(M), gamma) - R)
            band = rate_band(int(M), gamma, mc_samples)
            if rate_err > band:
                errors.append(f"rate error {rate_err:.3g} > {band:.3g} "
                              f"(M={int(M)}, gamma={gamma:.9g}, R={R})")
    elif objective == "bound":
        m_real = ref["m_relaxed"]
        candidates = {max(2, math.floor(m_real)), max(2, math.ceil(m_real))}
        best = max(candidates, key=lambda m: expected_values(
            hw, point, m, (2.0 ** R - 1.0) / (m - 1))["zeta"])
        if M != best:
            errors.append(f"bound optimum M={M}, expected {best}")
        elif not _close(gamma, (2.0 ** R - 1.0) / (M - 1)):
            errors.append(f"bound SNR {gamma} is not (2^R - 1)/(M - 1)")
    elif objective == "relaxed":
        m_real = ref["m_relaxed"]
        if not _close(M, m_real):
            errors.append(f"relaxed M={M}, expected {m_real:.9g}")
        elif not _close(gamma, (2.0 ** R - 1.0) / (m_real - 1.0)):
            errors.append(f"relaxed SNR {gamma} is not (2^R - 1)/(M' - 1)")
    else:
        errors.append(f"unknown objective {objective!r}")
    for key, value in got.items():
        if not _close(value, ref[key]):
            errors.append(f"{key}={value!r}, recomputed {ref[key]:.9g}")
    if row.get("regime") not in REGIMES:
        errors.append(f"unknown regime {row.get('regime')!r}")
    return RowCheck(errors, rate_err)


CSV_FIELDS = ("sweep_var", "sweep_value", "objective", "M", "gamma", "zeta",
              "eta", "f_pa", "regime", "status")


def parse_sweep_csv(text: str) -> list[dict]:
    """Rows of a sweep CSV as dicts keyed by CSV_FIELDS (header skipped)."""
    lines = text.rstrip("\n").split("\n")
    return [dict(zip(CSV_FIELDS, line.split(",", len(CSV_FIELDS) - 1)))
            for line in lines[1:]]


def parse_optimize_stdout(text: str) -> dict:
    """The `key = value` lines printed by `mimo-ee optimize`."""
    row = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            row[key.strip()] = value.strip()
    if "eta_bits_per_joule" in row:
        row["eta"] = row.pop("eta_bits_per_joule")
    return row
