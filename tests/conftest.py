import math

import pytest

from mimo_ee.capacity import _validate_inputs
from mimo_ee.optimizer import relaxed_optimum, with_units
from mimo_ee.params import SystemParams, normalize

# hardware parameter set used throughout the numerical experiments
REFERENCE_KW = dict(
    B=1e6,
    N0=10.0 ** -20.4,
    alpha=1.0 / 0.39,
    P_BS=0.1,
    P_UT=0.1,
    P_OSC=2.0,
    P_s=5.0,
    P_dec=1.15e-9,   # 1.15 W per Gbit/s
    C0=1e-9,
)


def reference_params(gc_db: float = -150.0) -> SystemParams:
    return SystemParams(Gc=10.0 ** (gc_db / 10.0), **REFERENCE_KW)


def capacity_bounds(M: int, gamma: float) -> tuple[float, float]:
    """Jensen bounds (log2(1 + (M-1) gamma), log2(1 + M gamma))."""
    _validate_inputs(M, gamma)
    return (math.log2(1.0 + (M - 1) * gamma), math.log2(1.0 + M * gamma))


def relaxed_f_pa(params: SystemParams, R: float) -> float:
    """PA share of the relaxed optimum as the program reports it."""
    return with_units(relaxed_optimum(R, normalize(params)), params, R).f_pa


def relaxed_pa_share(params: SystemParams, R: float) -> float:
    """PA share at the relaxed optimum, written out: s/(rho + rho_c +
    R*rho_d + 2s) with s = sqrt(alpha*rho*(2^R - 1)) the PA draw."""
    th = normalize(params)
    s = math.sqrt(th.alpha * th.rho * math.expm1(R * math.log(2.0)))
    return s / (th.rho + th.rho_c + R * th.rho_d + 2.0 * s)


@pytest.fixture
def params_150():
    return reference_params(-150.0)
