"""Energy-efficiency-optimal antenna dimensioning for a single-user
massive-MIMO downlink with full transceiver power accounting."""

from mimo_ee.capacity import (
    CapacityEstimate,
    EstimatorConfig,
    SnrSolution,
    ergodic_capacity,
    invert_capacity,
    snr_lower_bound_rate,
)
from mimo_ee.optimizer import (
    EEResult,
    optimize_bound,
    optimize_exact,
    relaxed_optimum,
    with_units,
    zeta_bound,
    zeta_exact,
)
from mimo_ee.params import SystemParams, Theta, normalize
from mimo_ee.regimes import RegimeReport, classify
from mimo_ee.sweep import (
    SweepSpec,
    TradeoffCurve,
    compare_fixed_m,
    emit_csv,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityEstimate", "EstimatorConfig", "SnrSolution", "ergodic_capacity",
    "invert_capacity", "snr_lower_bound_rate",
    "EEResult", "optimize_bound", "optimize_exact", "relaxed_optimum",
    "with_units", "zeta_bound", "zeta_exact",
    "SystemParams", "Theta", "normalize",
    "RegimeReport", "classify",
    "SweepSpec", "TradeoffCurve", "compare_fixed_m", "emit_csv", "run_sweep",
    "__version__",
]
