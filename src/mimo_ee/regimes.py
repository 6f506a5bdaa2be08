"""Asymptotic operating regimes of the optimal SE-EE trade-off.

Every regime is a dominance inequality between terms of one closed form, the
relaxed optimum's inverse EE in Theta units,
    R/zeta' = rho + rho_c + R*rho_d + 2*sqrt(alpha*rho*(2^R - 1)):
small-rate and large-rate (fixed channel gain), and large-gain and small-gain
(fixed rate). "Much smaller/larger than" means a fixed factor of DOMINANCE =
10. `classify` names the regime of a point; the closed-form limits of each
regime are oracles in the tests.
"""

from __future__ import annotations

from mimo_ee.capacity import check_rate
from mimo_ee.optimizer import relaxed_pa_power
from mimo_ee.params import SystemParams, normalize

DOMINANCE = 10.0


def classify(R: float, params: SystemParams) -> str:
    """The name of the regime an operating point falls in: "small-R",
    "large-Gc", "small-Gc", "large-R", or "transitional" if none.

    A "much less" inequality holds when lhs * DOMINANCE < rhs, and a "much
    greater" one when lhs > DOMINANCE * rhs, both strictly; otherwise the
    point is transitional. The inequalities overlap pairwise (small-R implies
    large-Gc, small-Gc implies large-R), so regimes are checked most-specific
    first, small-R, large-Gc, small-Gc, large-R, and the first that holds
    names the point. Each side is a closed form in Theta, so a caller that
    needs a margin recomputes it. R must be in (0, R_MAX].
    """
    check_rate(R)
    theta = normalize(params)
    pa = 2.0 * relaxed_pa_power(R, theta)
    load = R * theta.rho_d
    if (load + pa) * DOMINANCE < theta.rho:
        return "small-R"
    if pa * DOMINANCE < theta.rho:
        return "large-Gc"
    if pa > DOMINANCE * (theta.rho + theta.rho_c + load):
        return "small-Gc"
    if load + pa > DOMINANCE * (theta.rho + theta.rho_c):
        return "large-R"
    return "transitional"
