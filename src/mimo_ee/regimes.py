"""Asymptotic operating regimes of the optimal SE-EE trade-off.

Every regime is a dominance inequality between terms of one closed form, the
relaxed optimum's inverse EE in Theta units,
    R/zeta' = rho + rho_c + R*rho_d + 2*sqrt(alpha*rho*(2^R - 1)):
small-rate and large-rate (fixed channel gain), and large-gain and small-gain
(fixed rate). "Much smaller/larger than" means a fixed factor of DOMINANCE =
10. The closed-form limits of each regime are oracles in the tests.
"""

from __future__ import annotations

from typing import NamedTuple

from mimo_ee.capacity import check_rate
from mimo_ee.optimizer import relaxed_pa_power
from mimo_ee.params import SystemParams, normalize

DOMINANCE = 10.0


class RegimeReport(NamedTuple):
    regime: str               # "small-R", "large-R", "large-Gc", "small-Gc",
                              # or "transitional"
    lhs: float                # left side of the regime's inequality (of
    rhs: float                # small-R's if transitional), in Theta units
    satisfied: tuple[str, ...] = ()  # every regime whose inequality holds


def classify(R: float, params: SystemParams) -> RegimeReport:
    """Decide which regime (if any) an operating point falls in.

    A "much less" inequality holds when lhs * DOMINANCE < rhs, and a "much
    greater" one when lhs > DOMINANCE * rhs, both strictly; otherwise the
    point is transitional. The inequalities overlap pairwise (small-R implies
    large-Gc, small-Gc implies large-R), so regimes are checked most-specific
    first: small-R, large-Gc, small-Gc, large-R. R must be in (0, R_MAX].
    """
    check_rate(R)
    theta = normalize(params)
    pa = 2.0 * relaxed_pa_power(R, theta)
    load = R * theta.rho_d

    # (name, lhs, rhs, lhs << rhs?); False means lhs >> rhs
    rows = (
        ("small-R", load + pa, theta.rho, True),
        ("large-Gc", pa, theta.rho, True),
        ("small-Gc", pa, theta.rho + theta.rho_c + load, False),
        ("large-R", load + pa, theta.rho + theta.rho_c, False),
    )
    hits = [(name, lhs, rhs) for name, lhs, rhs, much_less in rows
            if (lhs * DOMINANCE < rhs if much_less
                else lhs > DOMINANCE * rhs)]
    name, lhs, rhs = hits[0] if hits else ("transitional", *rows[0][1:3])
    return RegimeReport(regime=name, lhs=lhs, rhs=rhs,
                        satisfied=tuple(hit[0] for hit in hits))
