"""The abstract's claims, checked on the exact (capacity-inverted) optimum.

Each test quotes the sentence it checks and evaluates it with the reference
hardware of conftest.py.
"""

import dataclasses
import math

from mimo_ee.optimizer import optimize_exact
from mimo_ee.params import normalize

from conftest import reference_params


def pa_elasticity(R: float, gc_db: float, h: float = 0.05) -> float:
    """d ln(eta*) / d ln(alpha) of the exact optimum, by central difference."""
    base = reference_params(gc_db)

    def log_eta(alpha: float) -> float:
        p = dataclasses.replace(base, alpha=alpha)
        return math.log(optimize_exact(R, normalize(p), params=p).eta)

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
