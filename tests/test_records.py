"""The answer records: their fields, order and defaults, and immutability."""

import pytest

from mimo_ee.capacity import CapacityEstimate, SnrSolution
from mimo_ee.optimizer import EEResult, with_units
from mimo_ee.sweep import CurvePoint, TradeoffCurve

from conftest import reference_params

# (record, positional arguments, every field in order, defaults of the rest)
RECORDS = [
    (EEResult, (1, 0.5, 2.0), ("M", "gamma", "zeta", "eta", "f_pa"),
     (None, None)),
    (CurvePoint, (-150.0, "exact", None, "transitional", "ok"),
     ("sweep_value", "objective", "result", "regime", "status"), ()),
    (TradeoffCurve, ("Gc", ()), ("variable", "points"), ()),
    (CapacityEstimate, (3.0, "quadrature", 1e-12),
     ("value", "method", "abs_error_bound"), ()),
    (SnrSolution, (0.5, 1e-17, 4), ("gamma", "error_bound", "iterations"),
     ()),
]
IDS = [record.__name__ for record, *_ in RECORDS]


@pytest.mark.parametrize("record, args, fields, defaults", RECORDS, ids=IDS)
def test_positional_construction(record, args, fields, defaults):
    r = record(*args)
    assert tuple(getattr(r, name) for name in fields) == args + defaults
    assert r == record(**dict(zip(fields, args)))


@pytest.mark.parametrize("record, args, fields, defaults", RECORDS, ids=IDS)
def test_fields_are_read_only(record, args, fields, defaults):
    r = record(*args)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
    with pytest.raises(AttributeError):
        r.extra = 0
    assert tuple(getattr(r, name) for name in fields) == args + defaults


@pytest.mark.parametrize("eta, f_pa", [(None, None), (1.0, 0.25)])
def test_with_units_field_by_field(eta, f_pa):
    # attached values replace whatever the input carried
    p, R = reference_params(-150.0), 3.7
    r = with_units(EEResult(37, 0.42, 1.07, eta, f_pa), p, R)
    assert (r.M, r.gamma, r.zeta) == (37, 0.42, 1.07)
    assert r.eta == 1.07 * p.Gc / p.N0
    assert r.f_pa == p.alpha * 0.42 * (1.07 / R)
