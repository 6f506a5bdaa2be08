import importlib.util
import sys
from pathlib import Path

import pytest

from mimo_ee import capacity, optimizer, sweep
from mimo_ee.capacity import EstimatorConfig, invert_capacity
from mimo_ee.params import normalize

from conftest import reference_params

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "tools" / "inversion_counts.py"
_SPEC = importlib.util.spec_from_file_location("inversion_counts", _PATH)
inversion_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(inversion_counts)

PARAMS_150 = reference_params(-150.0)
THETA_150 = normalize(PARAMS_150)
# evaluations of the lone solve gamma0(56) at R = 5: M* = 56 at -150 dB
EVALUATIONS_56 = invert_capacity(56, 5.0).iterations


def test_counts_a_one_read_answer():
    # at -150 dB and R = 5 the answer M* = 56 is M-tilde, decided from its
    # one read: one inversion, with the evaluations of that lone solve,
    # from an empty cache, which is left empty
    counted = inversion_counts.counts(
        capacity, lambda: optimizer.optimize_exact(5.0, THETA_150))
    assert counted == (1, EVALUATIONS_56)
    assert capacity._GAMMA0 == {}


def test_counts_prefetched_solves(monkeypatch):
    # a Monte Carlo sweep solves its pairs on prefetch threads, which call
    # the wrapped _newton too: each distinct (M, R) pair is one inversion
    monkeypatch.setattr(capacity, "_usable_cores", lambda: 2)
    config = EstimatorConfig(method="monte-carlo", mc_samples=2000, seed=5)
    spec = sweep.SweepSpec("Gc", (-150.0, -148.0), 5.0, PARAMS_150,
                           ("exact", "fixed-m-1"), config)
    pairs = set(sweep._stencil_pairs(spec, [sweep._grid_point(spec, value)
                                            for value in spec.grid]))
    evaluations = sum(invert_capacity(M, R, config).iterations
                      for M, R in pairs)
    assert inversion_counts.counts(
        capacity, lambda: sweep.run_sweep(spec)) == (len(pairs), evaluations)


def test_restores_newton_after_a_failure():
    newton = capacity._newton

    def fail():
        capacity.gamma0(3, 5.0, capacity.DEFAULT_CONFIG)
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="stop"):
        inversion_counts.counts(capacity, fail)
    assert capacity._newton is newton


def test_main_prints_one_line_per_case(monkeypatch, capsys):
    # main puts ROOT/src first on the path; this process has already
    # imported the package, so the case runs on it
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(inversion_counts, "cases", lambda sweep, work: {
        "one": lambda: optimizer.optimize_exact(5.0, THETA_150)})
    assert inversion_counts.main(["inversion_counts.py", str(_ROOT)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["inversions", "evaluations", "case"]
    assert out[1].split() == ["1", str(EVALUATIONS_56), "one"]
    assert len(out) == 2


def test_cases_build_every_input(tmp_path):
    cases = inversion_counts.cases(sweep, tmp_path)
    assert list(cases) == ["gc-sweep", "gc-fine", "optimize-points",
                           "mc-sweep"]
    specs = {name: sweep.sweep_spec_from_config(str(tmp_path / f"{name}.cfg"))
             for name in ("gc-sweep", "gc-fine", "mc-sweep")}
    assert len(specs["gc-sweep"].grid) == 161
    assert len(specs["gc-fine"].grid) == 10001
    assert specs["mc-sweep"].estimator.mc_samples == 100_000
    assert len(list(tmp_path.glob("point-*.cfg"))) == 120
