import io
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mimo_ee import capacity, optimizer, sweep
from mimo_ee.capacity import DEFAULT_CONFIG, CapacityError
from mimo_ee.cli import COMMANDS, HELP, main
from mimo_ee.optimizer import EEResult, relaxed_optimum, with_units
from mimo_ee.params import ParameterError, normalize
from mimo_ee.regimes import classify
from mimo_ee.sweep import (
    CSV_HEADER,
    MAX_GRID_POINTS,
    OBJECTIVES,
    REPORT_FIELDS,
    ConfigError,
    CurvePoint,
    SweepSpec,
    TradeoffCurve,
    compare_fixed_m,
    db_to_linear,
    emit_csv,
    estimator_from_config,
    evaluate,
    fmt,
    params_from_config,
    parse_config,
    point_from_config,
    run_sweep,
    sweep_spec_from_config,
    _parse_grid,
)

from conftest import reference_params, relaxed_pa_share

BASE_CONFIG = f"""
# single-user downlink, reference operating point
B = 1e6
N0 = {10 ** -20.4!r}
pa_efficiency = 0.39
P_BS = 0.1
P_UT = 0.1
P_OSC = 2.0
P_s = 5.0
P_dec = 1.15        # W per Gbit/s
C0 = 1e-9
Gc_dB = -150
R = 5
"""

# N0*B = 1 and Gc/N0 = 1e318: every zeta is finite, every eta inf
EE_OVERFLOW = ("B = 1e308\nN0 = 1e-308\nGc_dB = 100\npa_efficiency = 1\n"
               "P_BS = 1\nP_UT = 0\nP_OSC = 0\nP_s = 0\nP_dec = 0\nC0 = 0\n")

FINITE = st.floats(allow_nan=False, allow_infinity=False)
REGIMES = ("small-R", "large-R", "large-Gc", "small-Gc", "transitional")


def write_config(tmp_path, extra="", name="sweep.cfg"):
    path = tmp_path / name
    path.write_text(BASE_CONFIG + extra, encoding="utf-8")
    return str(path)


HELP_PROGRAM = """\
usage: mimo-ee [-h] {sweep,optimize,compare-fixed-m} ...

Energy-efficiency-optimal antenna dimensioning for a single-user massive-MIMO
downlink

positional arguments:
  {sweep,optimize,compare-fixed-m}
    sweep               run a trade-off sweep and emit CSV
    optimize            optimize a single operating point
    compare-fixed-m     optimal EE over EE at a frozen antenna count

options:
  -h, --help            show this help message and exit
"""
HELP_SWEEP = """\
usage: mimo-ee sweep [-h] --config CONFIG --out OUT

options:
  -h, --help       show this help message and exit
  --config CONFIG  flat key=value config file
  --out OUT        CSV output path
"""
HELP_OPTIMIZE = """\
usage: mimo-ee optimize [-h] --config CONFIG [--objective OBJECTIVE]

options:
  -h, --help            show this help message and exit
  --config CONFIG       flat key=value config file
  --objective OBJECTIVE
                        objective to optimize (default exact)
"""


class TestConfigParsing:
    def test_comments_and_whitespace(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# header\n  a = 1  # trailing\n\nb=2\n")
        assert parse_config(str(p)) == {"a": "1", "b": "2"}

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("/no/such/file.cfg")

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("just a bare token\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(str(p))

    @staticmethod
    def text_mode_parse(path):
        """The reader parse_config replaced: a text-mode file, line by line
        (universal newlines), with the byte-order mark read as UTF-8-sig."""
        out = {}
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
        return out

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("final", [True, False],
                             ids=["final-newline", "no-final-newline"])
    def test_line_ends_read_alike(self, tmp_path, end, final):
        lines = BASE_CONFIG.strip("\n").split("\n")
        p = tmp_path / "c.cfg"
        p.write_bytes((end.join(lines) + (end if final else "")).encode())
        assert parse_config(str(p)) == parse_config(write_config(tmp_path))

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_malformed_line_number(self, tmp_path, end):
        p = tmp_path / "c.cfg"
        p.write_bytes(end.join(["# header", "a = 1", "", "bare", "b = 2"])
                      .encode())
        with pytest.raises(ConfigError) as info:
            parse_config(str(p))
        assert str(info.value) == f"{p}:4: expected key = value"

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="ab =#\t\n\r\x0b\x0c\x85\u2028\ufeff",
                   max_size=40))
    def test_matches_the_text_mode_reader(self, tmp_path_factory, text):
        # same dict, or same error, as text mode's universal newlines;
        # str.splitlines' other line breaks (\x0b, \x85, ...) stay in a line
        p = tmp_path_factory.mktemp("cfg") / "c.cfg"
        p.write_bytes(text.encode())
        try:
            want = self.text_mode_parse(str(p))
        except ConfigError as exc:
            with pytest.raises(ConfigError) as info:
                parse_config(str(p))
            assert str(info.value) == str(exc)
        else:
            assert parse_config(str(p)) == want

    def test_byte_order_mark_is_read_past(self, tmp_path):
        plain = write_config(tmp_path)
        marked = tmp_path / "bom.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
        assert parse_config(str(marked)) == parse_config(plain)

    def test_non_utf8_byte_cannot_be_read(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"B = 1\nN0 = \xff\n")
        with pytest.raises(ConfigError) as info:
            parse_config(str(p))
        assert str(info.value).startswith(f"cannot read config {p}: ")
        assert "can't decode byte 0xff" in str(info.value)

    def test_estimator_default_only_without_estimator_keys(self, tmp_path):
        # the shared DEFAULT_CONFIG when the config names no estimator key;
        # a key set to its default builds an equal record
        cfg = parse_config(write_config(tmp_path))
        assert estimator_from_config(cfg) is DEFAULT_CONFIG
        for extra in ("estimator = quadrature\n", "mc_samples = 1000000\n",
                      "seed = 0\n"):
            named = estimator_from_config(
                parse_config(write_config(tmp_path, extra=extra)))
            assert named == DEFAULT_CONFIG and named is not DEFAULT_CONFIG
        mc = estimator_from_config(parse_config(write_config(
            tmp_path, extra="estimator = monte-carlo\nseed = 3\n")))
        assert (mc.method, mc.mc_samples, mc.seed) == (
            "monte-carlo", DEFAULT_CONFIG.mc_samples, 3)

    def test_params_round_trip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        params = params_from_config(cfg)
        ref = reference_params(-150.0)
        assert params.Gc == pytest.approx(ref.Gc, rel=1e-12)
        assert params.alpha == pytest.approx(ref.alpha, rel=1e-12)
        assert params.P_dec == pytest.approx(1.15e-9, rel=1e-12)
        assert params.P_C == pytest.approx(ref.P_C, rel=1e-12)

    def test_bad_efficiency(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        cfg["pa_efficiency"] = "1.5"
        with pytest.raises(ConfigError, match="pa_efficiency"):
            params_from_config(cfg)

    def test_missing_required_key(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        del cfg["B"]
        with pytest.raises(ConfigError, match="'B'"):
            params_from_config(cfg)

    def test_repeated_key_takes_its_last_value(self, tmp_path, capsys):
        # R = 5 then R = 6 answers as a config that sets R = 6 alone
        twice = write_config(tmp_path, extra="R = 6\n")
        assert parse_config(twice)["R"] == "6"
        once = tmp_path / "once.cfg"
        once.write_text(BASE_CONFIG.replace("\nR = 5\n", "\nR = 6\n"),
                        encoding="utf-8")
        outputs = []
        for path in (twice, str(once)):
            assert main(["optimize", "--config", path]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("variable, fixed", [("gc", "Gc_dB"),
                                                 ("r", "R")])
    def test_unknown_variable_named_before_fixed_key(self, tmp_path, capsys,
                                                     variable, fixed):
        # a mistyped variable is named, not reported as a missing fixed key
        path = tmp_path / "c.cfg"
        path.write_text("".join(
            line for line in BASE_CONFIG.splitlines(keepends=True)
            if not line.startswith(f"{fixed} =")) +
            f"variable = {variable}\ngrid = 1,2\n", encoding="utf-8")
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == (
            f"config error: unknown sweep variable {variable!r}\n")

    @pytest.mark.parametrize("variable, grid", [("Gc", "-140:-150:1"),
                                                ("R", "5:1:1")])
    def test_descending_grid_is_empty(self, tmp_path, capsys, variable, grid):
        # a range whose stop is below its start has no point; a Gc sweep
        # must say so before it reads the first point's Gc
        path = write_config(tmp_path,
                            extra=f"variable = {variable}\ngrid = {grid}\n")
        assert main(["sweep", "--config", path,
                     "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == (
            "config error: sweep grid is empty\n")

    def test_integer_key_read_exactly(self, tmp_path, capsys):
        # 2^53 + 1 has no float; read through float() it ran as 2^53
        answers = []
        for seed in (2 ** 53 + 1, 2 ** 53):
            path = write_config(tmp_path, extra=(
                f"estimator = monte-carlo\nmc_samples = 1e3\nseed = {seed}\n"))
            estimator = estimator_from_config(parse_config(path))
            assert (estimator.mc_samples, estimator.seed) == (1000, seed)
            assert type(estimator.seed) is int
            assert main(["optimize", "--config", path]) == 0
            answers.append(capsys.readouterr().out)
        assert answers[0] != answers[1]

    def test_field_fault_is_the_constructors_error(self, tmp_path, capsys):
        # the record's own ParameterError, printed as a config error
        path = write_config(tmp_path, extra="B = -1\n")
        with pytest.raises(ParameterError) as info:
            params_from_config(parse_config(path))
        assert str(info.value) == "B must be > 0"
        assert main(["optimize", "--config", path]) == 1
        assert capsys.readouterr().err == "config error: B must be > 0\n"


class TestGridParsing:
    def test_range_form(self):
        assert _parse_grid("-160:-140:5") == (-160.0, -155.0, -150.0,
                                              -145.0, -140.0)

    def test_list_form(self):
        assert _parse_grid("1, 2.5, 7") == (1.0, 2.5, 7.0)

    def test_bad_range(self):
        with pytest.raises(ConfigError):
            _parse_grid("1:2:3:4")
        with pytest.raises(ConfigError):
            _parse_grid("1:5:-1")

    def test_size_cap(self):
        assert len(_parse_grid(f"1:{MAX_GRID_POINTS}:1")) == MAX_GRID_POINTS
        for text in (f"0:{MAX_GRID_POINTS}:1", "-1e308:1e308:1"):
            with pytest.raises(ConfigError, match="more than"):
                _parse_grid(text)

    def test_spec_rejects_unsorted_grid(self):
        with pytest.raises(ConfigError, match="increasing"):
            SweepSpec(variable="Gc", grid=(1.0, 1.0), fixed_value=5.0,
                      params=reference_params(-150.0), objectives=("relaxed",))

    def test_spec_rejects_unknown_objective(self):
        with pytest.raises(ConfigError, match="objectives"):
            SweepSpec(variable="Gc", grid=(1.0, 2.0), fixed_value=5.0,
                      params=reference_params(-150.0), objectives=("best",))


class TestRunSweep:
    def test_row_count_and_status(self, tmp_path):
        path = write_config(
            tmp_path, extra="variable = Gc\ngrid = -160:-140:5\n"
                            "objectives = relaxed,bound\n")
        curve = run_sweep(sweep_spec_from_config(path))
        assert len(curve.points) == 5 * 2
        assert all(pt.status == "ok" for pt in curve.points)
        assert {pt.objective for pt in curve.points} == {"relaxed", "bound"}

    def test_gain_sweep_matches_direct_evaluation(self, tmp_path):
        path = write_config(tmp_path,
                            extra="variable = Gc\ngrid = -155,-150\n"
                                  "objectives = relaxed\n")
        spec = sweep_spec_from_config(path)
        curve = run_sweep(spec)
        for pt in curve.points:
            p = spec.params.with_gc(db_to_linear(pt.sweep_value))
            direct = with_units(relaxed_optimum(5.0, normalize(p)), p, 5.0)
            assert pt.result.eta == pytest.approx(direct.eta, rel=1e-12)

    @pytest.mark.parametrize("variable, grid", [
        ("Gc", "-175,-150,-125,-100"), ("R", "0.25,1,5,12")])
    def test_rows_match_fresh_evaluation(self, tmp_path, variable, grid):
        # each row shares one Theta with its point's classify; rebuilding the
        # parameters from scratch must give the same result and regime
        cfg = write_config(tmp_path, extra=(
            f"variable = {variable}\ngrid = {grid}\n"
            "objectives = exact,bound,relaxed,fixed-m-1\n"))
        spec = sweep_spec_from_config(cfg)
        points = run_sweep(spec).points
        assert len(points) == 16
        for pt in points:
            if variable == "Gc":
                fresh = params_from_config(parse_config(cfg),
                                           gc_db=pt.sweep_value)
                R = 5.0
            else:
                fresh = params_from_config(parse_config(cfg))
                R = pt.sweep_value
            assert pt.status == "ok"
            assert pt.result == evaluate(pt.objective, R, fresh,
                                         spec.estimator)
            assert pt.regime == classify(R, fresh)

    @pytest.mark.parametrize("variable, grid, key", [
        ("Gc", "-180:-100:2", "Gc_dB"), ("R", "0.25:15:0.25", "R")])
    def test_batched_rows_print_as_lone_optimize(self, tmp_path, capsys,
                                                 monkeypatch, variable, grid,
                                                 key):
        # a quadrature sweep prefetches nothing, so it reads no stencil
        # pair; every exact row must print what a lone optimize prints at
        # that point, from a cleared cache, to the last of its 9 digits
        stencils = []
        stencil_pairs = sweep._stencil_pairs

        def counting(*args):
            for pair in stencil_pairs(*args):
                stencils.append(pair)
                yield pair

        monkeypatch.setattr(sweep, "_stencil_pairs", counting)
        cfg = write_config(tmp_path, extra=(
            f"variable = {variable}\ngrid = {grid}\n"
            "objectives = exact,fixed-m-1\n"))
        out = tmp_path / "o.csv"
        capacity._GAMMA0.clear()
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in
                out.read_text(encoding="utf-8").splitlines()[1:]]
        grid_values = sweep_spec_from_config(cfg).grid
        assert len(rows) == 2 * len(grid_values)
        assert stencils == []
        for value, row in zip(np.repeat(grid_values, 2).tolist(), rows):
            point = write_config(tmp_path, extra=f"{key} = {value!r}\n",
                                 name="point.cfg")
            capacity._GAMMA0.clear()
            capsys.readouterr()
            assert main(["optimize", "--config", point,
                         "--objective", row[2]]) == 0
            assert capsys.readouterr().out.splitlines() == [
                f"{name} = {text}" for name, text in
                zip(REPORT_FIELDS, row[2:2 + len(REPORT_FIELDS)])]

    def test_large_optimum_rows_are_lone_evaluations(self, tmp_path):
        # M* runs from 1.3e5 to 7.4e5 here, where the objective is so flat
        # that an ulp of a batched gamma0 moves gamma, and even M*
        cfg = write_config(tmp_path, extra=(
            "variable = R\ngrid = 34:39:0.25\nGc_dB = -130\n"
            "objectives = exact\n"))
        spec = sweep_spec_from_config(cfg)
        capacity._GAMMA0.clear()
        points = run_sweep(spec).points
        assert len(points) == 21
        for pt in points:
            capacity._GAMMA0.clear()
            assert repr(pt.result) == repr(evaluate(
                "exact", pt.sweep_value, spec.params, spec.estimator))

    @pytest.mark.parametrize("cores", [1, 2], ids=["one-core", "two-cores"])
    def test_monte_carlo_sweep_rows_are_lone_evaluations(
            self, tmp_path, monkeypatch, cores):
        # on one core as on two, the stencils are solved in one batch and
        # the rows invert alone only the pairs outside them; every row is
        # the lone evaluation's to the bit
        monkeypatch.setattr(capacity, "_usable_cores", lambda: cores)
        calls = []
        invert = capacity.invert_capacity

        def counting(M, R, config):
            calls.append((M, R))
            return invert(M, R, config=config)

        monkeypatch.setattr(capacity, "invert_capacity", counting)
        cfg = write_config(tmp_path, extra=(
            "variable = Gc\ngrid = -150:-100:10\n"
            "objectives = exact,fixed-m-1\nestimator = monte-carlo\n"
            "mc_samples = 2000\nseed = 7\n"))
        spec = sweep_spec_from_config(cfg)
        capacity._GAMMA0.clear()
        points = run_sweep(spec).points
        swept = list(calls)
        calls.clear()
        capacity._GAMMA0.clear()
        for pt in points:
            p = spec.params.with_gc(db_to_linear(pt.sweep_value))
            assert repr(pt.result) == repr(evaluate(pt.objective, 5.0, p,
                                                    spec.estimator))
        assert len(set(swept)) == len(swept)
        stencils = set(sweep._stencil_pairs(spec, [
            (spec.params.with_gc(db_to_linear(v)), 5.0) for v in spec.grid]))
        assert swept == [pair for pair in calls if pair not in stencils]
        assert len(swept) < len(calls)

    def test_two_core_monte_carlo_sweep_reads_every_prefetched_pair(
            self, tmp_path, monkeypatch):
        # the prefetch solves exactly the pairs the rows read: every
        # prefetched pair is read, and no exact row inverts alone
        monkeypatch.setattr(capacity, "_usable_cores", lambda: 2)
        prefetched, reads, lone = set(), set(), []
        prefetch, read = sweep.prefetch_gamma0, optimizer.gamma0
        invert = capacity.invert_capacity

        def prefetching(pairs, config):
            prefetch(pairs, config)
            prefetched.update(key[:2] for key in capacity._GAMMA0)

        def inverting(M, R, config):
            lone.append((M, R))
            return invert(M, R, config=config)

        monkeypatch.setattr(sweep, "prefetch_gamma0", prefetching)
        monkeypatch.setattr(optimizer, "gamma0", lambda M, R, config: (
            reads.add((M, R)) or read(M, R, config)))
        monkeypatch.setattr(capacity, "invert_capacity", inverting)
        cfg = write_config(tmp_path, extra=(
            "variable = Gc\ngrid = -150:-100:5\n"
            "objectives = exact\nestimator = monte-carlo\n"
            "mc_samples = 2000\nseed = 7\n"))
        capacity._GAMMA0.clear()
        points = run_sweep(sweep_spec_from_config(cfg)).points
        assert all(pt.status == "ok" for pt in points)
        assert len(prefetched) > len(points)
        assert prefetched == reads
        assert lone == []

    def test_unsettled_monte_carlo_stencil_pair_fails_its_rows(
            self, tmp_path, monkeypatch):
        # a stencil pair whose batched solve does not settle stays uncached;
        # its rows report the lone inversion's error, as a lone evaluation
        monkeypatch.setattr(capacity, "_usable_cores", lambda: 2)
        monte_carlo = capacity._monte_carlo

        def stuck_at_one(M, rng, x, work):
            cap, nodes, mean = monte_carlo(M, rng, x, work)
            return (lambda g: (0.0, 1.0)) if M == 1 else cap, nodes, mean

        monkeypatch.setattr(capacity, "_monte_carlo", stuck_at_one)
        cfg = write_config(tmp_path, extra=(
            "variable = Gc\ngrid = -150:-130:10\n"
            "objectives = exact,fixed-m-1\nestimator = monte-carlo\n"
            "mc_samples = 2000\nseed = 7\n"))
        spec = sweep_spec_from_config(cfg)
        capacity._GAMMA0.clear()
        points = run_sweep(spec).points
        failed = [pt for pt in points if pt.result is None]
        assert [pt.objective for pt in failed] == ["fixed-m-1"] * 3
        for pt in points:
            p = spec.params.with_gc(db_to_linear(pt.sweep_value))
            if pt.result is not None:
                assert repr(pt.result) == repr(evaluate(
                    pt.objective, 5.0, p, spec.estimator))
                continue
            with pytest.raises(ArithmeticError) as lone:
                evaluate(pt.objective, 5.0, p, spec.estimator)
            assert pt.status == f"error: {lone.value}"
            assert "did not settle (M=1, R=5.0" in pt.status

    def test_rate_sweep(self, tmp_path):
        path = write_config(tmp_path,
                            extra="variable = R\ngrid = 1:5:2\n"
                                  "objectives = exact\n")
        curve = run_sweep(sweep_spec_from_config(path))
        assert [pt.sweep_value for pt in curve.points] == [1.0, 3.0, 5.0]
        etas = [pt.result.eta for pt in curve.points]
        assert all(e > 0 for e in etas)


class TestCsv:
    def test_header_text(self):
        assert CSV_HEADER == ("sweep_var,sweep_value,objective,M,gamma,zeta,"
                              "eta_bits_per_joule,f_pa,regime,status")
        assert CSV_HEADER.split(",")[2:9] == list(REPORT_FIELDS)

    def test_number_format(self):
        # 9 significant digits; an int M of 1e9 and above in e-notation
        assert [fmt(x) for x in (56, 1234567890, 2 ** 63, 0.1 + 0.2,
                                 -1.0 / 3.0, 5e-324)] == [
            "56", "1.23456789e+09", "9.22337204e+18", "0.3",
            "-0.333333333", "4.94065646e-324"]

    def test_failed_point_row(self, tmp_path, monkeypatch, capsys):
        # one point's exact optimum fails: its row keeps the objective and
        # regime, blanks the five numbers and writes the status without commas
        real = sweep.optimize_exact
        calls = []

        def fail_first(*args):
            calls.append(args)
            if len(calls) == 1:
                raise ArithmeticError("a, b")
            return real(*args)

        monkeypatch.setattr(sweep, "optimize_exact", fail_first)
        cfg = write_config(tmp_path, extra="variable = Gc\ngrid = -155,-150\n"
                                           "objectives = exact\n")
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().out == \
            f"wrote 2 rows to {out} (1 failed)\n"
        lines = out.read_text(encoding="utf-8").splitlines()
        regime = classify(5.0, reference_params(-155.0))
        assert lines[1] == f"Gc,-155,exact,,,,,,{regime},error: a; b"
        assert lines[2].startswith("Gc,-150,exact,56,")
        assert lines[2].endswith(",ok")
        assert len(calls) == 2

    @settings(max_examples=300, deadline=None)
    @example(variable="Gc", rows=[(-150.0, "bound", 1234567890, 0.5, 2.0,
                                   3.0, 0.25, "small-Gc")])
    @given(variable=st.sampled_from(["Gc", "R"]), rows=st.lists(st.tuples(
        FINITE, st.sampled_from(tuple(OBJECTIVES)),
        st.one_of(st.integers(1, 2 ** 63), FINITE), FINITE, FINITE, FINITE,
        FINITE, st.sampled_from(REGIMES)), min_size=1, max_size=5))
    def test_ok_rows_match_fmt(self, tmp_path_factory, variable, rows):
        # an ok row is written by one %-template; it must print what fmt
        # prints, for an int M up to 2**63 (1e9 and above in e-notation), a
        # float M (relaxed) and finite floats of every exponent
        out = tmp_path_factory.getbasetemp() / "ok-rows.csv"
        points, expected = [], [CSV_HEADER]
        for value, objective, *numbers, regime in rows:
            points.append(CurvePoint(value, objective, EEResult(*numbers),
                                     regime, "ok"))
            expected.append(",".join((variable, fmt(value), objective,
                                      *map(fmt, numbers), regime, "ok")))
        emit_csv(TradeoffCurve(variable, tuple(points)), str(out))
        assert out.read_text(encoding="utf-8").splitlines() == expected

    def test_deterministic_bytes(self, tmp_path):
        path = write_config(tmp_path,
                            extra="variable = Gc\ngrid = -160:-150:5\n"
                                  "objectives = exact,relaxed\n")
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            curve = run_sweep(sweep_spec_from_config(path))
            emit_csv(curve, str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_header_and_round_trip(self, tmp_path):
        path = write_config(tmp_path,
                            extra="variable = Gc\ngrid = -155,-150\n"
                                  "objectives = relaxed\n")
        out = tmp_path / "curve.csv"
        spec = sweep_spec_from_config(path)
        emit_csv(run_sweep(spec), str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        fields = lines[-1].split(",")
        assert fields[0] == "Gc"
        assert float(fields[1]) == -150.0
        p = spec.params.with_gc(db_to_linear(-150.0))
        direct = with_units(relaxed_optimum(5.0, normalize(p)), p, 5.0)
        assert float(fields[6]) == pytest.approx(direct.eta, rel=1e-8)
        assert fields[-1] == "ok"

    def test_refuses_empty_curve(self, tmp_path):
        from mimo_ee.sweep import TradeoffCurve
        out = tmp_path / "empty.csv"
        with pytest.raises(ValueError, match="empty"):
            emit_csv(TradeoffCurve(variable="Gc", points=()), str(out))
        assert not out.exists()


class TestCompareFixedM:
    def test_ratio_at_least_one(self):
        p = reference_params(-150.0)
        assert compare_fixed_m(5.0, p, 1) > 1.0

    @pytest.mark.parametrize("R, gc_db, M_fixed, M", [
        (1e-290, 100.0, 1, 1), (5.0, 2.0, 10 ** 300, 10 ** 300),
        (3e-308, -150.0, 3, 1)],
        ids=["tiny-rate", "huge-antenna-count", "subnormal-zeta"])
    def test_fixed_zeta_underflow_named(self, R, gc_db, M_fixed, M):
        # a zeta of 1/inf = 0 would divide the ratio by 0, and a subnormal
        # one (R = 3e-308 over R/zeta ~ 1.8) has lost its digits; either
        # is `optimize`'s error, naming the M whose EE underflows
        with pytest.raises(CapacityError, match=re.escape(
                f"the EE underflows at M = {M:g}, R = {R!r}")):
            compare_fixed_m(R, reference_params(gc_db), M_fixed)

    def test_ratio_is_one_when_optimum_is_fixed(self):
        # at large gain the exact optimum is a single antenna
        p = reference_params(-110.0)
        assert compare_fixed_m(5.0, p, 1) == pytest.approx(1.0, rel=1e-12)


class TestCli:
    def test_sweep_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           extra="variable = Gc\ngrid = -155,-150\n"
                                 "objectives = relaxed\n")
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert "wrote 2 rows" in capsys.readouterr().out
        assert out.read_text().startswith(CSV_HEADER)

    def test_sweep_requires_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra="grid = -155,-150\n")
        assert main(["sweep", "--config", cfg]) == 1
        assert "config error" in capsys.readouterr().err

    def test_optimize_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["optimize", "--config", cfg,
                     "--objective", "relaxed"]) == 0
        text = capsys.readouterr().out
        assert "eta_bits_per_joule" in text
        eta = float(next(l.split("=")[1] for l in text.splitlines()
                         if l.startswith("eta")))
        p = reference_params(-150.0)
        assert eta == pytest.approx(
            with_units(relaxed_optimum(5.0, normalize(p)), p, 5.0).eta,
            rel=1e-8)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_optimize_lines_match_csv_row(self, tmp_path, capsys, objective):
        # the seven optimize lines are columns 3-9 of the one-point sweep's row
        cfg = write_config(tmp_path, extra=f"grid = -150\n"
                                           f"objectives = {objective}\n")
        assert main(["optimize", "--config", cfg,
                     "--objective", objective]) == 0
        lines = capsys.readouterr().out.splitlines()
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        header, row = out.read_text(encoding="utf-8").splitlines()
        assert lines == [f"{name} = {text}" for name, text in zip(
            header.split(",")[2:9], row.split(",")[2:9])]

    @pytest.mark.parametrize("argv", [
        ["optimize"], ["optimize", "--objective", "relaxed"],
        ["compare-fixed-m"], ["sweep", "--out", "o.csv"]])
    def test_zero_per_antenna_power_names_it(self, tmp_path, capsys,
                                             monkeypatch, argv):
        # every command names the per-antenna draw, not rho
        cfg = write_config(tmp_path, extra="P_BS = 0\nC0 = 0\ngrid = -150\n")
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "P_BS + 2*C0*B" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv, extra", [
        (["optimize"], "Gc_dB = 4000\n"),
        (["sweep", "--out", "o.csv"],
         "Gc_dB = 4000\nvariable = R\ngrid = 5\n"),
        (["sweep", "--out", "o.csv"], "grid = -150,4000\n"),
        (["sweep", "--out", "o.csv"],
         "grid = -3070,4000\nobjectives = exact\n"),
    ], ids=["optimize", "sweep-R", "sweep-Gc", "sweep-Gc-after-row-fault"])
    def test_gc_db_overflow_names_it(self, tmp_path, capsys, monkeypatch,
                                     argv, extra):
        # 10^(Gc_dB/10) overflows a float from Gc_dB ~ 3083 on. A sweep
        # checks its grid before its first row, so it names the gain even
        # where the -3070 dB row's exact start is above M_MAX
        cfg = write_config(tmp_path, extra=extra)
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: Gc_dB = 4000")
        assert not (tmp_path / "o.csv").exists()

    def test_bad_grid_gain_ends_sweep_before_first_row(self, tmp_path,
                                                        monkeypatch):
        # every grid point is resolved before any row is solved
        calls = []
        monkeypatch.setattr(sweep, "classify",
                            lambda *args: calls.append(args))
        path = write_config(tmp_path, extra="grid = -150,4000\n")
        with pytest.raises(ConfigError, match=re.escape(
                "Gc_dB = 4000.0 overflows a float as a linear gain")):
            run_sweep(sweep_spec_from_config(path))
        assert calls == []

    @pytest.mark.parametrize("gc_db", ["-3200", "-4000"])
    @pytest.mark.parametrize("argv, extra", [
        (["optimize", "--objective", "exact"], "Gc_dB = {}\n"),
        (["optimize", "--objective", "bound"], "Gc_dB = {}\n"),
        (["optimize", "--objective", "relaxed"], "Gc_dB = {}\n"),
        (["sweep", "--out", "o.csv"], "Gc_dB = {}\nvariable = R\ngrid = 5\n"),
        (["sweep", "--out", "o.csv"], "grid = {},-150\n"),
    ], ids=["exact", "bound", "relaxed", "sweep-R", "sweep-Gc"])
    def test_gc_db_underflow_names_it(self, tmp_path, capsys, monkeypatch,
                                      argv, extra, gc_db):
        # 10^(Gc_dB/10) is subnormal at -3200 dB and 0.0 at -4000 dB
        cfg = write_config(tmp_path, extra=extra.format(gc_db))
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: Gc_dB = {gc_db}")
        assert "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("objective", ["exact", "bound", "relaxed"])
    def test_smallest_normal_gain_runs(self, tmp_path, capsys, objective):
        # 10^-307 is still a normal float. The closed forms answer there;
        # the exact bracket's M-hat would be ~ 5.6e147, past M_MAX
        cfg = write_config(tmp_path, extra="Gc_dB = -3070\n")
        code = main(["optimize", "--config", cfg, "--objective", objective])
        out, err = capsys.readouterr()
        if objective == "exact":
            assert code == 1
            assert err.startswith("config error: the exact optimum's "
                                  "bracket reaches M = 5.5")
            assert "above M_MAX = 1e+06, at R = 5.0" in err
        else:
            assert code == 0
            assert "M = " in out

    @pytest.mark.parametrize("R, gc_db", [("1e-300", "100"),
                                          ("1e-310", "-150")])
    @pytest.mark.parametrize("argv", [
        *(["optimize", "--objective", objective] for objective in OBJECTIVES),
        ["sweep", "--out", "o.csv"]],
        ids=[*OBJECTIVES, "sweep"])
    def test_underflowing_ee_names_m_and_r(self, tmp_path, capsys,
                                           monkeypatch, argv, R, gc_db):
        # (M rho + rho_c)/R overflows, so zeta (and eta) would print as 0
        # or lose their digits as subnormals
        cfg = write_config(tmp_path, extra=(
            f"R = {R}\nGc_dB = {gc_db}\nvariable = R\ngrid = {R}\n"
            f"objectives = {','.join(OBJECTIVES)}\n"))
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(rf"config error: the EE underflows at M = [12], "
                            rf"R = {R}\n", err)
        assert not (tmp_path / "o.csv").exists()

    def test_bound_snr_at_tiny_rate(self, tmp_path, capsys):
        # (2^R - 1)/(M - 1) with 2^R - 1 from expm1; 2.0**R - 1 printed
        # 6.93147761e-11
        cfg = write_config(tmp_path, extra="R = 1e-10\n")
        assert main(["optimize", "--config", cfg,
                     "--objective", "bound"]) == 0
        assert "gamma = 6.93147181e-11" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("extra, name, argv", [
        ("Gc_dB = 3000\n", "Gc_dB = 3000", ["optimize"]),
        ("C0 = 1e308\n", "P_BS + 2*C0*B", ["optimize"]),
        ("B = 1e-320\n", "N0*B", ["optimize"]),
        *(("N0 = 1e300\n", "N0", argv) for argv in (
            ["optimize", "--objective", "exact"],
            ["optimize", "--objective", "bound"],
            ["optimize", "--objective", "relaxed"],
            ["compare-fixed-m"])),
        ("pa_efficiency = 1e-300\nP_BS = 1e308\nR = 100\n", "P_BS",
         ["optimize", "--objective", "relaxed"]),
        ("pa_efficiency = 1e-300\nN0 = 1e-300\nGc_dB = -60\nR = 100\n",
         "pa_efficiency", ["optimize", "--objective", "relaxed"]),
    ], ids=["gain", "per-antenna-power", "noise-underflow",
            "antenna-count-exact", "antenna-count-bound",
            "antenna-count-relaxed", "antenna-count-compare-fixed-m",
            "relaxed-pa-power", "relaxed-pa-power-efficiency"])
    def test_theta_overflow_names_the_input(self, tmp_path, capsys, extra,
                                            name, argv):
        # an infinite Theta, an N0*B that underflows to 0, or an overflowing
        # (alpha/rho)(2^R - 1) or sqrt(alpha*rho*(2^R - 1)) is reported in
        # the config's terms, not as rho, and exits 1 instead of printing
        # inf
        cfg = write_config(tmp_path, extra=extra)
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert name in err
        assert "rho" not in err

    @pytest.mark.parametrize("objective", ["exact", "bound", "relaxed"])
    def test_huge_per_antenna_power_is_small_rate(self, tmp_path, capsys,
                                                  objective):
        # alpha*rho*(2^R - 1) overflows, but pa = 2*sqrt of it is about
        # 8.9e154, far below rho = 2.5e307: the point is small-R, not
        # transitional, and the relaxed PA power is finite
        cfg = write_config(tmp_path, extra="P_BS = 1e308\n")
        assert main(["optimize", "--config", cfg,
                     "--objective", objective]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "regime = small-R" in lines
        fields = dict(line.split(" = ") for line in lines)
        for name in ("gamma", "zeta", "f_pa"):
            assert 0 < float(fields[name]) < math.inf, name

    def test_pa_share_keeps_its_digits_at_a_tiny_rate(self, tmp_path,
                                                      capsys):
        # alpha*gamma*zeta underflows to 0 here, but the share itself,
        # alpha*gamma over R/zeta, is a normal float; it printed f_pa = 0
        cfg = write_config(tmp_path, extra="R = 1e-300\nGc_dB = -78\n"
                                           "pa_efficiency = 1\n")
        assert main(["optimize", "--config", cfg,
                     "--objective", "fixed-m-1"]) == 0
        assert "f_pa = 2.41753263e-308" \
            in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("extra, quantity", [
        ("N0 = 1e308\n", "N0*B overflows"),
        ("N0 = 1e24\nGc_dB = -3000\n", "underflows to 0"),
        ("N0 = 1e8\nGc_dB = -3000\nP_BS = 1e-10\nC0 = 0\n",
         "underflows to 0"),
    ], ids=["noise-overflow", "gain-underflow", "product-underflow"])
    @pytest.mark.parametrize("argv", [
        ["optimize"], ["compare-fixed-m"], ["sweep", "--out", "o.csv"]],
        ids=["optimize", "compare-fixed-m", "sweep"])
    def test_zero_gain_to_noise_names_the_inputs(self, tmp_path, capsys,
                                                 monkeypatch, extra,
                                                 quantity, argv):
        # Gc/(N0*B) times the per-antenna draw is 0 in floating point; every
        # command says so in config keys, not as "rho must be > 0"
        cfg = write_config(tmp_path, extra=extra + "grid = -3000,-150\n")
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert quantity in err
        for name in ("Gc_dB = ", "N0 = ", "B = "):
            assert name in err
        assert "rho" not in err
        assert not (tmp_path / "o.csv").exists()

    def test_relaxed_pa_share_at_huge_gain(self, tmp_path, capsys):
        # M' - 1 is below 1e-16 here; the relaxed SNR must not depend on it
        cfg = write_config(tmp_path, extra="Gc_dB = 230\n")
        assert main(["optimize", "--config", cfg,
                     "--objective", "relaxed"]) == 0
        f_pa = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("f_pa = ")]
        params, R, _ = point_from_config(cfg)
        assert f_pa == [f"f_pa = {fmt(relaxed_pa_share(params, R))}"]

    def test_pa_fraction(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["optimize", "--config", cfg,
                     "--objective", "relaxed"]) == 0
        f = float(dict(line.split(" = ") for line in
                       capsys.readouterr().out.splitlines())["f_pa"])
        assert 0.0 < f < 0.5

    def test_compare_fixed_m(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["compare-fixed-m", "--config", cfg,
                     "--m-fixed", "1"]) == 0
        assert float(capsys.readouterr().out.split("=")[1]) > 1.0

    @pytest.mark.parametrize("command, extra", [
        ("optimize", None),
        ("optimize", "R = 0\n"),
        ("optimize", "R = nan\n"),
        ("optimize", "quad_nodes = 2.5\n"),
        ("optimize", "mc_samples = 2.5\n"),
        ("optimize", "P_Bs = 0.1\n"),
        ("sweep", "grid = a,b\n"),
        ("sweep", "variable = R\ngrid = nan\n"),
        ("sweep", "grid = -150:-140:nan\n"),
        ("sweep", "variable = R\ngrid = 0.5:inf:1\n"),
        ("sweep", "variable = R\ngrid = -1,2\n"),
        ("sweep", "grid = -150\ndominance_threshold = 10\n"),
        ("optimize", "R = 150\n"),
        ("sweep", "grid = -150\nR = 150\n"),
        ("optimize", "rate_tol = 1e-6\n"),
        ("sweep", "grid = 0:1:1e-12\n"),
        ("optimize", "alpha = 3.0\n"),
        ("sweep", "grid = -150\nout = x.csv\n"),
        ("optimize", "estimator = monte-carlo\nseed = -1\n"),
        ("compare-fixed-m", "P_BS = 0\nC0 = 0\n"),
        ("compare-fixed-m", "estimator = bogus\n"),
        ("sweep", "grid = -150\nobjectives = exact,relaxed,exact\n"),
        ("optimize", "estimator = monte-carlo\nmc_samples = 1000000000000\n"),
        ("sweep", "grid = -150\nestimator = monte-carlo\n"
                  "mc_samples = 1000000000000\n"),
    ], ids=["missing", "R-zero", "R-nan", "quad-nodes-fraction",
            "mc-samples-fraction",
            "unknown-key", "grid-not-number", "R-grid-nan",
            "grid-step-nan", "R-grid-inf", "R-grid-negative",
            "threshold-removed", "R-above-range", "sweep-R-above-range",
            "rate-tol-removed", "grid-too-large", "alpha-removed",
            "out-key-removed", "seed-negative",
            "compare-fixed-m-no-antenna-power",
            "compare-fixed-m-bad-estimator",
            "objective-repeated", "mc-samples-too-many",
            "sweep-mc-samples-too-many"])
    def test_config_error_exits_one(self, tmp_path, capsys, command, extra):
        cfg = ("/no/such.cfg" if extra is None
               else write_config(tmp_path, extra=extra))
        out = ["--out", str(tmp_path / "o.csv")] if command == "sweep" else []
        assert main([command, "--config", cfg] + out) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["optimize", "sweep",
                                         "compare-fixed-m"])
    def test_config_not_utf8_exits_one(self, tmp_path, capsys, command):
        # the 0xff byte was a UnicodeDecodeError traceback
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"B = 1e6\xff\n")
        out = ["--out", str(tmp_path / "o.csv")] if command == "sweep" else []
        assert main([command, "--config", str(cfg)] + out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {cfg}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["optimize"],
         "mimo-ee optimize: the following arguments are required: --config"),
        (["optimize", "--config", "c.cfg", "--seed", "3"],
         "mimo-ee: unrecognized arguments: --seed 3"),
        (["sweep", "--config", "c.cfg", "--out", "o.csv",
          "--objective", "exact"],
         "mimo-ee: unrecognized arguments: --objective exact"),
        (["compare-fixed-m", "--config", "c.cfg", "--m-fixed", "2.5"],
         "mimo-ee compare-fixed-m: argument --m-fixed: invalid int value: "
         "'2.5'"),
        (["frobnicate"],
         "mimo-ee: argument command: invalid choice: 'frobnicate' (choose "
         "from 'sweep', 'optimize', 'compare-fixed-m')"),
        (["optimize", "--conf", "c.cfg"],
         "mimo-ee optimize: the following arguments are required: --config"),
        (["optimize", "--config=c.cfg"],
         "cannot read config c.cfg: [Errno 2] No such file or directory: "
         "'c.cfg'"),
        (["optimize", "--config", "a", "--config", "b"],
         "cannot read config b: [Errno 2] No such file or directory: 'b'"),
        (["optimize", "--config"],
         "mimo-ee optimize: argument --config: expected one argument"),
        (["optimize", "--config", "a", "extra"],
         "mimo-ee: unrecognized arguments: extra"),
        (["compare-fixed-m", "--config", "c", "--m-fixed", "-3"],
         "M must be a positive integer, got -3"),
    ], ids=["missing-config", "seed-flag-removed", "sweep-objective-removed",
            "m-fixed-fraction", "unknown-command",
            "abbreviated-flag", "config-equals-value", "later-flag-wins",
            "config-without-value", "extra-token", "negative-m-fixed"])
    def test_usage_error_exits_one(self, tmp_path, monkeypatch, capsys, argv,
                                   message):
        # the messages of the argparse parser the CLI once used, which would
        # itself exit 2, the code for a numerical failure. "c" is a valid
        # config, so -3 is read as --m-fixed's value and reaches the M check.
        write_config(tmp_path, name="c")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_antenna_count_beyond_float_range_exits_one(self, tmp_path,
                                                        capsys):
        # -float(M) and / (M - 1) would raise OverflowError, a numerical
        # failure (exit 2); an M no float holds is a usage error
        cfg = write_config(tmp_path)
        assert main(["compare-fixed-m", "--config", cfg,
                     "--m-fixed", str(10 ** 400)]) == 1
        assert capsys.readouterr().err \
            == "config error: M must be at most 1.79769e+308\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extra, argv, message", [
        ("R = 5e-324\n", ["optimize"],
         "R = 5e-324 is too small to solve at M = 1: "),
        ("R = 5e-324\nestimator = monte-carlo\nmc_samples = 2000\n",
         ["optimize"], "R = 5e-324 is too small to solve at M = 1: "),
        ("R = 1e-320\n", ["optimize"],
         "R = 1e-320 is too small to solve at M = 1: "),
        ("R = 1e-290\nGc_dB = 100\n", ["compare-fixed-m", "--m-fixed", "1"],
         "the EE underflows at M = 1, R = 1e-290"),
        ("Gc_dB = 2\n", ["compare-fixed-m", "--m-fixed", str(10 ** 300)],
         "the EE underflows at M = 1e+300, R = 5.0"),
        ("R = 3e-308\n", ["compare-fixed-m", "--m-fixed", "3"],
         "the EE underflows at M = 1, R = 3e-308"),
        ("estimator = monte-carlo\nmc_samples = 100000\n",
         ["compare-fixed-m", "--m-fixed", str(10 ** 304)],
         "M = 1e+304 is too large for mc_samples = 100000: the sum of the "
         "draws would overflow"),
        ("R = 1e-300\nGc_dB = -77\npa_efficiency = 1\n",
         ["optimize", "--objective", "fixed-m-1"],
         "the PA share underflows at M = 1, R = 1e-300"),
        *((EE_OVERFLOW, ["optimize", "--objective", objective],
           f"the EE overflows at M = {m}, R = 5.0")
          for objective, m in (("exact", "1"), ("bound", "2"),
                               ("relaxed", "1.00006"), ("fixed-m-1", "1"))),
        (EE_OVERFLOW, ["compare-fixed-m", "--m-fixed", "2"],
         "the EE overflows at M = 1, R = 5.0"),
        (EE_OVERFLOW + "grid = 100\nobjectives = exact,bound,relaxed,"
                       "fixed-m-1\n", ["sweep", "--out", "o.csv"],
         "the EE overflows at M = 1, R = 5.0"),
    ], ids=["start-underflow", "start-underflow-mc",
            "start-below-resolution", "fixed-zeta-underflow",
            "fixed-zeta-underflow-huge-m", "fixed-zeta-subnormal",
            "mc-draw-sum-overflow", "pa-share-subnormal",
            "ee-overflow-exact", "ee-overflow-bound", "ee-overflow-relaxed",
            "ee-overflow-fixed-m-1", "ee-overflow-compare-fixed-m",
            "ee-overflow-sweep"])
    def test_float_range_failures_exit_one(self, tmp_path, capsys,
                                           monkeypatch, extra, argv,
                                           message):
        # each was a ZeroDivisionError, exit 2 with "float division by
        # zero", and the last one also printed two numpy RuntimeWarnings;
        # except start-below-resolution, which printed zeta = 0 and exited
        # 0, fixed-zeta-subnormal, which printed a ratio of subnormal
        # zetas (eta_ratio = 1.02832547) and exited 0, and
        # pa-share-subnormal, which printed f_pa = 0 and exited 0. The
        # ee-overflow cases printed eta = inf (in an `ok` row for the
        # sweep) or a ratio of two infinite etas, and exited 0
        cfg = write_config(tmp_path, extra=extra)
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}"), err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["optimize", "--config", "--objective", "exact"],
         "mimo-ee optimize: argument --config: expected one argument"),
        (["optimize", "--config", "c", "-hh"],
         "mimo-ee: unrecognized arguments: -hh"),
        (["optimize", "--config", "c", "--help=x", "--", "-x"],
         "mimo-ee: unrecognized arguments: --help=x -- -x"),
        (["--config", "c", "optimize"],
         "mimo-ee: argument command: invalid choice: '--config' (choose "
         "from 'sweep', 'optimize', 'compare-fixed-m')"),
        (["optimize", "--config", "-x"],
         "cannot read config -x: [Errno 2] No such file or directory: '-x'"),
    ], ids=["value-starts-with-two-dashes", "stacked-help",
            "glued-help-and-terminator", "flag-before-command",
            "value-starts-with-one-dash"])
    def test_documented_grammar(self, tmp_path, monkeypatch, capsys, argv,
                                message):
        # argv[0] is the command; a value is the next token unless it starts
        # with --; anything else, -hh and -- included, is unrecognized
        write_config(tmp_path, name="c")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("argv, text", [
        (["frobnicate", "-h"], HELP_PROGRAM),
        (["--config", "optimize", "--help"], HELP_PROGRAM),
        (["optimize", "--config", "-h"], HELP_OPTIMIZE),
        (["sweep", "--bogus", "--help", "--out"], HELP_SWEEP),
    ], ids=["unknown-command", "flag-first", "help-as-value",
            "after-bad-tokens"])
    def test_help_token_anywhere(self, capsys, argv, text):
        # the help of argv[0], or the program's if argv[0] is no command
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr() == (text, "")

    def test_help_exits_zero(self, capsys):
        # argparse's help screens at 80 columns, kept as fixed text
        for argv, text in (
            (["optimize", "--help"], HELP_OPTIMIZE),
            (["-h"], HELP_PROGRAM),
            (["sweep", "--out", "o", "--help"], HELP_SWEEP),
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert capsys.readouterr() == (text, "")

    def test_readme_example_runs(self, tmp_path, monkeypatch, capsys):
        # the README's example config and commands, run as written
        readme = (Path(__file__).resolve().parents[1]
                  / "README.md").read_text(encoding="utf-8")
        block = readme.split("# example.cfg\n", 1)[1].split("```", 1)[0]
        (tmp_path / "example.cfg").write_text(block, encoding="utf-8")
        commands = [shlex.split(line)[1:] for line in readme.splitlines()
                    if line.startswith("mimo-ee ")]
        assert {argv[0] for argv in commands} == {
            "sweep", "optimize", "compare-fixed-m"}
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert main(argv) == 0, (argv, capsys.readouterr().err)

    def test_readme_criterion_2_script_backs_its_figures(self):
        # the README's criterion-2 script runs, and its gap and crossover
        # are the bullet's; each gamma0 error is within R ln2 eps = 7.7e-16
        # at R = 5 (the errors themselves may move an ulp with the libm)
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        script = readme.split("The criterion 2 numbers come from this "
                              "script:\n", 1)[1]
        code = script.split("<<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
        proc = subprocess.run(
            [sys.executable, "-"], input=code, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")})
        assert proc.returncode == 0, proc.stderr
        errors = re.findall(r"^M = [12]: gamma0 relative error (\S+)$",
                            proc.stdout, re.M)
        assert len(errors) == 2 and all(float(e) <= 7.7e-16 for e in errors)
        lead = re.search(r"lower by (\S+%)$", proc.stdout, re.M)[1]
        crossover = re.search(r"^crossover: (\S+ dB)$", proc.stdout, re.M)[1]
        bullet = readme.split("- criterion 2:", 1)[1].split("- criterion 7:",
                                                            1)[0]
        bullet = " ".join(bullet.replace("−", "-").split())
        assert f"{lead} lower" in bullet and f"at {crossover}" in bullet

    @pytest.mark.parametrize("R", ["150", "3000"])
    @pytest.mark.parametrize("argv, extra", [
        *((["optimize", "--objective", o], "") for o in OBJECTIVES),
        (["compare-fixed-m"], ""),
        *((["sweep"], f"grid = -150\nobjectives = {o}\n")
          for o in OBJECTIVES),
        (["sweep"], "variable = R\ngrid = 5,{R}\nobjectives = "
                    + ",".join(OBJECTIVES) + "\n"),
    ], ids=[*(f"optimize-{o}" for o in OBJECTIVES), "compare-fixed-m",
            *(f"sweep-Gc-{o}" for o in OBJECTIVES), "sweep-R"])
    def test_rate_out_of_range_exits_one(self, tmp_path, capsys, argv, extra,
                                         R):
        # every command and objective shares the range (0, R_MAX]; 2^R
        # overflows a float from R = 1024 on
        cfg = write_config(tmp_path, extra=f"R = {R}\n" + extra.format(R=R))
        out = ["--out", str(tmp_path / "o.csv")] if argv[0] == "sweep" else []
        assert main([argv[0], "--config", cfg, *argv[1:], *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: R = ")
        assert "Traceback" not in err

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        # a missing directory or a directory as --out is a usage error
        cfg = write_config(tmp_path,
                           extra="variable = Gc\ngrid = -155,-150\n"
                                 "objectives = relaxed\n")
        for out in (str(tmp_path / "no" / "such" / "o.csv"), str(tmp_path)):
            assert main(["sweep", "--config", cfg, "--out", out]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: cannot write CSV"), err
            assert "Traceback" not in err

    @pytest.mark.parametrize("argv, extra", [
        (["optimize"], ""), (["optimize", "--objective", "relaxed"], ""),
        (["compare-fixed-m", "--m-fixed", "8"], ""),
        (["sweep", "--out", "o.csv"], "grid = -155,-150\n")],
        ids=["optimize", "optimize-relaxed", "compare-fixed-m", "sweep"])
    def test_each_command_writes_stdout_once(self, tmp_path, monkeypatch,
                                             argv, extra):
        # the whole answer in one write, the same text as line by line
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, extra=extra)
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 0
        assert len(writes) == 1
        if argv[0] == "optimize":
            params, R, estimator = point_from_config(cfg)
            objective = argv[-1] if len(argv) > 1 else "exact"
            result = evaluate(objective, R, params, estimator)
            texts = (objective, *map(fmt, result), classify(R, params))
            assert writes[0] == "".join(
                f"{name} = {text}\n" for name, text in zip(REPORT_FIELDS,
                                                           texts))
        elif argv[0] == "sweep":
            assert writes[0] == "wrote 4 rows to o.csv\n"
        else:
            assert re.fullmatch(r"eta_ratio = [0-9.e+-]+\n", writes[0])

    @pytest.mark.parametrize("fails", ["write", "flush"])
    @pytest.mark.parametrize("argv", [["optimize", "--config", "c.cfg"],
                                      ["--help"]], ids=["optimize", "help"])
    def test_unwritable_stdout_exits_one(self, tmp_path, monkeypatch, capsys,
                                         fails, argv):
        # unbuffered stdout fails in write, buffered stdout in flush: either
        # way the call exits 1 as an unwritable --out does, and stdout is
        # closed so that exit does not retry the write
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, name="c.cfg")

        class Full(io.StringIO):
            def write(self, text):
                if fails == "write":
                    raise OSError(28, "No space left on device")
                return super().write(text)

            def flush(self):
                if fails == "flush":
                    raise OSError(28, "No space left on device")

        stdout = Full()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "cannot write output: [Errno 28] No space left on device\n")
        assert stdout.closed

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs the /dev/full device")
    @pytest.mark.parametrize("unbuffered", ["", "1"],
                             ids=["buffered", "unbuffered"])
    def test_full_device_exits_one(self, tmp_path, unbuffered):
        # no "Exception ignored" from the interpreter's exit flush (code 120)
        # an empty PYTHONUNBUFFERED leaves stdout buffered
        cfg = write_config(tmp_path)
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src),
               "PYTHONUNBUFFERED": unbuffered}
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "mimo_ee.cli", "optimize", "--config",
                 cfg], stdout=full, stderr=subprocess.PIPE, text=True,
                env=env)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == (
            "cannot write output: [Errno 28] No space left on device\n")

    def test_byte_order_mark_config_runs(self, tmp_path, monkeypatch,
                                         capsys):
        # a README config saved with a UTF-8 byte-order mark reads as without
        readme = (Path(__file__).resolve().parents[1]
                  / "README.md").read_text(encoding="utf-8")
        block = readme.split("# example.cfg\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        outputs = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            Path("example.cfg").write_bytes(prefix + block.encode())
            assert main(["optimize", "--config", "example.cfg"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].out

    def test_module_entry_point(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "mimo_ee.cli", "compare-fixed-m",
             "--config", cfg],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("eta_ratio = ")

    def test_cli_import_leaves_scipy_unloaded(self, tmp_path):
        # every command pays the import; scipy alone would cost most of it.
        # An optimize call loads no argparse, gettext or locale either: an
        # argparse parser's first message lookup imports locale.
        src = Path(__file__).resolve().parents[1] / "src"
        cfg = write_config(tmp_path)
        for code in (
            "import sys, mimo_ee.cli; print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))",
            "import sys; from mimo_ee.cli import main;"
            f" main(['optimize', '--config', {cfg!r}]);"
            " print(sorted({'argparse', 'gettext', 'locale'}"
            " & set(sys.modules)))",
        ):
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(src)})
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1] == "[]"

    def test_cli_import_leaves_numpy_random_unloaded(self):
        # numpy.random is needed only by the Monte Carlo estimator; loading
        # it at import would add its cost to every command
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, mimo_ee.cli; print(sorted(m for m in sys.modules"
             " if m == 'numpy.random' or m.startswith('numpy.random.')))"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestArgvFuzz:
    # tokens of the documented grammar, its usage errors and the corner
    # forms of other parsers: stacked and glued help, "--", a lone dash,
    # empty and spaced tokens, negative numbers, an M no float holds
    TOKENS = (
        "sweep", "optimize", "compare-fixed-m", "frobnicate",
        "--config", "--out", "--objective", "--m-fixed", "--conf", "--seed",
        "--config=c.cfg", "--config=", "--m-fixed=-3", "--objective=bound",
        "--out=o.csv", "-h", "--help", "-hh", "-hx", "--help=x", "-h=", "--",
        "-", "", "x y", "-3", "-0.5", "-1e3", "c.cfg", "o.csv", "missing.cfg",
        "exact", "bound", "relaxed", "fixed-m-1", "2", "57", "2.5",
        str(10 ** 400),
    )
    VALID = (
        ["sweep", "--config", "c.cfg", "--out", "o.csv"],
        ["optimize", "--config", "c.cfg", "--objective", "exact"],
        ["optimize", "--config=c.cfg", "--objective=relaxed"],
        ["compare-fixed-m", "--config", "c.cfg", "--m-fixed", "3"],
    )

    def argv_lists(self, n):
        """n seeded argv lists: valid ones with up to two random edits
        (insert, replace or delete a token), and random token runs."""
        rng = random.Random(20260)
        for _ in range(n):
            if rng.random() < 0.5:
                argv = list(rng.choice(self.VALID))
                for _ in range(rng.randint(0, 2)):
                    i = rng.randrange(len(argv) + 1)
                    edit = rng.choice(("insert", "replace", "delete"))
                    if edit == "insert" or i == len(argv):
                        argv.insert(i, rng.choice(self.TOKENS))
                    elif edit == "replace":
                        argv[i] = rng.choice(self.TOKENS)
                    else:
                        del argv[i]
            else:
                argv = rng.choices(self.TOKENS, k=rng.randint(0, 7))
            yield argv

    def test_every_call_ends_in_an_answer_help_or_config_error(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        helps = {HELP, *(text for _, _, text in COMMANDS.values())}
        codes = []
        for argv in self.argv_lists(3000):
            # "--out c.cfg" may have overwritten the config
            write_config(tmp_path, name="c.cfg",
                         extra="grid = -150,-140\nobjectives = relaxed\n")
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 0, argv
                assert capsys.readouterr() in {(text, "") for text in helps}
                codes.append("help")
                continue
            out, err = capsys.readouterr()
            assert code in (0, 1), (argv, err)
            if code:
                assert err.startswith("config error: "), (argv, err)
            else:
                assert out and not err, (argv, err)
            codes.append(code)
        # each outcome is reached often
        assert min(codes.count(c) for c in (0, 1, "help")) >= 200, \
            [codes.count(c) for c in (0, 1, "help")]


class TestConfigFuzz:
    # one or two config keys set to values at and past the ends of the float
    # range, through every command and objective under both estimators: a
    # call answers with finite numbers (exit 0) or names its input (exit 1),
    # and never ends in a numerical failure, a traceback or a numpy warning
    KEYS = ("B", "N0", "Gc_dB", "pa_efficiency", "P_BS", "P_UT", "P_OSC",
            "P_s", "P_dec", "C0", "R", "grid", "mc_samples", "seed")
    VALUES = ("0", "-1", "5e-324", "1e-320", "1e-300", "1e300", "1e308",
              "nan", "inf", "-inf", "text", "3000", "-3000", "100.0001")
    M_FIXED = ("1", "8", "64", "0", "-3", str(10 ** 300), str(10 ** 305))
    CALLS = (
        ["sweep", "--out", "o.csv"],
        *(["optimize", "--objective", name] for name in OBJECTIVES),
        ["compare-fixed-m"],
    )

    def calls(self, n):
        """n seeded (argv tail, config text) pairs."""
        rng = random.Random(2402)
        for _ in range(n):
            argv = list(rng.choice(self.CALLS))
            if argv[0] == "compare-fixed-m":
                argv += ["--m-fixed", rng.choice(self.M_FIXED)]
            extra = rng.choice((
                "variable = Gc\ngrid = -150,-130\n",
                "variable = R\ngrid = 1,5\n"))
            extra += "objectives = exact,bound,relaxed,fixed-m-1\n"
            if rng.random() < 0.5:
                extra += (f"estimator = monte-carlo\nmc_samples = "
                          f"{rng.choice((100, 2000))}\n")
            for key in rng.sample(self.KEYS, rng.randint(1, 2)):
                extra += f"{key} = {rng.choice(self.VALUES)}\n"
            yield argv, extra

    @staticmethod
    def numbers(text, separator):
        """Every field of text that reads as a float."""
        for line in text.splitlines():
            for field in line.split(separator):
                try:
                    yield float(field)
                except ValueError:
                    pass

    @pytest.mark.filterwarnings("error")
    def test_every_call_answers_finitely_or_names_its_input(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        codes = []
        for argv, extra in self.calls(3000):
            cfg = write_config(tmp_path, extra=extra, name="c.cfg")
            start = time.perf_counter()
            code = main([argv[0], "--config", cfg, *argv[1:]])
            assert time.perf_counter() - start < 5.0, (argv, extra)
            out, err = capsys.readouterr()
            assert code in (0, 1), (argv, extra, err)
            if code:
                assert err.startswith("config error: "), (argv, extra, err)
            else:
                if argv[0] == "sweep":
                    out = (tmp_path / "o.csv").read_text(encoding="utf-8")
                numbers = list(self.numbers(
                    out, "," if argv[0] == "sweep" else " = "))
                assert numbers and all(map(math.isfinite, numbers)), \
                    (argv, extra, out)
            codes.append(code)
        # both outcomes are reached often
        assert min(codes.count(0), codes.count(1)) >= 600, \
            (codes.count(0), codes.count(1))
