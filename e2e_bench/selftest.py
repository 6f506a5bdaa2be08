#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs (about 30 s):

    python3 e2e_bench/selftest.py

It checks that
  * the mpmath closed form agrees with direct quadrature of the same
    expectation, from M = 1 to M = 2000;
  * the output check passes the program's own outputs and flags an SNR
    perturbed by 1%, a zeta perturbed by 1e-6 and a wrong antenna count,
    and that a flagged row counts in `failed`;
  * every workload, traced and untraced, prints every metric named in
    BENCHMARK.json, and every reported metric, with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import reference  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "gc-sweep": functools.partial(workloads.gc_sweep, span_db=2.0),
    "optimize-points": functools.partial(workloads.optimize_points,
                                         strata=(2, 2)),
    "mc-sweep": functools.partial(workloads.mc_sweep, stop_db=-146.0,
                                  samples=20_000),
}


def check_reference() -> None:
    for M, gamma in ((1, 52.37), (2, 0.5631), (3, 12.23), (57, 0.003324),
                     (100, 0.01003), (2000, 0.0155)):
        closed = reference.capacity_ref(M, gamma)
        quad = reference.capacity_quad(M, gamma)
        assert abs(closed - quad) <= 1e-11 * max(1.0, closed), (M, gamma, closed, quad)


def _csv_with(text: str, row_index: int, field: str, scale: float) -> str:
    lines = text.split("\n")
    fields = lines[row_index + 1].split(",")
    col = reference.CSV_FIELDS.index(field)
    fields[col] = f"{float(fields[col]) * scale:.9g}"
    lines[row_index + 1] = ",".join(fields)
    return "\n".join(lines)


def check_gate(work: Path) -> None:
    from mimo_ee.cli import main as cli_main

    wl = TINY["gc-sweep"](0, work)
    req = wl.requests[0]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(list(req.argv)) == 0
    clean = Path(req.out).read_text(encoding="utf-8")

    def verdict(text: str) -> dict:
        child = {"times": [1.0], "codes": [0], "texts": [text], "logs": [""],
                 "rss_kb": 1}
        return run.check(wl, [[child]])

    rows = len(req.points) * len(req.objectives)
    ok = verdict(clean)
    assert ok["attempted"] == rows and ok["failed"] == 0, ok
    assert ok["rate_err_max"] > 1e-5, ok     # the seed's M = 1 residual shows

    exact = req.objectives.index("exact")
    fixed = req.objectives.index("fixed-m-1")
    for index, field, scale in ((exact, "gamma", 1.01), (fixed, "gamma", 0.99),
                                (exact, "zeta", 1 + 1e-6),
                                (exact, "M", 2.0)):
        bad = verdict(_csv_with(clean, index, field, scale))
        assert bad["failed"] == 1, (field, scale, bad)

    # The same gate on `optimize` output.
    hw = reference.Hardware.reference()
    opt = TINY["optimize-points"](0, work).requests[0]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_main(list(opt.argv)) == 0
    row = reference.parse_optimize_stdout(buf.getvalue())
    assert not reference.check_row(hw, opt.points[0], "exact", row).errors
    row["gamma"] = repr(float(row["gamma"]) * 1.01)
    assert reference.check_row(hw, opt.points[0], "exact", row).errors


def _lines(name: str, trace: int, work: Path) -> tuple[dict, dict]:
    args = argparse.Namespace(workload=name, seed=3, seconds=0.5, trace=trace)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.run_workload(args) == 0
    lines = buf.getvalue().strip().split("\n")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_metrics(work: Path) -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END and layers == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    run.WORKLOADS.update(TINY)
    for name in workloads.WORKLOADS:
        for trace, wanted in ((0, e2e), (1, layers)):
            report, result = _lines(name, trace, work)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, report["check"]
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted, (name, trace, got)
            for key, value in result["metrics"].items():
                assert math.isfinite(value["value"]), (name, key)
                if trace == 0:
                    assert value["value"] > 0, (name, key)
            reported = {k: v["unit"] for k, v in report["metrics"].items()}
            names = set(run.REPORTED) - ({"warm_s"} if trace else set())
            if name != "optimize-points":
                names -= {"optimize_ms_p50", "optimize_ms_p90"}
            assert reported == {k: run.REPORTED[k] for k in names}, reported
            print(f"ok  {name:16s} trace={trace}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.ROOT / ".bench_build" / "e2e_bench" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        check_reference()
        print("ok  closed form agrees with quadrature")
        check_gate(work)
        print("ok  output check flags perturbed rows")
        check_metrics(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
