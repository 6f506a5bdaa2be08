#!/usr/bin/env python3
"""End-to-end benchmark of the mimo-ee command line, with an output check.

    python3 e2e_bench/run.py --workload gc-sweep --seed 1 --seconds 30 --trace 0
    python3 e2e_bench/run.py --workload all      # every workload in turn

Run from anywhere; the package is imported from ../src, nothing is built or
installed. The benchmark imports `mimo_ee.cli` once and forks a child for
every cold request, one child at a time, so each request starts from the
state of a fresh `mimo-ee` process right after import, whatever the library
caches. Warm repeats run in the child that ran the request cold.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it spends
half the time untraced and half with per-layer spans (see tracing.py), and
reports the per-layer metrics. Every output is checked against an mpmath
reference (reference.py) outside the timed region. Stdout ends with a
report line (provenance and every metric with its unit) and then one JSON
result line: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP before numpy is first imported, here and in every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import Tracer, layer_totals, new_total  # noqa: E402
from workloads import WORKLOADS, Request, Workload  # noqa: E402

SETUP_REPEATS = 7       # fresh-interpreter imports per run; the median counts
CHILD_TIMEOUT_S = 60    # a child still running after this is killed

# Metric name -> unit. END_TO_END is what --trace 0 prints as the result;
# REPORTED adds the ones that cannot be gated on every workload.
END_TO_END = {"setup_s": "s", "cold_s": "s", "warm_s": "s",
              "peak_rss_mb": "MB"}
REPORTED = {**END_TO_END, "optimize_ms_p50": "ms", "optimize_ms_p90": "ms",
            "failed_frac": "ratio", "rate_err_max": "bits/s/Hz"}
PER_LAYER = {
    "capacity.invert_capacity.calls": "count",
    "capacity.invert_capacity.self_s": "s",
    "capacity.invert_capacity.iterations_mean": "count",
    "capacity.invert_capacity.errors": "count",
    "capacity.quad_tables_built": "count",
    "backend.bisect_rate.calls": "count",
    "backend.bisect_rate.s": "s",
    "backend.expected_log_capacity.calls": "count",
    "backend.expected_log_capacity.s": "s",
    "optimizer.optimize_exact.calls": "count",
    "optimizer.optimize_exact.self_s": "s",
    "optimizer.zeta_exact.calls": "count",
    "optimizer.zeta_exact.self_s": "s",
    "optimizer.evals_per_optimize": "count",
    "optimizer.inversions_per_eval": "ratio",
    "regimes.classify.calls": "count",
    "regimes.classify.s": "s",
    "sweep.run_sweep.self_s": "s",
    "sweep.config.s": "s",
    "sweep.emit_csv.s": "s",
    "sweep.emit_csv.bytes": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "check.rate_err_max": "bits/s/Hz",
}


# --------------------------------------------------------------------------
# Children: one cold request (plus warm repeats) per forked process.

def _run_child(job) -> dict:
    """Fork, run job() in the child, return its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    # Objects that exist now are never collected in the child, so its
    # garbage collector does not copy the parent's pages on write.
    gc.freeze()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            signal.alarm(CHILD_TIMEOUT_S)
            payload = json.dumps(job())
        except BaseException:  # the child must always exit here
            payload = json.dumps({"crash": traceback.format_exc()})
            code = 1
        with os.fdopen(write_fd, "w") as fh:
            fh.write(payload)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    try:
        result = json.loads(payload)
    except ValueError:
        result = {}
    if status != 0 and "crash" not in result:
        result["crash"] = f"child ended with wait status {status}"
    return result


def _serve(cli_main, req: Request, warm_repeats: int,
           tracer: Tracer | None) -> dict:
    """Run one request cold and then warm_repeats times warm (in the child)."""
    out = {"times": [], "codes": [], "texts": [], "logs": []}
    for _ in range(1 + warm_repeats):
        buf = io.StringIO()
        root = tracer.span("cli.main") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter()
            with root:
                try:
                    code = cli_main(list(req.argv))
                except SystemExit as exc:
                    code = exc.code
            elapsed = time.perf_counter() - t0
        if req.kind == "sweep":
            path = Path(req.out)
            text = path.read_text(encoding="utf-8") if path.exists() else ""
            path.unlink(missing_ok=True)
        else:
            text = buf.getvalue()
        out["times"].append(elapsed)
        out["codes"].append(code)
        out["texts"].append(text)
        out["logs"].append(buf.getvalue() if code != 0 else "")
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["spans"] = tracer.spans
        table = getattr(sys.modules.get("mimo_ee.capacity"), "_quad_table", None)
        info = getattr(table, "cache_info", None)
        out["tables"] = info().misses if info else 0
    return out


def measure(workload: Workload, cli_main, seconds: float, warm_repeats: int,
            tracer: Tracer | None = None,
            setup: SetupTimer | None = None) -> list[list[dict]]:
    """Cold passes over the workload's requests for `seconds` (at least
    workload.min_passes). Returns each request's child results."""
    results: list[list[dict]] = [[] for _ in workload.requests]
    # Keep one copy of each distinct output: the parent's memory is part of
    # every child's resident set, so it must not grow with the pass count.
    distinct: dict[str, str] = {}
    start = time.perf_counter()
    passes = 0
    while True:
        for i, req in enumerate(workload.requests):
            if passes >= workload.min_passes and \
                    time.perf_counter() - start >= seconds:
                return results
            if tracer is not None:
                tracer.trace_id = len(results[i]) * len(results) + i
            child = _run_child(
                lambda: _serve(cli_main, req, warm_repeats, tracer))
            child["texts"] = [distinct.setdefault(t, t)
                              for t in child.get("texts", [])]
            results[i].append(child)
            if setup is not None:
                setup.maybe_sample(time.perf_counter() - start)
        passes += 1


def _ok(child: dict) -> bool:
    return "crash" not in child and bool(child.get("times"))


# The pass times below are means, not medians. A shared 2-core Xeon machine
# was seen to alternate between two speeds (about 1.7x apart for Python
# code) for seconds at a time. A median of such samples jumps between the
# two modes with the share of the run spent in each, while the mean moves in
# proportion to it: over 30 s windows of one long gc-sweep log there, the
# spread of warm pass medians was 10-18% and that of means 6-8%.

def _cold_s(results) -> float:
    """Sum over requests of the mean cold latency of each."""
    return sum(statistics.fmean(c["times"][0] for c in rs if _ok(c))
               for rs in results if any(_ok(c) for c in rs))


def _warm_s(results) -> float:
    """Sum over requests of the mean warm-repeat latency of each."""
    return sum(statistics.fmean(t for c in rs if _ok(c) for t in c["times"][1:])
               for rs in results if any(_ok(c) and c["times"][1:] for c in rs))


# --------------------------------------------------------------------------
# Output check (outside every timed region).

def check(workload: Workload, results) -> dict:
    """attempted / failed rows or calls, the largest rate error, examples."""
    import reference  # mpmath stays out of the forked children's memory

    hw = reference.Hardware.reference()
    attempted = failed = 0
    rate_errs: list[float] = []
    examples: list[str] = []
    memo: dict[str, int] = {}

    def note(message: str) -> None:
        if len(examples) < 5:
            examples.append(message)

    def row_errors(req: Request, row: dict, point, objective: str) -> list[str]:
        if req.kind == "sweep":
            if row.get("sweep_var") != "Gc" or row.get("objective") != objective:
                return [f"row out of order: {row}"]
            try:
                gc_db = float(row["sweep_value"])
            except (KeyError, ValueError):
                return [f"bad sweep_value in {row}"]
            if abs(gc_db - point.gc_db) > 1e-7 * abs(point.gc_db):
                return [f"sweep_value {gc_db} != {point.gc_db}"]
        elif row.get("objective") != objective:
            return [f"objective {row.get('objective')!r}"]
        result = reference.check_row(hw, point, objective, row, req.mc_samples)
        if result.rate_err is not None:
            rate_errs.append(result.rate_err)
        return result.errors

    def check_text(req: Request, text: str) -> int:
        """Number of failed rows/calls in one output text."""
        if req.kind == "sweep":
            rows = reference.parse_sweep_csv(text) if text else []
            expected = [(p, o) for p in req.points for o in req.objectives]
        else:
            rows = [reference.parse_optimize_stdout(text)]
            expected = [(req.points[0], req.objectives[0])]
        if len(rows) != len(expected):
            note(f"{len(rows)} rows, expected {len(expected)}")
            return len(expected)
        bad = 0
        for row, (point, objective) in zip(rows, expected):
            errors = row_errors(req, row, point, objective)
            if errors:
                bad += 1
                note(f"{objective} at Gc={point.gc_db:.6g} dB, R={point.R:.6g}: "
                     + "; ".join(errors))
        return bad

    for req, children in zip(workload.requests, results):
        size = len(req.points) * len(req.objectives)
        first = None
        for child in children:
            if not _ok(child):
                attempted += size
                failed += size
                note(child.get("crash", "no result")[-500:])
                continue
            for code, text, log in zip(child["codes"], child["texts"],
                                       child["logs"]):
                attempted += size
                if code != 0:
                    failed += size
                    note(f"exit code {code}: {log[-300:]}")
                    continue
                if first is None:
                    first = text
                if text != first:
                    failed += size
                    note("output differs from the first pass")
                    continue
                if text not in memo:
                    memo[text] = check_text(req, text)
                failed += memo[text]
    return {"attempted": attempted, "failed": failed,
            "rate_err_max": max(rate_errs) if rate_errs else 0.0,
            "examples": examples}


# --------------------------------------------------------------------------
# Metrics.

def per_layer_metrics(workload: Workload, traced, untraced_cold_s: float,
                      traced_cold_s: float, rate_err_max: float) -> dict:
    """Per-layer values per cold pass (one sweep, or every optimize call)."""
    children = [c for rs in traced for c in rs if _ok(c)]
    passes = len(children) / len(workload.requests)
    totals = layer_totals(c["spans"] for c in children)

    def t(name):
        return totals.get(name) or new_total()

    def per_pass(x):
        return x / passes if passes else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    inv = t("capacity.invert_capacity")
    opt = t("optimizer.optimize_exact")
    zeta = t("optimizer.zeta_exact")
    csv = t("sweep.emit_csv")
    m = {
        "capacity.invert_capacity.calls": per_pass(inv["calls"]),
        "capacity.invert_capacity.self_s": per_pass(inv["self_s"]),
        "capacity.invert_capacity.iterations_mean":
            ratio(sum(inv["values"]), len(inv["values"])),
        "capacity.invert_capacity.errors": per_pass(inv["errors"]),
        "capacity.quad_tables_built":
            per_pass(sum(c.get("tables", 0) for c in children)),
        "backend.bisect_rate.calls": per_pass(t("backend.bisect_rate")["calls"]),
        "backend.bisect_rate.s": per_pass(t("backend.bisect_rate")["s"]),
        "backend.expected_log_capacity.calls":
            per_pass(t("backend.expected_log_capacity")["calls"]),
        "backend.expected_log_capacity.s":
            per_pass(t("backend.expected_log_capacity")["s"]),
        "optimizer.optimize_exact.calls": per_pass(opt["calls"]),
        "optimizer.optimize_exact.self_s": per_pass(opt["self_s"]),
        "optimizer.zeta_exact.calls": per_pass(zeta["calls"]),
        "optimizer.zeta_exact.self_s": per_pass(zeta["self_s"]),
        "optimizer.evals_per_optimize":
            ratio(opt["child_calls"].get("optimizer.zeta_exact", 0), opt["calls"]),
        "optimizer.inversions_per_eval": ratio(inv["calls"], zeta["calls"]),
        "regimes.classify.calls": per_pass(t("regimes.classify")["calls"]),
        "regimes.classify.s": per_pass(t("regimes.classify")["s"]),
        "sweep.run_sweep.self_s": per_pass(t("sweep.run_sweep")["self_s"]),
        "sweep.config.s": per_pass(t("sweep.config")["s"]),
        "sweep.emit_csv.s": per_pass(csv["s"]),
        "sweep.emit_csv.bytes": per_pass(sum(csv["values"])),
        "cli.main.self_s": per_pass(t("cli.main")["self_s"]),
        "trace.overhead_s": traced_cold_s - untraced_cold_s,
        "check.rate_err_max": rate_err_max,
    }
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in m.items()}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# --------------------------------------------------------------------------
# Set-up and provenance.

class SetupTimer:
    """Wall time of `import mimo_ee.cli` in fresh interpreters.

    One untimed import first writes the bytecode cache, as installing does.
    The timed imports are spread over the measuring period, so that they
    see the same machine load as the passes do.
    """

    def __init__(self, env: dict, seconds: float):
        self._cmd = [sys.executable, "-c", "import mimo_ee.cli"]
        self._env = env
        self._seconds = seconds
        self.times: list[float] = []
        subprocess.run(self._cmd, env=env, check=True)

    def sample(self) -> None:
        t0 = time.perf_counter()
        subprocess.run(self._cmd, env=self._env, check=True)
        self.times.append(time.perf_counter() - t0)

    def maybe_sample(self, elapsed: float) -> None:
        if len(self.times) < SETUP_REPEATS and \
                elapsed >= len(self.times) * self._seconds / SETUP_REPEATS:
            self.sample()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return self.times


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    backend = sys.modules.get("mimo_ee.backend")
    return {
        "workload": args.workload, "seed": args.seed,
        "run_seconds": args.seconds, "trace": args.trace,
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": getattr(backend, "BACKEND", None),
        "git_commit": _git_commit(),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((SRC / "mimo_ee").rglob("*.py"))),
    }


# --------------------------------------------------------------------------

def run_workload(args) -> int:
    if not (SRC / "mimo_ee" / "cli.py").is_file():
        print(f"no mimo_ee package under {SRC}", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    work = ROOT / ".bench_build" / "e2e_bench" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = SetupTimer(env, args.seconds / (2 if args.trace else 1))
        workload = WORKLOADS[args.workload](args.seed, work)
        sys.path.insert(0, str(SRC))
        from mimo_ee.cli import main as cli_main

        if args.trace:
            untraced = measure(workload, cli_main, args.seconds / 2, 0,
                               setup=setup)
            tracer = Tracer()
            tracer.install()
            traced = measure(workload, cli_main, args.seconds / 2, 0, tracer)
            timed = untraced
            results = [u + t for u, t in zip(untraced, traced)]
        else:
            timed = results = measure(workload, cli_main, args.seconds,
                                      workload.warm_repeats, setup=setup)
        setup_times = setup.finish()
        verdict = check(workload, results)

        cold = [c["times"][0] for rs in timed for c in rs if _ok(c)]
        reported = {
            "setup_s": statistics.median(setup_times),
            "cold_s": _cold_s(timed),
            "peak_rss_mb": max((c["rss_kb"] for rs in timed for c in rs
                                if _ok(c)), default=0) / 1024.0,
            "failed_frac": verdict["failed"] / max(verdict["attempted"], 1),
            "rate_err_max": verdict["rate_err_max"],
        }
        if not args.trace:
            reported["warm_s"] = _warm_s(timed)
        if workload.name == "optimize-points":
            reported["optimize_ms_p50"] = 1e3 * statistics.median(cold)
            reported["optimize_ms_p90"] = 1e3 * _percentile(cold, 0.9)
        report = {
            "provenance": provenance(args),
            "metrics": {k: {"value": v, "unit": REPORTED[k]}
                        for k, v in reported.items()},
            "samples": {"setup": len(setup_times), "cold": len(cold),
                        "warm": sum(len(c["times"]) - 1 for rs in results
                                    for c in rs if _ok(c)),
                        "requests_per_pass": len(workload.requests)},
            "check": verdict,
        }
        if args.trace:
            metrics = per_layer_metrics(
                workload, traced, _cold_s(untraced), _cold_s(traced),
                verdict["rate_err_max"])
            report["per_layer"] = metrics
        else:
            metrics = {k: report["metrics"][k] for k in END_TO_END}
        print(json.dumps({"report": report}))
        print(json.dumps({"correct": verdict["failed"] == 0,
                          "attempted": verdict["attempted"],
                          "failed": verdict["failed"],
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
