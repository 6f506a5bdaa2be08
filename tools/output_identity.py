"""Check that two checkouts print the same bytes for the same CLI calls.

    python3 tools/output_identity.py BASE HEAD [--work DIR]

BASE and HEAD are source trees, each with `src/mimo_ee`. The same list of
`mimo-ee` calls runs against each tree, in a fresh interpreter that imports
that tree's package. Every case gets a directory under WORK/base or
WORK/head. Each directory holds the CSV a sweep wrote and `log.txt`: every
call's argv, stdout, stderr and exit code. The two trees are then compared
byte for byte. The script exits 1 and lists each file that differs or exists
on one side only; it also exits 1, naming the side and its exit code, when
one side's run fails. WORK defaults to a new temporary directory; a given WORK
must be empty or not exist yet.

Every call's input is made here and shared by both sides:
- sweeps: the Gc grid R = 5 over -180:-100:0.5 dB and the 10,001-point grid
  -190:-90:0.01 dB; the R grids 0.25:15:0.25 and 0.01:20:0.01 at -150 dB;
  the Monte Carlo sweep (1e5 samples, -150:-110:2 dB) at seeds 0 to 3, and
  a Monte Carlo R sweep (2e4 samples, 0.5:10:0.5 at -150 dB, seed 5) whose
  points share no (M, R) pair;
- the README example config and its `mimo-ee` commands, as written in
  HEAD's README;
- line ends: that config with a one-point Gc grid and every objective,
  saved with CRLF line ends, with CR line ends and without a final newline,
  each through `optimize` with every objective and a `sweep`;
- `--help` of the program and of each command, usage errors, and flag
  spellings: `--flag=value`, a repeated flag, a negative `--m-fixed`;
- `optimize` with each objective and `compare-fixed-m --m-fixed 1|8|64`,
  at the README point and at 399 seeded random points with Gc in
  [-190, -90] dB and R in [0.1, 15]. The relaxed objective's `f_pa` line is
  the PA share at the relaxed optimum;
- `optimize` and `compare-fixed-m --m-fixed 8` with the Monte Carlo
  estimator (2e4 samples, seed 5) at the first 20 of those points, and
  with 300,001 samples, which split into eight blocks, at the first 5;
- `optimize` with 131,080 Monte Carlo samples (seed 5), whose largest
  block is the left half, at the first 5 of those points, and a Monte
  Carlo Gc sweep at that size (R = 5, -150:-146:2 dB);
- `optimize` with each objective near `M_MAX`, where the exact M* runs
  from about 5.1e5 to 8.9e5: Gc_dB = -190 at R = 18, 19 and 19.6, and
  Gc_dB = -185 at R = 20;
- the README's exit-1 faults, one input each: `Gc_dB = 4000`; `Gc_dB =
  -3200`; `N0 = 1e308`; `P_BS = C0 = 0`; `R = 60` at -150 dB; `R = 1e-300`
  at 100 dB; `R = 1e-320`; `pa_efficiency = 1e-300` with `P_BS = 1e308`
  and `R = 100`; `R = 1e-300` at -77 dB with `pa_efficiency = 1`; `R =
  101`. Each runs `optimize` with every objective, `compare-fixed-m
  --m-fixed 3` and a one-point Gc sweep.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HARDWARE = """\
B = 1e6
N0 = 3.981071705534969e-21
pa_efficiency = 0.39
P_BS = 0.1
P_UT = 0.1
P_OSC = 2.0
P_s = 5.0
P_dec = 1.15
C0 = 1e-9
"""
ALL_OBJECTIVES = "exact,bound,relaxed,fixed-m-1"
MONTE_CARLO = "estimator = monte-carlo\nmc_samples = 20000\nseed = 5\n"
MONTE_CARLO_BLOCKS = MONTE_CARLO.replace("20000", "300001")
MONTE_CARLO_LEFT = MONTE_CARLO.replace("20000", "131080")
CONFIG = "example.cfg"
# (Gc_dB, R) of the points whose exact M* is near M_MAX
LARGE = (("-190", "18"), ("-190", "19"), ("-190", "19.6"), ("-185", "20"))
# (Gc_dB, R, other config lines) of each documented exit-1 fault
FAULTS = (
    ("4000", "5", ""), ("-3200", "5", ""), ("-150", "5", "N0 = 1e308\n"),
    ("-150", "5", "P_BS = 0\nC0 = 0\n"), ("-150", "60", ""),
    ("100", "1e-300", ""), ("-150", "1e-320", ""),
    ("-150", "100", "pa_efficiency = 1e-300\nP_BS = 1e308\n"),
    ("-77", "1e-300", "pa_efficiency = 1\n"), ("-150", "101", ""),
)


def _sweep(variable: str, fixed: str, grid: str, objectives: str,
           extra: str = "") -> list:
    config = (HARDWARE + f"{fixed}\nvariable = {variable}\ngrid = {grid}\n"
              f"objectives = {objectives}\n{extra}")
    return [[config, ["sweep", "--config", CONFIG, "--out", "curve.csv"]]]


def _readme_config(readme: Path) -> str:
    text = readme.read_text(encoding="utf-8")
    return text.split(f"# {CONFIG}\n", 1)[1].split("```", 1)[0]


def _readme_runs(readme: Path) -> list:
    config = _readme_config(readme)
    return [[config, shlex.split(line)[1:]]
            for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith("mimo-ee ")]


def _line_end_runs(readme: Path) -> list:
    lines = (_readme_config(readme) + "grid = -150\n"
             f"objectives = {ALL_OBJECTIVES}\n").splitlines()
    return [[config, argv]
            for name, config in (("crlf", "\r\n".join(lines) + "\r\n"),
                                 ("cr", "\r".join(lines) + "\r"),
                                 ("no-final", "\n".join(lines)))
            for argv in (*(["optimize", "--config", CONFIG, "--objective", o]
                           for o in ALL_OBJECTIVES.split(",")),
                         ["sweep", "--config", CONFIG, "--out",
                          f"curve-{name}.csv"])]


def cases(readme: Path) -> dict[str, list]:
    """Case name -> list of [config text, argv] calls, run in that order."""
    out = {
        "sweep-gc": _sweep("Gc", "R = 5", "-180:-100:0.5", ALL_OBJECTIVES),
        "sweep-gc-fine": _sweep("Gc", "R = 5", "-190:-90:0.01", "exact"),
        "sweep-r": _sweep("R", "Gc_dB = -150", "0.25:15:0.25",
                          ALL_OBJECTIVES),
        "sweep-r-fine": _sweep("R", "Gc_dB = -150", "0.01:20:0.01", "exact"),
        **{f"sweep-mc-seed{seed}": _sweep(
            "Gc", "R = 5", "-150:-110:2", "exact,fixed-m-1",
            f"estimator = monte-carlo\nmc_samples = 100000\nseed = {seed}\n")
           for seed in range(4)},
        "sweep-mc-r": _sweep("R", "Gc_dB = -150", "0.5:10:0.5",
                             "exact,fixed-m-1", MONTE_CARLO),
        "readme": _readme_runs(readme),
        "line-ends": _line_end_runs(readme),
        "usage": [[HARDWARE + "Gc_dB = -150\nR = 5\n", argv] for argv in (
            ["--help"], ["sweep", "--help"], ["optimize", "--help"],
            ["compare-fixed-m", "--help"], ["-h"],
            ["sweep", "--out", "o", "--help"],
            [], ["frobnicate"], ["optimize"], ["sweep", "--config", CONFIG],
            ["compare-fixed-m", "--config", CONFIG, "--m-fixed", "2.5"],
            ["optimize", f"--config={CONFIG}"],
            ["optimize", "--config", "a", "--config", CONFIG],
            ["optimize", "--config"],
            ["optimize", "--config", CONFIG, "extra"],
            ["compare-fixed-m", "--config", CONFIG, "--m-fixed", "-3"])],
    }
    rng = random.Random(0)
    points = [(-150.0, 5.0)] + [(rng.uniform(-190.0, -90.0),
                                 rng.uniform(0.1, 15.0)) for _ in range(399)]
    configs = [HARDWARE + f"Gc_dB = {gc!r}\nR = {R!r}\n" for gc, R in points]
    commands = {
        **{f"optimize-{o}": ["optimize", "--objective", o]
           for o in ALL_OBJECTIVES.split(",")},
        **{f"compare-fixed-m-{m}": ["compare-fixed-m", "--m-fixed", m]
           for m in ("1", "8", "64")},
    }
    for name, argv in commands.items():
        out[name] = [[c, [argv[0], "--config", CONFIG, *argv[1:]]]
                     for c in configs]
    out["errors"] = [
        [HARDWARE + f"Gc_dB = {gc}\nR = {R}\n{extra}variable = Gc\n"
         f"grid = {gc}\nobjectives = {ALL_OBJECTIVES}\n", argv]
        for gc, R, extra in FAULTS
        for argv in (*(["optimize", "--config", CONFIG, "--objective", o]
                       for o in ALL_OBJECTIVES.split(",")),
                     ["compare-fixed-m", "--config", CONFIG, "--m-fixed", "3"],
                     ["sweep", "--config", CONFIG, "--out", "curve.csv"])]
    out["optimize-large"] = [
        [HARDWARE + f"Gc_dB = {gc}\nR = {R}\n",
         ["optimize", "--config", CONFIG, "--objective", o]]
        for gc, R in LARGE for o in ALL_OBJECTIVES.split(",")]
    for name, estimator, count in (("optimize-mc", MONTE_CARLO, 20),
                                   ("optimize-mc-blocks", MONTE_CARLO_BLOCKS,
                                    5)):
        out[name] = [
            [c + estimator, argv] for c in configs[:count]
            for argv in (["optimize", "--config", CONFIG],
                         ["compare-fixed-m", "--config", CONFIG,
                          "--m-fixed", "8"])]
    out["mc-left-block"] = [
        *([c + MONTE_CARLO_LEFT, ["optimize", "--config", CONFIG]]
          for c in configs[:5]),
        *_sweep("Gc", "R = 5", "-150:-146:2", "exact,fixed-m-1",
                MONTE_CARLO_LEFT)]
    return out


def emit(checkout: Path, out_dir: Path, case_file: Path) -> None:
    """Run every case against the package in checkout/src (child process)."""
    checkout, out_dir = checkout.resolve(), out_dir.resolve()
    sys.path.insert(0, str(checkout / "src"))
    import mimo_ee.cli
    package = Path(mimo_ee.cli.__file__).resolve()
    if checkout / "src" not in package.parents:
        sys.exit(f"imported {package}, not the package under {checkout}")
    for name, runs in json.loads(case_file.read_text(encoding="utf-8")).items():
        case_dir = out_dir / name
        case_dir.mkdir(parents=True)
        os.chdir(case_dir)
        log = []
        for config, argv in runs:
            Path(CONFIG).write_bytes(config.encode("utf-8"))  # line ends kept
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = mimo_ee.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # logged and compared; run goes on
                    traceback.print_exc(file=sys.__stderr__)
                    code = f"uncaught {type(exc).__name__}: {exc}"
            Path(CONFIG).unlink()
            log.append(f"$ mimo-ee {shlex.join(argv)}\n{config}"
                       f"--- stdout\n{stdout.getvalue()}"
                       f"--- stderr\n{stderr.getvalue()}--- exit {code}\n")
        Path("log.txt").write_text("".join(log), encoding="utf-8")


def differing(base: Path, head: Path) -> list[str]:
    """Relative paths of files that differ or exist under one root only."""
    files = {p.relative_to(root).as_posix()
             for root in (base, head) for p in root.rglob("*") if p.is_file()}
    return sorted(f for f in files
                  if not ((base / f).is_file() and (head / f).is_file()
                          and filecmp.cmp(base / f, head / f, shallow=False)))


def main() -> int:
    if sys.argv[1:2] == ["--emit"]:  # child: checkout, output dir, case file
        emit(*map(Path, sys.argv[2:5]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--work", type=Path)
    args = parser.parse_args()
    if args.work is not None and args.work.exists() and (
            not args.work.is_dir() or any(args.work.iterdir())):
        parser.error(f"--work {args.work} must be an empty directory or not "
                     f"exist: its outputs would mix with this run's")
    work = (args.work
            or Path(tempfile.mkdtemp(prefix="output-identity-"))).resolve()
    work.mkdir(parents=True, exist_ok=True)
    case_file = work / "cases.json"
    case_file.write_text(json.dumps(cases(args.head / "README.md")),
                         encoding="utf-8")
    for side, checkout in (("base", args.base), ("head", args.head)):
        # help text is compared at 80 columns, whatever the terminal
        try:
            subprocess.run([sys.executable, __file__, "--emit", str(checkout),
                            str(work / side), str(case_file)], check=True,
                           env={**os.environ, "COLUMNS": "80"})
        except subprocess.CalledProcessError as exc:
            print(f"the {side} side ({checkout}) failed with exit code "
                  f"{exc.returncode}; its output is under {work / side}",
                  file=sys.stderr)
            return 1
    diff = differing(work / "base", work / "head")
    total = sum(1 for p in (work / "head").rglob("*") if p.is_file())
    if diff:
        print(f"{len(diff)} output file(s) differ (under {work}):",
              *diff, sep="\n  ")
        return 1
    print(f"all {total} output files are byte-identical (under {work})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
