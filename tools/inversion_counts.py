"""Count the gamma0 inversions and capacity evaluations of cold passes.

    python3 tools/inversion_counts.py [ROOT]

Imports the package from ROOT/src (ROOT defaults to this checkout) into
this process and wraps `capacity._newton`, the Newton loop behind every
inversion, lone or prefetched: each call counts one inversion, and each
evaluation of the capacity it is given counts one evaluation. Every case
starts from an empty gamma0 cache and prints one line. The cases build
their own inputs on the README's reference hardware:
- gc-sweep: R = 5 over Gc = -180:-100:0.5 dB, every objective;
- gc-fine: R = 5 over Gc = -190:-90:0.01 dB, the exact objective;
- optimize-points: 120 exact optimize calls, one drawn (seed 0) in each
  cell of a 12 x 10 grid over Gc_dB in [-170, -100] and R in [0.25, 15];
- mc-sweep: the Monte Carlo estimator (1e5 samples, seed 0) at R = 5 over
  Gc = -150:-110:2 dB, the exact and fixed-m-1 objectives.
"""

from __future__ import annotations

import random
import sys
import tempfile
import threading
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
SWEEPS = {
    "gc-sweep": "R = 5\ngrid = -180:-100:0.5\n"
                "objectives = exact,bound,relaxed,fixed-m-1\n",
    "gc-fine": "R = 5\ngrid = -190:-90:0.01\nobjectives = exact\n",
}
MONTE_CARLO = ("R = 5\ngrid = -150:-110:2\nobjectives = exact,fixed-m-1\n"
               "estimator = monte-carlo\nmc_samples = 100000\nseed = 0\n")
GC_CELLS, R_CELLS = 12, 10


def counts(capacity, run) -> tuple[int, int]:
    """(inversions, evaluations) that run() makes from an empty gamma0
    cache, counted through `capacity._newton`, which is restored after.
    """
    newton, lock, tally = capacity._newton, threading.Lock(), [0, 0]

    def add(i: int) -> None:
        with lock:  # prefetch workers solve on threads
            tally[i] += 1

    def counting(M, R, cap, mean):
        add(0)

        def evaluate(gamma):
            add(1)
            return cap(gamma)
        return newton(M, R, evaluate, mean)

    capacity._GAMMA0.clear()
    capacity._newton = counting
    try:
        run()
    finally:
        capacity._newton = newton
        capacity._GAMMA0.clear()
    return tally[0], tally[1]


def _config(work: Path, name: str, text: str) -> str:
    path = work / f"{name}.cfg"
    path.write_text(HARDWARE + text, encoding="utf-8")
    return str(path)


def cases(sweep, work: Path) -> dict:
    """Case name -> a callable that runs the case through `sweep`, with
    its config files written under work.
    """
    def sweep_case(path):
        return lambda: sweep.run_sweep(sweep.sweep_spec_from_config(path))

    out = {name: sweep_case(_config(work, name, text))
           for name, text in SWEEPS.items()}
    rng = random.Random(0)
    points = [sweep.point_from_config(_config(
        work, f"point-{a}-{b}",
        f"Gc_dB = {-170.0 + 70.0 * (a + rng.random()) / GC_CELLS!r}\n"
        f"R = {0.25 + 14.75 * (b + rng.random()) / R_CELLS!r}\n"))
        for a in range(GC_CELLS) for b in range(R_CELLS)]

    def optimize_points():
        for params, R, estimator in points:
            sweep.evaluate("exact", R, params, estimator)

    out["optimize-points"] = optimize_points
    out["mc-sweep"] = sweep_case(_config(work, "mc-sweep", MONTE_CARLO))
    return out


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parents[1]
    sys.path.insert(0, str(root / "src"))
    from mimo_ee import capacity, sweep

    print(f"{'inversions':>10} {'evaluations':>11}  case")
    with tempfile.TemporaryDirectory() as work:
        for name, run in cases(sweep, Path(work)).items():
            inversions, evaluations = counts(capacity, run)
            print(f"{inversions:10d} {evaluations:11d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
