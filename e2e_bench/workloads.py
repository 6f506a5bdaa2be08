"""Seeded workload inputs: config files and the CLI requests that use them.

Every workload uses the README's reference hardware. The seed only shapes
the generated config files; the program under test sees nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# The README example config: 0.39 PA efficiency, -174 dBm/Hz noise PSD.
REFERENCE_HARDWARE = {
    "B": "1e6",
    "N0": "3.981071705534969e-21",
    "pa_efficiency": "0.39",
    "P_BS": "0.1",
    "P_UT": "0.1",
    "P_OSC": "2.0",
    "P_s": "5.0",
    "P_dec": "1.15",
    "C0": "1e-9",
}


@dataclass(frozen=True)
class Point:
    """One operating point the program must answer: channel gain and rate."""

    gc_db: float
    R: float


@dataclass(frozen=True)
class Request:
    """One `mimo-ee` invocation and what its output must describe.

    kind is "sweep" (output is the CSV at `out`) or "optimize" (output is
    stdout). `points` lists the operating points in output order; a sweep
    reports every objective at each of them.
    """

    kind: str
    argv: tuple[str, ...]
    points: tuple[Point, ...]
    objectives: tuple[str, ...]
    mc_samples: int | None = None     # set when the Monte Carlo estimator runs
    out: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple[Request, ...]
    warm_repeats: int    # warm repeats of each request in its cold child
    min_passes: int      # cold passes over `requests` made however slow


def _write_config(path: Path, entries: dict[str, str]) -> None:
    lines = [f"{k} = {v}" for k, v in {**REFERENCE_HARDWARE, **entries}.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    # Same expansion rule as the documented start:stop:step config syntax.
    n = int((stop - start) / step + 1e-9) + 1
    return tuple(start + i * step for i in range(n))


def _sweep(work: Path, name: str, R: float, start: float, stop: float,
           step: float, objectives: tuple[str, ...],
           extra: dict[str, str], mc_samples: int | None) -> Request:
    cfg = work / f"{name}.cfg"
    out = work / f"{name}.csv"
    _write_config(cfg, {"Gc_dB": repr(start), "R": repr(R), "variable": "Gc",
                        "grid": f"{start!r}:{stop!r}:{step!r}",
                        "objectives": ",".join(objectives), **extra})
    points = tuple(Point(gc, R) for gc in _grid(start, stop, step))
    return Request(kind="sweep",
                   argv=("sweep", "--config", str(cfg), "--out", str(out)),
                   points=points, objectives=objectives,
                   mc_samples=mc_samples, out=str(out))


def gc_sweep(seed: int, work: Path, span_db: float = 80.0) -> Workload:
    """R = 5 over Gc = -180:-100:0.5 dB, shifted by less than one step."""
    shift = random.Random(seed).uniform(0.0, 0.5)
    start = -180.0 + shift
    req = _sweep(work, "gc-sweep", 5.0, start, start + span_db, 0.5,
                 ("exact", "bound", "relaxed", "fixed-m-1"), {}, None)
    return Workload("gc-sweep", (req,), warm_repeats=10, min_passes=3)


GC_STRATA, R_STRATA = 12, 10


def optimize_points(seed: int, work: Path,
                    strata: tuple[int, int] = (GC_STRATA, R_STRATA)) -> Workload:
    """Independent `optimize` calls at Gc_dB ~ U[-170, -100], R ~ U[0.25, 15].

    One point is drawn uniformly in each cell of a strata[0] x strata[1]
    grid over that rectangle. Every seed then puts the same number of calls
    in each region, such as the M = 1 corner where a call scans half as
    many antenna counts, so the total work varies little between seeds.
    """
    rng = random.Random(seed)
    n_gc, n_r = strata
    cells = [(i, j) for i in range(n_gc) for j in range(n_r)]
    requests = []
    for i, (a, b) in enumerate(cells):
        point = Point(-170.0 + 70.0 * (a + rng.random()) / n_gc,
                      0.25 + 14.75 * (b + rng.random()) / n_r)
        cfg = work / f"point-{i:03d}.cfg"
        _write_config(cfg, {"Gc_dB": repr(point.gc_db), "R": repr(point.R)})
        requests.append(Request(kind="optimize",
                                argv=("optimize", "--config", str(cfg)),
                                points=(point,), objectives=("exact",)))
    return Workload("optimize-points", tuple(requests), warm_repeats=1,
                    min_passes=1)


MC_SAMPLES = 100_000


def mc_sweep(seed: int, work: Path, stop_db: float = -110.0,
             samples: int = MC_SAMPLES) -> Workload:
    """Monte Carlo estimator sweep; the workload seed is the config seed."""
    req = _sweep(work, "mc-sweep", 5.0, -150.0, stop_db, 2.0,
                 ("exact", "fixed-m-1"),
                 {"estimator": "monte-carlo", "mc_samples": str(samples),
                  "seed": str(seed)}, samples)
    return Workload("mc-sweep", (req,), warm_repeats=20, min_passes=3)


WORKLOADS = {
    "gc-sweep": gc_sweep,
    "optimize-points": optimize_points,
    "mc-sweep": mc_sweep,
}
