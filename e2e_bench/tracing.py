"""Per-layer spans around calls into mimo_ee's public functions.

The library is not changed. Each traced function is wrapped and the wrapper
is bound under every name by which a public mimo_ee module looks it up: for
example `optimizer` imports `invert_capacity` by name, `sweep` and `cli`
import `optimize_exact`, `classify`, `run_sweep` and `emit_csv` by name, and
`capacity` looks up `backend.expected_log_capacity` and `backend.bisect_rate`
on the module at each call. Private modules are left alone, so calls made
inside the kernel implementation (the bisection's own capacity evaluations)
are not counted as bracket probes.

A span is [name, start, end, parent index, trace id, value, error]. Spans
stay in memory; forked children send theirs back to the parent, which
aggregates them with `layer_totals`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time

# (span name, module that defines the public function, function names)
LAYERS = (
    ("capacity.invert_capacity", "mimo_ee.capacity", ("invert_capacity",)),
    ("backend.expected_log_capacity", "mimo_ee.backend",
     ("expected_log_capacity",)),
    ("backend.bisect_rate", "mimo_ee.backend", ("bisect_rate",)),
    ("optimizer.optimize_exact", "mimo_ee.optimizer", ("optimize_exact",)),
    ("optimizer.zeta_exact", "mimo_ee.optimizer", ("zeta_exact",)),
    ("regimes.classify", "mimo_ee.regimes", ("classify",)),
    ("sweep.run_sweep", "mimo_ee.sweep", ("run_sweep",)),
    ("sweep.emit_csv", "mimo_ee.sweep", ("emit_csv",)),
    ("sweep.config", "mimo_ee.sweep",
     ("sweep_spec_from_config", "parse_config", "params_from_config",
      "estimator_from_config")),
)


def _iterations(args, kwargs, result):
    return getattr(result, "iterations", None)


def _csv_bytes(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return os.path.getsize(path) if path and os.path.exists(path) else None


# What a span records as its value, from the call and its result.
VALUES = {
    "capacity.invert_capacity": _iterations,
    "sweep.emit_csv": _csv_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.trace_id = 0

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.trace_id, None, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield self.spans[idx]
        except BaseException:
            self.spans[idx][6] = True
            raise
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        value = VALUES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if value is not None:
                record[5] = value(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function.

        A layer or function a later version of the package no longer has is
        skipped, and its metrics read zero.
        """
        for name, module_name, functions in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if original is None:
                    continue
                wrapper = self.wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "mimo_ee"
                                           or mod_name.startswith("mimo_ee.")):
                        continue
                    if any(part.startswith("_") for part in mod_name.split(".")):
                        continue
                    for attr, obj in list(vars(mod).items()):
                        if obj is original:
                            setattr(mod, attr, wrapper)


def new_total() -> dict:
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "values": [], "errors": 0,
            "child_calls": {}}


def layer_totals(span_lists) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds, values, errors.

    Calls and inclusive time count only spans not nested in a span of the
    same name (config parsing calls itself); self time is a span's duration
    minus the time its direct children cover, summed over all its spans.
    """
    totals: dict[str, dict] = {}
    for spans in span_lists:
        covered = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, _tid, value, error) in enumerate(spans):
            t = totals.setdefault(name, new_total())
            t["self_s"] += (end - start) - covered[i]
            if parent >= 0:
                calls = totals.setdefault(spans[parent][0],
                                          new_total())["child_calls"]
                calls[name] = calls.get(name, 0) + 1
            if parent >= 0 and spans[parent][0] == name:
                continue
            t["calls"] += 1
            t["s"] += end - start
            t["errors"] += bool(error)
            if value is not None:
                t["values"].append(value)
    return totals
