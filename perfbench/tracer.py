"""Spans around the public functions of every ``subdesign`` module.

The wrappers are installed from outside the package: each public function
defined in a ``subdesign`` module is replaced by a timing wrapper under every
``subdesign.*`` module attribute that refers to it. Modules bind many names
with ``from ... import``, so patching only the defining module would miss
calls such as ``solver.coefficients`` or ``evaluate.weighted_fit``.

Spans stay in memory as ``[parent, name, start, end, fields]`` lists, where
``parent`` is the index of the enclosing span (or -1), and are written out or
summarised when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "subdesign"


def _fit_fields(args, kwargs, result):
    return {"newton_iters": result.iterations}


def _solve_fields(args, kwargs, result):
    grads = args[1] if len(args) > 1 else kwargs["grads"]
    return {
        "iterations": result.iterations,
        "status": result.status.value,
        "n_units": grads.n_units,
        "n_params": grads.n_params,
    }


def _load_fields(args, kwargs, result):
    return {"rows": result.problem.n_units}


def _write_fields(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _mc_fields(args, kwargs, result):
    return {"n_failed": result.n_failed, "n_total": result.n_total}


# Counts read off a call's arguments and result, keyed by span name.
FIELDS = {
    "models.fit_full": _fit_fields,
    "models.weighted_fit": _fit_fields,
    "models.multiplier_fit": _fit_fields,
    "solver.fixed_point_solve": _solve_fields,
    "dataio.load_problem": _load_fields,
    "evaluate.monte_carlo_covariance": _mc_fields,
}
WRITERS = (
    "dataio.write_theta",
    "dataio.write_gradients",
    "dataio.write_scheme",
    "dataio.write_trace",
    "dataio.write_stage_log",
    "dataio.write_learning_curve",
    "dataio.write_pool",
)
FIELDS.update({name: _write_fields for name in WRITERS})


def _modules():
    """Import every module of the package and return them by name."""
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__, PACKAGE + "."):
        importlib.import_module(info.name)
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        extract = FIELDS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [stack[-1] if stack else -1, name, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if extract is not None:
                span[4] = extract(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = _modules()
        wrappers = {}
        for mod_name, mod in modules.items():
            short = mod_name[len(PACKAGE) + 1:]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod_name
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in self._restore:
            setattr(mod, attr, obj)
        self._restore = []

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a call is open")
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.take(), fh)


def load_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class LayerStats:
    """Per-name aggregates over one or more span lists (one per process)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.fields = defaultdict(lambda: defaultdict(float))
        # Per fixed-point solve: (n_units, n_params, iterations, status,
        # N-row passes).
        self.solves: list[tuple] = []
        self.gamma_in_solves = 0

    def add(self, spans: list[list]) -> "LayerStats":
        child_s = [0.0] * len(spans)
        for parent, _, start, end, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        solve_of = [-1] * len(spans)
        passes = defaultdict(int)
        for i, (parent, name, start, end, fields) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - child_s[i]
            self.durations[name].append(dur)
            for key, value in (fields or {}).items():
                if not isinstance(value, str):
                    self.fields[name][key] += value
            if name == "solver.fixed_point_solve":
                solve_of[i] = i
            elif parent >= 0:
                solve_of[i] = solve_of[parent]
                if solve_of[i] >= 0 and name in N_ROW_PASSES:
                    passes[solve_of[i]] += 1
                    self.gamma_in_solves += name == "covariance.gamma"
        for i, (_, name, _, _, fields) in enumerate(spans):
            if name == "solver.fixed_point_solve" and fields:
                self.solves.append((
                    fields["n_units"], fields["n_params"], fields["iterations"],
                    fields["status"], passes[i],
                ))
        return self

    def field(self, name: str, key: str) -> float:
        return self.fields[name][key] if name in self.fields else 0.0

    def field_sum(self, key: str) -> float:
        return sum(f.get(key, 0.0) for f in self.fields.values())


# Calls counted as one pass over the N x p gradient matrix when computing
# solver.bytes_per_iter; the figure is computed from array sizes, not measured.
N_ROW_PASSES = (
    "covariance.gamma",
    "criteria.coefficients",
    "solver.l_optimal_scheme",
    "solver.stationarity_residual",
)
