"""Span tracing of gmcvx's public functions from outside the package.

:func:`instrument` replaces each function named in :data:`TRACED` at every
module attribute that refers to it (``conditions.golden_section_minimize``,
``sweep.check_inegsqrt``, ``cli.check_inecov`` and so on), so calls are
seen however the caller looks the function up. Each call becomes a span
(name, start, end, parent span, op id) kept in memory; self time is the
span's duration minus the time its child spans cover. Counts come from the
values the functions return, or from the callables they are handed.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path


def _status(verdict) -> str:
    status = getattr(verdict, "status", None)
    return str(getattr(status, "value", status))


def _count_unknown(tracer, name, result, args, kwargs):
    if _status(result) == "unknown":
        tracer.add(name + ".unknown", 1)


def _count_cells(tracer, name, result, args, kwargs):
    tracer.add("sweep.cells", len({(cell.v1, cell.v2) for cell in result}))


def _count_solve(tracer, name, result, args, kwargs):
    feasible = getattr(result, "status", None) == "feasible"
    tracer.add("psdfeas.solve.iterations", int(result.iterations))
    tracer.add("psdfeas.solve.max_iter_hits", 0 if feasible else 1)
    tracer.add("psdfeas.solve.warm_feasible", 1 if feasible and result.iterations == 0 else 0)


def _count_samples(tracer, name, result, args, kwargs):
    tracer.add("coupling.samples", len(result[0]))


def _count_normals(tracer, name, result, args, kwargs):
    tracer.add("rng.normals.count", len(result))


def _count_evals(tracer, name, args, kwargs):
    """Hand golden-section search a counting copy of its objective."""
    f, rest = args[0], args[1:]

    def counted(x):
        tracer.add("utils.golden_section_minimize.evals", 1)
        return f(x)

    return (counted, *rest), kwargs


# (span name, module, attribute, method or None, count-from-result hook,
# argument hook)
TRACED = [
    ("sweep.run_sweep", "sweep", "run_sweep", None, _count_cells, None),
    ("conditions.MixtureProblem", "conditions", "MixtureProblem", "__post_init__", None, None),
    ("conditions.check_inegsqrt", "conditions", "check_inegsqrt", None, _count_unknown, None),
    ("conditions.check_inecov", "conditions", "check_inecov", None, _count_unknown, None),
    ("conditions.check_inecovf", "conditions", "check_inecovf", None, None, None),
    ("conditions.find_correl_certificate", "conditions", "find_correl_certificate", None, _count_unknown, None),
    ("conditions.implication_chain_report", "conditions", "implication_chain_report", None, None, None),
    ("psdfeas.solve", "psdfeas", "solve", None, _count_solve, None),
    ("psdfeas.default_candidates", "psdfeas", "default_candidates", None, None, None),
    ("psdfeas.warm_start_from", "psdfeas", "warm_start_from", None, None, None),
    ("psdfeas.contraction_ascent", "psdfeas", "contraction_ascent", None, None, None),
    ("psdfeas.validate_gamma", "psdfeas", "validate_gamma", None, None, None),
    ("matcore.symmetrize", "matcore", "symmetrize", None, None, None),
    ("matcore.clamp_psd", "matcore", "clamp_psd", None, None, None),
    ("matcore.is_psd", "matcore", "is_psd", None, None, None),
    ("matcore.sqrt_psd", "matcore", "sqrt_psd", None, None, None),
    ("matcore.require_symmetric", "matcore", "require_symmetric", None, None, None),
    ("utils.golden_section_minimize", "utils", "golden_section_minimize", None, None, _count_evals),
    ("cxverify.test_convex_order", "cxverify", "test_convex_order", None, None, None),
    ("cxverify.default_suite", "cxverify", "default_suite", None, None, None),
    ("coupling.build_kernel", "coupling", "build_kernel", None, None, None),
    ("coupling.sample_batch", "coupling", "sample_batch", None, _count_samples, None),
    ("rng.normals", "rng", "CounterRng", "normals", _count_normals, None),
    ("cli.main", "cli", "main", None, None, None),
]


class Tracer:
    """In-memory span store with running inclusive and self times."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.op_id = -1
        self._stack: list[list] = []  # [name id, start, child time, span index]
        self._active: list[int] = []
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return self._ids[name]

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def wrap(self, name: str, fn, on_result=None, on_args=None):
        nid = self.name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_args is not None:
                args, kwargs = on_args(self, name, args, kwargs)
            index = len(self.span_start)
            self.span_name.append(nid)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(self._stack[-1][3] if self._stack else -1)
            self.span_op.append(self.op_id)
            self._active[nid] += 1
            frame = [nid, clock(), 0.0, index]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self._active[nid] -= 1
                duration = end - frame[1]
                self.calls[nid] += 1
                self.self_s[nid] += duration - frame[2]
                if self._active[nid] == 0:  # recursion counts once
                    self.total_s[nid] += duration
                if self._stack:
                    self._stack[-1][2] += duration
                self.span_start[index] = frame[1]
                self.span_end[index] = end
            if on_result is not None:
                on_result(self, name, result, args, kwargs)
            return result

        return traced

    def layer_metrics(self, per: float) -> dict[str, float]:
        """Calls, inclusive and self seconds and counters, divided by ``per``."""
        out = {}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = self.calls[nid] / per
            out[name + ".s"] = self.total_s[nid] / per
            out[name + ".self_s"] = self.self_s[nid] / per
        for key, value in self.counters.items():
            out[key] = value / per
        return out

    def write(self, path: Path) -> None:
        """Spans as parallel arrays in one ``.npz``; ``names`` maps name ids."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
        )


def instrument(tracer: Tracer):
    """Wrap every traced function at every name it is reachable by.

    Returns a callable that restores the originals and the names of the
    :data:`TRACED` entries the package no longer has where the table says,
    so that a moved or renamed function shows as a broken probe rather
    than as a layer that reads zero.
    """
    modules = [m for key, m in list(sys.modules.items()) if key == "gmcvx" or key.startswith("gmcvx.")]
    undo = []
    missing = []
    for name, mod_name, attr, method, on_result, on_args in TRACED:
        target = getattr(sys.modules.get("gmcvx." + mod_name), attr, None)
        if target is None:
            missing.append(name)
            continue
        if method is not None:  # a class: wrap the method once, on the class
            original = target.__dict__.get(method)
            if original is None:
                missing.append(name)
                continue
            setattr(target, method, tracer.wrap(name, original, on_result, on_args))
            undo.append((target, method, original))
            continue
        wrapped = tracer.wrap(name, target, on_result, on_args)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, target))

    def restore():
        for obj, key, original in reversed(undo):
            setattr(obj, key, original)

    return restore, missing
