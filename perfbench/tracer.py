"""Span tracer for the benchmark's traced run, installed from outside the program.

``Tracer.install`` wraps the public nhaqo functions the per-layer metrics
name, rebinding each one in every ``nhaqo`` module (and module-level dict,
such as the CLI's runner table) that holds it, plus the numpy/scipy
eigen-solver entry points.  Each call records a span (name, start, end,
parent) in memory; ``aggregate`` turns a list of spans into the per-layer
metrics; ``uninstall`` restores every binding; ``calibrate`` measures what
one span and one counted schedule evaluation cost.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import statistics
import sys
import time

#: (module, function) pairs wrapped with a span of the same name
TRACED = (
    ("model", "total_hamiltonian"),
    ("model", "ising_anneal_spec"),
    ("model", "two_level_spec"),
    ("linalg", "eig_nonhermitian"),
    ("linalg", "biorthonormalize"),
    ("spectrum", "instantaneous_spectrum"),
    ("spectrum", "gap_at"),
    ("spectrum", "trace_gap"),
    ("spectrum", "find_crossover"),
    ("spectrum", "detect_exceptional_point"),
    ("reduction", "two_level_gap"),
    ("reduction", "build_crossover_basis"),
    ("reduction", "decompose_schedule_params"),
    ("evolve", "evolve"),
    ("evolve", "initial_ground_state"),
    ("evolve", "success_probability"),
    ("adiabatic", "tau_window"),
    ("adiabatic", "measured_matrix_element"),
    ("adiabatic", "min_time_linear_ramp"),
    ("cli", "main"),
    ("cli", "run_fig1"),
    ("cli", "run_gap_trace"),
    ("cli", "run_evolve"),
    ("cli", "run_tau_sweep"),
    ("cli", "run_ep_scan"),
    ("cli", "_write_csv"),
)
#: eigen-solver entry points counted as LAPACK work; True marks eigenvector output
LAPACK = {"eig": True, "eigvals": False, "eigh": True, "eigvalsh": False}

#: per-layer metric name -> unit, in report order
PER_LAYER_UNITS = {
    "model.total_hamiltonian.calls": "count",
    "model.total_hamiltonian.self_s": "s",
    "model.build.self_s": "s",
    "linalg.lapack.calls": "count",
    "linalg.lapack.matrices": "count",
    "linalg.lapack.self_s": "s",
    "linalg.lapack.vector_share": "ratio",
    "linalg.eig_nonhermitian.calls": "count",
    "linalg.eig_nonhermitian.self_s": "s",
    "linalg.biorthonormalize.calls": "count",
    "linalg.biorthonormalize.self_s": "s",
    "spectrum.instantaneous_spectrum.calls": "count",
    "spectrum.instantaneous_spectrum.self_s": "s",
    "spectrum.refined_points": "count",
    "spectrum.gap_at.calls": "count",
    "spectrum.gap_at.self_s": "s",
    "spectrum.trace_gap.self_s": "s",
    "spectrum.find_crossover.self_s": "s",
    "spectrum.detect_exceptional_point.self_s": "s",
    "reduction.two_level_gap.calls": "count",
    "reduction.two_level_gap.self_s": "s",
    "reduction.build_crossover_basis.self_s": "s",
    "reduction.decompose_schedule_params.self_s": "s",
    "evolve.evolve.calls": "count",
    "evolve.evolve.self_s": "s",
    "evolve.steps": "count",
    "evolve.h_evals": "count",
    "evolve.h_evals_per_step": "ratio",
    "evolve.initial_ground_state.self_s": "s",
    "evolve.success_probability.self_s": "s",
    "adiabatic.tau_window.self_s": "s",
    "adiabatic.measured_matrix_element.self_s": "s",
    "adiabatic.min_time_linear_ramp.calls": "count",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "cli.csv_bytes": "bytes",
    "bench.trace_overhead_s": "s",
}
#: counts that must repeat exactly between two traced batches of the same code
SELF_CHECK_COUNTS = (
    "linalg.lapack.matrices",
    "spectrum.instantaneous_spectrum.calls",
    "spectrum.gap_at.calls",
    "evolve.steps",
    "evolve.h_evals",
    "reduction.two_level_gap.calls",
)

#: metrics computed from others rather than summed over spans
_DERIVED = ("linalg.lapack.vector_share", "evolve.h_evals_per_step", "bench.trace_overhead_s")

_CALLS = {
    "model.total_hamiltonian": "model.total_hamiltonian.calls",
    "linalg.eig_nonhermitian": "linalg.eig_nonhermitian.calls",
    "linalg.biorthonormalize": "linalg.biorthonormalize.calls",
    "spectrum.instantaneous_spectrum": "spectrum.instantaneous_spectrum.calls",
    "spectrum.gap_at": "spectrum.gap_at.calls",
    "reduction.two_level_gap": "reduction.two_level_gap.calls",
    "evolve.evolve": "evolve.evolve.calls",
    "adiabatic.min_time_linear_ramp": "adiabatic.min_time_linear_ramp.calls",
    "cli.main": "cli.main.calls",
}
_SELF = {
    "model.total_hamiltonian": "model.total_hamiltonian.self_s",
    "model.ising_anneal_spec": "model.build.self_s",
    "model.two_level_spec": "model.build.self_s",
    "linalg.eig_nonhermitian": "linalg.eig_nonhermitian.self_s",
    "linalg.biorthonormalize": "linalg.biorthonormalize.self_s",
    "spectrum.instantaneous_spectrum": "spectrum.instantaneous_spectrum.self_s",
    "spectrum.gap_at": "spectrum.gap_at.self_s",
    "spectrum.trace_gap": "spectrum.trace_gap.self_s",
    "spectrum.find_crossover": "spectrum.find_crossover.self_s",
    "spectrum.detect_exceptional_point": "spectrum.detect_exceptional_point.self_s",
    "reduction.two_level_gap": "reduction.two_level_gap.self_s",
    "reduction.build_crossover_basis": "reduction.build_crossover_basis.self_s",
    "reduction.decompose_schedule_params": "reduction.decompose_schedule_params.self_s",
    "evolve.evolve": "evolve.evolve.self_s",
    "evolve.initial_ground_state": "evolve.initial_ground_state.self_s",
    "evolve.success_probability": "evolve.success_probability.self_s",
    "adiabatic.tau_window": "adiabatic.tau_window.self_s",
    "adiabatic.measured_matrix_element": "adiabatic.measured_matrix_element.self_s",
    "cli.main": "cli.self_s",
    "cli.run_fig1": "cli.self_s",
    "cli.run_gap_trace": "cli.self_s",
    "cli.run_evolve": "cli.self_s",
    "cli.run_tau_sweep": "cli.self_s",
    "cli.run_ep_scan": "cli.self_s",
    "cli._write_csv": "cli.self_s",
}


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, extra counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._evolve_depth = 0
        self._h_evals = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------------

    def _wrap(self, name: str, fn, extra=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return wrapper

    def _wrap_evolve(self, fn):
        inner = self._wrap("evolve.evolve", fn, lambda a, k, r: {"evolve.steps": int(r.steps_taken)})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, before = len(self.spans), self._h_evals
            self._evolve_depth += 1
            try:
                result = inner(*args, **kwargs)
            finally:
                self._evolve_depth -= 1
            self.spans[idx][4]["evolve.h_evals"] = self._h_evals - before
            return result

        return wrapper

    def _wrap_linear_schedule(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sched = fn(*args, **kwargs)
            f0 = sched.f0

            def counted_f0(s):
                # one f0 evaluation per H(s) assembly inside the integrator's rhs
                if tracer._evolve_depth:
                    tracer._h_evals += 1
                return f0(s)

            return dataclasses.replace(sched, f0=counted_f0)

        return wrapper

    def _trace_gap_extra(self, fn):
        sig = inspect.signature(fn)

        def extra(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return {"spectrum.refined_points": len(result.snapshots) - int(bound.arguments["grid_points"])}

        return extra

    # -- install / uninstall -------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if not (modname == "nhaqo" or modname.startswith("nhaqo.")) or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            self._restore.append((value, key, original))
                            value[key] = replacement

    def install(self) -> None:
        """Wrap every traced function and eigen-solver entry point."""
        import numpy

        for modname, fname in TRACED:
            mod = sys.modules[f"nhaqo.{modname}"]
            fn = getattr(mod, fname)
            name = f"{modname}.{fname}"
            if name == "evolve.evolve":
                wrapped = self._wrap_evolve(fn)
            elif name == "spectrum.trace_gap":
                wrapped = self._wrap(name, fn, self._trace_gap_extra(fn))
            elif name == "cli._write_csv":
                wrapped = self._wrap(name, fn, lambda a, k, r: {"cli.csv_bytes": os.path.getsize(r)})
            else:
                wrapped = self._wrap(name, fn)
            self._rebind(fn, wrapped)
        model = sys.modules["nhaqo.model"]
        self._rebind(model.linear_schedule, self._wrap_linear_schedule(model.linear_schedule))

        def lapack_extra(vectors):
            def extra(args, kwargs, result):
                shape = getattr(args[0], "shape", ())
                count = 1
                for d in shape[:-2]:
                    count *= int(d)
                return {"linalg.lapack.matrices": count, "vectors": count if vectors else 0}
            return extra

        targets = [numpy.linalg]
        if "scipy.linalg" in sys.modules:
            targets.append(sys.modules["scipy.linalg"])
        for mod in targets:
            for fname, vectors in LAPACK.items():
                fn = getattr(mod, fname)
                self._restore.append((mod, fname, fn))
                setattr(mod, fname, self._wrap("linalg.lapack", fn, lapack_extra(vectors)))

    def uninstall(self) -> None:
        """Restore every binding replaced by :meth:`install`."""
        for holder, key, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore.clear()


def calibrate(calls: int = 20000, repeats: int = 7) -> dict[str, float]:
    """Median extra seconds per call of a span wrapper and of a counted schedule ``f0``.

    Each is timed against a bare callable of the same kind, ``calls`` times per
    repeat; ``bench.trace_overhead_s`` multiplies them by the span and
    schedule-evaluation counts of one traced batch.
    """
    from nhaqo.model import linear_schedule

    def noop():
        return None

    def per_call(fn, *args) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        return (time.perf_counter() - start) / calls

    span, h_eval = [], []
    for _ in range(repeats):
        tracer = Tracer()
        span.append(per_call(tracer._wrap("calibrate", noop)) - per_call(noop))
        tracer._evolve_depth = 1
        counted = tracer._wrap_linear_schedule(linear_schedule)(0.5).f0
        h_eval.append(per_call(counted, 0.5) - per_call(linear_schedule(0.5).f0, 0.5))
    return {"span": statistics.median(span), "h_eval": statistics.median(h_eval)}


def aggregate(spans: list[list], base: int = 0) -> dict[str, float]:
    """Raw per-layer sums of a run of spans: counts, extra counters and self times.

    ``spans`` is a slice of :attr:`Tracer.spans` starting at index ``base``
    whose parents lie inside the slice.  A span's self time is its duration
    minus the durations of its direct children.  Sums of several runs add
    key by key; :func:`derive` turns them into the per-layer metrics.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, extra in spans:
        if parent >= base:
            child_time[parent - base] += end - start
    out = {key: 0.0 for key in PER_LAYER_UNITS if key not in _DERIVED}
    out["vectors"] = 0.0
    for (name, start, end, parent, extra), children in zip(spans, child_time):
        self_s = (end - start) - children
        if name == "linalg.lapack":
            out["linalg.lapack.calls"] += 1
            out["linalg.lapack.self_s"] += self_s
        if name in _CALLS:
            out[_CALLS[name]] += 1
        if name in _SELF:
            out[_SELF[name]] += self_s
        for key, value in (extra or {}).items():
            out[key] += value
    return out


def derive(raw: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics (without the trace overhead) from summed :func:`aggregate` output."""
    out = {key: value for key, value in raw.items() if key != "vectors"}
    matrices = raw["linalg.lapack.matrices"]
    out["linalg.lapack.vector_share"] = raw["vectors"] / matrices if matrices else 0.0
    steps = raw["evolve.steps"]
    out["evolve.h_evals_per_step"] = raw["evolve.h_evals"] / steps if steps else 0.0
    return out
