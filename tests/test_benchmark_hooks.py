"""The benchmark's tracer finds every function it wraps by name on the package."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from nhaqo.model import ising_anneal_spec
from nhaqo.spectrum import trace_gap

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    module_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    missing = [
        f"{module}.{name}"
        for module, name in load_tracer().TRACED
        if not callable(getattr(importlib.import_module(f"nhaqo.{module}"), name, None))
    ]
    assert missing == []


def test_trace_gap_binds_grid_points():
    # the tracer counts refined points as len(snapshots) - grid_points
    bound = inspect.signature(trace_gap).bind(ising_anneal_spec(2, seed=1), 201)
    assert bound.arguments["grid_points"] == 201
