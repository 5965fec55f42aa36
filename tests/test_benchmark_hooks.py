"""The benchmark's tracer finds every function it wraps by name on the package."""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from nhaqo import cli
from nhaqo.adiabatic import measured_matrix_element
from nhaqo.evolve import evolve, initial_ground_state
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


def test_evolve_calls_schedule_f0_once_per_stage():
    # the tracer counts evolve.h_evals as schedule.f0 calls inside evolve:
    # one per stage, 12 per attempted step
    spec = ising_anneal_spec(3, seed=2, delta0=0.5, tau=5.0)
    initial = initial_ground_state(spec)
    f0 = spec.schedule.f0
    calls = 0

    def counted_f0(s):
        nonlocal calls
        calls += 1
        return f0(s)

    counted = dataclasses.replace(spec, schedule=dataclasses.replace(spec.schedule, f0=counted_f0))
    res = evolve(counted, initial, decaying_driver=True)
    assert calls % 12 == 0
    assert calls >= 12 * res.steps_taken


def counting(monkeypatch, holder, name, calls):
    """Replace ``holder.name`` by a wrapper that appends to ``calls`` once per call; returns ``calls``."""
    fn = getattr(holder, name)

    def counted(*args, **kwargs):
        calls.append(0.0)
        return fn(*args, **kwargs)

    monkeypatch.setattr(holder, name, counted)
    return calls


def test_measured_matrix_element_makes_one_eig_per_point_and_no_inverse(monkeypatch, call_log):
    spec = ising_anneal_spec(5, seed=1, delta0=0.5)
    # a CallLog counts the calls of a forked scan child too
    eig_calls = counting(monkeypatch, np.linalg, "eig", call_log())
    inv_calls = counting(monkeypatch, np.linalg, "inv", call_log())
    measured_matrix_element(spec, grid_points=51)
    assert len(eig_calls) == 51
    assert inv_calls == []


def test_fig1_scans_each_curve_once(monkeypatch, tmp_path):
    # the grid scan is 201 gap evaluations; polishing its minimum adds a few dozen
    calls = counting(monkeypatch, cli, "two_level_gap", [])
    argv = ["fig1", "--set", "delta0_list=0.5", "--set", "grid_points=201", "--out", str(tmp_path / "f.csv")]
    assert cli.main(argv) == 0
    assert 201 < len(calls) < 402
