"""The benchmark's tracer finds every function it wraps by name on the package."""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from nhaqo import adiabatic, cli
from nhaqo.adiabatic import measured_matrix_element
from nhaqo.evolve import evolve, initial_ground_state
from nhaqo.model import XorTerms, ising_anneal_spec
from nhaqo.spectrum import trace_gap

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    module_spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


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
    # a CallLog counts the calls of a forked scan child too; every evaluation of the
    # element, on the scan or in the polish, builds H(s) once
    points = counting(monkeypatch, adiabatic, "total_hamiltonian", call_log())
    eig_calls = counting(monkeypatch, np.linalg, "eig", call_log())
    inv_calls = counting(monkeypatch, np.linalg, "inv", call_log())
    measured_matrix_element(spec)
    assert 101 < len(points) <= 170
    assert len(eig_calls) == len(points)
    assert inv_calls == []


def test_fig1_scans_each_curve_once(monkeypatch, tmp_path):
    # the grid scan is 201 gap evaluations; polishing its minimum adds a few dozen
    calls = counting(monkeypatch, cli, "two_level_gap", [])
    argv = ["fig1", "--set", "delta0_list=0.5", "--set", "grid_points=201", "--out", str(tmp_path / "f.csv")]
    assert cli.main(argv) == 0
    assert 201 < len(calls) < 402


def test_ising_evolve_sweep_makes_no_eigensolve_and_no_dense_matrix(monkeypatch, call_log, tmp_path):
    # the benchmark's n=8 decaying sweep (explicit fields and couplings) runs on
    # the stored XOR-diagonals and the driver's closed forms alone; a CallLog
    # counts the calls of the sweep's forked child too
    ops = load_perfbench("workloads").build_ops("anneal-dynamics", 1, str(tmp_path))
    (sweep,) = [op for op in ops if op["name"] == "evolve-n8-decaying"]
    solves = call_log()
    for name in ("eigh", "eigvalsh", "eig"):
        counting(monkeypatch, np.linalg, name, solves)
    views = call_log()
    dense = XorTerms.dense

    def counted_dense(self):
        views.append(float(self.masks.size))
        return dense(self)

    monkeypatch.setattr(XorTerms, "dense", counted_dense)
    assert cli.main(sweep["argv"]) == 0
    assert len(solves) == 0
    assert len(views) == 0
    # a spectral path builds each dense view once per spec: the problem's one
    # mask and the driver's four, before the scan forks
    argv = ["gap-trace", "--set", "model=ising", "--set", "n_qubits=4", "--set", "seed=3",
            "--set", "delta0=0.5", "--set", "grid_points=101", "--out", str(tmp_path / "g.csv")]
    assert cli.main(argv) == 0
    assert sorted(views) == [1.0, 4.0]
