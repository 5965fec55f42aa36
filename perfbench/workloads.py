"""Workloads of the nhaqo benchmark: seeded Ising instances and fixed operation batches.

Every Ising instance comes from the benchmark's own RNG, keyed by the run seed
and a per-instance slot, and reaches the program only as explicit
``fields``/``couplings``.  An operation is one ``nhaqo.cli.main([...])``
experiment or one library pipeline call.  This module imports numpy only, so
the parent process, the worker and the set-up probes can all build the same
batch from the same seed.
"""

from __future__ import annotations

import os

import numpy as np

#: seed used for the committed baseline and for tuning
DEFAULT_SEED = 1
#: seed kept out of tuning, for re-checking later claims on fresh inputs
HELD_OUT_SEED = 9973

WHY = {
    "spectral-ising": (
        "gap-trace and ep-scan on one Ising n=6 instance (dim 64): eigensolves and "
        "grid refinement dominate and evolve is idle, so a batched spectral kernel shows here"
    ),
    "anneal-dynamics": (
        "evolve at n=4 (Hermitian and decaying, tau up to 300) and n=8 (decaying): "
        "the DOPRI5 loop dominates, so step control, the integrator and matrix-free H show here"
    ),
    "reduction-pipeline": (
        "fig1 at n=20/40/60, tau-sweep and trace_gap->basis->params->tau_window at n=5: "
        "eigenvectors and bi-orthonormalization at dim 32, not eigenvalues at dim 64"
    ),
}
WORKLOADS = tuple(WHY)

#: (workload, operation, check) triples whose oracle check fails on the seed commit
#: for a known, recorded reason.  They still count as failed, but an oracle mismatch
#: on exactly these checks does not make the run incorrect; an exception, a non-zero
#: exit or a mismatch on any other check does.
KNOWN_DEFECTS = {
    ("reduction-pipeline", "fig1-n60", "delta0=0"): (
        "gap_two_level cancels catastrophically at sin(alpha)=2^-30 and reports a "
        "minimum gap of 0 instead of ~2^-30 (ROADMAP open item 4)"
    ),
    ("anneal-dynamics", "evolve-n4-decaying", "tau=100"): (
        "DOPRI5 error control is absolute per component, so once the decaying norm nears "
        "tol_evolve the steps stop resolving the state: with the reference norm at 1e-9..1e-5 "
        "the output misses the solve_ivp reference on 29 of seeds 1-30 and 9973 "
        "(ROADMAP open item 3)"
    ),
    ("anneal-dynamics", "evolve-n4-decaying", "tau=300"): (
        "same absolute error control, with the norm decayed to 1e-26..1e-11: fails on all of "
        "seeds 1-30 and 9973; on seed 1 the success probability reads 1.0e-7 against a "
        "solve_ivp reference of 1.27e-2 (ROADMAP open item 3)"
    ),
    ("anneal-dynamics", "evolve-n8-decaying", "tau=30"): (
        "same absolute error control: the success probability or the final norm misses "
        "the solve_ivp reference on 24 of seeds 1-30 and 9973 (ROADMAP open item 3)"
    ),
}


def _ising_sets(n: int, fields, couplings) -> list[str]:
    return [
        "--set", "model=ising",
        "--set", f"n_qubits={n}",
        "--set", "fields=" + ",".join(repr(h) for h in fields),
        "--set", "couplings=" + ";".join(f"{i},{j},{jij!r}" for i, j, jij in couplings),
    ]


def _cli(name: str, out_dir: str, experiment: str, *sets: str, checks: list[str], instance: dict | None = None,
         **check) -> dict:
    argv = [experiment]
    if instance is not None:
        argv += _ising_sets(instance["n"], instance["fields"], instance["couplings"])
    for item in sets:
        argv += ["--set", item]
    out = os.path.join(out_dir, f"{name}.csv")
    argv += ["--out", out]
    return {"name": name, "kind": "cli", "argv": argv, "out": out, "instance": instance, "check": check,
            "checks": checks}


def _instance(seed: int, n: int, slot: int) -> dict:
    """Ising instance with fields and all-pair couplings uniform on [-1, 1], drawn from (seed, slot)."""
    rng = np.random.default_rng([seed, slot])
    fields = [float(x) for x in rng.uniform(-1.0, 1.0, size=n)]
    couplings = [(i, j, float(rng.uniform(-1.0, 1.0))) for i in range(n) for j in range(i + 1, n)]
    return {"n": n, "slot": slot, "fields": fields, "couplings": couplings}


def _driver_scaled(inst: dict) -> dict:
    """The instance rescaled so its largest |energy| is n, the driver's (J* = 1).

    The integrator's step count follows tau times the energy scale, so this
    keeps the random overall scale of an instance from setting the cost of
    ``anneal-dynamics``; the landscape still comes from the seed.
    """
    n = inst["n"]
    spins = 1.0 - 2.0 * ((np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1)
    energy = spins @ np.array(inst["fields"])
    for i, j, jij in inst["couplings"]:
        energy += jij * spins[:, i] * spins[:, j]
    scale = n / float(np.max(np.abs(energy)))
    return dict(inst, fields=[h * scale for h in inst["fields"]],
                couplings=[(i, j, jij * scale) for i, j, jij in inst["couplings"]])


def _per(key: str, values) -> list[str]:
    """Check names, one per value of a swept parameter, as in ``tau=300`` or ``delta0=0.25``."""
    return [f"{key}={v:g}" for v in values]


def build_ops(workload: str, seed: int, out_dir: str) -> list[dict]:
    """The fixed batch of one workload; the same seed gives the same batch.

    Each operation lists its ``checks``: the oracle verdicts it yields, one per
    tau or delta0 where it sweeps one.
    """
    if workload == "spectral-ising":
        inst = _instance(seed, 6, 0)
        deltas = [0.25, 0.5, 1.0]
        return [
            _cli("gap-trace", out_dir, "gap-trace", "delta0=0.5", "grid_points=201",
                 checks=["g_m"], instance=inst, delta0=0.5),
            _cli("ep-scan", out_dir, "ep-scan", "delta0_list=0.25,0.5,1", "grid_points=201",
                 checks=_per("delta0", deltas), instance=inst, delta0_list=deltas, grid_points=201),
        ]
    if workload == "anneal-dynamics":
        small = _driver_scaled(_instance(seed, 4, 0))
        large = _driver_scaled(_instance(seed, 8, 1))
        taus = [10.0, 30.0, 100.0, 300.0]
        tau_list = "tau_list=" + ",".join(f"{t:g}" for t in taus)
        return [
            _cli("evolve-n4-hermitian", out_dir, "evolve", "delta0=0", tau_list,
                 checks=_per("tau", taus), instance=small, delta0=0.0, decaying=False, taus=taus),
            _cli("evolve-n4-decaying", out_dir, "evolve", "delta0=0.5", "decaying_driver=true", tau_list,
                 checks=_per("tau", taus), instance=small, delta0=0.5, decaying=True, taus=taus),
            _cli("evolve-n8-decaying", out_dir, "evolve", "delta0=0.5", "decaying_driver=true", "tau_list=10,30",
                 checks=_per("tau", [10.0, 30.0]), instance=large, delta0=0.5, decaying=True, taus=[10.0, 30.0]),
        ]
    if workload == "reduction-pipeline":
        deltas = [0.0, 0.25, 0.5, 1.0]
        ops = [
            _cli(f"fig1-n{n}", out_dir, "fig1", "delta0_list=0,0.25,0.5,1", f"n_qubits={n}", "grid_points=1001",
                 checks=_per("delta0", deltas), n=n, delta0_list=deltas)
            for n in (20, 40, 60)
        ]
        ops.append(
            _cli("tau-sweep", out_dir, "tau-sweep", "n_list=4,8,16,32,64", "delta0_list=0.25,0.5,1,2",
                 "delta_qubit=1e-3", checks=["rows"], n_list=[4, 8, 16, 32, 64], delta0_list=[0.25, 0.5, 1.0, 2.0],
                 delta_qubit=1e-3)
        )
        ops.append({
            "name": "pipeline", "kind": "pipeline", "instance": _instance(seed, 5, 0), "checks": ["budget"],
            "delta0": 0.5, "trace_grid": 201, "window_grid": 1001, "delta_qubit": 1e-3, "check": {},
        })
        return ops
    raise ValueError(f"unknown workload {workload!r}")
