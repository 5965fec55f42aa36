"""Run the split scans and evolve sweeps with a forked child, then serially, and print what happened as JSON.

Usage: ``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/_split_probe.py`` on
a machine where this process may use two or more CPUs, so that the scans
split; ``tests/test_scan.py`` starts it that way.  Each scenario runs once at
the process's own affinity and once pinned to a single CPU, where no scan
splits.  ``forks`` counts ``os.fork`` calls made by this process, and
``no_child_left`` says whether ``os.waitpid(-1, os.WNOHANG)`` then finds no
child at all.  The evolve scenarios run ``nhaqo evolve`` on one n=4 decaying
instance and return its CSV's text.
"""

import contextlib
import hashlib
import io
import json
import os
import signal
import tempfile
import warnings

import numpy as np

import nhaqo.adiabatic
from nhaqo import cli
from nhaqo._minimize import uniform_grid
from nhaqo.adiabatic import measured_matrix_element
from nhaqo.errors import ConvergenceFailure, MultipleMinimaWarning, StepUnderflow
from nhaqo.model import ising_anneal_spec, total_hamiltonian
from nhaqo.spectrum import detect_exceptional_point, trace_gap

SPEC6 = ising_anneal_spec(6, seed=1, delta0=0.5)
SPEC5 = ising_anneal_spec(5, seed=1, delta0=0.5)
SPEC2 = ising_anneal_spec(2, seed=1, delta0=0.5)
FORKS = []
_fork = os.fork


def counted_fork():
    FORKS.append(None)
    return _fork()


os.fork = counted_fork


def outcome(run):
    """run()'s result (or the message of the ConvergenceFailure it raised), its forks, and no_child_left."""
    start = len(FORKS)
    try:
        result = run()
    except ConvergenceFailure as exc:
        result = {"raised": str(exc)}
    try:
        os.waitpid(-1, os.WNOHANG)
        left = False
    except ChildProcessError:
        left = True
    return {"result": result, "forks": len(FORKS) - start, "no_child_left": left}


def scans():
    """Bit patterns of the gap trace, the EP found on it and the measured matrix element."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultipleMinimaWarning)
        trace = trace_gap(SPEC6, 201)
    ep = detect_exceptional_point(trace)
    digest = hashlib.sha256()
    for sn in trace.snapshots:
        digest.update(sn.pair.tobytes())
    return {
        "s": [sn.s.hex() for sn in trace.snapshots],
        "gaps": [sn.gap.hex() for sn in trace.snapshots],
        "pairs": digest.hexdigest(),
        "crossover": [trace.s_c.hex(), trace.g_m.hex()],
        "ep": None if ep is None else [ep.s.hex(), ep.gap.hex(), ep.overlap.hex()],
        "element": measured_matrix_element(SPEC5, 201).hex(),
    }


def trace_failing_at(s_bad):
    """A 201-point gap trace whose eigensolver fails at H(s_bad) alone."""
    bad = total_hamiltonian(SPEC6, s_bad)
    eigvals = np.linalg.eigvals

    def flaky(a):
        if np.array_equal(a, bad):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    np.linalg.eigvals = flaky
    try:
        trace_gap(SPEC6, 201)
    finally:
        np.linalg.eigvals = eigvals


def element_with_child_leaving(leave):
    """measured_matrix_element on a 51-point scan where any forked child calls ``leave()`` at its first point.

    ``points_here`` counts the element's evaluations in this process, scan and
    polish; ``grid_points_here`` the distinct scan points among them.
    """
    parent = os.getpid()
    build = nhaqo.adiabatic.total_hamiltonian
    points = []

    def dying(spec, s):
        if os.getpid() != parent:
            leave()
        points.append(s)
        return build(spec, s)

    nhaqo.adiabatic.total_hamiltonian = dying
    try:
        element = measured_matrix_element(SPEC5, 51).hex()
    finally:
        nhaqo.adiabatic.total_hamiltonian = build
    grid = {float(s) for s in uniform_grid(51)}
    return {"element": element, "points_here": len(points), "grid_points_here": len(grid.intersection(points))}


def evolve_csv(tau_list, fail_at=None):
    """The CSV text of an n=4 decaying evolve sweep, and the taus integrated in this process.

    Where ``fail_at`` is given, the integration at that tau raises
    ``StepUnderflow`` in whichever process runs it.
    """
    parent = os.getpid()
    run = cli.evolve
    here = []

    def failing(spec, *args, **kwargs):
        if os.getpid() == parent:
            here.append(spec.tau)
        if spec.tau == fail_at:
            raise StepUnderflow(f"step underflow forced at tau={spec.tau:g}")
        return run(spec, *args, **kwargs)

    cli.evolve = failing
    try:
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "evolve.csv")
            argv = ["evolve", "--set", "model=ising", "--set", "n_qubits=4", "--set", "seed=1",
                    "--set", "delta0=0.5", "--set", "decaying_driver=true", "--set", f"tau_list={tau_list}",
                    "--out", out]
            with contextlib.redirect_stdout(io.StringIO()):  # the CLI prints the CSV's path
                assert cli.main(argv) == 0
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
    finally:
        cli.evolve = run
    return {"csv": text, "taus_here": here}


def scenarios():
    return {
        "scans": outcome(scans),
        # 5 dim-4 points for the child: far less work than a fork round trip
        "cheap_scan": outcome(lambda: measured_matrix_element(SPEC2, 11).hex()),
        # 0.75 lies in the child's half of the 201-point grid, 0.25 in this process's
        "child_fails": outcome(lambda: trace_failing_at(0.75)),
        "parent_fails": outcome(lambda: trace_failing_at(0.25)),
        "child_dies": outcome(lambda: element_with_child_leaving(lambda: os.kill(os.getpid(), signal.SIGKILL))),
        # exit status 0, but no data: short data
        "child_exits_early": outcome(lambda: element_with_child_leaving(lambda: os._exit(0))),
        # costs 10 + 30 + 100 against 300: the child takes tau=300
        "evolve_sweep": outcome(lambda: evolve_csv("10,30,100,300")),
        "evolve_unsorted": outcome(lambda: evolve_csv("300,10,100,30")),
        # the balanced split leaves this process only the tau it times first
        "evolve_two_taus": outcome(lambda: evolve_csv("10,30")),
        "evolve_child_underflow": outcome(lambda: evolve_csv("10,30,100,300", fail_at=300.0)),
    }


if __name__ == "__main__":
    split = scenarios()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(json.dumps({"split": split, "serial": scenarios()}))
