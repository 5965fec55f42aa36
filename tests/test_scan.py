"""Scans and evolve sweeps split between the process and one forked child: bit-identical outputs, serial failures, no child left.

The scenarios run in a separate interpreter (``_split_probe.py``) with BLAS
pinned to one thread, so that its scans really split whatever this test
process's own BLAS threads are.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PROBE = Path(__file__).with_name("_split_probe.py")
SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2 or not os.path.isdir("/proc/self/task"),
    reason="a scan splits only on Linux with two or more CPUs",
)


@pytest.fixture(scope="module")
def probe():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, str(PROBE)], env=env, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_split_scans_are_bit_identical_to_serial_scans(probe):
    split, serial = probe["split"]["scans"], probe["serial"]["scans"]
    # trace_gap's grid and measured_matrix_element's grid each fork once; the
    # EP search reads the trace and scans nothing
    assert split["forks"] == 2
    assert split["result"] == serial["result"]


def test_single_cpu_affinity_never_forks(probe):
    # so that `taskset -c 0` gives a serial run whose traced counts cover every call
    assert [case["forks"] for case in probe["serial"].values()] == [0] * 10


def test_scan_cheaper_than_a_fork_round_trip_runs_serially(probe):
    split, serial = probe["split"]["cheap_scan"], probe["serial"]["cheap_scan"]
    assert split["forks"] == 0
    assert split["result"] == serial["result"]


def test_eigensolver_failure_in_the_childs_half_raises_the_serial_message(probe):
    split, serial = probe["split"]["child_fails"], probe["serial"]["child_fails"]
    assert split["forks"] == 1
    assert "(at s=0.75)" in serial["result"]["raised"]
    assert split["result"] == serial["result"]


def test_eigensolver_failure_in_the_parents_half_raises_the_serial_message(probe):
    split, serial = probe["split"]["parent_fails"], probe["serial"]["parent_fails"]
    assert split["forks"] == 1
    assert "(at s=0.25)" in serial["result"]["raised"]
    assert split["result"] == serial["result"]


@pytest.mark.parametrize("case", ["child_dies", "child_exits_early"])
def test_child_half_is_recomputed_serially_when_the_child_dies_or_sends_short_data(probe, case):
    split, serial = probe["split"][case], probe["serial"][case]
    assert split["forks"] == 1
    # every scan point was computed in this process: its own half and then the child's
    assert split["result"]["grid_points_here"] == 51
    assert split["result"]["points_here"] == serial["result"]["points_here"]
    assert split["result"] == serial["result"]


def test_no_child_is_left_after_success_or_failure(probe):
    assert {name: case["no_child_left"] for name, case in probe["split"].items()} == {
        "scans": True,
        "cheap_scan": True,
        "child_fails": True,
        "parent_fails": True,
        "child_dies": True,
        "child_exits_early": True,
        "evolve_sweep": True,
        "evolve_unsorted": True,
        "evolve_two_taus": True,
        "evolve_child_underflow": True,
    }


def rows(case):
    """The data rows of an evolve CSV, keyed by tau."""
    lines = [line for line in case["result"]["csv"].splitlines() if not line.startswith("#")]
    return {line.split(",")[0]: line for line in lines[1:]}


def test_evolve_sweep_forks_once_and_writes_the_serial_csv(probe):
    split, serial = probe["split"]["evolve_sweep"], probe["serial"]["evolve_sweep"]
    assert split["forks"] == 1
    # the child integrated tau=300, this process the other three
    assert split["result"]["taus_here"] == [10.0, 30.0, 100.0]
    assert split["result"]["csv"] == serial["result"]["csv"]
    assert list(rows(split)) == ["10", "30", "100", "300"]


def test_evolve_sweep_of_two_taus_runs_serially(probe):
    split, serial = probe["split"]["evolve_two_taus"], probe["serial"]["evolve_two_taus"]
    assert split["forks"] == 0
    assert split["result"] == serial["result"]


def test_unsorted_tau_list_gives_the_same_rows_in_its_own_order(probe):
    split, serial = probe["split"]["evolve_unsorted"], probe["serial"]["evolve_unsorted"]
    assert split["forks"] == 1
    assert split["result"]["csv"] == serial["result"]["csv"]
    assert list(rows(split)) == ["300", "10", "100", "30"]
    assert rows(split) == rows(probe["serial"]["evolve_sweep"])


def test_step_underflow_in_the_childs_share_writes_the_serial_error_row(probe):
    split, serial = probe["split"]["evolve_child_underflow"], probe["serial"]["evolve_child_underflow"]
    assert split["forks"] == 1
    assert split["result"]["taus_here"] == [10.0, 30.0, 100.0]
    assert split["result"]["csv"] == serial["result"]["csv"]
    assert rows(split)["300"] == "300,nan,nan,0,error:StepUnderflow"
    ok = rows(probe["split"]["evolve_sweep"])
    assert [rows(split)[tau] for tau in ("10", "30", "100")] == [ok[tau] for tau in ("10", "30", "100")]
