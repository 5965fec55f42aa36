"""Scans split between the process and one forked child: bit-identical outputs, serial failures, no child left.

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
    # trace_gap's grid, the EP scan and measured_matrix_element's grid each fork once
    assert split["forks"] == 3
    assert split["result"] == serial["result"]


def test_single_cpu_affinity_never_forks(probe):
    # so that `taskset -c 0` gives a serial run whose traced counts cover every call
    assert [case["forks"] for case in probe["serial"].values()] == [0, 0, 0, 0, 0, 0]


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
    # every point was computed in this process: its own half and then the child's
    assert split["result"]["points_here"] == 51
    assert split["result"] == serial["result"]


def test_no_child_is_left_after_success_or_failure(probe):
    assert {name: case["no_child_left"] for name, case in probe["split"].items()} == {
        "scans": True,
        "cheap_scan": True,
        "child_fails": True,
        "parent_fails": True,
        "child_dies": True,
        "child_exits_early": True,
    }
