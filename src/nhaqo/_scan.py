"""Uniform s-grid scans shared between this process and one forked child.

numpy's eigensolvers hold the GIL, so threads do not run them in parallel,
but two processes do.  :func:`split_scan` maps a per-point function over a
list of s values; where that is safe and pays, this process computes the
first half and one ``os.fork``ed child the second, which it sends back over
a pipe as raw bytes.  Both halves run the same code on the same inputs, so
the result is bit-identical to a serial scan.

This process always computes the first point itself and times it.  The
scan splits only when all of these hold: the child's share of the points
times that time exceeds ``SPLIT_ROUND_TRIP_S``, the process may run on at
least two CPUs (``taskset -c 0`` forces a serial scan), and it has no thread
besides the calling one (forking a threaded process is unsafe; OpenBLAS
keeps worker threads unless ``OPENBLAS_NUM_THREADS=1``).  If the child
fails, dies or returns short data, its half is recomputed here, raising
what a serial scan would.  The child's memory is not part of this process's
resident set.
"""

from __future__ import annotations

import os
import signal
import time
import warnings
from typing import Callable, Sequence

import numpy as np

#: wall time a split adds to a scan (fork, pipe, the child's exit, reaping): 4.5-6 ms for a
#: 38 MB process on a 2-CPU x86-64 machine.  Gap-trace scans there broke even at 3.5-9 ms of
#: the child's points times the first point's time (dim 8 near 170 points, dim 16 near 61,
#: dim 32 near 22); near the break-even the two choices differ by about one round trip at most.
SPLIT_ROUND_TRIP_S = 0.005


def _can_split() -> bool:
    try:
        return len(os.sched_getaffinity(0)) >= 2 and len(os.listdir("/proc/self/task")) == 1
    except (AttributeError, OSError):  # no affinity mask or no /proc: not Linux
        return False


def _run_child(fn: Callable, points: list[float], dtype: type, read_end: int, write_end: int) -> None:
    """Compute ``points`` and write their bytes to ``write_end``; always leaves by ``os._exit``."""
    code = 1
    try:
        os.close(read_end)
        with warnings.catch_warnings():
            # a warning raised here would be lost: fail instead, and the parent's
            # serial recompute raises it
            warnings.simplefilter("error")
            data = memoryview(np.array([fn(s) for s in points], dtype=dtype).tobytes())
        while data:
            data = data[os.write(write_end, data) :]
        code = 0
    finally:
        os._exit(code)


def _fork(fn: Callable, points: list[float], dtype: type) -> tuple[int, int] | None:
    """A child computing ``points``: its pid and the read end of its pipe, or None if none could start."""
    fds: tuple[int, ...] = ()
    try:
        fds = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        _run_child(fn, points, dtype, *fds)
    os.close(fds[1])
    return pid, fds[0]


def _read_into(fd: int, buf: memoryview) -> bool:
    """Fill ``buf`` from ``fd``; True if it fills exactly before end of file."""
    filled = 0
    while filled < len(buf) and (got := os.readv(fd, [buf[filled:]])):
        filled += got
    return filled == len(buf) and not os.read(fd, 1)


def split_scan(fn: Callable[[float], object], points: Sequence[float], dtype: type) -> np.ndarray:
    """``np.array([fn(s) for s in points], dtype)``, its second half computed in a forked child where that pays.

    ``points`` must not be empty, and ``fn`` must return the same shape at
    every point.
    """
    points = list(points)
    start = time.perf_counter()
    head = [fn(points[0])]
    half = (len(points) + 1) // 2
    pays = (len(points) - half) * (time.perf_counter() - start) > SPLIT_ROUND_TRIP_S
    child = _fork(fn, points[half:], dtype) if pays and _can_split() else None
    if child is None:
        return np.array(head + [fn(s) for s in points[1:]], dtype=dtype)
    pid, read_end = child
    try:
        first = np.array(head + [fn(s) for s in points[1:half]], dtype=dtype)
        out = np.empty((len(points),) + first.shape[1:], dtype=dtype)
        out[:half] = first
        received = _read_into(read_end, memoryview(out[half:]).cast("B"))
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_end)
        _, status = os.waitpid(pid, 0)
    if not received or os.waitstatus_to_exitcode(status) != 0:
        out[half:] = np.array([fn(s) for s in points[half:]], dtype=dtype)
    return out
