"""Shared corpus definitions and cached spectral data for the test suite."""

import os
import struct
import warnings

import numpy as np
import pytest

from nhaqo.errors import MultipleMinimaWarning
from nhaqo.model import ising_anneal_spec
from nhaqo.reduction import build_crossover_basis, decompose_schedule_params
from nhaqo.spectrum import trace_gap

# 20 seeded random Ising instances, five per size.  Seeds are fixed up front;
# the n=5 list includes one deliberately sharp avoided crossing (seed 315,
# found by a deterministic scan over seeds 0..399) so that the small-gap
# subset of the angle-relation check is populated.
REDUCTION_CORPUS = (
    [(2, s) for s in (0, 1, 2, 3, 4)]
    + [(3, s) for s in (0, 1, 2, 3, 4)]
    + [(4, s) for s in (0, 2, 3, 4, 5)]
    + [(5, s) for s in (2, 3, 7, 8, 315)]
)


class InstanceData:
    """Hermitian trace plus reduced-model parameters for one Ising instance."""

    def __init__(self, n, seed, grid_points=1001):
        self.n = n
        self.seed = seed
        self.spec = ising_anneal_spec(n, seed=seed, delta0=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleMinimaWarning)
            self.trace = trace_gap(self.spec, grid_points)
        self.basis = build_crossover_basis(self.spec, self.trace.s_c)
        self.params = decompose_schedule_params(self.spec, self.basis)
        self.j_c = self.params.coupling(self.spec.schedule, self.trace.s_c)

    @property
    def g_m(self):
        return self.trace.g_m

    def window(self, half_width=0.05, points=21):
        lo = max(0.0, self.trace.s_c - half_width)
        hi = min(1.0, self.trace.s_c + half_width)
        return np.linspace(lo, hi, points)


_corpus_cache: dict = {}


def corpus_data():
    """Compute (once) and cache the reduction corpus instance data."""
    if "data" not in _corpus_cache:
        _corpus_cache["data"] = [InstanceData(n, seed) for n, seed in REDUCTION_CORPUS]
    return _corpus_cache["data"]


@pytest.fixture(scope="session")
def reduction_corpus():
    return corpus_data()


class CallLog:
    """Append-only float records that a forked child's appends reach as well.

    Each record goes to a file opened with ``O_APPEND``, which a child forked
    by a split scan inherits, so calls made in either process are counted.
    """

    def __init__(self, path):
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND)

    def append(self, value=0.0):
        os.write(self._fd, struct.pack("<d", value))

    def __len__(self):
        return os.fstat(self._fd).st_size // 8

    def __iter__(self):
        data = os.pread(self._fd, 8 * len(self), 0)
        return iter(struct.unpack(f"<{len(data) // 8}d", data))

    def __eq__(self, other):
        return list(self) == list(other)

    def close(self):
        os.close(self._fd)


@pytest.fixture
def call_log(tmp_path):
    """Factory of fresh :class:`CallLog` instances, closed after the test."""
    logs = []

    def make():
        logs.append(CallLog(tmp_path / f"calls-{len(logs)}.bin"))
        return logs[-1]

    yield make
    for log in logs:
        log.close()
