"""Hamiltonian and schedule construction for annealing runs.

Everything is expressed in the dimensionless time s = t/tau; physical time
enters only in the integrator.  Energy is measured in units of the caller's
coupling scale, so ``delta0`` and friends are dimensionless weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DuplicateCoupling
from .linalg import ensure_operator, is_hermitian, maxnorm

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class Schedule:
    """Interpolation weights: f0 ramps the problem term up, f1 ramps the
    driver down, and f2 is the non-Hermitian (decay) weight on the driver."""

    f0: Callable[[float], float]
    f1: Callable[[float], float]
    f2: Callable[[float], float]


def linear_schedule(delta0: float) -> Schedule:
    """Linear ramp f0=s, f1=1-s with decay weight f2 = delta0*(1-s).

    ``delta0`` is measured in units of the driver's energy scale, so a
    driver of magnitude J* yields the drive (J* - i*delta0*J*)*(1-s).
    """
    d0 = float(delta0)
    if d0 < 0:
        raise ValueError("delta0 must be non-negative")
    return Schedule(
        f0=lambda s: float(s),
        f1=lambda s: 1.0 - float(s),
        f2=lambda s: d0 * (1.0 - float(s)),
    )


@dataclass(frozen=True)
class AnnealSpec:
    """Problem Hamiltonian, driver, schedule, total time and qubit count."""

    h0: np.ndarray
    h1: np.ndarray
    schedule: Schedule
    tau: float
    n_qubits: int


def make_anneal_spec(h0, h1, schedule: Schedule, tau: float, n_qubits: int) -> AnnealSpec:
    """Validated constructor: Hermitian terms, 2^n dimension, non-commuting pair."""
    a0 = ensure_operator(h0)
    a1 = ensure_operator(h1)
    if a0.shape != a1.shape:
        raise ValueError("h0 and h1 must share a dimension")
    if not is_hermitian(a0) or not is_hermitian(a1):
        raise ValueError("h0 and h1 must be Hermitian")
    if n_qubits < 1 or a0.shape[0] != 2**n_qubits:
        raise ValueError(f"dim {a0.shape[0]} != 2^{n_qubits}")
    if tau <= 0:
        raise ValueError("tau must be positive")
    comm = a0 @ a1 - a1 @ a0
    if maxnorm(comm) <= 1e-9 * maxnorm(a0) * maxnorm(a1):
        raise ValueError("h0 and h1 commute; the anneal is trivial")
    return AnnealSpec(a0, a1, schedule, float(tau), int(n_qubits))


def total_hamiltonian(spec: AnnealSpec, s: float) -> np.ndarray:
    """f0(s)*h0 + (f1(s) - i*f2(s))*h1 at dimensionless time s.

    The result is Hermitian exactly when f2(s) = 0.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s={s} outside [0, 1]")
    f0 = spec.schedule.f0(s)
    f1 = spec.schedule.f1(s)
    f2 = spec.schedule.f2(s)
    return f0 * spec.h0 + (f1 - 1j * f2) * spec.h1


def _spin_values(n: int, qubit: int) -> np.ndarray:
    """Diagonal of Z on `qubit` (qubit 0 = most significant bit): +1/-1 per basis state."""
    basis = np.arange(2**n)
    bits = (basis >> (n - 1 - qubit)) & 1
    return 1.0 - 2.0 * bits


def build_ising(n: int, fields: Sequence[float], couplings: Iterable[tuple[int, int, float]] = ()) -> np.ndarray:
    """Diagonal cost Hamiltonian sum_i h_i Z_i + sum_{i<j} J_ij Z_i Z_j.

    Raises
    ------
    DuplicateCoupling
        If the same (i, j) pair appears twice.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    fields = list(fields)
    if len(fields) != n:
        raise ValueError(f"expected {n} fields, got {len(fields)}")
    diag = np.zeros(2**n)
    spins = [_spin_values(n, i) for i in range(n)]
    for i, h in enumerate(fields):
        diag += h * spins[i]
    seen: set[tuple[int, int]] = set()
    for i, j, jij in couplings:
        if not 0 <= i < j < n:
            raise ValueError(f"coupling indices ({i}, {j}) must satisfy 0 <= i < j < n")
        if (i, j) in seen:
            raise DuplicateCoupling(f"coupling ({i}, {j}) listed twice")
        seen.add((i, j))
        diag += jij * spins[i] * spins[j]
    return np.diag(diag).astype(complex)


def build_transverse(n: int) -> np.ndarray:
    """Driver -sum_i X_i; its ground state is the uniform superposition at energy -n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = 2**n
    m = np.zeros((dim, dim), dtype=complex)
    rows = np.arange(dim)
    for i in range(n):
        mask = 1 << (n - 1 - i)
        m[rows, rows ^ mask] -= 1.0
    return m


def random_ising(n: int, seed: int) -> tuple[list[float], list[tuple[int, int, float]]]:
    """Seeded instance: fields and all-pair couplings uniform on [-1, 1]."""
    rng = np.random.default_rng(seed)
    fields = [float(x) for x in rng.uniform(-1.0, 1.0, size=n)]
    couplings = [
        (i, j, float(rng.uniform(-1.0, 1.0))) for i in range(n) for j in range(i + 1, n)
    ]
    return fields, couplings


def ising_anneal_spec(
    n: int,
    *,
    seed: int | None = None,
    fields: Sequence[float] | None = None,
    couplings: Iterable[tuple[int, int, float]] | None = None,
    delta0: float = 0.0,
    tau: float = 1.0,
    j_star: float = 1.0,
) -> AnnealSpec:
    """Ising problem plus transverse driver under the linear ramp.

    Either a seed (drawing fields and couplings) or explicit fields and
    couplings must be given.  ``j_star`` scales the driver.
    """
    if fields is None or couplings is None:
        if seed is None:
            raise ValueError("need either a seed or explicit fields and couplings")
        fields, couplings = random_ising(n, seed)
    h0 = build_ising(n, fields, couplings)
    h1 = j_star * build_transverse(n)
    return make_anneal_spec(h0, h1, linear_schedule(delta0), tau, n)


def two_level_spec(j_star: float, delta0: float, alpha: float, tau: float = 1.0) -> AnnealSpec:
    """Single-qubit spec realizing coupling J(s) = J*s against a driver of equal
    magnitude tilted by the mixing angle ``alpha``.

    Constructed without the commutator check so the exactly-crossing
    alpha = 0 edge case remains expressible.
    """
    h0 = j_star * PAULI_Z
    h1 = j_star * (np.sin(alpha) * PAULI_X - np.cos(alpha) * PAULI_Z)
    return AnnealSpec(h0, h1, linear_schedule(delta0), float(tau), 1)
