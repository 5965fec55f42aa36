"""Hamiltonian and schedule construction for annealing runs.

Everything is expressed in the dimensionless time s = t/tau; physical time
enters only in the integrator.  Energy is measured in units of the caller's
coupling scale, so ``delta0`` and friends are dimensionless weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DuplicateCoupling
from .linalg import ensure_operator, maxnorm

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
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
class XorTerms:
    """An operator m stored as XOR-diagonals: (m @ y)[r] = sum_k diagonals[k, r] * y[r ^ masks[k]].

    ``masks`` is sorted ascending and ``diagonals[k, r]`` is m[r, r ^ masks[k]]:
    an Ising problem is mask 0 alone, the transverse driver its n bit flips.
    """

    masks: np.ndarray
    diagonals: np.ndarray

    @classmethod
    def from_dense(cls, m) -> XorTerms:
        """The XOR-diagonals of a 2^n x 2^n matrix that hold a nonzero entry."""
        a = ensure_operator(m)
        dim = a.shape[0]
        if dim & (dim - 1):
            raise ValueError(f"dimension {dim} is not a power of two")
        r, c = np.nonzero(a)
        masks = np.unique(r ^ c)
        return cls(masks, a[np.arange(dim), np.arange(dim) ^ masks[:, None]])

    def partners(self) -> np.ndarray:
        """``partners()[k, r] = r ^ masks[k]``: the column of each stored entry."""
        return np.arange(self.diagonals.shape[1]) ^ self.masks[:, None]

    def adjoint(self) -> np.ndarray:
        """The diagonals of m^dagger on the same masks: conj(m[r ^ k, r])."""
        return np.take_along_axis(self.diagonals, self.partners(), axis=1).conj()

    def maxnorm(self) -> float:
        """Largest entry magnitude of m."""
        return maxnorm(self.diagonals)

    def norm_bound(self) -> float:
        """sum_k max_r |diagonals[k, r]|: each XOR-diagonal is a permutation times a diagonal, so this bounds ||m||_2."""
        return float(np.abs(self.diagonals).max(axis=1).sum())

    def is_hermitian(self) -> bool:
        """max |m - m^dagger| within 1e-12 times the maxnorm."""
        return maxnorm(self.diagonals - self.adjoint()) <= 1e-12 * self.maxnorm()

    def dense(self) -> np.ndarray:
        """The 2^n x 2^n matrix; only eigensolver paths need it."""
        dim = self.diagonals.shape[1]
        m = np.zeros((dim, dim), dtype=complex)
        m[np.arange(dim), self.partners()] = self.diagonals
        return m


def commutator_maxnorm(a: XorTerms, b: XorTerms) -> float:
    """max |[a, b]| from mask products: (A_j B_k)[r, r ^ j ^ k] = A_j[r] B_k[r ^ j]."""
    rows = np.arange(a.diagonals.shape[1])
    out: dict[int, np.ndarray] = {}
    for j, aj in zip(a.masks.tolist(), a.diagonals):
        for k, bk in zip(b.masks.tolist(), b.diagonals):
            out[j ^ k] = out.get(j ^ k, 0.0) + aj * bk[rows ^ j] - bk * aj[rows ^ k]
    return max((maxnorm(c) for c in out.values()), default=0.0)


@dataclass(frozen=True)
class AnnealSpec:
    """Problem and driver as XOR-diagonals, schedule, total time and qubit count.

    ``h0`` and ``h1`` are their dense matrices, for eigensolvers: built on first
    use and cached on the instance, so ``dataclasses.replace`` drops them.
    """

    problem: XorTerms
    driver: XorTerms
    schedule: Schedule
    tau: float
    n_qubits: int

    @cached_property
    def h0(self) -> np.ndarray:
        return self.problem.dense()

    @cached_property
    def h1(self) -> np.ndarray:
        return self.driver.dense()


def make_anneal_spec(h0, h1, schedule: Schedule, tau: float, n_qubits: int) -> AnnealSpec:
    """Validated constructor: Hermitian terms of dimension 2^n that do not commute.

    ``h0`` and ``h1`` are :class:`XorTerms` or dense matrices; a dense one is
    converted once.  The checks run on the terms.
    """
    t0, t1 = (h if isinstance(h, XorTerms) else XorTerms.from_dense(h) for h in (h0, h1))
    dim = t0.diagonals.shape[1]
    if t1.diagonals.shape[1] != dim:
        raise ValueError("h0 and h1 must share a dimension")
    if not t0.is_hermitian() or not t1.is_hermitian():
        raise ValueError("h0 and h1 must be Hermitian")
    if n_qubits < 1 or dim != 2**n_qubits:
        raise ValueError(f"dim {dim} != 2^{n_qubits}")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if commutator_maxnorm(t0, t1) <= 1e-9 * t0.maxnorm() * t1.maxnorm():
        raise ValueError("h0 and h1 commute; the anneal is trivial")
    return AnnealSpec(t0, t1, schedule, float(tau), int(n_qubits))


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
    """Ising problem sum_i h_i Z_i + sum_{i<j} J_ij Z_i Z_j plus transverse
    driver -j_star sum_i X_i under the linear ramp.

    Either a seed (drawing fields and couplings) or explicit fields and
    couplings must be given.  The terms are written as XOR-diagonals: the
    problem on mask 0, the driver on its n bit flips.

    Raises
    ------
    DuplicateCoupling
        If the same (i, j) pair appears twice.
    """
    if fields is None or couplings is None:
        if seed is None:
            raise ValueError("need either a seed or explicit fields and couplings")
        fields, couplings = random_ising(n, seed)
    fields = list(fields)
    if len(fields) != n:
        raise ValueError(f"expected {n} fields, got {len(fields)}")
    diag = np.zeros(2**n)
    # Z_i on each basis state, qubit 0 the most significant bit
    spins = 1.0 - 2.0 * ((np.arange(2**n) >> (n - 1 - np.arange(n))[:, None]) & 1)
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
    problem = XorTerms(np.zeros(1, dtype=int), diag.astype(complex)[None])
    driver = XorTerms(1 << np.arange(n), np.full((n, 2**n), -j_star, dtype=complex))
    return make_anneal_spec(problem, driver, linear_schedule(delta0), tau, n)


def two_level_spec(j_star: float, delta0: float, alpha: float, tau: float = 1.0) -> AnnealSpec:
    """Single-qubit spec realizing coupling J(s) = J*s against a driver of equal
    magnitude tilted by the mixing angle ``alpha``.

    Constructed without the commutator check so the exactly-crossing
    alpha = 0 edge case remains expressible.
    """
    h0 = j_star * PAULI_Z
    h1 = j_star * (np.sin(alpha) * PAULI_X - np.cos(alpha) * PAULI_Z)
    return AnnealSpec(XorTerms.from_dense(h0), XorTerms.from_dense(h1), linear_schedule(delta0), float(tau), 1)
