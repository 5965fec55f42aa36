"""Dense reference builders and checks that the library no longer carries.

The library stores Hamiltonian terms as XOR-diagonals (``nhaqo.model.XorTerms``)
and needs no dense builder, full bi-orthonormal eigensystem or dense
Hermiticity test; the tests keep these as independent references.
"""

from typing import Iterable, Sequence

import numpy as np

from nhaqo.errors import DuplicateCoupling
from nhaqo.linalg import EigenSystem, biorthonormalize, eig_nonhermitian, maxnorm
from nhaqo.model import AnnealSpec, XorTerms


def _spin_values(n: int, qubit: int) -> np.ndarray:
    """Diagonal of Z on `qubit` (qubit 0 = most significant bit): +1/-1 per basis state."""
    basis = np.arange(2**n)
    bits = (basis >> (n - 1 - qubit)) & 1
    return 1.0 - 2.0 * bits


def build_ising(n: int, fields: Sequence[float], couplings: Iterable[tuple[int, int, float]] = ()) -> np.ndarray:
    """Dense diagonal cost Hamiltonian sum_i h_i Z_i + sum_{i<j} J_ij Z_i Z_j, fields summed first."""
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
    """Dense driver -sum_i X_i; its ground state is the uniform superposition at energy -n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = 2**n
    m = np.zeros((dim, dim), dtype=complex)
    rows = np.arange(dim)
    for i in range(n):
        mask = 1 << (n - 1 - i)
        m[rows, rows ^ mask] -= 1.0
    return m


def biorthonormal_eigensystem(m) -> EigenSystem:
    """:func:`eig_nonhermitian` followed by :func:`biorthonormalize`."""
    return biorthonormalize(eig_nonhermitian(m))


def hermitian_defect(m) -> float:
    """Entrywise deviation from self-adjointness, max |M - M^dagger|."""
    a = np.asarray(m, dtype=complex)
    return maxnorm(a - a.conj().T)


def is_hermitian(m, rtol: float = 1e-12) -> bool:
    """Self-adjoint up to ``rtol`` times the matrix maxnorm."""
    a = np.asarray(m, dtype=complex)
    return hermitian_defect(a) <= rtol * maxnorm(a)


def dense_spec(h0, h1, schedule, tau, n_qubits) -> AnnealSpec:
    """Spec from dense terms without ``make_anneal_spec``'s checks (commuting or non-Hermitian pairs allowed)."""
    return AnnealSpec(XorTerms.from_dense(h0), XorTerms.from_dense(h1), schedule, float(tau), n_qubits)
