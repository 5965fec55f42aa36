"""Dense reference builders and checks that the library no longer carries, and a full-model EP constructor.

The library stores Hamiltonian terms as XOR-diagonals (``nhaqo.model.XorTerms``)
and needs no dense builder, full bi-orthonormal eigensystem or dense
Hermiticity test; the tests keep these as independent references.
:func:`ray_branch_point` constructs the decay strengths at which a
full-model gap trace passes through an exceptional point.
"""

import cmath
import dataclasses
import math
from typing import Iterable, Sequence

import numpy as np

from nhaqo.errors import DuplicateCoupling
from nhaqo.linalg import EigenSystem, biorthonormalize, eig_nonhermitian, maxnorm
from nhaqo.model import AnnealSpec, XorTerms, linear_schedule
from nhaqo.spectrum import _lowest_pair

#: (n, seed) -> (delta*, s*): exceptional points of ising_anneal_spec(n, seed=seed, delta0=delta*),
#: as :func:`ray_branch_point` finds them from the lowest gap minimum of the 201-point delta0 = 0.25 trace
FULL_MODEL_EPS = {
    (4, 1): (0.3583793369763562, 0.8040190408344313),
    (6, 1): (0.690701838992861, 0.43224344629705175),
}


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


def _ray_point(lam: complex) -> tuple[float, float]:
    """(delta, s) of the pencil point lam: delta = tan arg lam, s = R / (1 + R) with R = |lam| sqrt(1 + delta^2)."""
    delta = math.tan(cmath.phase(lam))
    r = abs(lam) * math.sqrt(1.0 + delta * delta)
    return delta, r / (1.0 + r)


def ray_branch_point(spec: AnnealSpec, delta: float, s: float) -> tuple[float, float, int]:
    """(delta*, s*, eigensolves): an exceptional point of the lowest pair, by a secant from the point (delta, s).

    Under the linear ramp, H(s; delta) = c (h1 + lam h0) with
    c = (1 - s)(1 - i delta) and lam = s / c, so each decay strength walks the
    ray arg lam = atan(delta) of one real-symmetric pencil, and the anneal's
    exceptional points are the pencil's complex branch points.  There
    q(lam) = ((E_1 - E_0) / c)^2, the pencil's lowest-pair discriminant, has a
    simple zero.  The secant on q starts at lam(delta, s) and lam (1 + 0.1i),
    halves any step that leaves 0 < arg lam < pi/2 (delta must stay
    positive), and stops once a step is below 1e-12 |lam|, within 40
    eigensolves.  E_0, E_1 come from ``spectrum._lowest_pair`` at the delta
    and s of each lam.
    """
    evals = 0

    def q(lam: complex) -> complex:
        nonlocal evals
        evals += 1
        d, x = _ray_point(lam)
        e0, e1 = _lowest_pair(dataclasses.replace(spec, schedule=linear_schedule(d)), x)
        return complex((e1 - e0) / ((1.0 - x) * (1.0 - 1j * d))) ** 2

    lam0 = s / ((1.0 - s) * (1.0 - 1j * delta))
    lam1 = lam0 * (1.0 + 0.1j)
    q0, q1 = q(lam0), q(lam1)
    while evals < 40 and q1 != q0:
        step = -q1 * (lam1 - lam0) / (q1 - q0)
        while not 0.0 < cmath.phase(lam1 + step) < math.pi / 2:
            step /= 2
        lam0, q0, lam1 = lam1, q1, lam1 + step
        q1 = q(lam1)
        if abs(step) <= 1e-12 * abs(lam1):
            return (*_ray_point(lam1), evals)
    raise RuntimeError(f"secant did not converge in {evals} eigensolves")
