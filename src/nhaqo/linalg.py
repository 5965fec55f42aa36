"""Dense complex linear algebra for small non-Hermitian operators.

One eigendecomposition gives both eigensystems.  The right eigenvectors are
the columns of the matrix R that LAPACK returns, sorted by the (real,
imaginary) part of their eigenvalues; the left eigenvectors are the rows of
R^-1, which are bi-orthogonal to the columns and paired with them by
construction.  The unit-normalized overlap |<left|right>| of a pair is the
reciprocal condition number of its eigenvalue; pairs where it vanishes are
flagged as coalesced, and the remaining ones can be rescaled into a
bi-orthonormal system with ``left_vectors @ right_vectors`` equal to the
identity.  Where only eigenvalues are needed, as along a gap trace,
:func:`sorted_eigenvalues` returns them in the same order without computing
any eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceFailure, DefectiveSystem

#: unit-normalized |<left|right>| below this marks an eigenpair as coalesced.
DEFECT_TOLERANCE = 1e-6
#: biorthonormalize refuses when more than this fraction of pairs coalesces.
MAX_DEFECT_FRACTION = 0.5


def maxnorm(m: np.ndarray) -> float:
    """Largest entry magnitude; the scale used by relative tolerances."""
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def ensure_operator(m) -> np.ndarray:
    """Coerce to a finite square complex array or raise ``ValueError``."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def hermitian_defect(m) -> float:
    """Entrywise deviation from self-adjointness, max |M - M^dagger|."""
    a = np.asarray(m, dtype=complex)
    return maxnorm(a - a.conj().T)


def is_hermitian(m, rtol: float = 1e-12) -> bool:
    """Self-adjoint up to ``rtol`` times the matrix maxnorm."""
    a = np.asarray(m, dtype=complex)
    return hermitian_defect(a) <= rtol * maxnorm(a)


@dataclass(frozen=True)
class EigenSystem:
    """Paired right/left eigensystem, sorted ascending by (Re, Im).

    ``right_vectors[:, i]`` is the i-th right (column) eigenvector and
    ``left_vectors[i]`` the i-th left (row) eigenvector.  After
    :func:`biorthonormalize`, ``left_vectors @ right_vectors`` equals the
    identity on every pair not flagged in ``defect_flags``.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    defect_flags: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])


def _sort_order(values: np.ndarray) -> np.ndarray:
    return np.lexsort((values.imag, values.real))


def _lapack_failure(a: np.ndarray) -> ConvergenceFailure:
    return ConvergenceFailure(f"eigensolver failed: dim={a.shape[0]}, maxnorm={maxnorm(a):.6e}")


def sorted_eigenvalues(m) -> np.ndarray:
    """Eigenvalues alone, in the (Re, Im) order of :func:`eig_nonhermitian`.

    Raises
    ------
    ConvergenceFailure
        If LAPACK does not converge.
    """
    a = ensure_operator(m)
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise _lapack_failure(a) from exc
    return vals[_sort_order(vals)]


def _fix_column_phases(cols: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry real and positive."""
    out = cols.copy()
    for i in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, i])))
        p = out[k, i]
        if p != 0:
            out[:, i] *= abs(p) / p
    return out


def _unit_inverse_rows(right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalized rows of ``right``^-1 and their overlaps with its unit columns.

    Row i of the inverse has product 1 with column i, so its unit-normalized
    overlap is 1/|row i|.  Each row is scaled by its largest entry before its
    norm is taken, so a nearly singular ``right`` (entries of the inverse up
    to ~1e292) does not overflow.  An exactly singular ``right`` has no dual
    rows: every pair gets overlap 0 and the conjugated right column in place
    of its left row.
    """
    try:
        inv = np.linalg.inv(right)
    except np.linalg.LinAlgError:
        return right.conj().T, np.zeros(right.shape[0])
    peak = np.max(np.abs(inv), axis=1)
    rows = inv / peak[:, None]
    norms = np.linalg.norm(rows, axis=1)
    return rows / norms[:, None], 1.0 / peak / norms


def eig_nonhermitian(m) -> EigenSystem:
    """Full eigendecomposition: eigenvalues with right and left eigenvectors.

    Eigenvalues are sorted ascending by real part (imaginary part breaks
    ties); right eigenvectors are unit-normalized with their largest entry
    made real-positive.  Left eigenvectors are the unit-normalized rows of
    the inverse of the right-vector matrix, so both come from one LAPACK
    call.  Pairs whose unit-normalized overlap falls below
    ``DEFECT_TOLERANCE`` are marked in ``defect_flags``.

    Raises
    ------
    ConvergenceFailure
        If LAPACK does not converge.
    """
    a = ensure_operator(m)
    try:
        vals, right = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise _lapack_failure(a) from exc
    order = _sort_order(vals)
    vals, right = vals[order], right[:, order]
    right = _fix_column_phases(right / np.linalg.norm(right, axis=0))
    left, overlaps = _unit_inverse_rows(right)
    return EigenSystem(vals, right, left, overlaps < DEFECT_TOLERANCE)


def biorthonormalize(es: EigenSystem) -> EigenSystem:
    """Rescale left vectors so that ``<left_m|right_n> = delta_mn``.

    The left rows of :func:`eig_nonhermitian` are already orthogonal to
    every other pair's right column, so a diagonal rescale suffices.  Pairs
    flagged in ``defect_flags`` keep their left vector unscaled and are
    excluded from the delta_mn guarantee.

    Raises
    ------
    DefectiveSystem
        If more than ``MAX_DEFECT_FRACTION`` of all pairs coalesce.
    """
    flags = es.defect_flags
    if int(flags.sum()) > MAX_DEFECT_FRACTION * es.dim:
        raise DefectiveSystem(f"{int(flags.sum())}/{es.dim} eigenpairs coalesced")
    raw = np.einsum("ij,ji->i", es.left_vectors, es.right_vectors)
    scale = np.where(flags, 1.0, raw)
    return replace(es, left_vectors=es.left_vectors / scale[:, None])


def biorthonormal_eigensystem(m) -> EigenSystem:
    """Convenience: :func:`eig_nonhermitian` followed by :func:`biorthonormalize`."""
    return biorthonormalize(eig_nonhermitian(m))
