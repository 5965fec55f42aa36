"""Dense complex linear algebra for small non-Hermitian operators.

One eigendecomposition gives both eigensystems.  The right eigenvectors are
the columns of the matrix R that LAPACK returns, sorted by the (real,
imaginary) part of their eigenvalues; the left eigenvectors are the rows of
R^-1, which are bi-orthogonal to the columns and paired with them by
construction.  The unit-normalized overlap |<left|right>| of a pair is the
reciprocal condition number of its eigenvalue; pairs where it vanishes are
flagged as coalesced, and the remaining ones can be rescaled into a
bi-orthonormal system with ``left_vectors @ right_vectors`` equal to the
identity.  :func:`lowest_pair_eigensystem` forms the left rows of the two
lowest pairs alone, by one solve with R^T.  Where only eigenvalues are
needed, as for a gap trace's lowest pair, :func:`sorted_eigenvalues` returns
them in the same order without computing any eigenvector.
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
    peaks = cols[np.argmax(np.abs(cols), axis=0), np.arange(cols.shape[1])]
    phases = np.ones_like(peaks)
    np.divide(np.abs(peaks), peaks, out=phases, where=peaks != 0)
    # C order, as a column-by-column copy gives: the inverse taken next rounds by layout
    return np.multiply(cols, phases, order="C")


def _unit_inverse_rows(right: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``count`` unit-normalized rows of ``right``^-1 and their overlaps with its unit columns.

    Row i of the inverse has product 1 with column i, so its unit-normalized
    overlap is 1/|row i|.  Each row is scaled by its largest entry before its
    norm is taken, so a nearly singular ``right`` (entries of the inverse up
    to ~1e292) does not overflow.  An exactly singular ``right`` has no dual
    rows: every pair gets overlap 0 and the conjugated right column in place
    of its left row.  The rows come from one solve with ``right``^T.
    """
    dim = right.shape[0]
    try:
        inv = np.linalg.solve(right.T, np.eye(dim, count)).T
    except np.linalg.LinAlgError:
        return right[:, :count].conj().T, np.zeros(count)
    peak = np.max(np.abs(inv), axis=1)
    rows = inv / peak[:, None]
    norms = np.linalg.norm(rows, axis=1)
    return rows / norms[:, None], 1.0 / peak / norms


def _sorted_unit_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit, phase-fixed right vectors, sorted by (Re, Im)."""
    a = ensure_operator(m)
    try:
        vals, right = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise _lapack_failure(a) from exc
    order = _sort_order(vals)
    vals, right = vals[order], right[:, order]
    return vals, _fix_column_phases(right / np.linalg.norm(right, axis=0))


# no library caller: kept for the benchmark's tracer (perfbench/tracer.py), which wraps it by name
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
    vals, right = _sorted_unit_eig(m)
    left, overlaps = _unit_inverse_rows(right, vals.shape[0])
    return EigenSystem(vals, right, left, overlaps < DEFECT_TOLERANCE)


def lowest_pair_eigensystem(m) -> EigenSystem:
    """The first min(2, dim) pairs of :func:`eig_nonhermitian`, bi-orthonormalized, without the full inverse.

    Eigenvalues, right vectors and defect flags equal those of
    :func:`eig_nonhermitian`; the left rows come from one solve with R^T.
    Coalesced pairs are flagged, never refused.  Raises
    ``ConvergenceFailure`` if LAPACK does not converge.
    """
    vals, right = _sorted_unit_eig(m)
    left, overlaps = _unit_inverse_rows(right, min(2, len(vals)))
    flags = overlaps < DEFECT_TOLERANCE
    raw = np.einsum("ij,ji->i", left, right[:, :2])
    return EigenSystem(vals[:2], right[:, :2], left / np.where(flags, 1.0, raw)[:, None], flags)


# no library caller: kept for the benchmark's tracer (perfbench/tracer.py), which wraps it by name
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
