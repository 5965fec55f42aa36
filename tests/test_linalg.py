"""Eigendecomposition, defect flags, bi-orthonormalization and the reference propagator."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import biorthonormal_eigensystem, hermitian_defect, is_hermitian
from nhaqo.errors import DefectiveSystem
from nhaqo.linalg import (
    EigenSystem,
    _fix_column_phases,
    biorthonormalize,
    eig_nonhermitian,
    lowest_pair_eigensystem,
    maxnorm,
)
from nhaqo.model import ising_anneal_spec, total_hamiltonian

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_complex(rng, n, scale=1.0):
    return scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


def random_hermitian(rng, n):
    a = random_complex(rng, n)
    return 0.5 * (a + a.conj().T)


def test_identity_eigensystem():
    es = eig_nonhermitian(np.eye(3))
    assert np.allclose(es.eigenvalues, 1.0)
    assert not es.defect_flags.any()
    # right system is orthonormal
    assert np.allclose(es.right_vectors.conj().T @ es.right_vectors, np.eye(3), atol=1e-12)


def test_nilpotent_jordan_block_flags_both():
    # the 3x3 block's right vectors are exactly singular: its flags must come
    # from eig_nonhermitian, since it has no dual rows to recompute them from
    for m in ([[0, 1], [0, 0]], np.diag([1.0, 1.0], 1)):
        es = eig_nonhermitian(m)
        assert np.allclose(es.eigenvalues, 0.0)
        assert es.defect_flags.all()
        with pytest.raises(DefectiveSystem):
            biorthonormalize(es)


def test_upper_triangular_hand_solution():
    # eigenvalues 1, 2 with right vectors (1,0) and (1,1)/sqrt(2)
    es = eig_nonhermitian([[1, 1], [0, 2]])
    assert np.allclose(es.eigenvalues, [1.0, 2.0])
    assert np.allclose(es.right_vectors[:, 0], [1.0, 0.0])
    assert np.allclose(es.right_vectors[:, 1], np.array([1.0, 1.0]) / np.sqrt(2))
    bi = biorthonormalize(es)
    ov = bi.left_vectors @ bi.right_vectors
    assert np.allclose(ov, np.eye(2), atol=1e-10)


def test_eigenvector_residuals_random():
    rng = np.random.default_rng(5)
    for n in (2, 3, 8, 17):
        m = random_complex(rng, n)
        es = eig_nonhermitian(m)
        scale = maxnorm(m)
        for i in range(n):
            r = m @ es.right_vectors[:, i] - es.eigenvalues[i] * es.right_vectors[:, i]
            assert np.linalg.norm(r) <= 1e-9 * scale * n
            l = es.left_vectors[i] @ m - es.eigenvalues[i] * es.left_vectors[i]
            assert np.linalg.norm(l) <= 1e-9 * scale * n


def test_sorted_by_real_then_imag():
    rng = np.random.default_rng(6)
    m = random_complex(rng, 12)
    vals = eig_nonhermitian(m).eigenvalues
    for a, b in zip(vals[:-1], vals[1:]):
        assert (a.real, a.imag) <= (b.real, b.imag)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=16))
def test_trace_identity(seed, n):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, n)
    es = eig_nonhermitian(m)
    assert abs(np.sum(es.eigenvalues) - np.trace(m)) <= 1e-9 * max(abs(np.trace(m)), maxnorm(m) * n)


def test_trace_identity_dim64():
    rng = np.random.default_rng(64)
    m = random_complex(rng, 64)
    es = eig_nonhermitian(m)
    assert abs(np.sum(es.eigenvalues) - np.trace(m)) <= 1e-9 * maxnorm(m) * 64


def test_hermitian_specialization():
    rng = np.random.default_rng(7)
    for n in (2, 5, 12):
        m = random_hermitian(rng, n)
        es = biorthonormal_eigensystem(m)
        assert np.max(np.abs(es.eigenvalues.imag)) <= 1e-10 * maxnorm(m)
        # left rows coincide with conjugated right columns
        assert np.allclose(es.left_vectors, es.right_vectors.conj().T, atol=1e-8)


def test_similarity_invariance():
    rng = np.random.default_rng(8)
    for n in (3, 6, 10):
        m = random_complex(rng, n)
        q, _ = np.linalg.qr(random_complex(rng, n))
        d = np.diag(rng.uniform(0.5, 2.0, size=n))
        p = q @ d
        sim = p @ m @ np.linalg.inv(p)
        v1 = eig_nonhermitian(m).eigenvalues
        v2 = eig_nonhermitian(sim).eigenvalues
        assert np.max(np.abs(v1 - v2)) <= 1e-7 * max(1.0, maxnorm(m))


def test_biorthonormal_delta_for_random_matrices():
    rng = np.random.default_rng(9)
    for n in (2, 4, 9):
        es = biorthonormal_eigensystem(random_complex(rng, n))
        keep = ~es.defect_flags
        ov = es.left_vectors @ es.right_vectors
        assert np.allclose(ov[np.ix_(keep, keep)], np.eye(int(keep.sum())), atol=1e-8)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=10))
def test_biorthonormal_resolution_of_identity(seed, n):
    # left@right == I implies right@left == I: the pair resolves the identity
    rng = np.random.default_rng(seed)
    es = biorthonormal_eigensystem(random_complex(rng, n))
    if es.defect_flags.any():
        return  # coalesced systems carry no completeness guarantee
    assert np.allclose(es.right_vectors @ es.left_vectors, np.eye(n), atol=1e-7)


def test_degenerate_hermitian_cluster_is_not_defective():
    # twofold-degenerate eigenspace: the rows of R^-1 stay dual to its columns
    base = np.diag([1.0, 1.0, 3.0]).astype(complex)
    q, _ = np.linalg.qr(random_complex(np.random.default_rng(10), 3))
    m = q @ base @ q.conj().T
    m = 0.5 * (m + m.conj().T)
    es = biorthonormal_eigensystem(m)
    assert not es.defect_flags.any()
    assert np.allclose(es.left_vectors @ es.right_vectors, np.eye(3), atol=1e-8)


def test_near_degenerate_nonhermitian_pair_is_biorthonormal():
    # eigenvalues split by down to 1e-12 with independent eigenvectors: the
    # nearly degenerate pair must come out bi-orthonormal without losing the
    # left-eigenvector property
    rng = np.random.default_rng(14)
    for split in (1e-12, 1e-10, 1e-8):
        base = np.diag([1.0, 1.0 + split, 3.0]).astype(complex)
        p = np.eye(3) + 0.3 * random_complex(rng, 3)
        m = p @ base @ np.linalg.inv(p)
        es = biorthonormal_eigensystem(m)
        assert not es.defect_flags.any()
        assert np.allclose(es.left_vectors @ es.right_vectors, np.eye(3), atol=1e-8)
        for i in range(3):
            row = es.left_vectors[i]
            res = np.linalg.norm(row @ m - es.eigenvalues[i] * row) / np.linalg.norm(row)
            assert res <= 1e-9 * maxnorm(m)


def test_eig_rejects_nonfinite():
    with pytest.raises(ValueError):
        eig_nonhermitian([[np.nan, 0], [0, 1]])


def test_hermitian_flag_check():
    assert is_hermitian(np.diag([1.0, -2.0]))
    assert not is_hermitian([[0, 1], [0, 0]])
    assert hermitian_defect([[0, 1j], [1j, 0]]) == pytest.approx(2.0)


# The reference propagator of the integrator tests is scipy.linalg.expm(-1j*dt*m) @ v;
# these pin its sign convention on analytic cases.
def test_expm_diagonal_decay():
    m = np.diag([0.0, -0.5j])
    out = scipy.linalg.expm(-2.0j * m) @ np.array([1.0, 1.0])
    assert np.allclose(out, [1.0, np.exp(-1.0)], atol=1e-12)


def test_expm_pauli_rotation():
    out = scipy.linalg.expm(-1j * (np.pi / 2) * SX) @ np.array([1.0, 0.0])
    assert np.allclose(out, [0.0, -1.0j], atol=1e-12)


def test_eigensystem_dataclass_shape():
    es = eig_nonhermitian(np.diag([2.0, 1.0]))
    assert isinstance(es, EigenSystem)
    assert es.dim == 2
    assert np.allclose(es.eigenvalues, [1.0, 2.0])


def test_defect_flags_are_local_to_the_coalesced_pair():
    # defective 2x2 block beside two clean levels: only its pair is flagged,
    # and biorthonormalize keeps working on the rest
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = 1.0
    m[0, 1] = 1.0  # Jordan block at eigenvalue 1
    m[2, 2] = 5.0
    m[3, 3] = 9.0
    es = eig_nonhermitian(m)
    assert list(es.defect_flags) == [True, True, False, False]
    bi = biorthonormalize(es)  # 2/4 coalesced: below the refusal fraction
    ov = bi.left_vectors @ bi.right_vectors
    keep = ~bi.defect_flags
    assert np.allclose(ov[np.ix_(keep, keep)], np.eye(2), atol=1e-10)


def test_one_lapack_decomposition_per_matrix(monkeypatch):
    calls = []
    eig = np.linalg.eig

    def counted(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    rng = np.random.default_rng(15)
    for n in (2, 5, 16):
        biorthonormal_eigensystem(random_complex(rng, n))
    assert calls == [(2, 2), (5, 5), (16, 16)]


def test_complex_symmetric_left_rows_are_transposed_right_columns():
    # h0 is real diagonal and h1 real symmetric, so H(s) = H(s)^T and every
    # left eigenvector is the transposed right one
    spec = ising_anneal_spec(4, seed=3, delta0=0.5)
    for s in (0.2, 0.5, 0.8):
        es = eig_nonhermitian(total_hamiltonian(spec, s))
        assert not es.defect_flags.any()
        for i in range(es.dim):
            assert abs(np.vdot(es.right_vectors[:, i], es.left_vectors[i])) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "m, flags",
    [
        ([[0, 1], [0, 0]], [True, True]),
        (np.diag([1.0, 1.0], 1), [True, True, True]),  # right vectors exactly singular
        (np.diag([1.0, 0.0, 0.0], 1) + np.diag([1.0, 1.0, 5.0, 9.0]), [True, True, False, False]),
    ],
)
def test_jordan_blocks_flag_without_floating_point_warnings(m, flags):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        es = eig_nonhermitian(m)
        low = lowest_pair_eigensystem(m)
    assert list(es.defect_flags) == flags
    assert list(low.defect_flags) == flags[:2]
    for vectors in (es.left_vectors, low.left_vectors):
        assert np.all(np.isfinite(vectors))
        assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0)


def _fix_column_phases_loop(cols):
    # reference: one column at a time
    out = cols.copy()
    for i in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, i])))
        p = out[k, i]
        if p != 0:
            out[:, i] *= abs(p) / p
    return out


def test_column_phases_match_the_column_loop_bitwise():
    rng = np.random.default_rng(32)
    for _ in range(50):
        right = np.linalg.eig(random_complex(rng, 32))[1]
        right[:, 5] = 0.0  # a zero column keeps its phase
        fixed = _fix_column_phases(right)
        assert fixed.tobytes() == _fix_column_phases_loop(right).tobytes()
        assert fixed.flags.c_contiguous  # the layout the loop's copy has
        peaks = fixed[np.argmax(np.abs(fixed), axis=0), np.arange(32)]
        assert np.all(peaks[np.arange(32) != 5].imag == 0.0)


def _ising_snapshot(n, seed, s):
    return total_hamiltonian(ising_anneal_spec(n, seed=seed, delta0=0.5), s)


@settings(deadline=None, max_examples=40)
@given(
    m=st.one_of(
        st.builds(lambda seed, n: random_complex(np.random.default_rng(seed), n), st.integers(0, 10_000), st.integers(1, 12)),
        st.builds(_ising_snapshot, st.integers(3, 6), st.integers(0, 10_000), st.floats(0.0, 1.0)),
    )
)
@example(m=random_complex(np.random.default_rng(16), 8))
@example(m=random_complex(np.random.default_rng(17), 32))
@example(m=_ising_snapshot(3, 1, 0.4))
@example(m=_ising_snapshot(4, 2, 0.0))
@example(m=_ising_snapshot(5, 1, 0.5))
@example(m=_ising_snapshot(6, 9973, 1.0))
@example(m=[[0, 1], [0, 0]])  # 2x2 Jordan block
@example(m=np.diag([1.0, 1.0], 1))  # 3x3 nilpotent block: right vectors exactly singular
@example(m=[[2.5 - 0.5j]])
def test_lowest_pair_matches_the_full_eigensystem(m):
    full = eig_nonhermitian(m)
    low = lowest_pair_eigensystem(m)
    k = min(2, full.dim)
    assert low.dim == k
    assert np.array_equal(low.eigenvalues, full.eigenvalues[:k])
    assert np.array_equal(low.right_vectors, full.right_vectors[:, :k])
    assert np.array_equal(low.defect_flags, full.defect_flags[:k])
    keep = ~low.defect_flags
    ov = low.left_vectors @ low.right_vectors
    assert np.allclose(ov[np.ix_(keep, keep)], np.eye(int(keep.sum())), rtol=0, atol=1e-12)
