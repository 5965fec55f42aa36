"""Hamiltonian builders, schedules, total-Hamiltonian assembly and spec validation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import build_ising, build_transverse, hermitian_defect, is_hermitian
from nhaqo.errors import DuplicateCoupling
from nhaqo.linalg import maxnorm
from nhaqo.model import (
    PAULI_X,
    PAULI_Z,
    XorTerms,
    commutator_maxnorm,
    ising_anneal_spec,
    linear_schedule,
    make_anneal_spec,
    random_ising,
    total_hamiltonian,
    two_level_spec,
)


def test_linear_schedule_hermitian_limit():
    sch = linear_schedule(0.0)
    ss = np.linspace(0, 1, 13)
    assert all(sch.f2(s) == 0.0 for s in ss)
    assert sch.f0(0.25) == 0.25
    assert sch.f1(0.25) == 0.75


def test_linear_schedule_unit_decay():
    sch = linear_schedule(1.0)
    assert sch.f2(0.0) == 1.0
    assert sch.f2(1.0) == 0.0
    mid = np.array([sch.f0(0.5), sch.f1(0.5), sch.f2(0.5)])
    assert np.allclose(mid, [0.5, 0.5, 0.5])


def test_linear_schedule_midpoint_scales_with_delta0():
    for d0 in (0.1, 0.7, 2.0):
        sch = linear_schedule(d0)
        assert sch.f2(0.5) == pytest.approx(0.5 * d0)


def test_total_hamiltonian_endpoint_is_problem_term():
    spec = ising_anneal_spec(2, seed=1, delta0=0.7)
    assert np.allclose(total_hamiltonian(spec, 1.0), spec.h0, atol=1e-14)


def test_total_hamiltonian_direct_substitution():
    spec = make_anneal_spec(PAULI_Z, PAULI_X, linear_schedule(0.5), tau=1.0, n_qubits=1)
    h = total_hamiltonian(spec, 0.5)
    expect = np.array([[0.5, 0.5 - 0.25j], [0.5 - 0.25j, -0.5]])
    assert np.allclose(h, expect, atol=1e-14)


def test_total_hamiltonian_hermitian_iff_no_decay():
    spec_h = ising_anneal_spec(2, seed=4, delta0=0.0)
    spec_nh = ising_anneal_spec(2, seed=4, delta0=0.4)
    for s in np.linspace(0, 1, 11):
        assert is_hermitian(total_hamiltonian(spec_h, float(s)))
    assert not is_hermitian(total_hamiltonian(spec_nh, 0.3))
    # at s=1 the decay weight vanishes again
    assert is_hermitian(total_hamiltonian(spec_nh, 1.0))


def test_total_hamiltonian_linearity_in_weights():
    spec = ising_anneal_spec(2, seed=2, delta0=0.3)
    for s in (0.0, 0.21, 0.77, 1.0):
        f0 = spec.schedule.f0(s)
        f1 = spec.schedule.f1(s)
        f2 = spec.schedule.f2(s)
        rebuilt = f0 * spec.h0 + (f1 - 1j * f2) * spec.h1
        assert np.array_equal(rebuilt, total_hamiltonian(spec, s))


def test_total_hamiltonian_rejects_s_outside_unit_interval():
    spec = ising_anneal_spec(2, seed=2)
    with pytest.raises(ValueError):
        total_hamiltonian(spec, 1.2)


def test_build_ising_single_field():
    assert np.allclose(build_ising(1, [1.0]), np.diag([1.0, -1.0]))


def test_build_ising_zz_spectrum():
    m = build_ising(2, [0.0, 0.0], [(0, 1, 1.0)])
    assert np.allclose(m, np.diag([1.0, -1.0, -1.0, 1.0]))


def test_build_ising_ground_state_matches_bruteforce():
    fields, couplings = random_ising(3, seed=7)
    m = build_ising(3, fields, couplings)
    diag = np.diag(m).real
    # brute-force scan of all 8 spin configurations
    best_energy = np.inf
    for b in range(8):
        z = [1 - 2 * ((b >> (2 - i)) & 1) for i in range(3)]
        e = sum(h * z[i] for i, h in enumerate(fields))
        e += sum(j * z[i] * z[k] for i, k, j in couplings)
        best_energy = min(best_energy, e)
    assert int(np.argmin(diag)) == int(np.argmin(diag))
    assert diag.min() == pytest.approx(best_energy)


def test_build_ising_duplicate_coupling():
    with pytest.raises(DuplicateCoupling):
        build_ising(3, [0.0] * 3, [(0, 1, 0.5), (0, 1, -0.5)])
    with pytest.raises(DuplicateCoupling):
        ising_anneal_spec(3, fields=[0.0] * 3, couplings=[(0, 1, 0.5), (0, 1, -0.5)])


def test_build_ising_is_real_diagonal():
    fields, couplings = random_ising(4, seed=3)
    m = build_ising(4, fields, couplings)
    assert np.allclose(m, np.diag(np.diag(m)))
    assert np.allclose(np.diag(m).imag, 0.0)


def test_build_transverse_single_qubit():
    m = build_transverse(1)
    assert np.allclose(m, -PAULI_X)
    vals, vecs = np.linalg.eigh(m)
    assert vals[0] == pytest.approx(-1.0)
    ground = vecs[:, 0] * np.sign(vecs[0, 0].real)
    assert np.allclose(ground, np.array([1.0, 1.0]) / np.sqrt(2))


def test_build_transverse_ground_energy():
    for n in (2, 4):
        vals = np.linalg.eigvalsh(build_transverse(n))
        assert vals[0] == pytest.approx(-n)
        dim = 2**n
        uniform = np.ones(dim) / np.sqrt(dim)
        assert np.allclose(build_transverse(n) @ uniform, -n * uniform)


def test_build_transverse_lowest_eigenvalue_via_eigensolver():
    from nhaqo.linalg import eig_nonhermitian

    es = eig_nonhermitian(build_transverse(4))
    assert es.eigenvalues[0].real == pytest.approx(-4.0, abs=1e-10)
    assert abs(es.eigenvalues[0].imag) < 1e-12


def test_build_transverse_structure():
    m = build_transverse(3)
    assert np.allclose(np.diag(m), 0.0)
    assert np.allclose(m, m.T)
    assert np.allclose(m.imag, 0.0)


def test_make_anneal_spec_rejects_commuting_pair():
    with pytest.raises(ValueError):
        make_anneal_spec(PAULI_Z, 2.0 * PAULI_Z, linear_schedule(0.0), 1.0, 1)


def test_make_anneal_spec_rejects_dense_complex_commuting_pair():
    # a polynomial in a dense complex Hermitian h0 commutes with it; a random h1 does not
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h0 = (m + m.conj().T) / 2
    with pytest.raises(ValueError, match="commute"):
        make_anneal_spec(h0, h0 @ h0 - 0.5 * h0, linear_schedule(0.0), 1.0, 2)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    make_anneal_spec(h0, (m + m.conj().T) / 2, linear_schedule(0.0), 1.0, 2)


def test_make_anneal_spec_rejects_nonhermitian():
    with pytest.raises(ValueError):
        make_anneal_spec([[0, 1], [0, 0]], PAULI_X, linear_schedule(0.0), 1.0, 1)


def test_make_anneal_spec_rejects_bad_dimension():
    with pytest.raises(ValueError):
        make_anneal_spec(PAULI_Z, PAULI_X, linear_schedule(0.0), 1.0, 2)


def test_random_ising_is_deterministic():
    assert random_ising(4, seed=13) == random_ising(4, seed=13)
    assert random_ising(4, seed=13) != random_ising(4, seed=14)


def test_two_level_spec_energy_scales():
    spec = two_level_spec(2.0, 0.5, alpha=0.3)
    # problem term carries magnitude J*, driver too
    assert np.linalg.norm(spec.h0, 2) == pytest.approx(2.0)
    assert np.linalg.norm(spec.h1, 2) == pytest.approx(2.0)


def random_dense_pair(kind, n, rng):
    """A dense (h0, h1) pair of dimension 2^n: Hermitian, with a non-Hermitian h0, or commuting."""
    dim = 2**n

    def hermitian():
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = (m + m.conj().T) / 2
        rows = np.arange(dim)
        for k in np.flatnonzero(rng.random(dim) < 0.4):  # empty XOR-diagonals drop out of the terms
            m[rows, rows ^ k] = 0.0
        return m

    if kind == "pauli-z":
        return PAULI_Z, 2.0 * PAULI_Z
    a = hermitian()
    if kind == "nonhermitian":
        return a + 0.5j * np.triu(np.ones((dim, dim)), 1), hermitian()
    if kind == "commuting":
        return a, a @ a - 0.5 * a
    return a, hermitian()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["hermitian", "nonhermitian", "commuting", "pauli-z"]),
    j_star=st.floats(0.125, 4.0),
)
@example(n=1, seed=0, kind="pauli-z", j_star=1.0)
@example(n=2, seed=3, kind="nonhermitian", j_star=1.0)
@example(n=3, seed=5, kind="commuting", j_star=0.5)
@example(n=3, seed=7, kind="hermitian", j_star=2.0)
def test_term_checks_and_dense_views_match_dense_algebra(n, seed, kind, j_star):
    rng = np.random.default_rng(seed)
    # the Ising builder's views are the dense builders' matrices, bit for bit
    fields = rng.uniform(-1.0, 1.0, size=n).tolist()
    couplings = [(i, j, float(rng.uniform(-1.0, 1.0))) for i in range(n) for j in range(i + 1, n)]
    spec = ising_anneal_spec(n, fields=fields, couplings=couplings, j_star=j_star)
    assert spec.h0.tobytes() == build_ising(n, fields, couplings).tobytes()
    assert spec.h1.tobytes() == (j_star * build_transverse(n)).tobytes()
    # term-level maxnorm, Hermiticity and commutator against the dense computations
    a, b = (np.asarray(m, dtype=complex) for m in random_dense_pair(kind, n, rng))
    ta, tb = XorTerms.from_dense(a), XorTerms.from_dense(b)
    for m, t in ((a, ta), (b, tb)):
        assert np.array_equal(t.dense(), m)
        assert t.masks.tolist() == sorted({r ^ c for r, c in zip(*np.nonzero(m))})
        assert t.maxnorm() == maxnorm(m)
        assert maxnorm(t.diagonals - t.adjoint()) == hermitian_defect(m)
        assert t.is_hermitian() == is_hermitian(m)
    comm = commutator_maxnorm(ta, tb)
    assert comm == pytest.approx(maxnorm(a @ b - b @ a), abs=1e-13 * a.shape[0] * maxnorm(a) * maxnorm(b))
    if kind in ("commuting", "pauli-z"):
        assert comm <= 1e-12 * maxnorm(a) * maxnorm(b)
    if kind == "pauli-z":
        assert comm == 0.0
    # make_anneal_spec's verdict is the dense checks' verdict
    n_spec = int(np.log2(a.shape[0]))
    if not (is_hermitian(a) and is_hermitian(b)):
        with pytest.raises(ValueError, match="Hermitian"):
            make_anneal_spec(a, b, linear_schedule(0.0), 1.0, n_spec)
    elif maxnorm(a @ b - b @ a) <= 1e-9 * maxnorm(a) * maxnorm(b):
        with pytest.raises(ValueError, match="commute"):
            make_anneal_spec(a, b, linear_schedule(0.0), 1.0, n_spec)
    else:
        made = make_anneal_spec(a, b, linear_schedule(0.0), 1.0, n_spec)
        assert np.array_equal(made.h0, a) and np.array_equal(made.h1, b)


def test_dense_views_are_cached_per_instance():
    spec = ising_anneal_spec(3, seed=1)
    assert "h0" not in vars(spec) and "h1" not in vars(spec)
    assert spec.h0 is spec.h0 and spec.h1 is spec.h1
    # replace() makes a new instance from the fields alone: no cached view
    assert "h0" not in vars(dataclasses.replace(spec, tau=2.0))
