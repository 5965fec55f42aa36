"""Integrator checks against the exponential oracle and conservation laws."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from nhaqo.errors import AmbiguousGround, DegenerateTargetWarning, StepUnderflow
from nhaqo.evolve import evolve, initial_ground_state, success_probability
from nhaqo.linalg import biorthonormal_eigensystem
from nhaqo.model import (
    AnnealSpec,
    PAULI_X,
    PAULI_Z,
    Schedule,
    build_transverse,
    ising_anneal_spec,
    linear_schedule,
    make_anneal_spec,
    total_hamiltonian,
    two_level_spec,
)

FROZEN = Schedule(f0=lambda s: 1.0, f1=lambda s: 0.0, f2=lambda s: 1.0)


def frozen_spec(m, tau):
    """Spec whose total Hamiltonian equals the fixed complex matrix ``m``."""
    m = np.asarray(m, dtype=complex)
    hermitian_part = 0.5 * (m + m.conj().T)
    decay_part = 0.5j * (m - m.conj().T)
    n = int(np.log2(m.shape[0]))
    return AnnealSpec(hermitian_part, decay_part, FROZEN, float(tau), n)


def rk4_fixed(spec, psi0, steps, adjoint=False):
    """Fixed-step classical Runge-Kutta oracle."""
    psi = np.asarray(psi0, dtype=complex).copy()
    h = spec.tau / steps

    def f(t, y):
        ham = total_hamiltonian(spec, t / spec.tau)
        if adjoint:
            ham = ham.conj().T
        return -1j * (ham @ y)

    t = 0.0
    for _ in range(steps):
        k1 = f(t, psi)
        k2 = f(t + h / 2, psi + h / 2 * k1)
        k3 = f(t + h / 2, psi + h / 2 * k2)
        k4 = f(t + h, psi + h * k3)
        psi = psi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return psi


def random_unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def test_frozen_spec_reproduces_matrix():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    spec = frozen_spec(m, tau=1.0)
    assert np.allclose(total_hamiltonian(spec, 0.37), m, atol=1e-14)


def test_frozen_evolution_matches_expm_oracle():
    rng = np.random.default_rng(21)
    for dim in (2, 4, 8, 16):
        m = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(dim)
        spec = frozen_spec(m, tau=3.0)
        v0 = random_unit(rng, dim)
        res = evolve(spec, v0)
        ref = scipy.linalg.expm(-3.0j * m) @ v0
        assert np.max(np.abs(res.final_state - ref)) < 1e-8


@pytest.mark.filterwarnings("ignore::nhaqo.errors.DegenerateTargetWarning")
def test_analytic_decay_of_diagonal_generator():
    # generator diag(0, -0.5i): second amplitude decays as exp(-t/2)
    spec = frozen_spec(np.diag([0.0, -0.5j]), tau=2.0)
    v0 = np.array([1.0, 1.0]) / np.sqrt(2)
    res = evolve(spec, v0)
    expect = np.array([1.0, np.exp(-1.0)]) / np.sqrt(2)
    assert np.allclose(res.final_state, expect, atol=1e-10)
    assert res.norm_history[-1][1] ** 2 == pytest.approx((1 + np.exp(-2.0)) / 2, abs=1e-10)


def test_adiabatic_limit_reaches_target_ground():
    # slow sweep against a large gap; cross-checked with a fixed-step oracle
    spec = make_anneal_spec(PAULI_Z, -PAULI_X, linear_schedule(0.0), 100.0, 1)
    ground = np.array([1.0, 1.0]) / np.sqrt(2)  # ground of -X
    res = evolve(spec, ground)
    assert res.success_probability > 0.999
    oracle = rk4_fixed(spec, ground, steps=40_000)
    assert np.max(np.abs(res.final_state - oracle)) < 1e-6


def test_hermitian_norm_conservation():
    spec = ising_anneal_spec(3, seed=7, delta0=0.0, tau=50.0)
    res = evolve(spec, initial_ground_state(spec))
    assert max(abs(nrm - 1.0) for _, nrm in res.norm_history) <= 1e-8


def test_norm_monotone_with_decaying_driver():
    spec = ising_anneal_spec(2, seed=3, delta0=0.8, tau=4.0)
    res = evolve(spec, initial_ground_state(spec), decaying_driver=True)
    norms = [nrm for _, nrm in res.norm_history]
    for a, b in zip(norms[:-1], norms[1:]):
        assert b <= a + 1e-10


def test_adjoint_pairing_is_conserved():
    spec = ising_anneal_spec(2, seed=3, delta0=0.5, tau=5.0)
    es = biorthonormal_eigensystem(total_hamiltonian(spec, 0.0))
    psi0 = es.right_vectors[:, 0]
    left_row = es.left_vectors[0]
    chi0 = left_row.conj()
    scale = np.linalg.norm(chi0)
    fwd = evolve(spec, psi0, samples=51)
    adj = evolve(spec, chi0 / scale, adjoint=True, samples=51)
    start = left_row @ psi0
    end = np.vdot(adj.final_state * scale, fwd.final_state)
    assert abs(end - start) < 1e-7


def test_step_halving_convergence():
    spec = ising_anneal_spec(2, seed=5, delta0=0.3, tau=3.0)
    v0 = initial_ground_state(spec)
    coarse = evolve(spec, v0, tol=1e-8)
    fine = evolve(spec, v0, tol=5e-9)
    assert np.max(np.abs(coarse.final_state - fine.final_state)) < 10 * 1e-8


def test_evolve_records_steps_and_error():
    spec = two_level_spec(1.0, 0.2, 0.4, tau=2.0)
    res = evolve(spec, initial_ground_state(spec))
    assert res.steps_taken > 0
    assert 0.0 <= res.max_local_error <= 1e-10
    assert len(res.norm_history) >= 201


def test_evolve_rejects_unnormalized_initial():
    spec = two_level_spec(1.0, 0.0, 0.4, tau=1.0)
    with pytest.raises(ValueError):
        evolve(spec, np.array([1.0, 1.0]))


def test_step_underflow_on_impossible_tolerance():
    spec = two_level_spec(1.0, 0.0, 0.4, tau=1.0)
    with pytest.raises(StepUnderflow):
        evolve(spec, initial_ground_state(spec), tol=1e-300)


def test_success_probability_perfect_overlap():
    h0 = np.diag([-1.0, 0.5, 2.0]).astype(complex)
    psi = np.array([1.0, 0.0, 0.0])
    assert success_probability(psi, h0) == pytest.approx(1.0)


def test_success_probability_orthogonal_state():
    h0 = np.diag([-1.0, 0.5, 2.0]).astype(complex)
    psi = np.array([0.0, 1.0, 0.0])
    assert success_probability(psi, h0) == pytest.approx(0.0, abs=1e-15)


def test_success_probability_scale_invariance():
    h0 = np.diag([-1.0, 0.5]).astype(complex)
    psi = (0.3 - 0.7j) * np.array([0.6, 0.8])
    assert success_probability(psi, h0) == pytest.approx(0.36)


def test_success_probability_degenerate_target_warns():
    h0 = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)  # twofold ground space
    psi = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.warns(DegenerateTargetWarning):
        p = success_probability(psi, h0)
    assert p == pytest.approx(1.0)


def test_initial_ground_state_transverse_driver():
    spec = ising_anneal_spec(3, seed=1, delta0=0.0)
    v = initial_ground_state(spec)
    uniform = np.ones(8) / np.sqrt(8)
    assert abs(np.vdot(uniform, v)) == pytest.approx(1.0, abs=1e-10)


def test_initial_ground_state_invariant_under_decay_weight():
    # the weighted driver shares the driver's eigenvectors
    spec_a = ising_anneal_spec(3, seed=1, delta0=0.0)
    spec_b = ising_anneal_spec(3, seed=1, delta0=0.9)
    va = initial_ground_state(spec_a)
    vb = initial_ground_state(spec_b)
    assert abs(np.vdot(va, vb)) == pytest.approx(1.0, abs=1e-10)


def test_initial_ground_state_with_problem_admixture():
    # schedule with f0(0) = 0.05: compare against dense diagonalization
    sched = Schedule(
        f0=lambda s: 0.05 + 0.95 * s,
        f1=lambda s: 1.0 - s,
        f2=lambda s: 0.0,
    )
    fields, couplings = [0.3, -0.6], [(0, 1, 0.8)]
    from nhaqo.model import build_ising

    h0 = build_ising(2, fields, couplings)
    spec = make_anneal_spec(h0, build_transverse(2), sched, 1.0, 2)
    v = initial_ground_state(spec)
    ref_vals, ref_vecs = np.linalg.eigh(0.05 * spec.h0 + 1.0 * spec.h1)
    assert abs(np.vdot(ref_vecs[:, 0], v)) == pytest.approx(1.0, abs=1e-9)


def test_initial_ground_state_ambiguous():
    # commuting-free construction with an exactly degenerate bottom pair at s=0
    h0 = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
    h1 = np.diag([0.0, 0.0, -1.0, -1.0]).astype(complex) + 0.0 * build_transverse(2)
    h1[0, 1] = h1[1, 0] = 0.3  # keep [h0, h1] nonzero
    spec = AnnealSpec(h0, h1, linear_schedule(0.0), 1.0, 2)
    with pytest.raises(AmbiguousGround):
        initial_ground_state(spec)


def test_evolve_matches_scipy_on_time_dependent_generator():
    # independent oracle: scipy's adaptive integrator on the same anneal
    integrate = pytest.importorskip("scipy.integrate")
    spec = ising_anneal_spec(2, seed=6, delta0=0.4, tau=3.0)
    v0 = initial_ground_state(spec)

    def rhs(t, y):
        return -1j * (total_hamiltonian(spec, t / spec.tau) @ y)

    sol = integrate.solve_ivp(
        rhs, (0.0, spec.tau), v0.astype(complex), method="DOP853", rtol=1e-11, atol=1e-12
    )
    res = evolve(spec, v0)
    assert np.max(np.abs(res.final_state - sol.y[:, -1])) < 1e-7


def test_success_probability_monotone_trend_in_tau():
    import warnings

    spec0 = ising_anneal_spec(3, seed=7, delta0=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        from nhaqo.spectrum import trace_gap

        g_m = trace_gap(spec0, 301).g_m
    base = 1.0 / g_m**2
    probs = []
    for factor in (1.0, 4.0, 16.0):
        spec = dataclasses.replace(spec0, tau=factor * base)
        probs.append(evolve(spec, initial_ground_state(spec), tol=1e-8).success_probability)
    assert probs[0] <= probs[-1]
    assert probs[1] <= probs[2] + 0.05  # coarse monotone trend, not strict
