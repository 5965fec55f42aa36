"""Integrator checks against the exponential oracle and conservation laws."""

import dataclasses
import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import biorthonormal_eigensystem, build_ising, build_transverse, dense_spec
from nhaqo.errors import AmbiguousGround, DegenerateTargetWarning, NonFiniteState, StepUnderflow
from nhaqo.evolve import decaying_driver_shift, evolve, initial_ground_state, success_probability
from nhaqo.linalg import lowest_pair_eigensystem
from nhaqo.model import (
    PAULI_X,
    PAULI_Z,
    AnnealSpec,
    Schedule,
    XorTerms,
    ising_anneal_spec,
    linear_schedule,
    make_anneal_spec,
    total_hamiltonian,
    two_level_spec,
)

# the package re-exports the function ``evolve`` under the module's name
evolve_module = importlib.import_module("nhaqo.evolve")

FROZEN = Schedule(f0=lambda s: 1.0, f1=lambda s: 0.0, f2=lambda s: 1.0)


def frozen_spec(m, tau):
    """Spec whose total Hamiltonian equals the fixed complex matrix ``m``."""
    m = np.asarray(m, dtype=complex)
    hermitian_part = 0.5 * (m + m.conj().T)
    decay_part = 0.5j * (m - m.conj().T)
    n = int(np.log2(m.shape[0]))
    return dense_spec(hermitian_part, decay_part, FROZEN, tau, n)


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


def test_accuracy_independent_of_norm_decay():
    # a uniform decay rate c scales the exact state by exp(-c t) and leaves
    # its direction alone; at c = 20 the norm ends at exp(-200) ~ 1e-87, far
    # below tol, and at c = 80 at exp(-800), below the float range, where only
    # the log-norm holds it and the final state and norm read 0.0
    rng = np.random.default_rng(31)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm = 0.5 * (a + a.conj().T)
    v0 = random_unit(rng, 4)
    direction = scipy.linalg.expm(-10.0j * herm) @ v0
    for rate in (20.0, 80.0):
        spec = frozen_spec(herm - rate * 1j * np.eye(4), tau=10.0)
        res = evolve(spec, v0)
        scale = np.exp(-10.0 * rate)
        assert res.log_norm == pytest.approx(-10.0 * rate, rel=1e-10)
        assert res.success_probability == pytest.approx(success_probability(direction, spec.problem), rel=1e-8)
        assert np.max(np.abs(res.final_state - scale * direction)) <= 1e-8 * scale
        assert res.norm_history[-1][1] == pytest.approx(scale, rel=1e-8, abs=0.0)


def test_norm_growth_beyond_float_range_raises():
    # a decayed norm is carried as its logarithm, but a grown one must still
    # fit a float: exp(+800) does not, so the final state cannot be formed
    spec = frozen_spec(80.0j * np.eye(2), tau=10.0)
    with pytest.raises(NonFiniteState, match="float range"):
        evolve(spec, np.array([1.0, 0.0]))


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
    # the decaying driver's shift enters the adjoint generator with the
    # opposite sign; with the forward sign the n=3 pairing fell from 1 to 5.5e-4
    cases = [
        (ising_anneal_spec(2, seed=3, delta0=0.5, tau=5.0), False),
        (ising_anneal_spec(3, seed=2, delta0=0.5, tau=5.0), True),
    ]
    for spec, decaying in cases:
        es = biorthonormal_eigensystem(total_hamiltonian(spec, 0.0))
        psi0 = es.right_vectors[:, 0]
        left_row = es.left_vectors[0]
        chi0 = left_row.conj()
        scale = np.linalg.norm(chi0)
        fwd = evolve(spec, psi0, samples=51, decaying_driver=decaying)
        adj = evolve(spec, chi0 / scale, adjoint=True, samples=51, decaying_driver=decaying)
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


@pytest.mark.parametrize("tau, tol", [(np.inf, 1e-10), (np.nan, 1e-10), (1.0, 0.0), (1.0, -1.0)])
def test_evolve_rejects_a_non_finite_tau_or_a_non_positive_tol(tau, tol):
    spec = dataclasses.replace(two_level_spec(1.0, 0.0, 0.4), tau=tau)
    with pytest.raises(ValueError):
        evolve(spec, initial_ground_state(spec), tol=tol)


def test_step_underflow_on_impossible_tolerance():
    spec = two_level_spec(1.0, 0.0, 0.4, tau=1.0)
    with pytest.raises(StepUnderflow):
        evolve(spec, initial_ground_state(spec), tol=1e-300)


def diagonal_target(values):
    """A diagonal target Hamiltonian: a mask-0 term alone."""
    return XorTerms(np.zeros(1, dtype=int), np.array([values], dtype=complex))


def test_success_probability_perfect_overlap():
    h0 = diagonal_target([-1.0, 0.5, 2.0])
    psi = np.array([1.0, 0.0, 0.0])
    assert success_probability(psi, h0) == pytest.approx(1.0)


def test_success_probability_orthogonal_state():
    h0 = diagonal_target([-1.0, 0.5, 2.0])
    psi = np.array([0.0, 1.0, 0.0])
    assert success_probability(psi, h0) == pytest.approx(0.0, abs=1e-15)


def test_success_probability_scale_invariance():
    h0 = diagonal_target([-1.0, 0.5])
    psi = (0.3 - 0.7j) * np.array([0.6, 0.8])
    assert success_probability(psi, h0) == pytest.approx(0.36)


def test_success_probability_degenerate_target_warns():
    h0 = diagonal_target([1.0, -1.0, -1.0, 1.0])  # twofold ground space
    psi = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.warns(DegenerateTargetWarning):
        p = success_probability(psi, h0)
    assert p == pytest.approx(1.0)


def eigh_success_probability(psi, h0):
    """Reference: overlap with the ground space from a dense eigensolve."""
    vals, vecs = np.linalg.eigh(h0.dense())
    ground = vecs[:, vals - vals[0] <= 1e-10]
    return float(np.sum(np.abs(ground.conj().T @ psi) ** 2) / np.vdot(psi, psi).real)


def test_success_probability_on_diagonal_target_matches_eigensolve():
    rng = np.random.default_rng(5)
    targets = [
        diagonal_target(rng.normal(size=16)),
        diagonal_target([0.3, -1.2, 0.8, -1.2 + 5e-11, 2.0, -1.2, 0.1, 0.0]),
        ising_anneal_spec(5, seed=4).problem,
    ]
    for h0 in targets:
        diag = h0.diagonals[0].real
        psi = 0.3 * random_unit(rng, diag.size)
        degenerate = np.count_nonzero(diag - diag.min() <= 1e-10) > 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            p = success_probability(psi, h0)
        assert any(issubclass(w.category, DegenerateTargetWarning) for w in caught) == degenerate
        assert p == pytest.approx(eigh_success_probability(psi, h0), rel=1e-12, abs=1e-15)


def dense_frozen_spec():
    rng = np.random.default_rng(8)
    return frozen_spec(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)), tau=1.0)


APPLY_CASES = {
    **{f"ising-{n}": (lambda n=n: ising_anneal_spec(n, seed=n, delta0=0.7)) for n in range(1, 7)},
    "two-level": lambda: two_level_spec(1.3, 0.4, 1e-8),
    "frozen-dense": dense_frozen_spec,
}


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(sorted(APPLY_CASES)),
    s=st.floats(0.0, 1.0),
    h=st.floats(1e-3, 2.0),
    shift=st.sampled_from([0.0, 2.5]),
    adjoint=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(case="ising-1", s=0.3, h=0.1, shift=0.0, adjoint=False, seed=1)
@example(case="ising-2", s=0.0, h=0.5, shift=2.5, adjoint=True, seed=2)
@example(case="ising-3", s=0.7, h=1.0, shift=2.5, adjoint=False, seed=3)
@example(case="ising-4", s=1.0, h=0.2, shift=0.0, adjoint=True, seed=4)
@example(case="ising-5", s=0.5, h=0.05, shift=2.5, adjoint=True, seed=5)
@example(case="ising-6", s=0.25, h=1.5, shift=2.5, adjoint=False, seed=6)
@example(case="two-level", s=0.6, h=0.3, shift=2.5, adjoint=True, seed=7)
@example(case="frozen-dense", s=0.4, h=0.7, shift=2.5, adjoint=True, seed=8)
@example(case="frozen-dense", s=0.9, h=0.7, shift=0.0, adjoint=False, seed=9)
def test_xor_terms_apply_the_generator(case, s, h, shift, adjoint, seed):
    # forward: -i h H(s) v minus the decay shift h f2(s) shift v; the adjoint
    # generator takes the conjugate transpose, which flips the shift's sign
    spec = APPLY_CASES[case]()
    v = random_unit(np.random.default_rng(seed), spec.problem.diagonals.shape[1])
    ham = total_hamiltonian(spec, s)
    sign = -1.0
    if adjoint:
        ham, sign = ham.conj().T, 1.0
    sched = spec.schedule
    expect = -1j * h * (ham @ v) + sign * h * sched.f2(s) * shift * v
    idx, terms = evolve_module._xor_terms(spec, adjoint, shift)
    weights = (h * np.array([sched.f0(s), sched.f1(s), sched.f2(s)])) @ terms
    got = np.sum(weights.reshape(idx.shape) * v[idx], axis=0)
    scale = h * (np.abs(ham).sum(axis=1).max() + shift)
    assert np.max(np.abs(got - expect)) <= 1e-13 * scale


def test_xor_terms_keep_only_the_masks_in_use():
    # an Ising problem is mask 0 alone, the transverse driver its n bit flips;
    # both are read from the stored terms, with no dense matrix built
    spec = ising_anneal_spec(4, seed=1)
    idx, terms = evolve_module._xor_terms(spec, False, 0.0)
    assert idx.shape == (5, 16) and terms.shape == (3, 5 * 16)
    assert idx[:, 0].tolist() == [0, 1, 2, 4, 8]
    assert "h0" not in vars(spec) and "h1" not in vars(spec)


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
    h0 = build_ising(2, fields, couplings)
    spec = make_anneal_spec(h0, build_transverse(2), sched, 1.0, 2)
    v = initial_ground_state(spec)
    ref_vals, ref_vecs = np.linalg.eigh(0.05 * spec.h0 + 1.0 * spec.h1)
    assert abs(np.vdot(ref_vecs[:, 0], v)) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4, 8, 16]), delta=st.floats(0.0, 2.0))
@example(seed=1, dim=2, delta=0.0)
@example(seed=2, dim=4, delta=2.0)
@example(seed=3, dim=8, delta=0.5)
@example(seed=4, dim=16, delta=1.3)
def test_driver_ground_state_matches_the_lowest_pair_at_s0(seed, dim, delta):
    # H(0) = (1 - i delta) h1 under the linear ramp: the driver's Hermitian
    # eigensolve gives the lowest pair's right vector
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h1 = (m + m.conj().T) / 2
    h0 = np.diag(rng.normal(size=dim)).astype(complex)
    spec = dense_spec(h0, h1, linear_schedule(delta), 1.0, int(np.log2(dim)))
    vals = np.linalg.eigvalsh(h1)
    if vals[1] - vals[0] <= 1e-10:
        with pytest.raises(AmbiguousGround):
            initial_ground_state(spec)
        return
    v = initial_ground_state(spec)
    ref = lowest_pair_eigensystem(total_hamiltonian(spec, 0.0)).right_vectors[:, 0]
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(ref, v)) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    delta=st.floats(0.0, 2.0),
    zero_bit=st.booleans(),
)
@example(n=1, seed=1, delta=0.0, zero_bit=False)
@example(n=3, seed=2, delta=0.5, zero_bit=False)
@example(n=4, seed=3, delta=1.5, zero_bit=True)
def test_closed_form_driver_matches_eigh(n, seed, delta, zero_bit):
    # a driver -sum_b w_b X_b of single-bit flips with weights of either sign:
    # the closed-form ground state and shift against the dense eigensolvers
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    bits = np.arange(n)
    if zero_bit:
        bits = bits[1:]  # an absent bit: a degenerate ground pair
    driver = XorTerms(1 << bits, np.repeat(-w[bits, None], 2**n, axis=1).astype(complex))
    problem = XorTerms(np.zeros(1, dtype=int), rng.normal(size=(1, 2**n)).astype(complex))
    spec = AnnealSpec(problem, driver, linear_schedule(delta), 1.0, n)
    vals, vecs = np.linalg.eigh(driver.dense())
    assert decaying_driver_shift(driver) == pytest.approx(-vals[0], rel=1e-13)
    if zero_bit:
        with pytest.raises(AmbiguousGround):
            initial_ground_state(spec)
        return
    v = initial_ground_state(spec)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert abs(np.vdot(vecs[:, 0], v)) == pytest.approx(1.0, abs=1e-12)
    assert v[np.argmax(np.abs(v))].real > 0 and v[np.argmax(np.abs(v))].imag == 0.0


def test_initial_ground_state_makes_no_nonhermitian_eigensolve(monkeypatch):
    spec = ising_anneal_spec(8, seed=1, delta0=0.5)
    eig = np.linalg.eig
    calls = []

    def counted(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    v = initial_ground_state(spec)
    assert calls == []
    # the transverse driver's ground state: the uniform superposition
    assert abs(np.sum(v)) / 16.0 == pytest.approx(1.0, abs=1e-10)


def test_decaying_driver_shift():
    # the transverse driver's lowest level is -n; a positive semi-definite driver needs no shift
    assert decaying_driver_shift(XorTerms.from_dense(build_transverse(3))) == pytest.approx(3.0, abs=1e-12)
    assert decaying_driver_shift(ising_anneal_spec(3, seed=1, j_star=0.5).driver) == 1.5
    assert decaying_driver_shift(diagonal_target([0.0, 1.0, 2.0])) == 0.0


def test_initial_ground_state_ambiguous():
    # commuting-free construction with an exactly degenerate bottom pair at s=0
    h0 = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
    h1 = np.diag([0.0, 0.0, -1.0, -1.0]).astype(complex) + 0.0 * build_transverse(2)
    h1[0, 1] = h1[1, 0] = 0.3  # keep [h0, h1] nonzero
    spec = dense_spec(h0, h1, linear_schedule(0.0), 1.0, 2)
    with pytest.raises(AmbiguousGround):
        initial_ground_state(spec)


def test_evolve_matches_scipy_on_time_dependent_generator():
    # independent oracle: scipy's adaptive integrator on the same anneal
    integrate = pytest.importorskip("scipy.integrate")
    cases = [
        # (spec, oracle rtol, oracle atol, max deviation, max accepted steps)
        (ising_anneal_spec(2, seed=6, delta0=0.4, tau=3.0), 1e-11, 1e-12, 1e-7, None),
        # long Hermitian anneal: the step bound keeps the pair high-order
        (ising_anneal_spec(4, seed=11, delta0=0.0, tau=100.0), 1e-12, 1e-14, 1e-8, 1500),
    ]
    for spec, rtol, atol, max_dev, max_steps in cases:
        v0 = initial_ground_state(spec)

        def rhs(t, y):
            return -1j * (total_hamiltonian(spec, t / spec.tau) @ y)

        sol = integrate.solve_ivp(
            rhs, (0.0, spec.tau), v0.astype(complex), method="DOP853", rtol=rtol, atol=atol
        )
        res = evolve(spec, v0)
        assert np.max(np.abs(res.final_state - sol.y[:, -1])) < max_dev
        if max_steps is not None:
            assert res.steps_taken <= max_steps


def test_decaying_n8_anneal_matches_scipy():
    # the benchmark's n=8 decaying-driver path against scipy's DOP853
    integrate = pytest.importorskip("scipy.integrate")
    spec = ising_anneal_spec(8, seed=1, delta0=0.5, tau=10.0)
    v0 = initial_ground_state(spec)
    shift = -float(np.linalg.eigvalsh(spec.h1)[0])
    h0_diag = np.diagonal(spec.h0)
    sched = spec.schedule

    def rhs(t, y):
        s = t / spec.tau
        w1 = sched.f1(s) - 1j * sched.f2(s)
        return -1j * (sched.f0(s) * h0_diag * y + w1 * (spec.h1 @ y)) - sched.f2(s) * shift * y

    sol = integrate.solve_ivp(rhs, (0.0, spec.tau), v0, method="DOP853", rtol=1e-12, atol=1e-14)
    ref = sol.y[:, -1]
    res = evolve(spec, v0, samples=2, decaying_driver=True)
    assert res.success_probability == pytest.approx(success_probability(ref, spec.problem), rel=1e-8)
    assert res.norm_history[-1][1] == pytest.approx(np.linalg.norm(ref), rel=1e-8)


def test_vendored_tableau_matches_scipy():
    coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    stages = len(evolve_module._C)
    assert stages == coeffs.N_STAGES
    assert np.array_equal(evolve_module._C, coeffs.C[:stages])
    for i, row in enumerate(evolve_module._A):
        assert np.array_equal(row, coeffs.A[i, :i])
    assert np.array_equal(evolve_module._B, coeffs.B)
    assert np.array_equal(evolve_module._E3, coeffs.E3[:stages])
    assert np.array_equal(evolve_module._E5, coeffs.E5[:stages])
    # the 13th (first-same-as-last) stage carries no error weight
    assert coeffs.E3[stages] == 0.0 and coeffs.E5[stages] == 0.0


def test_cli_import_loads_no_scipy():
    src = Path(evolve_module.__file__).resolve().parents[1]
    code = (
        "import sys, nhaqo.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_evolve_n10_peak_memory(tmp_path):
    # n = 10 (dim 1024) runs on the stored terms: the dense driver and its
    # eigensolve took peak memory to 141 MB
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status (Linux)")
    src = Path(evolve_module.__file__).resolve().parents[1]
    code = (
        "import sys, nhaqo.cli; rc = nhaqo.cli.main(sys.argv[1:]); "
        "print(rc, *[line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM')])"
    )
    sets = ["model=ising", "n_qubits=10", "seed=1", "delta0=0.5", "decaying_driver=true", "tau_list=10"]
    argv = [arg for item in sets for arg in ("--set", item)] + ["--out", str(tmp_path / "e.csv")]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", code, "evolve", *argv],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    rc, hwm_kb = out.stdout.splitlines()[-1].split()  # after the CLI's output path
    assert rc == "0"
    assert int(hwm_kb) < 80 * 1024


def test_success_probability_monotone_trend_in_tau():
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
