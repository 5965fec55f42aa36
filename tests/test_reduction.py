"""Two-level reduction: projections, gap formulas, crossover closed forms."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from _reference import dense_spec
from nhaqo.errors import DefectiveAtCrossover, DegenerateSchedule, ZeroBlochVector
from nhaqo.model import (
    PAULI_X,
    PAULI_Z,
    ising_anneal_spec,
    linear_schedule,
    make_anneal_spec,
    two_level_spec,
)
from nhaqo.reduction import (
    TwoLevelBasis,
    TwoLevelParams,
    build_crossover_basis,
    decompose_schedule_params,
    gap_two_level,
    hermitian_crossover,
    min_two_level_gap,
    nonhermitian_min_gap,
    project_effective,
    two_level_gap,
)
from nhaqo.spectrum import trace_gap

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

STD_BASIS = TwoLevelBasis(
    v0=np.array([1.0, 0.0], dtype=complex),
    v1=np.array([0.0, 1.0], dtype=complex),
    s_ref=0.0,
)


def assemble(lam, x, y, z):
    return lam * np.eye(2) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z


def test_project_identity():
    lam, x, y, z = project_effective(np.eye(2), STD_BASIS)
    assert (lam, x, y, z) == (1.0, 0.0, 0.0, 0.0)


def test_project_pauli_z():
    lam, x, y, z = project_effective(PAULI_Z, STD_BASIS)
    assert (lam, x, y, z) == (0.0, 0.0, 0.0, 1.0)


def test_project_worked_complex_example():
    h = np.array([[0.5, 0.5 - 0.25j], [0.5 - 0.25j, -0.5]])
    lam, x, y, z = project_effective(h, STD_BASIS)
    assert lam == pytest.approx(0.0, abs=1e-15)
    assert x == pytest.approx(0.5 - 0.25j, abs=1e-15)
    assert y == pytest.approx(0.0, abs=1e-15)
    assert z == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(assemble(lam, x, y, z), h, atol=1e-14)


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=100_000))
def test_pauli_reconstruction_exact(seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    lam, x, y, z = project_effective(h, STD_BASIS)
    assert np.allclose(assemble(lam, x, y, z), h, atol=1e-13)


def test_pauli_reconstruction_in_projected_subspace():
    rng = np.random.default_rng(17)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
    basis = TwoLevelBasis(q[:, 0], q[:, 1], s_ref=0.3)
    lam, x, y, z = project_effective(h, basis)
    compressed = np.array(
        [
            [np.vdot(basis.v0, h @ basis.v0), np.vdot(basis.v0, h @ basis.v1)],
            [np.vdot(basis.v1, h @ basis.v0), np.vdot(basis.v1, h @ basis.v1)],
        ]
    )
    assert np.allclose(assemble(lam, x, y, z), compressed, atol=1e-13)


def test_decompose_orthogonal_axes():
    spec = make_anneal_spec(PAULI_Z, PAULI_X, linear_schedule(0.0), 1.0, 1)
    params = decompose_schedule_params(spec, STD_BASIS)
    assert np.allclose(params.r0, [0, 0, 1])
    assert np.allclose(params.r1, [1, 0, 0])
    assert params.cos_alpha == pytest.approx(0.0, abs=1e-12)
    assert params.alpha == pytest.approx(np.pi / 2)


def test_decompose_antialigned_axes_give_zero_angle():
    # exactly anti-aligned driver comes out at alpha = 0 under the sign
    # convention (raw construction: the pair commutes, so no validation)
    spec = dense_spec(PAULI_Z, -PAULI_Z, linear_schedule(0.0), 1.0, 1)
    params = decompose_schedule_params(spec, STD_BASIS)
    assert params.cos_alpha == pytest.approx(1.0, abs=1e-15)
    assert params.alpha == pytest.approx(0.0, abs=1e-7)


def test_decompose_zero_bloch_vector():
    # scalar driver has no traceless part; the mixing angle is undefined
    spec = dense_spec(PAULI_Z, np.eye(2, dtype=complex), linear_schedule(0.0), 1.0, 1)
    with pytest.raises(ZeroBlochVector):
        decompose_schedule_params(spec, STD_BASIS)


def test_crossover_basis_hermitian_two_level():
    spec = two_level_spec(1.0, 0.0, alpha=0.4)
    basis = build_crossover_basis(spec, 0.5)
    assert abs(np.vdot(basis.v0, basis.v1)) < 1e-10
    assert np.linalg.norm(basis.v0) == pytest.approx(1.0)
    assert np.linalg.norm(basis.v1) == pytest.approx(1.0)
    # for a 2x2 spec the subspace is the whole space: the basis vectors are
    # the eigenvectors themselves, up to phase
    h = 0.5 * spec.h0 + 0.5 * spec.h1
    _, vecs = np.linalg.eigh(h)
    assert abs(np.vdot(vecs[:, 0], basis.v0)) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(vecs[:, 1], basis.v1)) == pytest.approx(1.0, abs=1e-12)


def test_crossover_basis_ising_instance():
    spec = ising_anneal_spec(3, seed=7, delta0=0.0)
    trace = trace_gap(spec, 301)
    basis = build_crossover_basis(spec, trace.s_c)
    assert abs(np.vdot(basis.v0, basis.v1)) < 1e-10
    # both vectors live in the span of the two lowest dense eigenvectors
    h = spec.schedule.f0(trace.s_c) * spec.h0 + spec.schedule.f1(trace.s_c) * spec.h1
    _, vecs = np.linalg.eigh(h)
    proj = vecs[:, :2] @ vecs[:, :2].conj().T
    for v in (basis.v0, basis.v1):
        assert np.linalg.norm(proj @ v - v) < 1e-8


def test_crossover_basis_defective_at_ep():
    alpha = float(np.arccos(0.8))
    spec = two_level_spec(1.0, 0.75, alpha)
    with pytest.raises(DefectiveAtCrossover):
        build_crossover_basis(spec, 5.0 / 9.0)


def test_gap_formula_exact_degeneracy():
    params = TwoLevelParams.from_alpha(0.0)
    assert gap_two_level(params, j=0.7, g=0.7, delta=0.0) == pytest.approx(0.0, abs=1e-12)


def test_gap_formula_aligned_reduces_to_quadrature():
    params = TwoLevelParams.from_alpha(0.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        j, g, d = rng.uniform(0, 2, size=3)
        expect = 2.0 * np.hypot(g - j, d)
        assert gap_two_level(params, j, g, d) == pytest.approx(expect, abs=1e-12)


def test_gap_formula_vanishes_at_ep():
    alpha = 0.6435011087932844  # cos = 0.8, sin = 0.6
    params = TwoLevelParams.from_alpha(alpha)
    j = 1.0
    g = j * np.cos(alpha)
    d = j * np.sin(alpha)
    # the radicand cancels to ~eps, so the root floor sits at sqrt(eps)
    assert gap_two_level(params, j, g, d) == pytest.approx(0.0, abs=1e-7)


@settings(deadline=None, max_examples=100)
@given(
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=np.pi),
)
@example(j=1.0, g=1.0, d=0.0, alpha=1e-9)
def test_gap_formula_matches_eigensolver(j, g, d, alpha):
    params = TwoLevelParams.from_alpha(alpha)
    gt = g - 1j * d
    m = (j - gt * np.cos(alpha)) * PAULI_Z + gt * np.sin(alpha) * PAULI_X
    vals = np.linalg.eigvals(m)
    assert gap_two_level(params, j, g, d) == pytest.approx(abs(vals[1] - vals[0]), abs=1e-10)


def test_gap_formula_relative_accuracy_at_small_angle():
    # at j = g the gap is 4*g*sin(alpha/2); sin(alpha) = 2^(-n/2) puts large n here
    for g in (0.5, 1.0, 3.0):
        for alpha in np.logspace(-12, 0, 49):
            gap = gap_two_level(TwoLevelParams.from_alpha(alpha), g, g, 0.0)
            assert gap == pytest.approx(4.0 * g * np.sin(alpha / 2.0), rel=1e-12)


def test_hermitian_consistency_gap_equals_two_r():
    rng = np.random.default_rng(4)
    for _ in range(50):
        j, g = rng.uniform(0, 2, size=2)
        alpha = rng.uniform(0, np.pi)
        params = TwoLevelParams.from_alpha(alpha)
        r = np.sqrt(g * g - 2 * g * j * np.cos(alpha) + j * j)
        assert gap_two_level(params, j, g, 0.0) == pytest.approx(2 * r, abs=1e-12)


def test_hermitian_crossover_symmetric_ramp():
    params = TwoLevelParams.from_alpha(0.3)
    g_c, gap_min = hermitian_crossover(params, gdot=-1.0, jdot=1.0, j_c=0.5)
    assert g_c == pytest.approx(0.5)
    expect = 2 * 0.5 * np.sin(0.3) * np.sqrt(2.0 / (1.0 + np.cos(0.3)))
    assert gap_min == pytest.approx(expect, rel=1e-12)


def test_hermitian_crossover_worked_numbers():
    params = TwoLevelParams.from_alpha(float(np.arccos(0.5)))
    g_c, gap_min = hermitian_crossover(params, gdot=-1.0, jdot=1.0, j_c=0.5)
    assert gap_min == pytest.approx(1.0, rel=1e-12)


def test_hermitian_crossover_degenerate_schedule():
    params = TwoLevelParams.from_alpha(0.0)  # cos = 1
    with pytest.raises(DegenerateSchedule):
        hermitian_crossover(params, gdot=1.0, jdot=1.0, j_c=0.5)


def test_hermitian_crossover_vanishing_angle():
    params = TwoLevelParams.from_alpha(1e-9)
    _, gap_min = hermitian_crossover(params, gdot=-1.0, jdot=1.0, j_c=0.5)
    assert gap_min == pytest.approx(0.0, abs=1e-8)


def test_crossover_consistency_against_minimizer():
    # numerical minimization of the decay-free gap reproduces g_c to 1e-8
    rng = np.random.default_rng(11)
    for _ in range(25):
        alpha = rng.uniform(0.2, np.pi - 0.2)
        params = TwoLevelParams.from_alpha(alpha)
        gdot = rng.uniform(-2.0, -0.3)
        jdot = rng.uniform(0.3, 2.0)
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)

        def gap_of(sigma):
            return gap_two_level(params, b + jdot * sigma, a + gdot * sigma, 0.0)

        sig = minimize_scalar(gap_of, bounds=(-4.0, 4.0), method="bounded", options={"xatol": 1e-13}).x
        j_c = b + jdot * sig
        g_c, gap_min = hermitian_crossover(params, gdot, jdot, j_c)
        assert g_c == pytest.approx(a + gdot * sig, rel=1e-6, abs=1e-8)
        assert gap_min == pytest.approx(gap_of(sig), rel=1e-6)


def test_nonhermitian_min_gap_values():
    assert nonhermitian_min_gap(1.0, 0.0) == 0.0
    assert nonhermitian_min_gap(1.0, 1.0) == pytest.approx(2.0 / np.sqrt(5.0), rel=1e-15)
    assert nonhermitian_min_gap(1.0, 0.5) == pytest.approx(1.0 / np.sqrt(4.25), rel=1e-15)


def test_nonhermitian_min_gap_matches_numeric_minimization():
    for d0 in (0.25, 0.5, 1.0, 2.0):

        def lower_envelope(s):
            return 2.0 * np.hypot((1.0 - s) - s, d0 * (1.0 - s))

        val = minimize_scalar(lower_envelope, bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-13}).fun
        assert nonhermitian_min_gap(1.0, d0) == pytest.approx(val, rel=1e-10)


def test_lower_bound_property_small_angle():
    # with a tiny mixing angle the full gap never dips below 99.9% of the bound
    params = TwoLevelParams.from_alpha(float(np.arcsin(1e-3)))
    for d0 in (0.25, 0.5, 1.0):
        sched = linear_schedule(d0)
        _, gap_min = min_two_level_gap(params, sched, 1001)
        assert gap_min >= 0.999 * nonhermitian_min_gap(1.0, d0)


def test_two_level_gap_along_schedule():
    params = TwoLevelParams.from_alpha(0.2, r0_mag=1.5, r1_mag=0.5)
    sched = linear_schedule(0.8)
    s = 0.37
    j = 1.5 * s
    g = 0.5 * (1 - s)
    d = 0.5 * 0.8 * (1 - s)
    assert two_level_gap(params, sched, s) == pytest.approx(gap_two_level(params, j, g, d), abs=1e-14)


def test_sin_alpha_relation_on_ising_instance():
    # measured angle against the crossover estimate g_m / (2 J_c)
    spec = ising_anneal_spec(3, seed=7, delta0=0.0)
    trace = trace_gap(spec, 1001)
    basis = build_crossover_basis(spec, trace.s_c)
    params = decompose_schedule_params(spec, basis)
    j_c = params.coupling(spec.schedule, trace.s_c)
    estimate = trace.g_m / (2.0 * abs(j_c))
    assert params.sin_alpha == pytest.approx(estimate, rel=0.2)


@pytest.mark.parametrize("alpha", [1e-3, 1e-6, 1e-8])
def test_decompose_small_angle_relative_accuracy(alpha):
    # arccos of the cosine loses half the digits near 0 (at 1e-8 the cosine
    # rounds to 1 and the angle to 0); the reduced model needs alpha itself
    params = decompose_schedule_params(two_level_spec(1.0, 0.5, alpha), STD_BASIS)
    assert params.alpha == pytest.approx(alpha, rel=1e-9)
