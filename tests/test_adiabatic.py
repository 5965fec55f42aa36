"""Matrix-element estimates, runtime thresholds and the qubit-lifetime window."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from _reference import biorthonormal_eigensystem
from nhaqo._minimize import uniform_grid
from nhaqo.adiabatic import (
    _max_drive_flux,
    measured_matrix_element,
    min_time_linear_ramp,
    schedule_rates,
    tau_window,
)
from nhaqo.errors import DefectiveSystem
from nhaqo.model import ising_anneal_spec, linear_schedule, total_hamiltonian, two_level_spec
from nhaqo.reduction import (
    build_crossover_basis,
    decompose_schedule_params,
    min_two_level_gap,
    nonhermitian_min_gap,
)

SMALL_ALPHA = float(np.arcsin(1e-3))


def estimated_matrix_element(params, schedule, grid_points=1001):
    """Reduced-model estimate max|J dg~/ds - g~ dJ/ds| * sin(alpha) / gap_min."""
    flux, _ = _max_drive_flux(params, schedule, uniform_grid(grid_points))
    _, gap_min = min_two_level_gap(params, schedule, grid_points)
    assert gap_min > 0.0
    return float(flux * params.sin_alpha / gap_min)


def full_eigensystem_element(spec, s):
    """Reference: the element read off the full bi-orthonormal eigensystem at s, 0 where pair 0 or 1 is defective."""
    try:
        es = biorthonormal_eigensystem(total_hamiltonian(spec, s))
    except DefectiveSystem:
        return 0.0
    if es.defect_flags[0] or es.defect_flags[1]:
        return 0.0
    df0, df1, df2 = schedule_rates(spec.schedule, s)
    dh = df0 * spec.h0 + (df1 - 1j * df2) * spec.h1
    return float(abs(es.left_vectors[1] @ (dh @ es.right_vectors[:, 0])))


def full_eigensystem_maximum(spec):
    """Reference: (the 1001-grid maximum of the full-eigensystem element, its scipy bounded maximization).

    The bounded search runs between the grid neighbours of the grid argmax.
    """
    grid = uniform_grid(1001)
    values = [full_eigensystem_element(spec, float(s)) for s in grid]
    i = int(np.argmax(values))
    res = minimize_scalar(
        lambda s: -full_eigensystem_element(spec, s),
        bounds=(float(grid[max(i - 1, 0)]), float(grid[min(i + 1, 1000)])),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return values[i], -float(res.fun)


def benchmark_pipeline_spec(seed):
    """The n=5 pipeline instance of the benchmark: fields and all-pair couplings on [-1, 1]."""
    rng = np.random.default_rng([seed, 0])
    fields = [float(x) for x in rng.uniform(-1.0, 1.0, size=5)]
    couplings = [(i, j, float(rng.uniform(-1.0, 1.0))) for i in range(5) for j in range(i + 1, 5)]
    return ising_anneal_spec(5, fields=fields, couplings=couplings, delta0=0.5)


def assert_matches_bounded_maximization(spec, reference):
    grid_max, bounded_max = full_eigensystem_maximum(spec)
    assert bounded_max == pytest.approx(reference, rel=1e-10)
    measured = measured_matrix_element(spec)
    assert measured == pytest.approx(bounded_max, rel=1e-10)
    assert measured >= grid_max


@pytest.mark.parametrize("seed, reference", [(1, 1.951413002366), (9973, 2.599962342781)])
def test_measured_matrix_element_matches_full_eigensystems_on_benchmark_instances(seed, reference):
    assert_matches_bounded_maximization(benchmark_pipeline_spec(seed), reference)


def test_measured_matrix_element_matches_full_eigensystems_on_small_gap_instance():
    # the smallest-gap n=4 instance at delta0 = 0 among seeds 1-119: g_m 0.0077, so a narrow peak
    assert_matches_bounded_maximization(ising_anneal_spec(4, seed=96, delta0=0.0), 0.48031585715)


def test_measured_matrix_element_matches_full_eigensystems_on_two_level_model():
    spec = two_level_spec(1.0, 0.5, float(np.arcsin(0.1)))
    assert_matches_bounded_maximization(spec, 0.47232097847)


@pytest.mark.parametrize("seed", [1, 9973])
def test_measured_matrix_element_does_not_depend_on_the_scan_size(seed):
    spec = benchmark_pipeline_spec(seed)
    reference = measured_matrix_element(spec, 101)
    for k in (51, 201):
        assert measured_matrix_element(spec, k) == pytest.approx(reference, rel=1e-12)


def test_schedule_rates_linear():
    sched = linear_schedule(0.7)
    df0, df1, df2 = schedule_rates(sched, 0.5)
    assert df0 == pytest.approx(1.0, abs=1e-9)
    assert df1 == pytest.approx(-1.0, abs=1e-9)
    assert df2 == pytest.approx(-0.7, abs=1e-9)
    # one-sided at the boundary
    assert schedule_rates(sched, 0.0)[0] == pytest.approx(1.0, abs=1e-9)
    assert schedule_rates(sched, 1.0)[1] == pytest.approx(-1.0, abs=1e-9)


def test_min_time_nonhermitian_two_level():
    # drive flux |J dg~ - g~ dJ| is J*^2 sqrt(1 + d0^2) for the linear ramp
    alpha = SMALL_ALPHA
    spec = two_level_spec(1.0, 1.0, alpha)
    basis = build_crossover_basis(spec, 0.5)
    params = decompose_schedule_params(spec, basis)
    budget = tau_window(spec, params, delta_qubit=1e-12, grid_points=501)
    gap = nonhermitian_min_gap(1.0, 1.0)
    expect = np.sin(alpha) * np.sqrt(2.0) / gap**3
    assert budget.tau_min == pytest.approx(expect, rel=1e-3)
    assert budget.feasible
    assert budget.measured_matrix_element is not None


def test_min_time_linear_ramp_worked_value():
    # n=10, J*=1, d0=1: 2^-5 * sqrt(2) / (2/sqrt(5))^3
    expect = 2.0**-5 * np.sqrt(2.0) / (2.0 / np.sqrt(5.0)) ** 3
    assert expect == pytest.approx(0.0618, abs=1e-3)
    assert min_time_linear_ramp(10, 1.0, 1.0) == pytest.approx(expect, rel=1e-12)


def test_min_time_linear_ramp_small_decay_limit():
    n = 8
    d0 = 0.01
    limit_form = 2.0 ** (-n / 2) * 1.0 / d0**3
    assert min_time_linear_ramp(n, 1.0, d0) == pytest.approx(limit_form, rel=0.05)


def test_min_time_linear_ramp_inverse_cube_scaling():
    a = min_time_linear_ramp(6, 1.0, 0.01)
    b = min_time_linear_ramp(6, 1.0, 0.02)
    assert a / b == pytest.approx(8.0, rel=0.01)


def test_min_time_linear_ramp_qubit_count_halving():
    a = min_time_linear_ramp(8, 1.0, 0.3)
    b = min_time_linear_ramp(10, 1.0, 0.3)
    assert a / b == pytest.approx(2.0, rel=1e-12)


def test_tau_floor_slope_in_decay_strength():
    ds = np.logspace(-3, -1, 9)
    taus = [min_time_linear_ramp(6, 1.0, d) for d in ds]
    slope = np.polyfit(np.log(ds), np.log(taus), 1)[0]
    assert -3.2 <= slope <= -2.8


@pytest.mark.parametrize("sin_a", [0.01, 0.1])
@pytest.mark.parametrize("d0", [0.5, 1.0])
def test_matrix_element_estimate_within_factor_three(sin_a, d0):
    alpha = float(np.arcsin(sin_a))
    spec = two_level_spec(1.0, d0, alpha)
    basis = build_crossover_basis(spec, 0.5)
    params = decompose_schedule_params(spec, basis)
    measured = measured_matrix_element(spec, grid_points=501)
    estimate = estimated_matrix_element(params, spec.schedule, grid_points=501)
    assert measured / estimate < 3.0
    assert estimate / measured < 3.0


def test_tau_window_wide():
    spec = two_level_spec(1.0, 1.0, 0.3)
    basis = build_crossover_basis(spec, 0.5)
    params = decompose_schedule_params(spec, basis)
    budget = tau_window(spec, params, delta_qubit=0.1, grid_points=301)
    assert budget.tau_max == pytest.approx(10.0)
    assert budget.feasible == (budget.tau_min < 10.0)


def test_tau_window_feasibility_flag():
    from nhaqo.adiabatic import AdiabaticBudget

    assert AdiabaticBudget(tau_min=0.06, tau_max=10.0).feasible
    assert not AdiabaticBudget(tau_min=100.0, tau_max=10.0).feasible
    assert AdiabaticBudget(tau_min=100.0).feasible  # no lifetime cap, no constraint


def test_tau_window_lossless_qubit_limit():
    # vanishing level width pushes the upper bound out and keeps feasibility
    spec = two_level_spec(1.0, 1.0, 0.3)
    basis = build_crossover_basis(spec, 0.5)
    params = decompose_schedule_params(spec, basis)
    budget = tau_window(spec, params, delta_qubit=1e-12, grid_points=201)
    assert budget.tau_max == pytest.approx(1e12)
    assert budget.feasible
    with pytest.raises(ValueError):
        tau_window(spec, params, delta_qubit=0.0, grid_points=201)
