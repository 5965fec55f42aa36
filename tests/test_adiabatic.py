"""Matrix-element estimates, runtime thresholds and the qubit-lifetime window."""

import numpy as np
import pytest

from nhaqo.adiabatic import (
    estimated_matrix_element,
    measured_matrix_element,
    min_time_linear_ramp,
    min_time_nonhermitian,
    schedule_rates,
    tau_window,
)
from nhaqo.model import linear_schedule, two_level_spec
from nhaqo.reduction import build_crossover_basis, decompose_schedule_params, nonhermitian_min_gap

SMALL_ALPHA = float(np.arcsin(1e-3))


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
    budget = min_time_nonhermitian(spec, params, grid_points=501)
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
