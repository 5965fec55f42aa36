"""Adiabatic runtime bounds and the qubit-lifetime window.

All "much greater than" inequalities are reported as plain thresholds; the
caller picks a safety factor.  Schedule derivatives use centered differences
(one-sided at the interval ends) since schedules are opaque callables.

The measured matrix element's maximum is found by a scan (101 points by
default) whose grid-local maxima Brent's method polishes
(:func:`nhaqo._minimize.polished_minima` on the negated element).  The scan
goes through :func:`nhaqo._scan.split_scan`: where the child's half of the
points would take longer than a fork round trip, with two or more CPUs in
the affinity mask and no other thread (BLAS pinned to one thread), one
forked child computes that half.  Results are bit-identical to a serial scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._minimize import polished_minima, uniform_grid
from ._scan import split_scan
from .errors import ZeroGap
from .linalg import lowest_pair_eigensystem
from .model import AnnealSpec, Schedule, total_hamiltonian
from .reduction import TwoLevelParams, min_two_level_gap, nonhermitian_min_gap

SCHEDULE_DERIV_STEP = 1e-6


@dataclass(frozen=True)
class AdiabaticBudget:
    """Runtime window: lower bound from the adiabatic criterion, upper from qubit lifetime."""

    tau_min: float
    tau_max: float | None = None
    delta_qubit: float | None = None
    measured_matrix_element: float | None = None

    @property
    def feasible(self) -> bool:
        return self.tau_max is None or self.tau_min < self.tau_max


def schedule_rates(schedule: Schedule, s: float) -> tuple[float, float, float]:
    """(df0/ds, df1/ds, df2/ds) by centered differences, one-sided at the ends."""
    lo = max(s - SCHEDULE_DERIV_STEP, 0.0)
    hi = min(s + SCHEDULE_DERIV_STEP, 1.0)
    span = hi - lo
    return (
        (schedule.f0(hi) - schedule.f0(lo)) / span,
        (schedule.f1(hi) - schedule.f1(lo)) / span,
        (schedule.f2(hi) - schedule.f2(lo)) / span,
    )


def _max_drive_flux(params: TwoLevelParams, schedule: Schedule, grid: np.ndarray) -> tuple[float, float]:
    """Max of |J dg~/ds - g~ dJ/ds| over the grid, plus the energy scale seen."""
    best = 0.0
    scale = 0.0
    for s in grid:
        df0, df1, df2 = schedule_rates(schedule, float(s))
        j = params.coupling(schedule, float(s))
        dj = df0 * params.r0_mag
        gt = params.drive(schedule, float(s))
        dgt = (df1 - 1j * df2) * params.r1_mag
        best = max(best, abs(j * dgt - gt * dj))
        scale = max(scale, abs(j) + abs(gt))
    return best, scale


def measured_matrix_element(spec: AnnealSpec, grid_points: int = 101) -> float:
    """Max over s of the bi-orthogonal element |<psi~_e| dH/ds |psi_g>|.

    ``grid_points`` uniform points are scanned, and every grid-local maximum
    is polished by Brent's method between its grid neighbours; the largest
    polished value is returned.  The element reads 0 at an s where pair 0 or
    pair 1, the only pairs it uses, is flagged as coalesced.
    """
    def negated(s: float) -> float:
        es = lowest_pair_eigensystem(total_hamiltonian(spec, s))
        if es.defect_flags.any():
            return 0.0
        df0, df1, df2 = schedule_rates(spec.schedule, s)
        dh = df0 * spec.h0 + (df1 - 1j * df2) * spec.h1
        return -float(abs(es.left_vectors[1] @ (dh @ es.right_vectors[:, 0])))

    grid = [float(s) for s in uniform_grid(grid_points)]
    return max(0.0, -polished_minima(negated, grid, split_scan(negated, grid, float))[0][1])


def tau_window(
    spec: AnnealSpec,
    params: TwoLevelParams,
    delta_qubit: float,
    grid_points: int = 1001,
) -> AdiabaticBudget:
    """Runtime window tau_min << tau << 1/delta_qubit for the reduced non-Hermitian model.

    tau_min = sin(alpha)_eff * max|J dg~/ds - g~ dJ/ds| / gap_min^3, where
    sin(alpha)_eff is the 2^(-n/2) estimate for n >= 2 qubits and the
    measured angle otherwise.  ``grid_points`` samples the drive flux and the
    reduced-model gap.  The directly measured bi-orthogonal matrix element
    maximum (:func:`measured_matrix_element` at its default scan, polished)
    is reported alongside for comparison.

    Raises
    ------
    ValueError
        If ``delta_qubit`` is not positive.
    ZeroGap
        If the reduced-model minimum gap is numerically zero.
    """
    if delta_qubit <= 0:
        raise ValueError("delta_qubit must be positive")
    sched = spec.schedule
    n = spec.n_qubits
    sin_eff = 2.0 ** (-n / 2.0) if n >= 2 else params.sin_alpha
    grid = uniform_grid(grid_points)
    flux, scale = _max_drive_flux(params, sched, grid)
    _, gap_min = min_two_level_gap(params, sched, grid_points)
    if gap_min <= 1e-12 * max(scale, 1e-300):
        raise ZeroGap(f"reduced-model gap {gap_min:.3e} is numerically zero")
    return AdiabaticBudget(
        tau_min=float(sin_eff * flux / gap_min**3),
        tau_max=1.0 / delta_qubit,
        delta_qubit=float(delta_qubit),
        measured_matrix_element=measured_matrix_element(spec),
    )


def min_time_linear_ramp(n_qubits: int, j_star: float, delta0: float) -> float:
    """Closed-form runtime threshold for the linear ramp.

    2^(-n/2) * J* * sqrt(delta0^2 + J*^2) / gap_min^3 with the linear-ramp
    minimum gap; diverges (returns inf) in the Hermitian limit delta0 = 0.
    Arguments are in energy units (delta0 on the same scale as j_star).
    """
    gap = nonhermitian_min_gap(j_star, delta0)
    if gap == 0.0:
        return math.inf
    flux = j_star * math.hypot(j_star, delta0)
    return float(2.0 ** (-n_qubits / 2.0) * flux / gap**3)
