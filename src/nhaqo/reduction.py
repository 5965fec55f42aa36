"""Effective two-level reduction at the crossover.

The two lowest right eigenvectors at the crossover span a 2D subspace; the
problem and driver Hamiltonians project onto it as real Bloch vectors
(r0, r1) plus scalar offsets.  The schedule then drives the reduced model
through the coupling J(s) = f0(s)|r0| and the complex drive
g~(s) = (f1(s) - i f2(s))|r1|, whose closed-form gap, crossover and minimum
are evaluated here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._minimize import minimize_on_grid, uniform_grid
from .errors import DefectiveAtCrossover, DegenerateSchedule, ZeroBlochVector
from .linalg import eig_nonhermitian, ensure_operator, maxnorm
from .model import AnnealSpec, Schedule, total_hamiltonian


@dataclass(frozen=True)
class TwoLevelBasis:
    """Orthonormal pair spanning the lowest two states at the crossover."""

    v0: np.ndarray
    v1: np.ndarray
    s_ref: float


@dataclass(frozen=True)
class TwoLevelParams:
    """Reduced-model parameters: scalar offsets, Bloch vectors and mixing angle.

    ``alpha`` is defined through cos(alpha) = -(r0.r1)/(|r0||r1|); the sign
    makes an anti-aligned driver (the usual annealing layout) come out at
    alpha = 0.
    """

    lambda0: float
    lambda1: float
    r0: np.ndarray
    r1: np.ndarray
    alpha: float

    @classmethod
    def from_alpha(
        cls,
        alpha: float,
        r0_mag: float = 1.0,
        r1_mag: float = 1.0,
    ) -> "TwoLevelParams":
        """Canonical layout: r0 along z, r1 tilted by ``alpha`` against -z, no offsets."""
        r0 = np.array([0.0, 0.0, r0_mag])
        r1 = r1_mag * np.array([np.sin(alpha), 0.0, -np.cos(alpha)])
        return cls(0.0, 0.0, r0, r1, float(alpha))

    @property
    def r0_mag(self) -> float:
        return float(np.linalg.norm(self.r0))

    @property
    def r1_mag(self) -> float:
        return float(np.linalg.norm(self.r1))

    @property
    def cos_alpha(self) -> float:
        return float(np.cos(self.alpha))

    @property
    def sin_alpha(self) -> float:
        return float(np.sin(self.alpha))

    def coupling(self, schedule: Schedule, s: float) -> float:
        """J(s) = f0(s) |r0|."""
        return float(schedule.f0(s)) * self.r0_mag

    def drive(self, schedule: Schedule, s: float) -> complex:
        """g~(s) = (f1(s) - i f2(s)) |r1|."""
        return complex(schedule.f1(s) - 1j * schedule.f2(s)) * self.r1_mag


def build_crossover_basis(spec: AnnealSpec, s_c: float) -> TwoLevelBasis:
    """Orthonormalized lowest two right eigenvectors at the crossover.

    Raises
    ------
    DefectiveAtCrossover
        If the two eigenvectors are coalesced and the subspace is ill-defined.
    """
    es = eig_nonhermitian(total_hamiltonian(spec, s_c))
    if es.dim < 2:
        raise ValueError("need dimension >= 2")
    if bool(es.defect_flags[0]) or bool(es.defect_flags[1]):
        raise DefectiveAtCrossover(f"lowest eigenpair coalesced at s={s_c:.6g}")
    v0 = es.right_vectors[:, 0]
    w = es.right_vectors[:, 1] - np.vdot(v0, es.right_vectors[:, 1]) * v0
    wn = float(np.linalg.norm(w))
    if wn < 1e-8:
        raise DefectiveAtCrossover(f"lowest eigenvectors parallel at s={s_c:.6g}")
    v1 = w / wn
    # deterministic phases: largest entry real-positive
    for v in (v0, v1):
        k = int(np.argmax(np.abs(v)))
        if v[k] != 0:
            v *= abs(v[k]) / v[k]
    return TwoLevelBasis(v0, v1, float(s_c))


def project_effective(h, basis: TwoLevelBasis) -> tuple[complex, complex, complex, complex]:
    """Pauli components (lambda, X, Y, Z) of the compression of ``h`` onto the basis.

    lambda*1 + X*sx + Y*sy + Z*sz reproduces the 2x2 compression exactly;
    all four are real whenever ``h`` is Hermitian.
    """
    a = ensure_operator(h)
    if a.shape[0] != basis.v0.shape[0]:
        raise ValueError("dimension mismatch between operator and basis")
    h00 = np.vdot(basis.v0, a @ basis.v0)
    h01 = np.vdot(basis.v0, a @ basis.v1)
    h10 = np.vdot(basis.v1, a @ basis.v0)
    h11 = np.vdot(basis.v1, a @ basis.v1)
    lam = 0.5 * (h00 + h11)
    x = 0.5 * (h01 + h10)
    y = 0.5j * (h01 - h10)
    z = 0.5 * (h00 - h11)
    return complex(lam), complex(x), complex(y), complex(z)


def decompose_schedule_params(spec: AnnealSpec, basis: TwoLevelBasis) -> TwoLevelParams:
    """Project the problem and driver terms separately into Bloch form.

    Raises
    ------
    ZeroBlochVector
        If either projected traceless part vanishes (the angle is undefined).
    """
    lam0, x0, y0, z0 = project_effective(spec.h0, basis)
    lam1, x1, y1, z1 = project_effective(spec.h1, basis)
    r0 = np.array([x0.real, y0.real, z0.real])
    r1 = np.array([x1.real, y1.real, z1.real])
    n0 = float(np.linalg.norm(r0))
    n1 = float(np.linalg.norm(r1))
    if n0 < 1e-12 * max(maxnorm(spec.h0), 1e-300):
        raise ZeroBlochVector("problem term projects to a scalar in the crossover basis")
    if n1 < 1e-12 * max(maxnorm(spec.h1), 1e-300):
        raise ZeroBlochVector("driver term projects to a scalar in the crossover basis")
    # atan2 keeps alpha relatively accurate near 0 and pi, where arccos of the
    # cosine loses half the digits
    alpha = np.arctan2(np.linalg.norm(np.cross(r0, r1)), -(r0 @ r1))
    return TwoLevelParams(lam0.real, lam1.real, r0, r1, float(alpha))


def gap_two_level(params: TwoLevelParams, j: float, g: float, delta: float) -> float:
    """Modulus gap of the reduced model at coupling j, drive g and decay delta.

    The gap is 2*sqrt((j - g~ cos(alpha))^2 + (g~ sin(alpha))^2) with
    g~ = g - i*delta; for delta = 0 this is 2*sqrt(g^2 - 2*g*j*cos(alpha) + j^2).
    It vanishes exactly at an exceptional point (g = j*cos(alpha) with
    g^2 + delta^2 = j^2).  Writing 1 - cos(alpha) as 2*sin(alpha/2)^2 keeps
    the result relatively accurate at j ~ g and small alpha, where the
    expanded radicand cancels.
    """
    gt = complex(g, -delta)
    half = float(np.sin(0.5 * params.alpha))
    a = (j - gt) + 2.0 * gt * half * half
    b = gt * params.sin_alpha
    return float(2.0 * abs(np.sqrt(a * a + b * b)))


def two_level_gap(params: TwoLevelParams, schedule: Schedule, s: float) -> float:
    """Reduced-model gap along a schedule at dimensionless time s."""
    gt = params.drive(schedule, s)
    return gap_two_level(params, params.coupling(schedule, s), gt.real, -gt.imag)


def min_two_level_gap(
    params: TwoLevelParams, schedule: Schedule, grid_points: int = 1001
) -> tuple[float, float]:
    """Grid scan plus golden-section refinement of the reduced-model gap minimum."""
    return minimize_on_grid(
        lambda s: two_level_gap(params, schedule, s),
        uniform_grid(grid_points),
        xtol=1e-12,
    )


def hermitian_crossover(
    params: TwoLevelParams, gdot: float, jdot: float, j_c: float
) -> tuple[float, float]:
    """Closed-form crossover drive g_c and minimum gap for constant-rate ramps.

    ``gdot`` and ``jdot`` are the s-derivatives of the drive and coupling and
    ``j_c`` the coupling at the crossover.

    Raises
    ------
    DegenerateSchedule
        If gdot - jdot*cos(alpha) vanishes and the crossover is undefined.
    """
    c = params.cos_alpha
    den = gdot - jdot * c
    if abs(den) <= 1e-12:
        raise DegenerateSchedule("gdot - jdot*cos(alpha) vanishes")
    g_c = -j_c * (jdot - gdot * c) / den
    pref = np.sqrt(gdot * gdot - 2.0 * gdot * jdot * c + jdot * jdot) / abs(den)
    gap_min = pref * 2.0 * abs(j_c) * params.sin_alpha
    return float(g_c), float(gap_min)


def nonhermitian_min_gap(j_star: float, delta0: float) -> float:
    """Minimum gap of the linear ramp with decay: 2*J*d0/sqrt(d0^2 + 4*J^2)."""
    if j_star <= 0:
        raise ValueError("j_star must be positive")
    if delta0 < 0:
        raise ValueError("delta0 must be non-negative")
    if delta0 == 0:
        return 0.0
    return float(2.0 * j_star * delta0 / np.sqrt(delta0 * delta0 + 4.0 * j_star * j_star))
