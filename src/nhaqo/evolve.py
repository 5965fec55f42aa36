"""Time-dependent Schroedinger integration for (non-)Hermitian anneals.

An embedded Dormand-Prince 5(4) pair with absolute per-component error
control integrates i d|psi>/dt = H(t/tau)|psi>; the adjoint mode evolves the
left state under the conjugate-transposed generator so that the bi-orthogonal
product <psi~|psi> is conserved.  The state is never renormalized during the
run: norm decay is the physics of the decay term.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousGround,
    DegenerateTargetWarning,
    NonFiniteState,
    StepUnderflow,
)
from .linalg import eig_nonhermitian, ensure_operator, is_hermitian
from .model import AnnealSpec, total_hamiltonian

DEFAULT_TOL = 1e-10
MIN_STEP_FACTOR = 1e-12
DEFAULT_SAMPLES = 201

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = _B5 - _B4


@dataclass
class EvolutionResult:
    """Final state plus norm history, success probability and step statistics."""

    final_state: np.ndarray
    norm_history: list[tuple[float, float]]
    success_probability: float
    steps_taken: int
    max_local_error: float


def success_probability(result_state, h0) -> float:
    """Normalized overlap with the ground state of the target Hamiltonian.

    Returns |<g0|psi>|^2 / <psi|psi>; division by the state norm compensates
    non-Hermitian norm loss.  A degenerate ground space (gap of ``h0`` below
    1e-10) falls back to the projector overlap onto the whole ground space
    and emits :class:`DegenerateTargetWarning`.
    """
    a = ensure_operator(h0)
    if not is_hermitian(a):
        raise ValueError("target Hamiltonian must be Hermitian")
    psi = np.asarray(result_state, dtype=complex)
    nrm2 = float(np.vdot(psi, psi).real)
    if nrm2 <= 0.0:
        raise ValueError("state has zero norm")
    vals, vecs = np.linalg.eigh(a)
    ground = np.nonzero(vals - vals[0] <= 1e-10)[0]
    if ground.size > 1:
        warnings.warn(
            DegenerateTargetWarning(
                f"ground space of dimension {ground.size}; returning projector overlap"
            ),
            stacklevel=2,
        )
        amps = vecs[:, ground].conj().T @ psi
        return float(np.sum(np.abs(amps) ** 2) / nrm2)
    return float(abs(np.vdot(vecs[:, 0], psi)) ** 2 / nrm2)


def initial_ground_state(spec: AnnealSpec) -> np.ndarray:
    """Unit right eigenvector with the smallest real eigenvalue at s = 0.

    The full Hamiltonian at s = 0, including any problem-term admixture,
    defines the ground state.

    Raises
    ------
    AmbiguousGround
        If the two lowest real parts coincide within 1e-10.
    """
    es = eig_nonhermitian(total_hamiltonian(spec, 0.0))
    if es.dim >= 2 and es.eigenvalues[1].real - es.eigenvalues[0].real <= 1e-10:
        raise AmbiguousGround("two lowest real parts coincide at s = 0")
    v = es.right_vectors[:, 0]
    return v / np.linalg.norm(v)


def evolve(
    spec: AnnealSpec,
    initial,
    adjoint: bool = False,
    *,
    tol: float = DEFAULT_TOL,
    samples: int = DEFAULT_SAMPLES,
    decaying_driver: bool = False,
) -> EvolutionResult:
    """Integrate from t = 0 to t = tau with adaptive step control.

    ``adjoint`` evolves the left state (returned as a column vector) under
    the conjugate-transposed generator.  ``decaying_driver`` shifts the
    driver inside the decay term by |min eigenvalue| times the identity, so
    the norm is non-increasing; eigenvalue differences are unaffected.

    Raises
    ------
    StepUnderflow
        If the controller demands steps below tau times ``MIN_STEP_FACTOR``.
    NonFiniteState
        If any amplitude becomes NaN or Inf.
    """
    psi = np.asarray(initial, dtype=complex).copy()
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("initial state must be unit-normalized")
    tau = float(spec.tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    if samples < 2:
        raise ValueError("samples must be >= 2")

    shift = 0.0
    if decaying_driver:
        lowest = float(np.linalg.eigvalsh(spec.h1)[0])
        shift = -lowest if lowest < 0 else 0.0

    h0 = spec.h0
    h1 = spec.h1
    sched = spec.schedule
    if adjoint:
        h0 = h0.conj().T
        h1 = h1.conj().T

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        s = t / tau
        f0 = sched.f0(s)
        f1 = sched.f1(s)
        f2 = sched.f2(s)
        w1 = f1 - 1j * f2
        if adjoint:
            w1 = np.conj(w1)  # generator is the conjugate transpose of the forward one
        out = (-1j * f0) * (h0 @ y) + (-1j * w1) * (h1 @ y)
        if shift != 0.0 and f2 != 0.0:
            out = out - (f2 * shift) * y
        return out

    sample_times = np.arange(samples) / (samples - 1) * tau
    min_step = tau * MIN_STEP_FACTOR
    norms: list[tuple[float, float]] = [(0.0, float(np.linalg.norm(psi)))]
    t = 0.0
    h = tau / max(samples - 1, 100) / 10.0
    steps = 0
    max_err = 0.0

    for t_target in sample_times[1:]:
        while t < t_target:
            capped = h > t_target - t
            h_try = min(h, t_target - t)
            k = np.empty((7, psi.shape[0]), dtype=complex)
            k[0] = rhs(t, psi)
            for i in range(1, 7):
                k[i] = rhs(t + _C[i] * h_try, psi + h_try * (_A[i] @ k[:i]))
            err = float(np.max(np.abs(h_try * (_ERR @ k))))
            if err <= tol:
                psi = psi + h_try * (_B5 @ k)
                t = t + h_try
                steps += 1
                max_err = max(max_err, err)
                if not np.all(np.isfinite(psi)):
                    raise NonFiniteState(f"non-finite amplitude at t={t:.6g}")
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
            if err > tol or not capped:
                # a capped accepted step keeps the controller's natural size
                h = h_try * factor
            if h < min_step:
                raise StepUnderflow(
                    f"step {h:.3e} below minimum {min_step:.3e} at t={t:.6g}"
                )
            if t_target - t <= 1e-15 * tau:
                t = t_target
        norms.append((float(t_target / tau), float(np.linalg.norm(psi))))

    return EvolutionResult(
        final_state=psi,
        norm_history=norms,
        success_probability=success_probability(psi, spec.h0),
        steps_taken=steps,
        max_local_error=max_err,
    )
