"""Time-dependent Schroedinger integration for (non-)Hermitian anneals.

The explicit Dormand-Prince 8(5,3) pair (DOP853: 12 stages, an 8th-order
solution, an error blended from 5th- and 3rd-order estimates) integrates
i d|psi>/dt = H(t/tau)|psi>; it needs no matrix exponential per step, and
both Hamiltonian terms act through their XOR-diagonals m[r, r ^ k], so no
dense matrix-vector product is formed.  Each accepted step adds log|psi| to
a running log-norm and divides psi by |psi|: the norm decay of the decay term
is kept exactly, a decayed state never underflows, and the step error is that
of the unit state.  The adjoint mode evolves the left state under the
conjugate-transposed generator so that the bi-orthogonal product <psi~|psi>
is conserved.  The decaying driver's shift is defined once, by
:func:`decaying_driver_shift`, and :func:`evolve` applies it on request.
The integrator reads the spec's stored XOR-diagonal terms and never its
dense matrices.  Where the schedule starts on a driver of single-bit flips,
as the transverse driver is, the initial ground state and the shift are
closed forms, so an Ising anneal runs with no eigensolve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousGround,
    DegenerateTargetWarning,
    NonFiniteState,
    StepUnderflow,
)
from .linalg import lowest_pair_eigensystem
from .model import AnnealSpec, XorTerms, total_hamiltonian

DEFAULT_TOL = 1e-10
MIN_STEP_FACTOR = 1e-12
DEFAULT_SAMPLES = 201
_MAX_LOG_NORM = math.log(np.finfo(float).max)

# Dormand-Prince 8(5,3) tableau (DOP853; Prince & Dormand, J. Comput. Appl.
# Math. 7, 67 (1981); Hairer, Norsett & Wanner, Solving ODEs I, section II.10):
# the 12 stages of the 8th-order solution and the 5th- and 3rd-order error
# estimators.  The values are copied from SciPy's
# scipy/integrate/_ivp/dop853_coefficients.py (BSD-3-Clause) as literals, so
# that the package imports no SciPy.
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
])
_A = [np.array(row) for row in (
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636],
)]
_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
])
_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082,
])
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294,
])
_STAGES = len(_C)
# a stage's input psi + sum_j a_ij (h k_j) as one row against [psi, h k_0, ...],
# and the new state and both error estimates as three rows against the same
_ROWS = np.array([[1.0, *row] + [0.0] * (_STAGES - row.size) for row in _A])
_FINAL = np.array([[1.0, *_B], [0.0, *_E5], [0.0, *_E3]])


@dataclass
class EvolutionResult:
    """Final state (the unit state times exp(log_norm)), norm history, success probability and step statistics."""

    final_state: np.ndarray
    norm_history: list[tuple[float, float]]
    success_probability: float
    steps_taken: int
    max_local_error: float
    log_norm: float


def success_probability(result_state, target: XorTerms) -> float:
    """Normalized overlap with the ground state of the target Hamiltonian.

    Returns |<g0|psi>|^2 / <psi|psi>; division by the state norm compensates
    non-Hermitian norm loss.  A degenerate ground space (gap of ``target``
    below 1e-10) falls back to the projector overlap onto the whole ground
    space and emits :class:`DegenerateTargetWarning`.  A diagonal target, a
    mask-0 term alone as every Ising problem is, is read off the amplitudes
    with no eigensolve; any other target is diagonalized densely.
    """
    if not target.is_hermitian():
        raise ValueError("target Hamiltonian must be Hermitian")
    psi = np.asarray(result_state, dtype=complex)
    nrm2 = float(np.vdot(psi, psi).real)
    if nrm2 <= 0.0:
        raise ValueError("state has zero norm")
    if target.masks.tolist() == [0]:
        diag = target.diagonals[0].real
        ground = np.flatnonzero(diag - diag.min() <= 1e-10)
        amps = psi[ground]
    else:
        vals, vecs = np.linalg.eigh(target.dense())
        ground = np.flatnonzero(vals - vals[0] <= 1e-10)
        amps = vecs[:, ground].conj().T @ psi
    if ground.size > 1:
        warnings.warn(
            DegenerateTargetWarning(
                f"ground space of dimension {ground.size}; returning projector overlap"
            ),
            stacklevel=2,
        )
    return float(np.sum(np.abs(amps) ** 2) / nrm2)


def _flip_weights(h1: XorTerms) -> np.ndarray | None:
    """w with h1 = -sum_k w_k X_k over its masks k, each a single-bit flip; None where h1 is no such sum."""
    masks, diags = h1.masks, h1.diagonals
    if (masks == 0).any() or (masks & (masks - 1)).any() or (diags != diags[:, :1]).any() or diags.imag.any():
        return None
    return -diags[:, 0].real


def initial_ground_state(spec: AnnealSpec) -> np.ndarray:
    """Unit right eigenvector with the smallest real eigenvalue at s = 0.

    The full Hamiltonian at s = 0, including any problem-term admixture,
    defines the ground state.  Where f0(0) = 0 and f1(0) > 0, as in every
    schedule nhaqo builds, H(0) = (f1 - i f2) h1 shares the driver's
    eigenvectors, with real parts f1 times its eigenvalues.  A driver
    -sum_k w_k X_k of single-bit flips (the transverse driver) has the closed
    form: |+> on each bit with w_k > 0 and |-> where w_k < 0, at -sum_k |w_k|.
    Any other driver or schedule goes through the lowest pair of H(0), whose
    largest entry is made real and positive.

    Raises
    ------
    AmbiguousGround
        If the two lowest real parts coincide within 1e-10.
    """
    f1 = spec.schedule.f1(0.0)
    w = _flip_weights(spec.driver) if spec.schedule.f0(0.0) == 0.0 and f1 > 0.0 else None
    if w is not None:
        rows = np.arange(spec.driver.diagonals.shape[1])
        # the next level flips the weakest bit; a bit without a flip leaves the pair degenerate
        gap = 2.0 * np.abs(w).min() if 1 << w.size == rows.size else 0.0
        lowest = f1 * (np.array([0.0, gap]) - np.abs(w).sum())
        v = np.ones(rows.size, dtype=complex)
        for mask in spec.driver.masks[w < 0]:
            v[rows & mask != 0] *= -1.0
    else:
        es = lowest_pair_eigensystem(total_hamiltonian(spec, 0.0))
        lowest = es.eigenvalues.real
        v = es.right_vectors[:, 0]
    if lowest.size >= 2 and lowest[1] - lowest[0] <= 1e-10:
        raise AmbiguousGround("two lowest real parts coincide at s = 0")
    return v / np.linalg.norm(v)


def decaying_driver_shift(h1: XorTerms) -> float:
    """max(0, -lambda_min(h1)): the shift that makes the decaying driver h1 + shift positive semi-definite.

    A driver -sum_k w_k X_k of single-bit flips needs sum_k |w_k|; any other goes through ``eigvalsh``.
    """
    w = _flip_weights(h1)
    return float(np.abs(w).sum()) if w is not None else max(0.0, -float(np.linalg.eigvalsh(h1.dense())[0]))


def _xor_terms(spec: AnnealSpec, adjoint: bool, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """The generator -i H as XOR-diagonals: (m @ y)[r] = sum_k m[r, r ^ k] y[r ^ k].

    Takes the union of the stored problem and driver masks and mask 0, in
    ascending order (an Ising problem is mask 0 alone, the transverse driver
    n bit flips).  Returns ``idx[j, r] = r ^ k_j`` and a (3, masks * dim)
    stack whose rows, weighted by f0, f1 and f2, sum to the generator: -i h0,
    -i h1 and the decay term -(h1 + shift).  ``adjoint`` conjugate-transposes
    the terms and flips the decay term's sign: the generator -i H^dagger of
    the left state.
    """
    problem, driver = spec.problem, spec.driver
    masks = np.union1d(np.union1d(problem.masks, driver.masks), [0])  # mask 0: the shift's diagonal
    idx = np.arange(problem.diagonals.shape[1]) ^ masks[:, None]
    terms = np.zeros((3,) + idx.shape, dtype=complex)
    for row, term in enumerate((problem, driver)):
        terms[row, np.searchsorted(masks, term.masks)] = term.adjoint() if adjoint else term.diagonals
    sign = 1.0 if adjoint else -1.0
    terms[2] = sign * terms[1]
    terms[:2] *= -1j
    terms[2, 0] += sign * shift
    return idx, terms.reshape(3, -1)


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
    the conjugate-transposed generator.  ``decaying_driver`` adds
    ``decaying_driver_shift(spec.driver)`` times the identity to the driver
    inside the decay term: the norm is then non-increasing, and eigenvalue
    differences are unaffected.

    Raises
    ------
    StepUnderflow
        If the controller demands steps below tau times ``MIN_STEP_FACTOR``.
    NonFiniteState
        If any amplitude becomes NaN or Inf, or the norm grows beyond the
        float range; a decayed state never underflows.
    """
    psi = np.asarray(initial, dtype=complex)
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError("initial state must be unit-normalized")
    tau = float(spec.tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    if samples < 2:
        raise ValueError("samples must be >= 2")

    f0, f1, f2 = spec.schedule.f0, spec.schedule.f1, spec.schedule.f2
    shift = decaying_driver_shift(spec.driver) if decaying_driver else 0.0
    idx, terms = _xor_terms(spec, adjoint, shift)
    terms = terms.view(np.float64)  # real weights times complex terms: one real matmul
    weights_flat = np.empty((_STAGES, terms.shape[1]))
    weights = weights_flat.view(complex).reshape((_STAGES,) + idx.shape)

    sample_times = np.arange(samples) / (samples - 1) * tau
    min_step = tau * MIN_STEP_FACTOR
    norms: list[tuple[float, float]] = [(0.0, nrm)]
    t = log_norm = 0.0
    h = tau / max(samples - 1, 100) / 10.0
    steps = 0
    max_err = 0.0
    # hk holds the state and then each stage times the step; per stage: its
    # tableau row, the rows of hk it reads and the row it writes
    hk = np.empty((_STAGES + 1, psi.shape[0]), dtype=complex)
    hk_flat = hk.view(np.float64)
    stages = [(_ROWS[i, : i + 1], hk_flat[: i + 1], hk[i + 1]) for i in range(_STAGES)]
    buf = np.empty(idx.shape, dtype=complex)

    for t_target in sample_times[1:]:
        while t < t_target:
            capped = h > t_target - t
            h_try = min(h, t_target - t)
            stage_s = ((t + _C * h_try) / tau).tolist()
            coef = np.array([(f0(s), f1(s), f2(s)) for s in stage_s], dtype=float)
            np.matmul(h_try * coef, terms, out=weights_flat)
            hk[0] = psi
            for (row, past, out), w in zip(stages, weights):
                y = np.dot(row, past).view(complex)
                np.multiply(w, y[idx], out=buf)
                np.add.reduce(buf, axis=0, out=out)
            sol = (_FINAL @ hk_flat).view(complex)
            # Hairer's blend of the 5th- and 3rd-order estimates, max norm,
            # of the unit state
            e5, e3 = np.abs(sol[1:]).max(axis=1).tolist()
            err = 0.0 if e5 == 0.0 else e5 * e5 / math.sqrt(e5 * e5 + 0.01 * e3 * e3)
            if err <= tol:
                t = t + h_try
                steps += 1
                max_err = max(max_err, err)
                nrm = float(np.linalg.norm(sol[0]))
                log_norm += math.log(nrm) if 0.0 < nrm < math.inf else math.nan  # NaN fails the bound
                if not log_norm <= _MAX_LOG_NORM:
                    raise NonFiniteState(f"non-finite state or norm beyond the float range at t={t:.6g}")
                psi = sol[0] / nrm
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.125))
            if err > tol or not capped:
                # a capped accepted step keeps the controller's natural size
                h = h_try * factor
            if h < min_step:
                raise StepUnderflow(
                    f"step {h:.3e} below minimum {min_step:.3e} at t={t:.6g}"
                )
            if t_target - t <= 1e-15 * tau:
                t = t_target
        norms.append((float(t_target / tau), math.exp(log_norm)))

    return EvolutionResult(
        final_state=psi * math.exp(log_norm),
        norm_history=norms,
        success_probability=success_probability(psi, spec.problem),
        steps_taken=steps,
        max_local_error=max_err,
        log_norm=log_norm,
    )
