"""Instantaneous spectra along the anneal: gap traces, crossover, exceptional points.

The "ground state" of a non-Hermitian snapshot is the eigenvalue with the
smallest real part, which connects continuously to the Hermitian ordering at
the endpoints.  The gap is the modulus of the complex difference between the
two lowest eigenvalues.  Gap traces need eigenvalues only; eigenvectors are
computed solely where an exceptional-point candidate is confirmed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._minimize import polished_minima, uniform_grid
from .errors import ConvergenceFailure, MultipleMinimaWarning
from .linalg import eig_nonhermitian, maxnorm, sorted_eigenvalues
from .model import AnnealSpec, total_hamiltonian

DEFAULT_GRID_POINTS = 1001
#: an exceptional point must close the gap below this factor times (|h0| + |h1|)
EP_GAP_FACTOR = 1e-6
#: and coalesce the two lowest right eigenvectors beyond this overlap
EP_OVERLAP_THRESHOLD = 0.99
#: refinement passes inserted where the lowest pair moves faster than the Lipschitz bound
MAX_REFINE_ROUNDS = 4


@dataclass(frozen=True)
class SpectrumSnapshot:
    """Sorted eigenvalues at one s, with the modulus gap of the lowest pair."""

    s: float
    eigenvalues: np.ndarray
    gap: float


@dataclass
class GapTrace:
    """Gap samples over s plus the refined crossover location and minimum gap."""

    spec: AnnealSpec
    snapshots: list[SpectrumSnapshot]
    s_c: float = field(default=np.nan)
    g_m: float = field(default=np.nan)


def gap_at(spec: AnnealSpec, s: float) -> float:
    """Modulus gap |E_1 - E_0| of the two lowest-real-part eigenvalues."""
    vals = sorted_eigenvalues(total_hamiltonian(spec, s))
    if vals.shape[0] < 2:
        raise ValueError("gap needs dimension >= 2")
    return float(abs(vals[1] - vals[0]))


def instantaneous_spectrum(spec: AnnealSpec, s: float) -> SpectrumSnapshot:
    """Sorted eigenvalues of the total Hamiltonian at s and the gap of the lowest pair."""
    try:
        vals = sorted_eigenvalues(total_hamiltonian(spec, s))
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(f"{exc} (at s={s:.9g})") from exc
    gap = float(abs(vals[1] - vals[0])) if vals.shape[0] >= 2 else 0.0
    return SpectrumSnapshot(float(s), vals, gap)


def _lipschitz_bound(spec: AnnealSpec) -> float:
    delta0_scale = max(float(spec.schedule.f2(0.0)), 0.0)
    return maxnorm(spec.h0) + maxnorm(spec.h1) * (1.0 + delta0_scale)


def trace_gap(
    spec: AnnealSpec,
    grid_points: int = DEFAULT_GRID_POINTS,
    refine: bool = True,
) -> GapTrace:
    """Sample the spectrum on a uniform s grid and locate the crossover.

    Where the two lowest sorted eigenvalues, the pair the gap is taken of,
    move between consecutive samples faster than the schedule's Lipschitz
    bound allows, midpoints are inserted for up to ``MAX_REFINE_ROUNDS``
    passes.  Sort-order jumps of higher levels are ignored (jumps of the
    lowest pair at complex real-part crossings may persist; branch
    continuation is out of scope).
    """
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    snaps = [instantaneous_spectrum(spec, float(s)) for s in uniform_grid(grid_points)]
    if refine:
        bound = _lipschitz_bound(spec)
        slack = 1e-12 * max(bound, 1.0)
        for _ in range(MAX_REFINE_ROUNDS):
            new_points: list[float] = []
            for a, b in zip(snaps[:-1], snaps[1:]):
                step = b.s - a.s
                motion = float(np.max(np.abs(b.eigenvalues[:2] - a.eigenvalues[:2])))
                if motion > bound * step + slack:
                    new_points.append(0.5 * (a.s + b.s))
            if not new_points:
                break
            snaps.extend(instantaneous_spectrum(spec, s) for s in new_points)
            snaps.sort(key=lambda sn: sn.s)
    trace = GapTrace(spec, snaps)
    trace.s_c, trace.g_m = find_crossover(trace)
    return trace


def find_crossover(trace: GapTrace, xtol: float = 1e-8) -> tuple[float, float]:
    """Refined location and value of the minimum gap.

    Emits :class:`MultipleMinimaWarning` (reporting both candidates) when a
    second local minimum lies within 1% of the global one.
    """
    if len(trace.snapshots) < 3:
        raise ValueError("need at least 3 snapshots")
    xs = [sn.s for sn in trace.snapshots]
    vals = [sn.gap for sn in trace.snapshots]

    def f(s: float) -> float:
        return gap_at(trace.spec, s)

    cands = polished_minima(f, xs, vals, xtol)
    s_c, g_m = cands[0]
    if len(cands) > 1 and abs(cands[1][1] - g_m) <= 0.01 * g_m:
        warnings.warn(
            MultipleMinimaWarning(
                f"two gap minima within 1%: (s={s_c:.9g}, gap={g_m:.9g}) and "
                f"(s={cands[1][0]:.9g}, gap={cands[1][1]:.9g})"
            ),
            stacklevel=2,
        )
    return float(s_c), float(g_m)


@dataclass(frozen=True)
class ExceptionalPoint:
    """Location of a detected eigenvalue-and-eigenvector coalescence."""

    s: float
    gap: float
    overlap: float


def _ground_pair_overlap(spec: AnnealSpec, s: float) -> float:
    right = eig_nonhermitian(total_hamiltonian(spec, s)).right_vectors
    return float(abs(np.vdot(right[:, 0], right[:, 1])))


def detect_exceptional_point(
    spec: AnnealSpec,
    grid_points: int = DEFAULT_GRID_POINTS,
    *,
    trace: GapTrace | None = None,
) -> ExceptionalPoint | None:
    """Search for an s where the gap closes and the lowest eigenvectors coalesce.

    Both signatures are required: a tiny gap with orthogonal eigenvectors is
    an ordinary (diabolic) near-crossing and returns ``None``.  The gap is
    scanned on a uniform grid of ``grid_points``, or, when a ``trace`` of
    ``spec`` is given, its sampled gaps are polished instead and no new scan
    is made.
    """
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")

    def f(s: float) -> float:
        return gap_at(spec, s)

    if trace is None:
        ss = uniform_grid(grid_points)
        vals = [f(float(s)) for s in ss]
    else:
        ss = [sn.s for sn in trace.snapshots]
        vals = [sn.gap for sn in trace.snapshots]
    gap_tol = EP_GAP_FACTOR * (maxnorm(spec.h0) + maxnorm(spec.h1))
    for s_min, gap_min in polished_minima(f, ss, vals, 1e-14):
        if gap_min >= gap_tol:
            break
        overlap = _ground_pair_overlap(spec, s_min)
        if overlap > EP_OVERLAP_THRESHOLD:
            return ExceptionalPoint(float(s_min), float(gap_min), overlap)
    return None
