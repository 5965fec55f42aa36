"""Instantaneous spectra along the anneal: gap traces, crossover, exceptional points.

The "ground state" of a non-Hermitian snapshot is the eigenvalue with the
smallest real part, which connects continuously to the Hermitian ordering at
the endpoints.  The gap is the modulus of the complex difference between the
two lowest eigenvalues, the pair (E_0, E_1) that a snapshot keeps.  The gap
trace and its polish take eigenvalues only from :func:`_lowest_pair`;
eigenvectors are computed solely where an exceptional-point candidate is
confirmed.

The gap trace is the only scan of the lowest pair.  Its uniform grid goes
through :func:`nhaqo._scan.split_scan`: where the child's half of the
points would take longer than a fork round trip, with two or more CPUs in
the affinity mask and no other thread (BLAS pinned to one thread), one
forked child computes that half.  Results are bit-identical to a serial
scan.

Each grid-local gap minimum is polished once, by Brent's method on the
discriminant (E_1 - E_0)^2 plus a few Gauss-Newton steps; the crossover is
the lowest polished minimum, and the exceptional-point search, a function
of the trace, tests the same list.  The discriminant is analytic through an
exceptional point, where the gap closes like a square root and Brent's
method on the gap stops short.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._minimize import brent, local_minima_indices, uniform_grid
from ._scan import split_scan
from .errors import ConvergenceFailure, MultipleMinimaWarning
from .linalg import lowest_pair_eigensystem, sorted_eigenvalues
from .model import AnnealSpec, total_hamiltonian

DEFAULT_GRID_POINTS = 1001
#: an exceptional point must close the gap below this factor times (|h0| + |h1|)
EP_GAP_FACTOR = 1e-6
#: and coalesce the two lowest right eigenvectors beyond this overlap
EP_OVERLAP_THRESHOLD = 0.99
#: bisection depth of a gap-trace interval where the lowest pair moves further than the schedule's increments allow
MAX_REFINE_ROUNDS = 4


@dataclass(frozen=True)
class SpectrumSnapshot:
    """The lowest pair (E_0, E_1) at one s, and its modulus gap |E_1 - E_0|."""

    s: float
    pair: np.ndarray

    @property
    def gap(self) -> float:
        return float(abs(self.pair[1] - self.pair[0]))


@dataclass
class GapTrace:
    """Gap samples over s, their polished gap minima as (s, gap) lowest first, and the crossover: the lowest."""

    spec: AnnealSpec
    snapshots: list[SpectrumSnapshot]
    minima: list[tuple[float, float]]
    s_c: float = field(default=np.nan)
    g_m: float = field(default=np.nan)


def _lowest_pair(spec: AnnealSpec, s: float) -> np.ndarray:
    """(E_0, E_1): the two lowest-real-part eigenvalues of the total Hamiltonian at s, copied out of the spectrum."""
    try:
        vals = sorted_eigenvalues(total_hamiltonian(spec, s))
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(f"{exc} (at s={s:.9g})") from exc
    if vals.shape[0] < 2:
        raise ValueError("gap needs dimension >= 2")
    return vals[:2].copy()


# no library caller: kept for the benchmark's tracer (perfbench/tracer.py), which wraps it by name
def gap_at(spec: AnnealSpec, s: float) -> float:
    """Modulus gap |E_1 - E_0| of the two lowest-real-part eigenvalues."""
    return SpectrumSnapshot(s, _lowest_pair(spec, s)).gap


def instantaneous_spectrum(spec: AnnealSpec, s: float) -> SpectrumSnapshot:
    """The lowest pair of the total Hamiltonian at s and its gap."""
    return SpectrumSnapshot(float(s), _lowest_pair(spec, s))


def trace_gap(spec: AnnealSpec, grid_points: int = DEFAULT_GRID_POINTS) -> GapTrace:
    """Sample the spectrum on a uniform s grid, polish its gap minima and locate the crossover.

    An interval [a, b] is bisected, to a depth of ``MAX_REFINE_ROUNDS``,
    where the lowest pair (the two lowest sorted eigenvalues) moves further
    than the schedule's increments allow, B = |f0(b) - f0(a)| |h0| +
    (|f1(b) - f1(a)| + |f2(b) - f2(a)|) |h1| with the terms' ``norm_bound()``.
    B bounds ||H(b) - H(a)||, so where H is Hermitian no eigenvalue moves
    further (Weyl): a Hermitian trace inserts no point under any schedule.
    Sort-order jumps of higher levels are ignored (jumps of the lowest pair
    at complex real-part crossings may persist; branch continuation is out
    of scope).  Every grid-local minimum of the samples is then polished
    once by :func:`_polish_discriminant`.
    """
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    grid = [float(s) for s in uniform_grid(grid_points)]
    pairs = split_scan(lambda s: instantaneous_spectrum(spec, s).pair, grid, complex)
    snaps = [SpectrumSnapshot(s, pair) for s, pair in zip(grid, pairs)]
    f, n0, n1 = spec.schedule, spec.problem.norm_bound(), spec.driver.norm_bound()

    def increment_bound(a: float, b: float) -> float:
        return abs(f.f0(b) - f.f0(a)) * n0 + (abs(f.f1(b) - f.f1(a)) + abs(f.f2(b) - f.f2(a))) * n1

    slack = 1e-12 * max(increment_bound(0.0, 1.0), 1.0)

    refined: list[SpectrumSnapshot] = []
    for lo, hi in zip(snaps[:-1], snaps[1:]):
        todo = [(lo, hi, 0)]  # bisected depth first, left half first, so ``refined`` stays sorted
        while todo:
            a, b, depth = todo.pop()
            motion = float(np.max(np.abs(b.pair - a.pair)))
            if depth == MAX_REFINE_ROUNDS or motion <= increment_bound(a.s, b.s) + slack:
                refined.append(a)
            else:
                mid = instantaneous_spectrum(spec, 0.5 * (a.s + b.s))
                todo += [(mid, b, depth + 1), (a, mid, depth + 1)]
    snaps = refined + snaps[-1:]
    diffs = [sn.pair[1] - sn.pair[0] for sn in snaps]
    trace = GapTrace(spec, snaps, _gap_minima(spec, [sn.s for sn in snaps], diffs))
    trace.s_c, trace.g_m = find_crossover(trace)
    return trace


def find_crossover(trace: GapTrace) -> tuple[float, float]:
    """Location and value of the minimum gap: the lowest of the trace's polished minima.

    Emits :class:`MultipleMinimaWarning` (reporting both candidates) when a
    second local minimum lies within 1% of the global one.
    """
    if len(trace.snapshots) < 3 or not trace.minima:
        raise ValueError("need at least 3 snapshots and their polished gap minima")
    (s_c, g_m), *rest = trace.minima
    if rest and abs(rest[0][1] - g_m) <= 0.01 * g_m:
        warnings.warn(
            MultipleMinimaWarning(
                f"two gap minima within 1%: (s={s_c:.9g}, gap={g_m:.9g}) and "
                f"(s={rest[0][0]:.9g}, gap={rest[0][1]:.9g})"
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
    right = lowest_pair_eigensystem(total_hamiltonian(spec, s)).right_vectors
    return float(abs(np.vdot(right[:, 0], right[:, 1])))


def _polish_discriminant(
    spec: AnnealSpec, xs: list[float], diffs: list[complex], i: int
) -> tuple[float, float]:
    """Polish grid minimum ``i`` of the gap as a minimum of |q|^2, q = (E_1 - E_0)^2.

    The gap closes like sqrt|s - s0| at an exceptional point, but q is
    analytic there, so |q|^2 is as smooth as at an ordinary avoided crossing.
    Brent's method on |q|^2 over [x_{i-1}, x_{i+1}] starts from the grid
    point; up to three Gauss-Newton steps on q follow, each
    s - Re(q conj(q')) / |q'|^2 = s - Re(q / q') with q' the secant through
    the two best samples, kept only inside the bracket and while |q|
    decreases.  Returns the best sample as (s, gap), the grid point included.
    """
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    samples = {xs[i]: diffs[i]}

    def sq(s: float) -> float:
        samples[s] = np.diff(_lowest_pair(spec, s))[0]
        return abs(samples[s] ** 2) ** 2

    if lo < hi:
        brent(sq, lo, hi, xs[i], abs(diffs[i] ** 2) ** 2)
        for _ in range(3):
            (s1, d1), (s2, d2) = sorted(samples.items(), key=lambda t: abs(t[1]))[:2]
            q1 = d1**2
            slope = (q1 - d2**2) / (s1 - s2)
            if slope == 0:
                break
            u = s1 - (q1 / slope).real
            if not lo <= u <= hi or u in samples:
                break
            sq(u)
            if abs(samples[u]) >= abs(d1):
                break
    s_best, d_best = min(samples.items(), key=lambda t: abs(t[1]))
    return float(s_best), float(abs(d_best))


def _gap_minima(spec: AnnealSpec, ss: list[float], diffs: list[complex]) -> list[tuple[float, float]]:
    """Every grid-local minimum of |diffs| polished by :func:`_polish_discriminant`, lowest gap first."""
    minima = local_minima_indices([float(abs(d)) for d in diffs])
    return sorted((_polish_discriminant(spec, ss, diffs, i) for i in minima), key=lambda c: c[1])


def detect_exceptional_point(trace: GapTrace) -> ExceptionalPoint | None:
    """Search a gap trace for an s where the gap closes and the lowest eigenvectors coalesce.

    Both signatures are required: a tiny gap with orthogonal eigenvectors is
    an ordinary (diabolic) near-crossing and returns ``None``.  The candidates
    are the trace's polished gap minima, tested in ascending order of their
    gap, with no new scan or polish.
    """
    if not trace.minima:
        raise ValueError("trace carries no polished gap minima")
    spec = trace.spec
    gap_tol = EP_GAP_FACTOR * (spec.problem.maxnorm() + spec.driver.maxnorm())
    for s_min, gap_min in trace.minima:
        if gap_min >= gap_tol:
            break
        overlap = _ground_pair_overlap(spec, s_min)
        if overlap > EP_OVERLAP_THRESHOLD:
            return ExceptionalPoint(float(s_min), float(gap_min), overlap)
    return None
