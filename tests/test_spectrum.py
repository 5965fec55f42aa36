"""Gap traces, crossover refinement and exceptional-point detection."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nhaqo._minimize
from _reference import dense_spec
import nhaqo.spectrum
from nhaqo._minimize import brent, local_minima_indices, uniform_grid
from nhaqo.cli import build_config, fmt, run_gap_trace
from nhaqo.errors import ConvergenceFailure, MultipleMinimaWarning
from nhaqo.linalg import eig_nonhermitian, maxnorm, sorted_eigenvalues
from nhaqo.model import (
    PAULI_X,
    PAULI_Z,
    ising_anneal_spec,
    linear_schedule,
    make_anneal_spec,
    total_hamiltonian,
    two_level_spec,
)
from nhaqo.spectrum import (
    EP_GAP_FACTOR,
    _gap_minima,
    _lowest_pair,
    _polish_discriminant,
    detect_exceptional_point,
    find_crossover,
    gap_at,
    instantaneous_spectrum,
    trace_gap,
)

SMALL_ALPHA = float(np.arcsin(1e-3))
EP_ALPHA = float(np.arccos(0.8))
#: decay strength of two_level_spec(1.0, d0, EP_ALPHA) that passes through the EP at s = 5/9
EP_D0 = 0.75
#: the same decay shifted by 1e-3*J at the touch point, which removes the EP
EP_D0_SHIFTED = 0.75 + 1e-3 * (5.0 / 9.0) / (4.0 / 9.0)


def test_snapshot_diagonal_endpoint():
    h0 = np.diag([-1.0, 0.0, 1.0, 2.0])
    spec = make_anneal_spec(h0, -np.kron(PAULI_X, np.eye(2)) - np.kron(np.eye(2), PAULI_X),
                            linear_schedule(0.0), 1.0, 2)
    snap = instantaneous_spectrum(spec, 1.0)
    vals = sorted_eigenvalues(total_hamiltonian(spec, 1.0))
    assert np.allclose(vals, [-1.0, 0.0, 1.0, 2.0], atol=1e-12)
    assert np.array_equal(snap.pair, vals[:2])
    assert snap.gap == pytest.approx(1.0)
    assert not eig_nonhermitian(total_hamiltonian(spec, 1.0)).defect_flags[:2].any()


def test_snapshot_exact_crossing_aligned_driver():
    # anti-aligned driver (alpha = 0) crosses exactly at the midpoint
    spec = two_level_spec(1.0, 0.0, alpha=0.0)
    snap = instantaneous_spectrum(spec, 0.5)
    assert snap.gap == pytest.approx(0.0, abs=1e-12)


def test_snapshot_matches_dense_oracle():
    spec = ising_anneal_spec(3, seed=7, delta0=0.0)
    s = 0.5
    snap = instantaneous_spectrum(spec, s)
    # independent assembly and dense diagonalization
    h = spec.schedule.f0(s) * spec.h0 + spec.schedule.f1(s) * spec.h1
    ref = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(np.sort(sorted_eigenvalues(total_hamiltonian(spec, s)).real), ref, atol=1e-10)
    assert np.allclose(snap.pair.real, ref[:2], atol=1e-10)
    assert snap.gap == pytest.approx(ref[1] - ref[0], abs=1e-10)


def test_hermitian_trace_has_real_eigenvalues():
    spec = ising_anneal_spec(2, seed=5, delta0=0.0)
    trace = trace_gap(spec, 101)
    scale = maxnorm(spec.h0) + maxnorm(spec.h1)
    for snap in trace.snapshots:
        assert np.max(np.abs(snap.pair.imag)) <= 1e-10 * scale


def test_trace_min_gap_matches_closed_form():
    # reduced-model ramp: minimum gap 2*J*d0/sqrt(d0^2+4J^2)
    for d0, expect in [(0.25, 0.2480694691784169), (0.5, 0.4850712500726659), (1.0, 0.8944271909999159)]:
        spec = two_level_spec(1.0, d0, SMALL_ALPHA)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleMinimaWarning)
            trace = trace_gap(spec, 1001)
        assert trace.g_m == pytest.approx(expect, abs=1e-4)


def test_trace_min_gap_hermitian_symmetric():
    spec = two_level_spec(1.0, 0.0, SMALL_ALPHA)
    trace = trace_gap(spec, 1001)
    # symmetric ramp crosses at s = 1/2 with gap 2*J_c*sin(alpha), J_c = 1/2
    assert trace.s_c == pytest.approx(0.5, abs=1e-8)
    assert abs(trace.g_m - 1e-3) <= 1e-6


def test_crossover_location_with_decay():
    spec = two_level_spec(1.0, 1.0, SMALL_ALPHA)
    trace = trace_gap(spec, 1001)
    # minimizer of (1-2s)^2 + d0^2 (1-s)^2 sits at (2+d0^2)/(4+d0^2)
    assert trace.s_c == pytest.approx(0.6, abs=1e-6)


def test_crossover_boundary_minimum_no_warning():
    # coupling dominates everywhere: the gap shrinks monotonically toward s=1
    h0 = PAULI_Z
    h1 = PAULI_X + 2.0 * PAULI_Z
    spec = make_anneal_spec(h0, h1, linear_schedule(0.0), 1.0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", MultipleMinimaWarning)
        trace = trace_gap(spec, 101)
    assert trace.s_c == pytest.approx(1.0, abs=1e-6)
    assert trace.g_m == pytest.approx(2.0, abs=1e-9)


def test_crossover_warns_on_tied_minima():
    # constant coupling against an oscillating drive: two equal-depth dips,
    # symmetric about s = 1/2
    from nhaqo.model import Schedule

    alpha = 0.1
    h0 = PAULI_Z
    h1 = np.sin(alpha) * PAULI_X - np.cos(alpha) * PAULI_Z
    sched = Schedule(
        f0=lambda s: 0.5,
        f1=lambda s: 0.5 + 0.4 * np.cos(2 * np.pi * s),
        f2=lambda s: 0.0,
    )
    spec = dense_spec(h0, h1, sched, 1.0, 1)
    with pytest.warns(MultipleMinimaWarning):
        trace_gap(spec, 201)


def test_rotation_schedule_has_constant_gap():
    # pure rotation f0 = sin(ws), f1 = cos(ws) of Z against X: the gap is 2
    # everywhere along s
    from nhaqo.model import Schedule

    omega = 0.7
    sched = Schedule(
        f0=lambda s: float(np.sin(omega * s)),
        f1=lambda s: float(np.cos(omega * s)),
        f2=lambda s: 0.0,
    )
    spec = dense_spec(PAULI_Z, PAULI_X, sched, 1.0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultipleMinimaWarning)  # constant gap: every point ties
        trace = trace_gap(spec, 201)
    assert len(trace.snapshots) == 201
    assert trace.g_m == pytest.approx(2.0, abs=1e-9)


def test_find_crossover_requires_three_snapshots():
    spec = two_level_spec(1.0, 0.0, 0.3)
    trace = trace_gap(spec, 11)
    trace.snapshots = trace.snapshots[:2]
    with pytest.raises(ValueError):
        find_crossover(trace)


def test_crossover_and_ep_search_reject_a_trace_without_minima():
    trace = trace_gap(two_level_spec(1.0, 0.0, 0.3), 11)
    trace.minima = []
    with pytest.raises(ValueError, match="polished gap minima"):
        find_crossover(trace)
    with pytest.raises(ValueError, match="no polished gap minima"):
        detect_exceptional_point(trace.spec, trace=trace)


def test_eigenvalue_continuity_refinement_inserts_points():
    # Hermitian eigenvalue speeds stay inside the bound: no refinement
    spec = two_level_spec(1.0, 0.0, float(np.arcsin(1e-5)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultipleMinimaWarning)
        refined = trace_gap(spec, 101)
    assert len(refined.snapshots) == 101
    # complex spectra jump in the (Re, Im) sort order when real parts cross:
    # the bound is violated locally and midpoints are inserted
    spec_nh = ising_anneal_spec(4, seed=130, delta0=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultipleMinimaWarning)
        dense = trace_gap(spec_nh, 101)
    assert set(uniform_grid(101)) <= {sn.s for sn in dense.snapshots}
    assert len(dense.snapshots) > 101
    assert [sn.s for sn in dense.snapshots] == sorted(sn.s for sn in dense.snapshots)


def test_refinement_ignores_sort_order_jumps_above_the_lowest_pair():
    # diagonal spec: the lowest pair (real parts -3, -2) moves smoothly while
    # the upper levels 3 - 2s - 3i(1-s) and 2s cross in real part at s = 3/4,
    # where the (Re, Im) order of levels 2 and 3 jumps by 0.75
    h0 = np.diag([-3.0, -2.0, 1.0, 2.0]).astype(complex)
    h1 = np.diag([-3.0, -2.0, 3.0, 0.0]).astype(complex)
    spec = dense_spec(h0, h1, linear_schedule(1.0), 1.0, 2)
    grid = [float(s) for s in uniform_grid(101)]
    coarse = [sorted_eigenvalues(total_hamiltonian(spec, s)) for s in grid]
    # Lipschitz bound |h0| + |h1| (1 + delta0) times the grid step
    bound_step = (3.0 + 3.0 * (1.0 + 1.0)) / 100
    jumps = [float(np.max(np.abs(b[2:] - a[2:]))) for a, b in zip(coarse[:-1], coarse[1:])]
    assert max(jumps) > 5 * bound_step
    refined = trace_gap(spec, 101)
    assert [sn.s for sn in refined.snapshots] == grid


def test_trace_gap_computes_no_eigenvectors(monkeypatch):
    calls = []
    eig = np.linalg.eig

    def counted(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultipleMinimaWarning)
        trace = trace_gap(ising_anneal_spec(4, seed=130, delta0=0.5), 101)
    assert len(trace.snapshots) > 101
    assert calls == []


def test_gap_trace_scans_each_grid_point_once(monkeypatch, call_log, tmp_path):
    # every H(s) outside the discriminant polish of the gap minima belongs
    # to one trace sample: the uniform grid once plus the refined points,
    # with no second scan.
    # At n=5 the grid's second half outlasts a fork round trip, so with BLAS
    # pinned to one thread a forked child builds those H(s): CallLogs count them
    polishing = [False]
    scanned, polished = call_log(), call_log()
    build = nhaqo.spectrum.total_hamiltonian

    def counted_build(spec, s):
        (polished if polishing[0] else scanned).append(s)
        return build(spec, s)

    def flagged(polisher):
        def run(*args, **kwargs):
            polishing[0] = True
            try:
                return polisher(*args, **kwargs)
            finally:
                polishing[0] = False

        return run

    monkeypatch.setattr(nhaqo.spectrum, "total_hamiltonian", counted_build)
    monkeypatch.setattr(nhaqo.spectrum, "_polish_discriminant", flagged(nhaqo.spectrum._polish_discriminant))
    cfg = build_config(
        "gap-trace",
        overrides=["model=ising", "n_qubits=5", "seed=130", "delta0=0.5", "grid_points=101"],
        out=str(tmp_path / "trace.csv"),
    )
    with open(run_gap_trace(cfg), encoding="utf-8") as fh:
        rows = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    sampled = [float(r.split(",")[0]) for r in rows[1:]]
    assert len(sampled) > 101
    assert sorted(scanned) == sampled
    assert set(np.arange(101) / 100) <= set(scanned)
    assert polished


def _gap_trace_footers(tmp_path, *overrides: str) -> dict[str, str]:
    cfg = build_config("gap-trace", overrides=list(overrides), out=str(tmp_path / "trace.csv"))
    with open(run_gap_trace(cfg), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return {ln[2:].split("=", 1)[0].split(" ", 1)[0]: ln for ln in lines if ln.startswith("# ")}


def test_every_eigenvalue_comes_through_the_lowest_pair_and_snapshots_keep_only_it(monkeypatch, call_log):
    # the gap trace's scan and refinement, its polish and the EP scan take
    # eigenvalues only from _lowest_pair, and each snapshot keeps the pair
    # alone, pinning no 2^n buffer.  CallLogs count a forked scan child's
    # eigensolves too
    spec = ising_anneal_spec(6, seed=1, delta0=0.5)
    through, outside = call_log(), call_log()
    inside = []
    lowest_pair, eigvals = nhaqo.spectrum._lowest_pair, np.linalg.eigvals

    def seam(spec, s):
        inside.append(s)
        try:
            return lowest_pair(spec, s)
        finally:
            inside.pop()

    monkeypatch.setattr(nhaqo.spectrum, "_lowest_pair", seam)
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: (through if inside else outside).append() or eigvals(a))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultipleMinimaWarning)
        trace = trace_gap(spec, 201)
    assert detect_exceptional_point(spec, 201, trace=trace) is None
    assert detect_exceptional_point(spec, 201) is None
    monkeypatch.undo()
    assert len(outside) == 0
    # 205 trace samples and 201 EP-scan samples, each polish on top
    assert len(through) > 205 + 201
    for sn in trace.snapshots:
        assert sn.pair.shape == (2,)
        assert sn.pair.base is None or sn.pair.base.shape[-1] == 2
        assert sn.pair.tobytes() == sorted_eigenvalues(total_hamiltonian(spec, sn.s))[:2].tobytes()


def test_gap_trace_polishes_each_minimum_once_on_the_discriminant(monkeypatch, call_log, tmp_path):
    # the crossover and the EP search share one polish per grid-local minimum:
    # no gap-based Brent pass, and the EP search reuses the trace's minima.
    # CallLogs count the eigensolves of a forked scan child too
    spec = ising_anneal_spec(6, seed=1, delta0=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultipleMinimaWarning)
        trace = trace_gap(spec, 201)
    eigensolves, polished, gap_polish = call_log(), call_log(), call_log()
    for name in ("eigvals", "eig"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, _solver=solver: eigensolves.append() or _solver(a))
    for module, name in ((nhaqo.spectrum, "gap_at"), (nhaqo._minimize, "polished_minima")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _fn=fn: gap_polish.append() or _fn(*a))
    polish = nhaqo.spectrum._polish_discriminant
    monkeypatch.setattr(nhaqo.spectrum, "_polish_discriminant", lambda *a: polished.append(a[3]) or polish(*a))
    footers = _gap_trace_footers(tmp_path, "model=ising", "n_qubits=6", "seed=1", "delta0=0.5", "grid_points=201")
    assert "polished_minima" not in vars(nhaqo.spectrum)
    assert len(gap_polish) == 0
    assert list(polished) == local_minima_indices([sn.gap for sn in trace.snapshots])
    # 201 grid points plus 4 refined, then one polish pass of 31 over the two
    # minima; a second, gap-based pass over the same minima would add 30
    assert len(trace.snapshots) == 205
    assert len(eigensolves) == 205 + 31
    assert "ep" not in footers
    assert footers["s_c"] == f"# s_c={fmt(trace.s_c)}"
    assert footers["g_m"] == f"# g_m={fmt(trace.g_m)}"


def test_gap_trace_crossover_is_the_exceptional_point(tmp_path):
    # criterion 7's coalescence: the gap closes like sqrt|s - 5/9|, and the
    # crossover polish reaches it as the EP search does (a gap-based Brent
    # polish stopped at g_m = 1.39e-4)
    footers = _gap_trace_footers(
        tmp_path, "model=two-level", "j_star=1", f"delta0={EP_D0!r}", f"alpha={EP_ALPHA!r}", "grid_points=1001"
    )
    ep = dict(kv.split("=") for kv in footers["ep"].split()[2:])
    s_c = footers["s_c"].split("=")[1]
    g_m = float(footers["g_m"].split("=")[1])
    assert s_c == ep["s"]
    assert g_m == pytest.approx(float(ep["gap"]), abs=1e-12)
    assert g_m < 1e-7


def test_eigensolver_failure_is_a_convergence_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    spec = ising_anneal_spec(2, seed=1, delta0=0.3)
    with pytest.raises(ConvergenceFailure, match="dim=4, maxnorm="):
        gap_at(spec, 0.5)
    with pytest.raises(ConvergenceFailure, match=r"dim=4, maxnorm=.*\(at s=0\.5\)"):
        instantaneous_spectrum(spec, 0.5)


def test_ep_detected_at_constructed_coalescence():
    # drive and decay tuned to meet the coalescence conditions at s = 5/9
    spec = two_level_spec(1.0, EP_D0, EP_ALPHA)
    ep = detect_exceptional_point(spec, 1001)
    assert ep is not None
    assert ep.s == pytest.approx(5.0 / 9.0, abs=1e-6)
    # the gap closes like sqrt|s - 5/9|: golden section to xtol 1e-14 stopped at 2.9e-8
    assert ep.gap < 1e-7
    assert ep.overlap > 0.99


def test_ep_removed_by_decay_perturbation():
    assert detect_exceptional_point(two_level_spec(1.0, EP_D0_SHIFTED, EP_ALPHA), 1001) is None


def test_ep_not_reported_when_decay_dominates():
    # orthogonal driver axis: the coalescence conditions have no solution
    spec = two_level_spec(1.0, 1.0, np.pi / 2)
    assert detect_exceptional_point(spec, 501) is None
    # tilted driver but decay held above the critical strength throughout
    spec2 = two_level_spec(1.0, 1.5, float(np.arccos(0.8)))
    assert detect_exceptional_point(spec2, 501) is None


def test_hermitian_avoided_crossing_is_not_an_ep():
    spec = two_level_spec(1.0, 0.0, float(np.arcsin(1e-8)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultipleMinimaWarning)
        assert detect_exceptional_point(spec, 1001) is None
    # eigenvectors stay orthogonal at the near-crossing
    from nhaqo.spectrum import _ground_pair_overlap

    assert _ground_pair_overlap(spec, 0.5) < 0.01


def test_gap_at_matches_snapshot():
    spec = ising_anneal_spec(2, seed=1, delta0=0.3)
    for s in (0.1, 0.55, 0.9):
        assert gap_at(spec, s) == pytest.approx(instantaneous_spectrum(spec, s).gap, abs=1e-12)


def test_brent_finds_smooth_kinked_and_boundary_minima():
    calls = []

    def counted(f):
        def g(x):
            calls.append(x)
            return f(x)

        return g

    x, fx = brent(counted(lambda x: (x - 0.3) ** 4 + (x - 0.3) ** 2 + 1.0), 0.2, 0.4, 0.31, 1.0001 + 1e-8)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert fx == pytest.approx(1.0, abs=1e-14)
    assert len(calls) < 20
    # a kink, and a minimum on the bracket's end: the best point is returned
    assert brent(lambda x: abs(x - 0.7), 0.6, 0.8, 0.6, 0.1)[0] == pytest.approx(0.7, abs=1e-7)
    x, fx = brent(lambda x: x, 0.0, 0.01, 0.005, 0.005)
    assert 0.0 <= x < 1e-7 and fx == x
    assert all(0.2 <= c <= 0.4 for c in calls)


def test_ep_search_polishes_each_minimum_in_at_most_25_eigensolves(monkeypatch, call_log):
    spec = ising_anneal_spec(6, seed=1, delta0=0.5)
    minima = local_minima_indices([gap_at(spec, float(s)) for s in uniform_grid(201)])
    calls = call_log()
    for name in ("eigvals", "eig"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, _solver=solver: calls.append(a.shape[0]) or _solver(a))
    detect_exceptional_point(spec, 201)
    # golden section spent 63 eigensolves on every minimum
    assert len(calls) <= 201 + 25 * len(minima)


def test_crossover_polish_takes_at_most_32_gap_evaluations(monkeypatch):
    spec = ising_anneal_spec(6, seed=1, delta0=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultipleMinimaWarning)
        trace = trace_gap(spec, 201)
    ss = [sn.s for sn in trace.snapshots]
    diffs = [sn.pair[1] - sn.pair[0] for sn in trace.snapshots]
    calls = []
    monkeypatch.setattr(nhaqo.spectrum, "_lowest_pair", lambda spec, s, _f=_lowest_pair: calls.append(s) or _f(spec, s))
    # the trace's polish, repeated on its samples: each evaluation is one eigensolve
    assert _gap_minima(spec, ss, diffs) == trace.minima
    assert find_crossover(trace) == (trace.s_c, trace.g_m) == trace.minima[0]
    # 31 over this trace's two minima; golden section to xtol 1e-8 spent 63
    assert len(calls) <= 32


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_reference(f, xs, values, i: int) -> tuple[float, float]:
    """Grid minimum ``i`` of f polished by golden section to 1e-14 over its bracket, as (s, f(s)).

    Golden section converges like bisection, so it reaches a sqrt|s - s0|
    cusp or a jump of f to 1e-14, where Brent's method on f stops about
    sqrt(eps) * |s| short of it.  Returns the best point evaluated, the grid
    point included.
    """
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    best = min((values[i], xs[i]), (fc, c), (fd, d))
    while b - a > 1e-14:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            best = min(best, (fc, c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            best = min(best, (fd, d))
    return best[1], best[0]


def _discriminant_jumps(spec, s: float, scale: float) -> bool:
    """True where (E_1 - E_0)^2 is discontinuous: the (Re, Im) order swaps level 1 with level 2."""
    q_left, q_right = (np.diff(_lowest_pair(spec, s + h))[0] ** 2 for h in (-1e-12, 1e-12))
    return abs(q_left - q_right) > 1e-6 * scale**2


@settings(deadline=None, max_examples=25)
@given(
    spec=st.builds(two_level_spec, st.just(1.0), st.floats(0.0, 1.5), st.floats(0.05, float(np.pi / 2))),
    grid=st.just(1001),
)
@example(spec=two_level_spec(1.0, EP_D0, EP_ALPHA), grid=1001)
@example(spec=two_level_spec(1.0, EP_D0_SHIFTED, EP_ALPHA), grid=1001)
@example(spec=two_level_spec(1.0, 0.0, float(np.arcsin(1e-8))), grid=1001)
@example(spec=ising_anneal_spec(6, seed=1, delta0=0.5), grid=201)
@example(spec=ising_anneal_spec(6, seed=9973, delta0=0.5), grid=201)
def test_discriminant_polish_agrees_with_golden_section(spec, grid):
    ss = [float(s) for s in uniform_grid(grid)]
    diffs = [np.diff(_lowest_pair(spec, s))[0] for s in ss]
    gaps = [float(abs(d)) for d in diffs]
    scale = maxnorm(spec.h0) + maxnorm(spec.h1)
    gap_tol = EP_GAP_FACTOR * scale
    for i in local_minima_indices(gaps):
        s_new, g_new = _polish_discriminant(spec, ss, diffs, i)
        s_ref, g_ref = _golden_reference(lambda s: gap_at(spec, s), ss, gaps, i)
        assert (g_new < gap_tol) == (g_ref < gap_tol)
        if _discriminant_jumps(spec, s_ref, scale):
            # the gap jumps at s_ref: Brent brackets the jump to its tolerance
            assert abs(s_new - s_ref) <= 1e-7
        else:
            assert g_new <= g_ref + 1e-12 * scale
