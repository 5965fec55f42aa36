"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import dataclasses
import time
import warnings

import numpy as np
import scipy.linalg
from scipy.optimize import minimize_scalar

from _reference import biorthonormal_eigensystem, dense_spec
from conftest import corpus_data
from nhaqo.adiabatic import min_time_linear_ramp
from nhaqo.cli import main
from nhaqo.errors import MultipleMinimaWarning
from nhaqo.evolve import evolve, initial_ground_state
from nhaqo.model import (
    Schedule,
    ising_anneal_spec,
    linear_schedule,
    total_hamiltonian,
    two_level_spec,
)
from nhaqo.reduction import TwoLevelParams, gap_two_level, nonhermitian_min_gap, two_level_gap
from nhaqo.spectrum import detect_exceptional_point, gap_at, trace_gap

# Dynamics corpus for the non-Hermitian-advantage criterion: n=4 instances in
# the sharp-crossing regime the renormalization story addresses, found by a
# deterministic scan (dominance of the decayed minimum gap, crossover before
# the decay weight has died out, affordable 10/g_m^2 horizons).
#
# Known-red: the success-probability clause conflicts with the dominance
# clause at this horizon.  Dominance needs the decay at the crossover to
# exceed the local coalescence scale (delta_c >~ g_m), which makes the
# decay-selection exponent over the crossing ~10*(delta_c/g_m)^2 >= 10;
# selection then routes the state onto the driver-rich branch, which ends as
# the first excited state, so the decayed run's ground fidelity collapses
# while the decay-free run at tau*g_m^2 = 10 stays adiabatic.  Measured on
# the two-level linear model and on every dominance instance found in seeds
# 0..6000.  The criterion is asserted as stated and reports the honest FAIL.
DYNAMICS_CORPUS_N4 = (130, 331, 464, 236, 589)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def report(num, name, ok, detail=""):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_fig1_reproduction(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "fig1.csv"
    code = main(["fig1", "--set", "delta0_list=0,0.25,0.5,1", "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert code == 0

    minima = {}
    with open(out, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# minimum"):
                parts = dict(p.split("=") for p in line[2:].split() if "=" in p)
                minima[float(parts["delta0"])] = (float(parts["s"]), float(parts["gap_over_jstar"]))

    sin_a = 2.0 ** (-20 / 2)  # default angle: n_qubits = 20
    alpha = float(np.arcsin(sin_a))
    params = TwoLevelParams.from_alpha(alpha)
    ok = len(minima) == 4 and elapsed < 1.0
    details = [f"runtime={elapsed:.3f}s"]
    for d0 in (0.0, 0.25, 0.5, 1.0):
        s_min, g_min = minima[d0]
        # independent oracle: scipy's bounded minimization of the gap formula
        sched = linear_schedule(d0)
        g_ref = minimize_scalar(
            lambda s: two_level_gap(params, sched, s), bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-13}
        ).fun
        ok = ok and abs(g_min - g_ref) <= 1e-6 + 1e-6 * g_ref
        if d0 == 0.0:
            ok = ok and g_min <= 2.0 * sin_a and abs(s_min - 0.5) <= 1e-6
        else:
            closed = nonhermitian_min_gap(1.0, d0)
            s_star = (2.0 + d0**2) / (4.0 + d0**2)
            ok = ok and abs(g_min - closed) <= 1e-4 * closed
            ok = ok and abs(s_min - s_star) <= 1e-6
            details.append(f"d0={d0}: gap={g_min:.6f} vs {closed:.6f}, |ds|={abs(s_min - s_star):.2e}")
    report(1, "fig1 gap-curve minima", ok, "; ".join(details[:2]))


def test_criterion_02_crossover_formulas():
    from nhaqo.reduction import hermitian_crossover

    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_g, worst_gap = 0.0, 0.0
    for _ in range(200):
        alpha = rng.uniform(0.25, np.pi - 0.25)
        params = TwoLevelParams.from_alpha(alpha)
        gdot = -rng.uniform(0.3, 2.0)
        jdot = rng.uniform(0.3, 2.0)
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)

        def gap_of(sigma):
            return gap_two_level(params, b + jdot * sigma, a + gdot * sigma, 0.0)

        # grid scan plus scipy's bounded minimization (the independent oracle);
        # widen the scan until the minimum is interior
        span = 4.0
        while True:
            sigmas = np.linspace(-span, span, 401)
            i = int(np.argmin([gap_of(x) for x in sigmas]))
            if 0 < i < 400:
                break
            span *= 4.0
        res = minimize_scalar(
            gap_of, bounds=(sigmas[i - 1], sigmas[i + 1]), method="bounded", options={"xatol": 1e-13}
        )
        sig, gap_num = res.x, res.fun
        # parabolic vertex polish: the squared gap is an exact quadratic, so a
        # three-point fit recovers the minimizer beyond the gap's flat basin
        h = 1e-4
        f_m, f_0, f_p = (gap_of(sig - h) ** 2, gap_of(sig) ** 2, gap_of(sig + h) ** 2)
        curv = f_p - 2.0 * f_0 + f_m
        if curv > 0:
            sig = sig - h * (f_p - f_m) / (2.0 * curv)
            gap_num = gap_of(sig)
        j_c = b + jdot * sig
        g_c, gap_min = hermitian_crossover(params, gdot, jdot, j_c)
        worst_g = max(worst_g, abs(g_c - (a + gdot * sig)) / max(abs(g_c), 1e-12))
        worst_gap = max(worst_gap, abs(gap_min - gap_num) / max(gap_min, 1e-12))
    elapsed = time.perf_counter() - started
    ok = worst_g <= 1e-6 and worst_gap <= 1e-6 and elapsed < 5.0
    report(2, "crossover closed forms vs minimization", ok,
           f"worst rel: g_c {worst_g:.2e}, gap {worst_gap:.2e}, runtime={elapsed:.2f}s")


def test_criterion_03_effective_model_fidelity():
    started = time.perf_counter()
    worst = 0.0
    worst_tag = ""
    for inst in corpus_data():
        for s in inst.window():
            full = gap_at(inst.spec, float(s))
            reduced = two_level_gap(inst.params, inst.spec.schedule, float(s))
            rel = abs(reduced - full) / full
            if rel > worst:
                worst, worst_tag = rel, f"n={inst.n} seed={inst.seed} s={s:.3f}"
    elapsed = time.perf_counter() - started
    ok = worst <= 0.05 and elapsed < 120.0
    report(3, "two-level gap within 5% near crossover", ok,
           f"worst={worst * 100:.2f}% at {worst_tag}, runtime={elapsed:.1f}s")


def test_criterion_04_sin_alpha_relation():
    small = [inst for inst in corpus_data() if inst.g_m < 0.1 * abs(inst.j_c)]
    ok = len(small) >= 1
    details = [f"{len(small)} small-gap instances"]
    for inst in small:
        estimate = inst.g_m / (2.0 * abs(inst.j_c))
        rel = abs(inst.params.sin_alpha - estimate) / estimate
        details.append(f"n={inst.n} seed={inst.seed} rel={rel:.3f}")
        ok = ok and rel <= 0.2
    report(4, "sin(alpha) matches g_m/(2 J_c) on sharp crossings", ok, "; ".join(details))


def test_criterion_05_integrator_correctness():
    frozen = Schedule(f0=lambda s: 1.0, f1=lambda s: 0.0, f2=lambda s: 1.0)
    rng = np.random.default_rng(505)
    worst = 0.0
    for k in range(100):
        dim = (2, 4, 8, 16)[k % 4]
        m = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(dim)
        spec = dense_spec(
            0.5 * (m + m.conj().T), 0.5j * (m - m.conj().T), frozen, 2.0, int(np.log2(dim))
        )
        v0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v0 /= np.linalg.norm(v0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = evolve(spec, v0)
        worst = max(worst, float(np.max(np.abs(res.final_state - scipy.linalg.expm(-2.0j * m) @ v0))))

    spec_h = ising_anneal_spec(3, seed=7, delta0=0.0, tau=50.0)
    res_h = evolve(spec_h, initial_ground_state(spec_h))
    norm_dev = max(abs(nrm - 1.0) for _, nrm in res_h.norm_history)

    spec_nh = ising_anneal_spec(2, seed=3, delta0=0.5, tau=5.0)
    es0 = biorthonormal_eigensystem(total_hamiltonian(spec_nh, 0.0))
    psi0 = es0.right_vectors[:, 0]
    left_row = es0.left_vectors[0]
    chi0 = left_row.conj()
    scale = float(np.linalg.norm(chi0))
    fwd = evolve(spec_nh, psi0)
    adj = evolve(spec_nh, chi0 / scale, adjoint=True)
    drift = abs(np.vdot(adj.final_state * scale, fwd.final_state) - left_row @ psi0)

    ok = worst < 1e-8 and norm_dev <= 1e-8 and drift < 1e-7
    report(5, "integrator vs exponential oracle + conservation laws", ok,
           f"oracle dev={worst:.2e}, norm dev={norm_dev:.2e}, pairing drift={drift:.2e}")


def test_criterion_06_gap_formula_vs_eigensolver():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        alpha = rng.uniform(0.0, np.pi)
        j, g, d = rng.uniform(0.0, 2.0, size=3)
        params = TwoLevelParams.from_alpha(alpha)
        gt = g - 1j * d
        m = (j - gt * np.cos(alpha)) * np.array([[1, 0], [0, -1]]) + gt * np.sin(alpha) * PAULI_X
        vals = np.linalg.eigvals(m)
        worst = max(worst, abs(gap_two_level(params, j, g, d) - abs(vals[1] - vals[0])))
    ok = worst < 1e-10
    report(6, "closed-form gap vs 2x2 eigensolver", ok, f"max abs dev={worst:.2e}")


def test_criterion_07_exceptional_point_detection():
    alpha = float(np.arccos(0.8))
    spec = two_level_spec(1.0, 0.75, alpha)  # passes through (g, d) = (J cos a, J sin a)
    ep = detect_exceptional_point(trace_gap(spec, 1001))
    found = ep is not None and ep.gap < 2e-6 and ep.overlap > 0.99
    d0_shifted = 0.75 + 1e-3 * (5.0 / 9.0) / (4.0 / 9.0)  # delta + 1e-3*J at the touch point
    removed = detect_exceptional_point(trace_gap(two_level_spec(1.0, d0_shifted, alpha), 1001)) is None
    ok = found and removed
    detail = f"gap={ep.gap:.2e}, overlap={ep.overlap:.6f}, s={ep.s:.6f}" if ep else "not found"
    report(7, "exceptional point flagged and unflagged", ok, detail)


def test_criterion_08_runtime_bound_arithmetic():
    tau0 = min_time_linear_ramp(10, 1.0, 1.0)
    value_ok = abs(tau0 - 0.0618) <= 1e-3
    ds = np.logspace(-3, -1, 13)
    slope = np.polyfit(np.log(ds), np.log([min_time_linear_ramp(10, 1.0, d) for d in ds]), 1)[0]
    slope_ok = -3.2 <= slope <= -2.8
    ok = value_ok and slope_ok
    report(8, "runtime threshold value and decay-strength scaling", ok,
           f"tau0={tau0:.6f}, log-log slope={slope:.3f}")


def anneal_success(spec, tau, decaying):
    """Success probability of one ``evolve`` call (tol 1e-8) over the whole anneal at ``tau``.

    The decaying runs' norms fall hundreds of orders of magnitude (seed 331's
    to ~1e-426); ``evolve`` carries the norm as a logarithm beside a unit
    state, so one call covers the horizon and the probability is that of the
    unit state.
    """
    spec = dataclasses.replace(spec, tau=tau)
    return evolve(spec, initial_ground_state(spec), tol=1e-8, samples=2, decaying_driver=decaying).success_probability


def test_criterion_09_nonhermitian_advantage():
    started = time.perf_counter()
    dominated = []
    wins = []
    rows = []
    for seed in DYNAMICS_CORPUS_N4:
        spec_h = ising_anneal_spec(4, seed=seed, delta0=0.0)
        spec_nh = ising_anneal_spec(4, seed=seed, delta0=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleMinimaWarning)
            tr_h = trace_gap(spec_h, 1001)
            tr_nh = trace_gap(spec_nh, 1001)
        dominated.append(tr_nh.g_m > tr_h.g_m)
        tau = 10.0 / tr_h.g_m**2
        p_h = anneal_success(spec_h, tau, decaying=False)
        p_nh = anneal_success(spec_nh, tau, decaying=True)
        wins.append(p_nh >= p_h)
        rows.append(f"seed {seed}: g_m {tr_h.g_m:.4f}->{tr_nh.g_m:.4f}, p {p_h:.4f}->{p_nh:.4f}")
    elapsed = time.perf_counter() - started
    ok = all(dominated) and sum(wins) >= 0.8 * len(wins) and elapsed < 300.0
    report(9, "decay renormalizes the gap and helps success", ok,
           f"dominated={sum(dominated)}/5, wins={sum(wins)}/5, runtime={elapsed:.0f}s; " + "; ".join(rows))


def test_decaying_seed_331_matches_reference():
    # Criterion 9's decaying run on seed 331, one evolve call over tau 8140;
    # its norm ends near 1e-426, below the float range.  Reference: 40
    # renormalized windows integrated by scipy's solve_ivp (DOP853, rtol 1e-12,
    # atol 1e-300, so that every component is held to a relative tolerance)
    # give 1.97552e-21, and 1.97552e-21 again at rtol 1e-10.
    reference = 1.97552e-21
    spec_h = ising_anneal_spec(4, seed=331, delta0=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultipleMinimaWarning)
        g_m = trace_gap(spec_h, 1001).g_m
    p_nh = anneal_success(ising_anneal_spec(4, seed=331, delta0=0.5), 10.0 / g_m**2, decaying=True)
    assert abs(p_nh - reference) <= 1e-3 * reference


def test_criterion_10_determinism(tmp_path):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / f"det_{tag}.csv"
        code = main(
            [
                "gap-trace",
                "--set", "model=ising",
                "--set", "n_qubits=3",
                "--set", "seed=11",
                "--set", "delta0=0.5",
                "--set", "grid_points=301",
                "--out", str(out),
            ]
        )
        assert code == 0
        runs.append(out.read_bytes())
    trace_same = runs[0] == runs[1]

    runs_fig = []
    for tag in ("a", "b"):
        out = tmp_path / f"fig_{tag}.csv"
        main(["fig1", "--set", "delta0_list=0,0.5", "--set", "grid_points=101", "--out", str(out)])
        runs_fig.append(out.read_bytes())
    fig_same = runs_fig[0] == runs_fig[1]
    ok = trace_same and fig_same
    report(10, "identical config and seed give byte-identical CSV", ok,
           f"gap-trace={trace_same}, fig1={fig_same}")
