"""Independent oracles for every benchmark operation.

Nothing here imports nhaqo: Hamiltonians are rebuilt from the instance's
fields and couplings with Kronecker products, spectra come from
``scipy.linalg``, minima from a separate golden-section search and the
dynamics reference from ``scipy.integrate.solve_ivp``.  Each check returns
one verdict per name in the operation's ``checks`` (one per tau or delta0
where the operation sweeps one): ``None`` when the output is within its
stated tolerance, else a one-line reason.  The checks run outside the timed
region.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.integrate
import scipy.linalg

#: g_m against the scipy gap at s_c, relative
GAP_RTOL = 1e-9
#: absolute slack, times the Hamiltonian's energy scale, on gap comparisons
GAP_ATOL = 1e-12
#: an exceptional point closes the gap below this times (|h0| + |h1|) ...
EP_GAP_FACTOR = 1e-6
#: ... and makes the two lowest right eigenvectors this parallel
EP_OVERLAP = 0.99
#: fig1 refined minima against the independently minimized 2x2 gap, relative
FIG1_RTOL = 1e-9
#: closed forms of tau-sweep, relative
CLOSED_FORM_RTOL = 1e-12
#: evolve success probability against the solve_ivp reference, absolute
EVOLVE_ATOL = 1e-6
#: evolve final norm against the solve_ivp reference, relative
NORM_RTOL = 1e-5
#: solve_ivp reference tolerances (relative; the absolute one is negligible)
REF_RTOL = 1e-11
REF_ATOL = 1e-300
#: tau_window's tau_min against its closed form from the returned parameters, relative
BUDGET_RTOL = 1e-6

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PHI = (math.sqrt(5.0) - 1.0) / 2.0


# -- shared helpers ---------------------------------------------------------------

def read_csv(path: str) -> tuple[list[str], list[list[str]], list[str]]:
    """Columns, data rows and '#' comment lines of an nhaqo CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    rows = list(csv.reader(body))
    return rows[0], rows[1:], comments


def _footer(comments: list[str], key: str) -> float:
    for line in comments:
        if line.startswith(f"# {key}="):
            return float(line.split("=", 1)[1])
    raise ValueError(f"missing footer {key}")


def _site(n: int, i: int, op: np.ndarray) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for k in range(n):
        out = np.kron(out, op if k == i else np.eye(2))
    return out


def ising_terms(inst: dict) -> tuple[np.ndarray, np.ndarray]:
    """Problem h0 = sum h_i Z_i + sum J_ij Z_i Z_j and driver h1 = -sum X_i, by Kronecker products."""
    n = inst["n"]
    z = [_site(n, i, _Z) for i in range(n)]
    h0 = sum(h * z[i] for i, h in enumerate(inst["fields"]))
    for i, j, jij in inst["couplings"]:
        h0 = h0 + jij * (z[i] @ z[j])
    h1 = -sum(_site(n, i, _X) for i in range(n))
    return h0, h1


def hamiltonian(h0, h1, s: float, delta0: float) -> np.ndarray:
    """s*h0 + (1-s)(1 - i*delta0)*h1: the linear ramp with decay weight delta0*(1-s)."""
    return s * h0 + (1.0 - s) * (1.0 - 1j * delta0) * h1


def _gap(h: np.ndarray) -> float:
    """|E1 - E0| of the two eigenvalues with the smallest real parts (imaginary parts break ties)."""
    vals = scipy.linalg.eigvals(h)
    vals = vals[np.lexsort((vals.imag, vals.real))]
    return float(abs(vals[1] - vals[0]))


def _golden(f, a: float, b: float, xtol: float) -> tuple[float, float]:
    """Best point seen by a golden-section search of f on [a, b]."""
    c, d = b - _PHI * (b - a), a + _PHI * (b - a)
    fc, fd = f(c), f(d)
    best = min((f(a), a), (f(b), b), (fc, c), (fd, d))
    while b - a > xtol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _PHI * (b - a)
            fc = f(c)
            best = min(best, (fc, c))
        else:
            a, c, fc = c, d, fd
            d = a + _PHI * (b - a)
            fd = f(d)
            best = min(best, (fd, d))
    return best[1], best[0]


def _grid_minima(f, grid: np.ndarray, xtol: float) -> list[tuple[float, float]]:
    """Every grid-local minimum of f polished by golden section, as (s, value)."""
    vals = [f(float(s)) for s in grid]
    out = []
    for i, v in enumerate(vals):
        left = vals[i - 1] if i > 0 else math.inf
        right = vals[i + 1] if i + 1 < len(vals) else math.inf
        if v <= left and v <= right:
            lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])
            s, g = _golden(f, lo, hi, xtol)
            out.append((s, g) if g < v else (float(grid[i]), v))
    return out


# -- per-operation checks --------------------------------------------------------------

def _all(op: dict, reason: str) -> dict[str, str]:
    """The same failing verdict for every check of an operation."""
    return {name: reason for name in op["checks"]}


def check_gap_trace(op: dict) -> dict[str, str | None]:
    """g_m equals the scipy gap at s_c, and no sampled gap lies below g_m."""
    return {"g_m": _gap_trace_verdict(op)}


def _gap_trace_verdict(op: dict) -> str | None:
    columns, rows, comments = read_csv(op["out"])
    h0, h1 = ising_terms(op["instance"])
    scale = float(np.max(np.abs(h0)) + np.max(np.abs(h1)))
    s_c, g_m = _footer(comments, "s_c"), _footer(comments, "g_m")
    ref = _gap(hamiltonian(h0, h1, s_c, op["check"]["delta0"]))
    if not abs(g_m - ref) <= GAP_RTOL * ref + GAP_ATOL * scale:
        return f"g_m={g_m!r} but scipy gap at s_c={s_c!r} is {ref!r}"
    gaps = [float(r[columns.index("gap")]) for r in rows]
    if min(gaps) < g_m - GAP_ATOL * scale:
        return f"a sampled gap {min(gaps)!r} lies below g_m={g_m!r}"
    return None


def check_ep_scan(op: dict) -> dict[str, str | None]:
    """Per delta0: a reported EP closes the gap with parallel eigenvectors; a miss is confirmed."""
    columns, rows, _ = read_csv(op["out"])
    h0, h1 = ising_terms(op["instance"])
    gap_tol = EP_GAP_FACTOR * float(np.max(np.abs(h0)) + np.max(np.abs(h1)))
    grid = np.arange(op["check"]["grid_points"]) / (op["check"]["grid_points"] - 1)
    if [float(r[0]) for r in rows] != op["check"]["delta0_list"]:
        return _all(op, "ep-scan rows do not match delta0_list")
    return {name: _ep_verdict(h0, h1, gap_tol, grid, row) for name, row in zip(op["checks"], rows)}


def _ep_verdict(h0, h1, gap_tol: float, grid: np.ndarray, row: list[str]) -> str | None:
    d0, detected = float(row[0]), row[1] == "true"
    if detected:
        s = float(row[2])
        vals, vecs = scipy.linalg.eig(hamiltonian(h0, h1, s, d0))
        order = np.lexsort((vals.imag, vals.real))
        v0, v1 = vecs[:, order[0]], vecs[:, order[1]]
        overlap = abs(np.vdot(v0, v1)) / (np.linalg.norm(v0) * np.linalg.norm(v1))
        if abs(vals[order[1]] - vals[order[0]]) >= gap_tol or overlap <= EP_OVERLAP:
            return f"reported EP at s={s!r} is not one"
        return None
    for s, g in _grid_minima(lambda x: _gap(hamiltonian(h0, h1, x, d0)), grid, 1e-12):
        if g < gap_tol:
            vals, vecs = scipy.linalg.eig(hamiltonian(h0, h1, s, d0))
            order = np.lexsort((vals.imag, vals.real))
            v0, v1 = vecs[:, order[0]], vecs[:, order[1]]
            if abs(np.vdot(v0, v1)) / (np.linalg.norm(v0) * np.linalg.norm(v1)) > EP_OVERLAP:
                return f"missed an EP at s={s!r} (gap {g!r})"
    return None


def fig1_minimum(n: int, delta0: float) -> tuple[float, float]:
    """Minimum over s of the 2x2 gap |E1 - E0| for J(s)=s, g~(s)=(1-s)(1-i*delta0), sin(alpha)=2^(-n/2)."""
    sin_a = 2.0 ** (-n / 2.0)
    cos_a = math.sqrt((1.0 - sin_a) * (1.0 + sin_a))
    drive = sin_a * _X - cos_a * _Z

    def gap(s: float) -> float:
        return _gap(s * _Z + (1.0 - s) * (1.0 - 1j * delta0) * drive)

    grid = np.arange(1001) / 1000.0
    return min(_grid_minima(gap, grid, 1e-15), key=lambda c: c[1])


def check_fig1(op: dict) -> dict[str, str | None]:
    """Per delta0: the curve's refined minimum matches the independently minimized 2x2 eigensolve."""
    _, _, comments = read_csv(op["out"])
    found = {}
    for line in comments:
        if line.startswith("# minimum "):
            fields = dict(item.split("=") for item in line[len("# minimum "):].split())
            found[float(fields["delta0"])] = float(fields["gap_over_jstar"])
    verdicts = {}
    for name, d0 in zip(op["checks"], op["check"]["delta0_list"]):
        if d0 not in found:
            verdicts[name] = "no minimum footer"
            continue
        _, ref = fig1_minimum(op["check"]["n"], d0)
        ok = abs(found[d0] - ref) <= FIG1_RTOL * ref
        verdicts[name] = None if ok else f"minimum gap {found[d0]!r}, 2x2 eigensolve gives {ref!r}"
    return verdicts


def check_tau_sweep(op: dict) -> dict[str, str | None]:
    """Rows equal the closed forms gap = 2 d0/sqrt(d0^2+4), tau_min = 2^(-n/2) sqrt(d0^2+1)/gap^3."""
    return {"rows": _tau_sweep_verdict(op)}


def _tau_sweep_verdict(op: dict) -> str | None:
    _, rows, _ = read_csv(op["out"])
    chk = op["check"]
    expected = [(n, d0) for n in chk["n_list"] for d0 in chk["delta0_list"]]
    if [(int(r[0]), float(r[1])) for r in rows] != expected:
        return "tau-sweep rows do not match n_list x delta0_list"
    tau_max = 1.0 / chk["delta_qubit"]
    for row, (n, d0) in zip(rows, expected):
        gap = 2.0 * d0 / math.sqrt(d0 * d0 + 4.0)
        tau_min = 2.0 ** (-n / 2.0) * math.sqrt(d0 * d0 + 1.0) / gap**3
        got = [float(row[2]), float(row[3]), float(row[4])]
        for name, g, want in zip(("min_gap", "tau_min", "tau_max"), got, (gap, tau_min, tau_max)):
            if not abs(g - want) <= CLOSED_FORM_RTOL * abs(want):
                return f"n={n} delta0={d0}: {name}={g!r}, closed form {want!r}"
        if (row[5] == "true") != (tau_min < tau_max):
            return f"n={n} delta0={d0}: feasible={row[5]} contradicts tau_min < tau_max"
    return None


def evolve_reference(inst: dict, delta0: float, decaying: bool, tau: float) -> tuple[float, float]:
    """(success probability, final norm) from solve_ivp on i dpsi/dt = H(t/tau) psi.

    The decaying-driver mode adds -i*delta0*(1-s)*n to H, n being minus the
    lowest eigenvalue of the driver -sum X_i.  The start is the driver's
    ground state (the uniform superposition), the target the lowest diagonal
    entry of h0.
    """
    n = inst["n"]
    h0, h1 = ising_terms(inst)
    diag = np.real(np.diag(h0)).copy()
    h1 = h1.copy()
    shift = float(n) if decaying else 0.0

    def rhs(t, y):
        s = t / tau
        w = (1.0 - s) * (1.0 - 1j * delta0)
        return -1j * (s * diag * y + w * (h1 @ y)) - delta0 * (1.0 - s) * shift * y

    dim = 2**n
    y0 = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    sol = scipy.integrate.solve_ivp(rhs, (0.0, tau), y0, method="DOP853", rtol=REF_RTOL, atol=REF_ATOL)
    if not sol.success:
        raise RuntimeError(f"solve_ivp failed: {sol.message}")
    psi = sol.y[:, -1]
    norm2 = float(np.vdot(psi, psi).real)
    return float(abs(psi[int(np.argmin(diag))]) ** 2 / norm2), math.sqrt(norm2)


def check_evolve(op: dict, references: dict) -> dict[str, str | None]:
    """Per tau: success probability and final norm against the solve_ivp reference."""
    _, rows, _ = read_csv(op["out"])
    if [float(r[0]) for r in rows] != op["check"]["taus"]:
        return _all(op, "evolve rows do not match tau_list")
    return {name: _evolve_verdict(row, references[float(row[0])]) for name, row in zip(op["checks"], rows)}


def _evolve_verdict(row: list[str], reference: tuple[float, float]) -> str | None:
    if row[4] != "ok":
        return f"status {row[4]}"
    p_ref, norm_ref = reference
    p, norm = float(row[1]), float(row[2])
    if not abs(p - p_ref) <= EVOLVE_ATOL:
        return f"success probability {p!r}, solve_ivp reference {p_ref!r}"
    if not abs(norm - norm_ref) <= NORM_RTOL * norm_ref:
        return f"final norm {norm!r}, solve_ivp reference {norm_ref!r}"
    return None


def check_pipeline(op: dict, rec: dict) -> dict[str, str | None]:
    """The trace, basis, parameters and budget are finite and consistent with one another."""
    return {"budget": _pipeline_verdict(op, rec)}


def _pipeline_verdict(op: dict, rec: dict) -> str | None:
    h0, h1 = ising_terms(op["instance"])
    scale = float(np.max(np.abs(h0)) + np.max(np.abs(h1)))
    ref = _gap(hamiltonian(h0, h1, rec["s_c"], op["delta0"]))
    if not abs(rec["g_m"] - ref) <= GAP_RTOL * ref + GAP_ATOL * scale:
        return f"g_m={rec['g_m']!r} but scipy gap at s_c is {ref!r}"
    if rec["min_sampled_gap"] < rec["g_m"] - GAP_ATOL * scale:
        return "a sampled gap lies below g_m"
    v0 = np.array([complex(*z) for z in rec["basis_v0"]])
    v1 = np.array([complex(*z) for z in rec["basis_v1"]])
    gram = np.array([[np.vdot(a, b) for b in (v0, v1)] for a in (v0, v1)])
    if not np.allclose(gram, np.eye(2), atol=1e-10):
        return "crossover basis is not orthonormal"
    r0, r1 = np.array(rec["r0"]), np.array(rec["r1"])
    cos_a = -float(r0 @ r1) / (np.linalg.norm(r0) * np.linalg.norm(r1))
    if not (0.0 <= rec["alpha"] <= math.pi and abs(math.cos(rec["alpha"]) - cos_a) <= 1e-9):
        return f"alpha={rec['alpha']!r} disagrees with the Bloch vectors"
    values = [rec["tau_min"], rec["tau_max"], rec["measured_matrix_element"]]
    if not all(math.isfinite(v) and v > 0 for v in values):
        return f"budget not finite and positive: {values}"
    if rec["tau_max"] != 1.0 / op["delta_qubit"] or rec["feasible"] != (rec["tau_min"] < rec["tau_max"]):
        return "tau_max or the feasibility flag is inconsistent"
    # linear ramp: |J dg~/ds - g~ dJ/ds| = |r0||r1| sqrt(1 + d0^2) at every s
    r0_mag, r1_mag, d0, alpha = float(np.linalg.norm(r0)), float(np.linalg.norm(r1)), op["delta0"], rec["alpha"]
    drive = r1_mag * (math.sin(alpha) * _X - math.cos(alpha) * _Z)

    def gap(s: float) -> float:
        return _gap(s * r0_mag * _Z + (1.0 - s) * (1.0 - 1j * d0) * drive)

    _, gap_min = min(_grid_minima(gap, np.arange(op["window_grid"]) / (op["window_grid"] - 1), 1e-12),
                     key=lambda c: c[1])
    n = op["instance"]["n"]
    tau_min = 2.0 ** (-n / 2.0) * r0_mag * r1_mag * math.sqrt(1.0 + d0 * d0) / gap_min**3
    if not abs(rec["tau_min"] - tau_min) <= BUDGET_RTOL * tau_min:
        return f"tau_min={rec['tau_min']!r}, closed form from the reduced parameters gives {tau_min!r}"
    return None
