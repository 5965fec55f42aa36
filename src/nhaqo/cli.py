"""Experiment runner: flat-file configs in, plot-ready CSV out.

Config files are flat ``key = value`` text; ``--set key=value`` overrides
file entries and file entries override defaults.  Every output starts with
comment lines recording the tool version, a hash of the effective config
and the tolerances in force, so identical configs reproduce byte-identical
files.

Schema (keys, all optional unless an experiment requires them)::

    experiment   = fig1 | gap-trace | evolve | tau-sweep | ep-scan
    model        = two-level | ising
    n_qubits     = int        qubit count (fig1 default: 20, sets sin(alpha))
    seed         = int        seeded random Ising instance
    fields       = comma floats          explicit Ising fields
    couplings    = i,j,J;i,j,J;...       explicit Ising couplings
    j_star       = float      driver energy scale (default 1)
    delta0       = float      decay weight, units of j_star
    delta0_list  = comma floats
    tau          = float
    tau_list     = comma floats
    n_list       = comma ints (tau-sweep)
    alpha        = float      two-level mixing angle, radians
    cos_alpha    = float      fig1 override for the angle
    delta_qubit  = float      qubit level width (tau-sweep upper bound)
    grid_points  = int        s-grid resolution (default 1001)
    output_path  = path       (--out overrides)
    tol_evolve   = float      integrator tolerance (default 1e-10)
    decaying_driver = true|false

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from ._minimize import polished_minima, uniform_grid
from .adiabatic import min_time_linear_ramp
from ._scan import split_scan
from .errors import ConfigError, MultipleMinimaWarning, NhaqoError, NonFiniteState, StepUnderflow
from .evolve import decaying_driver_shift, evolve, initial_ground_state
from .linalg import DEFECT_TOLERANCE
from .model import AnnealSpec, ising_anneal_spec, linear_schedule, two_level_spec
from .reduction import TwoLevelParams, nonhermitian_min_gap, two_level_gap
from .spectrum import EP_GAP_FACTOR, detect_exceptional_point, trace_gap

EXPERIMENTS = ("fig1", "gap-trace", "evolve", "tau-sweep", "ep-scan")
MODELS = ("two-level", "ising")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: str = "two-level"
    n_qubits: int | None = None
    seed: int | None = None
    fields: tuple[float, ...] | None = None
    couplings: tuple[tuple[int, int, float], ...] | None = None
    j_star: float = 1.0
    delta0: float | None = None
    delta0_list: tuple[float, ...] | None = None
    tau: float | None = None
    tau_list: tuple[float, ...] | None = None
    n_list: tuple[int, ...] | None = None
    alpha: float | None = None
    cos_alpha: float | None = None
    delta_qubit: float | None = None
    grid_points: int = 1001
    output_path: str | None = None
    tol_evolve: float = 1e-10
    decaying_driver: bool = False


def fmt(x) -> str:
    """CSV number format: 17 significant digits, '.' decimal separator."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


_BOOLS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _parse_bool(raw: str, key: str) -> bool:
    try:
        return _BOOLS[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}") from None


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a float, got {raw!r}") from None


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float_list(raw: str, key: str) -> tuple[float, ...]:
    items = [x.strip() for x in raw.split(",") if x.strip()]
    if not items:
        raise ConfigError(f"{key}: empty list")
    return tuple(_parse_float(x, key) for x in items)


def _parse_int_list(raw: str, key: str) -> tuple[int, ...]:
    items = [x.strip() for x in raw.split(",") if x.strip()]
    if not items:
        raise ConfigError(f"{key}: empty list")
    return tuple(_parse_int(x, key) for x in items)


def _parse_couplings(raw: str, key: str) -> tuple[tuple[int, int, float], ...]:
    out = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"{key}: expected 'i,j,J' triples, got {chunk!r}")
        out.append((_parse_int(parts[0], key), _parse_int(parts[1], key), _parse_float(parts[2], key)))
    if not out:
        raise ConfigError(f"{key}: empty list")
    return tuple(out)


_COERCERS = {
    "experiment": lambda raw, key: raw.strip(),
    "model": lambda raw, key: raw.strip(),
    "n_qubits": _parse_int,
    "seed": _parse_int,
    "fields": _parse_float_list,
    "couplings": _parse_couplings,
    "j_star": _parse_float,
    "delta0": _parse_float,
    "delta0_list": _parse_float_list,
    "tau": _parse_float,
    "tau_list": _parse_float_list,
    "n_list": _parse_int_list,
    "alpha": _parse_float,
    "cos_alpha": _parse_float,
    "delta_qubit": _parse_float,
    "grid_points": _parse_int,
    "output_path": lambda raw, key: raw.strip(),
    "tol_evolve": _parse_float,
    "decaying_driver": _parse_bool,
}


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _COERCERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _COERCERS[key](raw.strip(), key)
    return values


def build_config(
    experiment: str,
    config_path: str | None = None,
    overrides: list[str] | None = None,
    out: str | None = None,
) -> ExperimentConfig:
    """Merge defaults < config file < --set overrides < --out."""
    values: dict = {}
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read()))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in _COERCERS:
            raise ConfigError(f"--set: unknown key {key!r}")
        values[key] = _COERCERS[key](raw.strip(), key)
    values["experiment"] = experiment
    if out is not None:
        values["output_path"] = out
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical flat-text form; parsing it back yields an equal config."""
    lines = []
    for f in sorted(dataclasses.fields(ExperimentConfig), key=lambda f: f.name):
        val = getattr(cfg, f.name)
        if val is None:
            continue
        if f.name == "couplings":
            text = ";".join(f"{i},{j},{repr(v)}" for i, j, v in val)
        elif isinstance(val, tuple):
            text = ",".join(repr(x) if isinstance(x, float) else str(x) for x in val)
        elif isinstance(val, bool):
            text = "true" if val else "false"
        elif isinstance(val, float):
            text = repr(val)
        else:
            text = str(val)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the effective config; the output destination is not part of it."""
    canonical = serialize_config(dataclasses.replace(cfg, output_path=None))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def validate_config(cfg: ExperimentConfig) -> None:
    """Check required keys per experiment before any computation starts."""
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    if cfg.model not in MODELS:
        raise ConfigError(f"unknown model {cfg.model!r}")
    if cfg.output_path is None:
        raise ConfigError("output_path is required (use --out or output_path=...)")
    if cfg.grid_points < 3:
        raise ConfigError("grid_points must be >= 3")
    if cfg.j_star <= 0:
        raise ConfigError("j_star must be positive")
    needs_instance = cfg.experiment in ("gap-trace", "evolve") or (
        cfg.experiment == "ep-scan" and cfg.model == "ising"
    )
    if needs_instance and cfg.model == "ising":
        if cfg.n_qubits is None:
            raise ConfigError(f"{cfg.experiment}: ising model needs n_qubits")
        if cfg.seed is None and (cfg.fields is None or cfg.couplings is None):
            raise ConfigError(f"{cfg.experiment}: ising model needs seed or fields+couplings")
    if (
        needs_instance
        and cfg.model == "two-level"
        and cfg.alpha is None
        and cfg.cos_alpha is None
        and cfg.n_qubits is None
    ):
        raise ConfigError(f"{cfg.experiment}: two-level model needs alpha, cos_alpha or n_qubits")
    if cfg.experiment == "fig1" and not cfg.delta0_list:
        raise ConfigError("fig1 needs delta0_list")
    if cfg.experiment == "evolve" and not cfg.tau_list and cfg.tau is None:
        raise ConfigError("evolve needs tau or tau_list")
    if cfg.experiment == "evolve" and min(cfg.tau_list or (cfg.tau,)) <= 0:
        raise ConfigError("evolve needs positive taus")
    if cfg.experiment == "tau-sweep" and (not cfg.delta0_list or not cfg.n_list):
        raise ConfigError("tau-sweep needs delta0_list and n_list")
    if cfg.experiment == "ep-scan" and not cfg.delta0_list and cfg.delta0 is None:
        raise ConfigError("ep-scan needs delta0 or delta0_list")


def _header_lines(cfg: ExperimentConfig) -> list[str]:
    return [
        f"# nhaqo {__version__} experiment={cfg.experiment}",
        f"# config_hash={config_hash(cfg)}",
        "# tolerances "
        f"grid_points={cfg.grid_points} tol_evolve={fmt(cfg.tol_evolve)} "
        f"defect_tolerance={fmt(DEFECT_TOLERANCE)} ep_gap_factor={fmt(EP_GAP_FACTOR)}",
    ]


def _write_csv(cfg: ExperimentConfig, columns: list[str], rows: list[list[str]], footers: list[str]) -> str:
    path = cfg.output_path
    assert path is not None
    lines = _header_lines(cfg) + [",".join(columns)]
    lines.extend(",".join(row) for row in rows)
    lines.extend(footers)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _two_level_alpha(cfg: ExperimentConfig, default_n: int | None = None) -> float:
    if cfg.alpha is not None:
        return cfg.alpha
    if cfg.cos_alpha is not None:
        return float(np.arccos(np.clip(cfg.cos_alpha, -1.0, 1.0)))
    n = cfg.n_qubits if cfg.n_qubits is not None else default_n
    if n is None:
        raise ConfigError("two-level model needs alpha, cos_alpha or n_qubits")
    return float(np.arcsin(2.0 ** (-n / 2.0)))


def _build_spec(cfg: ExperimentConfig, delta0: float | None = None) -> AnnealSpec:
    d0 = cfg.delta0 if delta0 is None else delta0
    d0 = 0.0 if d0 is None else d0
    tau = cfg.tau if cfg.tau is not None else 1.0
    if cfg.model == "ising":
        assert cfg.n_qubits is not None
        return ising_anneal_spec(
            cfg.n_qubits,
            seed=cfg.seed,
            fields=cfg.fields,
            couplings=cfg.couplings,
            delta0=d0,
            tau=tau,
            j_star=cfg.j_star,
        )
    return two_level_spec(cfg.j_star, d0, _two_level_alpha(cfg), tau)


def run_fig1(cfg: ExperimentConfig) -> str:
    """Reduced-model gap curves |dE|/J* over s, one column per delta0.

    The mixing angle defaults to sin(alpha) = 2^(-n/2) with n_qubits
    defaulting to 20; a footer row records each curve's refined minimum.
    """
    assert cfg.delta0_list
    alpha = _two_level_alpha(cfg, default_n=20)
    params = TwoLevelParams.from_alpha(alpha, r0_mag=cfg.j_star, r1_mag=cfg.j_star)
    grid = uniform_grid(cfg.grid_points)
    columns = ["s"] + [f"gap_over_jstar[delta0={fmt(d)}]" for d in cfg.delta0_list]
    curves = []
    footers = []
    for d0 in cfg.delta0_list:
        sched = linear_schedule(d0)

        def f(s: float, _sched=sched) -> float:
            return two_level_gap(params, _sched, s) / cfg.j_star

        curves.append([f(float(s)) for s in grid])
        s_min, gap_min = polished_minima(f, grid, curves[-1])[0]
        footers.append(f"# minimum delta0={fmt(d0)} s={fmt(s_min)} gap_over_jstar={fmt(gap_min)}")
    rows = [
        [fmt(s)] + [fmt(curve[i]) for curve in curves]
        for i, s in enumerate(grid)
    ]
    return _write_csv(cfg, columns, rows, footers)


def run_gap_trace(cfg: ExperimentConfig) -> str:
    """Spectrum trace of a full model: two lowest levels, gap, crossover, EP."""
    spec = _build_spec(cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", MultipleMinimaWarning)
        trace = trace_gap(spec, cfg.grid_points)
    ep = detect_exceptional_point(spec, cfg.grid_points, trace=trace)
    columns = ["s", "re_e0", "im_e0", "re_e1", "im_e1", "gap"]
    rows = []
    for snap in trace.snapshots:
        e0, e1 = snap.pair
        rows.append([fmt(snap.s), fmt(e0.real), fmt(e0.imag), fmt(e1.real), fmt(e1.imag), fmt(snap.gap)])
    footers = [f"# s_c={fmt(trace.s_c)}", f"# g_m={fmt(trace.g_m)}"]
    if ep is not None:
        footers.append(f"# ep s={fmt(ep.s)} gap={fmt(ep.gap)} overlap={fmt(ep.overlap)}")
    for w in caught:
        if issubclass(w.category, MultipleMinimaWarning):
            footers.append(f"# warning multiple_minima: {w.message}")
    return _write_csv(cfg, columns, rows, footers)


#: the integration failures an evolve row reports; a row's status code is 0 for "ok", else 1 plus
#: the failure's index here
_EVOLVE_ERRORS = (StepUnderflow, NonFiniteState)


def run_evolve(cfg: ExperimentConfig) -> str:
    """Success probability, final norm and step count per tau.

    The initial state and the decaying driver's shift are computed once for
    the sweep.  The taus run in ascending order through ``split_scan`` with
    a cost of tau each, so one forked child may take the longest ones; the
    rows keep the order of the config.  Integration failures
    (``_EVOLVE_ERRORS``) are reported per row and do not abort the sweep.
    """
    taus = cfg.tau_list if cfg.tau_list else (cfg.tau,)
    assert taus and taus[0] is not None
    spec = _build_spec(cfg)
    initial = initial_ground_state(spec)
    shift = decaying_driver_shift(spec.driver) if cfg.decaying_driver else 0.0

    def run(tau: float) -> tuple[float, float, int, int]:
        """(success probability, final norm, steps, status code) at one tau."""
        try:
            res = evolve(
                dataclasses.replace(spec, tau=tau),
                initial,
                tol=cfg.tol_evolve,
                samples=2,  # the CSV reads only the final norm
                driver_shift=shift,
            )
        except _EVOLVE_ERRORS as exc:
            return np.nan, np.nan, 0, 1 + _EVOLVE_ERRORS.index(type(exc))
        return res.success_probability, res.norm_history[-1][1], res.steps_taken, 0

    order = np.argsort(taus, kind="stable")
    ascending = [float(taus[i]) for i in order]
    results = np.empty((len(taus), 4))
    results[order] = split_scan(run, ascending, np.float64, cost=ascending)
    columns = ["tau", "success_probability", "final_norm", "steps_taken", "status"]
    rows = []
    for tau, (p, norm, steps, code) in zip(taus, results):
        if code:
            rows.append([fmt(tau), "nan", "nan", "0", f"error:{_EVOLVE_ERRORS[int(code) - 1].__name__}"])
        else:
            rows.append([fmt(tau), fmt(p), fmt(norm), fmt(int(steps)), "ok"])
    return _write_csv(cfg, columns, rows, [])


def run_tau_sweep(cfg: ExperimentConfig) -> str:
    """Runtime thresholds of the linear ramp over (n, delta0) pairs."""
    assert cfg.n_list and cfg.delta0_list
    columns = ["n", "delta0", "min_gap", "tau_min", "tau_max", "feasible"]
    rows = []
    for n in cfg.n_list:
        for d0 in cfg.delta0_list:
            d0_energy = d0 * cfg.j_star
            gap = nonhermitian_min_gap(cfg.j_star, d0_energy)
            tau_min = min_time_linear_ramp(n, cfg.j_star, d0_energy)
            if cfg.delta_qubit is not None:
                tau_max = 1.0 / cfg.delta_qubit
                feasible = tau_min < tau_max
                rows.append([fmt(n), fmt(d0), fmt(gap), fmt(tau_min), fmt(tau_max), fmt(feasible)])
            else:
                rows.append([fmt(n), fmt(d0), fmt(gap), fmt(tau_min), "", "true"])
    return _write_csv(cfg, columns, rows, [])


def run_ep_scan(cfg: ExperimentConfig) -> str:
    """Exceptional-point search over a list of decay strengths."""
    deltas = cfg.delta0_list if cfg.delta0_list else (cfg.delta0,)
    assert deltas and deltas[0] is not None
    columns = ["delta0", "detected", "s", "gap", "overlap"]
    rows = []
    for d0 in deltas:
        spec = _build_spec(cfg, delta0=d0)
        ep = detect_exceptional_point(spec, cfg.grid_points)
        if ep is None:
            rows.append([fmt(d0), "false", "", "", ""])
        else:
            rows.append([fmt(d0), "true", fmt(ep.s), fmt(ep.gap), fmt(ep.overlap)])
    return _write_csv(cfg, columns, rows, [])


_RUNNERS = {
    "fig1": run_fig1,
    "gap-trace": run_gap_trace,
    "evolve": run_evolve,
    "tau-sweep": run_tau_sweep,
    "ep-scan": run_ep_scan,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nhaqo",
        description="Non-Hermitian adiabatic quantum optimization experiments",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable; wins over the file)",
    )
    parser.add_argument("--out", help="output CSV path (wins over output_path)")
    args = parser.parse_args(argv)

    try:
        cfg = build_config(args.experiment, args.config, args.overrides, args.out)
        validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4

    try:
        path = _RUNNERS[cfg.experiment](cfg)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except (NhaqoError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
