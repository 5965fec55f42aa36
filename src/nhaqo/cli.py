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
    tau_list     = comma floats          total times (evolve)
    n_list       = comma ints            qubit counts (tau-sweep)
    alpha        = float      two-level mixing angle, radians
    delta_qubit  = float      qubit level width (tau-sweep upper bound)
    grid_points  = int        s-grid resolution (default 1001)
    output_path  = path       (--out overrides)
    tol_evolve   = float      integrator tolerance (default 1e-10)
    decaying_driver = true|false

Each key's parser and canonical text come from its type in
:class:`ExperimentConfig`.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
An unknown key, an unparsable or non-finite value, or a value out of range
(say a negative decay, a non-positive tau or a field list of the wrong
length) exits 2 before any CSV is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from ._minimize import polished_minima, uniform_grid
from .adiabatic import AdiabaticBudget, min_time_linear_ramp
from ._scan import split_scan
from .errors import ConfigError, DuplicateCoupling, MultipleMinimaWarning, NhaqoError, NonFiniteState, StepUnderflow
from .evolve import evolve, initial_ground_state
from .linalg import DEFECT_TOLERANCE
from .model import AnnealSpec, ising_anneal_spec, linear_schedule, two_level_spec
from .reduction import TwoLevelParams, nonhermitian_min_gap, two_level_gap
from .spectrum import EP_GAP_FACTOR, detect_exceptional_point, trace_gap

EXPERIMENTS = ("fig1", "gap-trace", "evolve", "tau-sweep", "ep-scan")
MODELS = ("two-level", "ising")
#: the list keys each experiment runs over
_REQUIRED_LISTS = {
    "fig1": ("delta0_list",),
    "evolve": ("tau_list",),
    "tau-sweep": ("delta0_list", "n_list"),
    "ep-scan": ("delta0_list",),
}


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
    tau_list: tuple[float, ...] | None = None
    n_list: tuple[int, ...] | None = None
    alpha: float | None = None
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


def _parser(convert, expected: str):
    """``convert`` on one item; a bad item raises ValueError("expected <expected>, got <item>")."""

    def parse(raw: str):
        try:
            return convert(raw)
        except (ValueError, KeyError):
            raise ValueError(f"expected {expected}, got {raw!r}") from None

    return parse


_int = _parser(int, "an integer")
_any_float = _parser(float, "a float")


def _float(raw: str) -> float:
    """A finite float: nan and +-inf are rejected like unparsable text."""
    value = _any_float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite float, got {raw!r}")
    return value


def _items(raw: str, sep: str, parse) -> tuple:
    items = tuple(parse(x.strip()) for x in raw.split(sep) if x.strip())
    if not items:
        raise ValueError("empty list")
    return items


def _triple(chunk: str) -> tuple[int, int, float]:
    parts = [p.strip() for p in chunk.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected 'i,j,J' triples, got {chunk!r}")
    return _int(parts[0]), _int(parts[1]), _float(parts[2])


#: (parser, formatter) per declared field type; a field reads its entry off its annotation
_TYPES = {
    "str": (str, str),
    "int": (_int, str),
    "float": (_float, repr),
    "bool": (_parser(lambda raw: _BOOLS[raw.lower()], "a boolean"), lambda v: "true" if v else "false"),
    "tuple[float, ...]": (lambda raw: _items(raw, ",", _float), lambda v: ",".join(map(repr, v))),
    "tuple[int, ...]": (lambda raw: _items(raw, ",", _int), lambda v: ",".join(map(str, v))),
    "tuple[tuple[int, int, float], ...]": (
        lambda raw: _items(raw, ";", _triple),
        lambda v: ";".join(f"{i},{j},{x!r}" for i, j, x in v),
    ),
}
_FIELDS = {f.name: _TYPES[f.type.removesuffix(" | None")] for f in dataclasses.fields(ExperimentConfig)}


def _coerce(values: dict, key: str, raw: str, where: str) -> None:
    """Parse ``raw`` by ``key``'s declared type into ``values``; ``where`` names the source."""
    if key not in _FIELDS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        values[key] = _FIELDS[key][0](raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


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
        _coerce(values, key.strip(), raw, f"line {lineno}")
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
        _coerce(values, key.strip(), raw, "--set")
    values["experiment"] = experiment
    if out is not None:
        values["output_path"] = out
    return ExperimentConfig(**values)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical flat-text form; parsing it back yields an equal config."""
    items = ((key, getattr(cfg, key)) for key in sorted(_FIELDS))
    return "".join(f"{key} = {_FIELDS[key][1](val)}\n" for key, val in items if val is not None)


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the effective config; the output destination is not part of it."""
    canonical = serialize_config(dataclasses.replace(cfg, output_path=None))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def validate_config(cfg: ExperimentConfig) -> None:
    """Check required keys per experiment and the ranges used outside :func:`_build_spec`."""
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
    if cfg.tol_evolve <= 0:
        raise ConfigError("tol_evolve must be positive")
    if min((cfg.delta0 or 0.0, *(cfg.delta0_list or ()))) < 0:
        raise ConfigError("delta0 must be non-negative")
    if cfg.n_qubits is not None and cfg.n_qubits < 0:
        raise ConfigError("n_qubits must be non-negative")
    if cfg.delta_qubit is not None and cfg.delta_qubit <= 0:
        raise ConfigError("delta_qubit must be positive")
    if min(cfg.n_list or (1,)) < 1:
        raise ConfigError("n_list entries must be >= 1")
    builds_spec = cfg.experiment in ("gap-trace", "evolve", "ep-scan")
    if builds_spec and cfg.model == "ising":
        if cfg.n_qubits is None:
            raise ConfigError(f"{cfg.experiment}: ising model needs n_qubits")
        if cfg.seed is None and (cfg.fields is None or cfg.couplings is None):
            raise ConfigError(f"{cfg.experiment}: ising model needs seed or fields+couplings")
    if builds_spec and cfg.model == "two-level" and cfg.alpha is None and cfg.n_qubits is None:
        raise ConfigError(f"{cfg.experiment}: two-level model needs alpha or n_qubits")
    required = _REQUIRED_LISTS.get(cfg.experiment, ())
    if not all(getattr(cfg, key) for key in required):
        raise ConfigError(f"{cfg.experiment} needs {' and '.join(required)}")
    if cfg.experiment == "evolve" and min(cfg.tau_list) <= 0:
        raise ConfigError("evolve needs positive taus")


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
    n = cfg.n_qubits if cfg.n_qubits is not None else default_n
    return float(np.arcsin(2.0 ** (-n / 2.0)))


def _build_spec(cfg: ExperimentConfig, delta0: float | None = None) -> AnnealSpec:
    """The config's model as a spec of tau 1 (evolve sets each tau); a value the builders reject is a config error."""
    d0 = cfg.delta0 if delta0 is None else delta0
    d0 = 0.0 if d0 is None else d0
    try:
        if cfg.model == "ising":
            assert cfg.n_qubits is not None
            return ising_anneal_spec(
                cfg.n_qubits,
                seed=cfg.seed,
                fields=cfg.fields,
                couplings=cfg.couplings,
                delta0=d0,
                j_star=cfg.j_star,
            )
        return two_level_spec(cfg.j_star, d0, _two_level_alpha(cfg))
    except (ValueError, DuplicateCoupling) as exc:
        raise ConfigError(str(exc)) from None


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
    ep = detect_exceptional_point(trace)
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

    The initial state is computed once for the sweep.  The taus run in
    ascending order through ``split_scan`` with a cost of tau each, so one
    forked child may take the longest ones; the rows keep the order of the
    config.  Integration failures (``_EVOLVE_ERRORS``) are reported per row
    and do not abort the sweep.
    """
    taus = cfg.tau_list
    assert taus
    spec = _build_spec(cfg)
    initial = initial_ground_state(spec)

    def run(tau: float) -> tuple[float, float, int, int]:
        """(success probability, final norm, steps, status code) at one tau."""
        try:
            res = evolve(
                dataclasses.replace(spec, tau=tau),
                initial,
                tol=cfg.tol_evolve,
                samples=2,  # the CSV reads only the final norm
                decaying_driver=cfg.decaying_driver,
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
    tau_max = None if cfg.delta_qubit is None else 1.0 / cfg.delta_qubit
    max_text = "" if tau_max is None else fmt(tau_max)
    rows = []
    for n in cfg.n_list:
        for d0 in cfg.delta0_list:
            d0_energy = d0 * cfg.j_star
            gap = nonhermitian_min_gap(cfg.j_star, d0_energy)
            budget = AdiabaticBudget(min_time_linear_ramp(n, cfg.j_star, d0_energy), tau_max)
            rows.append([fmt(n), fmt(d0), fmt(gap), fmt(budget.tau_min), max_text, fmt(budget.feasible)])
    return _write_csv(cfg, columns, rows, [])


def run_ep_scan(cfg: ExperimentConfig) -> str:
    """Exceptional-point search over a list of decay strengths: one gap trace each."""
    assert cfg.delta0_list
    columns = ["delta0", "detected", "s", "gap", "overlap"]
    rows = []
    for d0 in cfg.delta0_list:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleMinimaWarning)  # ep-scan reports no crossover
            trace = trace_gap(_build_spec(cfg, delta0=d0), cfg.grid_points)
        ep = detect_exceptional_point(trace)
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
        path = _RUNNERS[cfg.experiment](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
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
