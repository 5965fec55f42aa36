"""Config parsing, CSV emission, determinism and exit codes."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from _reference import FULL_MODEL_EPS
import nhaqo.cli
from nhaqo.cli import (
    ExperimentConfig,
    build_config,
    config_hash,
    main,
    parse_config_text,
    serialize_config,
    validate_config,
)
from nhaqo.errors import ConfigError


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def data_rows(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def footers(text):
    return [ln for ln in text.splitlines() if ln.startswith("#")]


def test_parse_flat_config():
    text = """
    # comment
    experiment = fig1
    delta0_list = 0, 0.25, 0.5, 1
    grid_points = 101
    decaying_driver = true
    couplings = 0,1,0.5; 1,2,-0.25
    """
    values = parse_config_text(text)
    assert values["experiment"] == "fig1"
    assert values["delta0_list"] == (0.0, 0.25, 0.5, 1.0)
    assert values["grid_points"] == 101
    assert values["decaying_driver"] is True
    assert values["couplings"] == ((0, 1, 0.5), (1, 2, -0.25))


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("experimnt = fig1")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError):
        parse_config_text("grid_points = many")


def test_config_round_trip():
    cfg = ExperimentConfig(
        experiment="gap-trace",
        model="ising",
        n_qubits=3,
        seed=7,
        delta0=0.5,
        grid_points=301,
        output_path="out.csv",
        couplings=((0, 1, 0.125), (1, 2, -0.7)),
        fields=(0.1, -0.2, 0.3),
        decaying_driver=True,
        n_list=(8, 10),
        delta0_list=(0.0, 1.0, 2.0),
        tau_list=(1.0, 40.0),
    )
    text = serialize_config(cfg)
    rebuilt = ExperimentConfig(**parse_config_text(text))
    assert rebuilt == cfg
    assert config_hash(rebuilt) == config_hash(cfg)


def test_serialize_config_pins_every_key():
    # every key set, each of the seven field types and int-valued floats: the
    # text and hash below are those of the previous parser, so every CSV's
    # config_hash header line is unchanged
    cfg = ExperimentConfig(
        experiment="gap-trace", model="ising", n_qubits=3, seed=7,
        fields=(0.1, -0.2, 3.0), couplings=((0, 1, 0.125), (1, 2, -1.0)),
        j_star=2.0, delta0=0.5, delta0_list=(0.0, 0.25, 1.0),
        tau_list=(1.0, 40.0, 0.01), n_list=(8, 10), alpha=0.001,
        delta_qubit=0.05, grid_points=201, output_path="out.csv", tol_evolve=1e-8,
        decaying_driver=True,
    )
    assert serialize_config(cfg) == (
        "alpha = 0.001\ncouplings = 0,1,0.125;1,2,-1.0\ndecaying_driver = true\n"
        "delta0 = 0.5\ndelta0_list = 0.0,0.25,1.0\ndelta_qubit = 0.05\nexperiment = gap-trace\n"
        "fields = 0.1,-0.2,3.0\ngrid_points = 201\nj_star = 2.0\nmodel = ising\nn_list = 8,10\n"
        "n_qubits = 3\noutput_path = out.csv\nseed = 7\ntau_list = 1.0,40.0,0.01\n"
        "tol_evolve = 1e-08\n"
    )
    assert config_hash(cfg) == "0f01ff839cabb2c9"
    text = "experiment = fig1\ndecaying_driver = yes\nn_list = 8, 10\ndelta0_list = 1, 2\nj_star = 1\n"
    assert config_hash(ExperimentConfig(**parse_config_text(text + "couplings = 0,1,1; 1,2,-1\n"))) == "dc76bc71e8ab8662"


@pytest.mark.parametrize(
    "line, message",
    [
        ("grid_points = many", "grid_points: expected an integer, got 'many'"),
        ("j_star = x", "j_star: expected a float, got 'x'"),
        ("decaying_driver = maybe", "decaying_driver: expected a boolean, got 'maybe'"),
        ("n_list = 8, 2.5", "n_list: expected an integer, got '2.5'"),
        ("fields = ,", "fields: empty list"),
        ("couplings = 0,1", "couplings: expected 'i,j,J' triples, got '0,1'"),
        ("experimnt = fig1", "line 1: unknown key 'experimnt'"),
        ("tau = 5", "line 1: unknown key 'tau'"),
        ("cos_alpha = 0.8", "line 1: unknown key 'cos_alpha'"),
        ("tau_list = 10, inf", "tau_list: expected a finite float, got 'inf'"),
        ("delta0 = nan", "delta0: expected a finite float, got 'nan'"),
        ("couplings = 0,1,-inf", "couplings: expected a finite float, got '-inf'"),
    ],
)
def test_parse_errors_name_the_key(line, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config_text(line)
    key, _, raw = line.partition(" = ")
    expected = message.replace("line 1", "--set")
    with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
        build_config("fig1", None, [f"{key}={raw}"])


def test_build_config_precedence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("experiment = fig1\ndelta0_list = 0.5\ngrid_points = 11\n")
    cfg = build_config("fig1", str(conf), ["grid_points=21"], str(tmp_path / "o.csv"))
    assert cfg.grid_points == 21  # --set wins over the file
    assert cfg.output_path == str(tmp_path / "o.csv")


def test_validate_requires_output_path():
    cfg = ExperimentConfig(experiment="fig1", delta0_list=(0.5,))
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_per_experiment_requirements():
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(experiment="fig1", output_path="x.csv"))
    with pytest.raises(ConfigError):
        validate_config(
            ExperimentConfig(experiment="tau-sweep", output_path="x.csv", delta0_list=(0.5,))
        )
    with pytest.raises(ConfigError):
        validate_config(
            ExperimentConfig(experiment="gap-trace", model="ising", output_path="x.csv")
        )


def test_fig1_csv_layout(tmp_path):
    out = tmp_path / "fig1.csv"
    code = main(
        [
            "fig1",
            "--set",
            "delta0_list=0,0.25,0.5,1",
            "--set",
            "grid_points=101",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = read(str(out))
    rows = data_rows(text)
    header = rows[0].split(",")
    assert header[0] == "s"
    assert len(header) == 5
    assert len(rows) == 1 + 101
    mins = [ln for ln in footers(text) if ln.startswith("# minimum")]
    assert len(mins) == 4
    assert any("config_hash=" in ln for ln in footers(text))


def test_fig1_coarse_grid_shares_values(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    main(["fig1", "--set", "delta0_list=0.5", "--set", "grid_points=11", "--out", str(out_a)])
    main(["fig1", "--set", "delta0_list=0.5", "--set", "grid_points=1001", "--out", str(out_b)])
    vals_a = {ln.split(",")[0]: ln.split(",")[1] for ln in data_rows(read(str(out_a)))[1:]}
    vals_b = {ln.split(",")[0]: ln.split(",")[1] for ln in data_rows(read(str(out_b)))[1:]}
    shared = set(vals_a) & set(vals_b)
    assert len(shared) == 11  # every coarse point appears bitwise-identically
    for s in shared:
        assert vals_a[s] == vals_b[s]


def test_fig1_minima_match_two_by_two_eigensolve_at_n60(tmp_path):
    # at sin(alpha) = 2^-30 the delta0=0 gap is a cusp of width 2^-30 around s = 1/2
    minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
    out = tmp_path / "fig1.csv"
    code = main(["fig1", "--set", "n_qubits=60", "--set", "delta0_list=0,0.25",
                 "--set", "grid_points=1001", "--out", str(out)])
    assert code == 0
    minima = {}
    for ln in footers(read(str(out))):
        if ln.startswith("# minimum "):
            fields = dict(item.split("=") for item in ln[len("# minimum "):].split())
            minima[float(fields["delta0"])] = (float(fields["s"]), float(fields["gap_over_jstar"]))
    assert sorted(minima) == [0.0, 0.25]
    sin_a = 2.0**-30
    drive = np.array([[-np.sqrt(1.0 - sin_a**2), sin_a], [sin_a, np.sqrt(1.0 - sin_a**2)]])
    grid = np.arange(1001) / 1000
    for d0, (s_min, gap_min) in minima.items():

        def gap(s):
            vals = np.linalg.eigvals(np.diag([s, -s]) + (1.0 - s) * (1.0 - 1j * d0) * drive)
            vals = vals[np.lexsort((vals.imag, vals.real))]
            return float(abs(vals[1] - vals[0]))

        gaps = [gap(s) for s in grid]
        i = int(np.argmin(gaps))
        ref = minimize_scalar(gap, bounds=(grid[i - 1], grid[i + 1]), method="bounded", options={"xatol": 1e-13})
        g_ref = min(gaps[i], ref.fun)
        assert abs(gap_min - g_ref) <= 1e-9 * g_ref
    assert minima[0.0][0] == 0.5
    assert minima[0.0][1] == pytest.approx(2.0**-30, rel=1e-9, abs=0.0)


def test_gap_trace_csv(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(
        [
            "gap-trace",
            "--set",
            "model=ising",
            "--set",
            "n_qubits=3",
            "--set",
            "seed=7",
            "--set",
            "delta0=0",
            "--set",
            "grid_points=201",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = read(str(out))
    rows = data_rows(text)
    assert rows[0] == "s,re_e0,im_e0,re_e1,im_e1,gap"
    foot = footers(text)
    assert any(ln.startswith("# s_c=") for ln in foot)
    assert any(ln.startswith("# g_m=") for ln in foot)
    # the footer minimum never exceeds the sampled column minimum
    g_m = float(next(ln for ln in foot if ln.startswith("# g_m=")).split("=")[1])
    col_min = min(float(ln.split(",")[5]) for ln in rows[1:])
    assert g_m <= col_min + 1e-12


def test_gap_trace_nonhermitian_min_exceeds_hermitian(tmp_path):
    vals = {}
    for d0 in ("0", "0.5"):
        out = tmp_path / f"t{d0}.csv"
        main(
            [
                "gap-trace",
                "--set",
                "model=two-level",
                "--set",
                "alpha=0.001",
                "--set",
                f"delta0={d0}",
                "--set",
                "grid_points=201",
                "--out",
                str(out),
            ]
        )
        foot = footers(read(str(out)))
        vals[d0] = float(next(ln for ln in foot if ln.startswith("# g_m=")).split("=")[1])
    assert vals["0.5"] > vals["0"]


def test_gap_trace_ep_footer_present_at_coalescence(tmp_path):
    out = tmp_path / "trace.csv"
    alpha = float(np.arccos(0.8))
    main(
        [
            "gap-trace",
            "--set",
            "model=two-level",
            "--set",
            f"alpha={alpha!r}",
            "--set",
            "delta0=0.75",
            "--set",
            "grid_points=201",
            "--out",
            str(out),
        ]
    )
    ep_lines = [ln for ln in footers(read(str(out))) if ln.startswith("# ep ")]
    assert len(ep_lines) == 1
    assert "overlap=" in ep_lines[0]


def test_ep_scan_ising_model(tmp_path):
    out = tmp_path / "ep_ising.csv"
    code = main(
        [
            "ep-scan",
            "--set",
            "model=ising",
            "--set",
            "n_qubits=2",
            "--set",
            "seed=1",
            "--set",
            "delta0_list=0.5",
            "--set",
            "grid_points=201",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = [r.split(",") for r in data_rows(read(str(out)))]
    assert rows[1][0] == "0.5"
    assert rows[1][1] in ("true", "false")


def test_gap_trace_no_ep_footer_when_absent(tmp_path):
    out = tmp_path / "trace.csv"
    main(
        [
            "gap-trace",
            "--set",
            "model=two-level",
            "--set",
            "alpha=1.5707963267948966",
            "--set",
            "delta0=1.0",
            "--set",
            "grid_points=201",
            "--out",
            str(out),
        ]
    )
    assert not any(ln.startswith("# ep ") for ln in footers(read(str(out))))


def test_evolve_csv(tmp_path):
    out = tmp_path / "evolve.csv"
    code = main(
        [
            "evolve",
            "--set",
            "model=ising",
            "--set",
            "n_qubits=2",
            "--set",
            "seed=1",
            "--set",
            "delta0=0",
            "--set",
            "tau_list=0.01,1,40",
            "--set",
            "tol_evolve=1e-8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = data_rows(read(str(out)))
    assert rows[0] == "tau,success_probability,final_norm,steps_taken,status"
    body = [r.split(",") for r in rows[1:]]
    assert len(body) == 3
    assert all(r[4] == "ok" for r in body)
    probs = [float(r[1]) for r in body]
    # slow sweep solves the instance; the sudden limit matches the bare overlap
    assert probs[-1] > 0.99
    from nhaqo.evolve import initial_ground_state, success_probability
    from nhaqo.model import ising_anneal_spec

    spec = ising_anneal_spec(2, seed=1, delta0=0.0)
    sudden = success_probability(initial_ground_state(spec), spec.problem)
    assert probs[0] == pytest.approx(sudden, abs=0.01)


def test_evolve_row_survives_a_norm_below_the_float_range(tmp_path):
    # at tau 5000 the decaying run's norm falls below the float range; the row
    # still reads ok, with a probability from the unit state and final_norm 0
    out = tmp_path / "evolve.csv"
    sets = ["model=ising", "n_qubits=2", "seed=1", "delta0=2", "decaying_driver=true", "tau_list=5000"]
    assert main(["evolve", *[a for kv in sets for a in ("--set", kv)], "--out", str(out)]) == 0
    _, p, norm, steps, status = data_rows(read(str(out)))[1].split(",")
    assert status == "ok"
    assert 0.0 <= float(p) <= 1.0
    assert float(norm) == 0.0 and int(steps) > 0


def test_tau_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "tau-sweep",
            "--set",
            "n_list=8,10",
            "--set",
            "delta0_list=0.01,0.02,1",
            "--set",
            "delta_qubit=0.1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = [r.split(",") for r in data_rows(read(str(out)))]
    assert rows[0] == ["n", "delta0", "min_gap", "tau_min", "tau_max", "feasible"]
    body = rows[1:]
    assert len(body) == 6
    by_key = {(r[0], r[1]): r for r in body}
    tau_n10_d1 = float(by_key[("10", "1")][3])
    assert tau_n10_d1 == pytest.approx(0.0618, abs=1e-3)
    # decay strength halved scales the threshold by ~8 in the small-decay regime
    ratio = float(by_key[("8", "0.01")][3]) / float(by_key[("8", "0.02")][3])
    assert ratio == pytest.approx(8.0, rel=0.02)
    # two extra qubits halve the threshold
    ratio_n = float(by_key[("8", "1")][3]) / float(by_key[("10", "1")][3])
    assert ratio_n == pytest.approx(2.0, rel=1e-9)
    assert by_key[("10", "1")][5] == "true"


def test_ep_scan_csv(tmp_path):
    out = tmp_path / "ep.csv"
    alpha = float(np.arccos(0.8))
    code = main(
        [
            "ep-scan",
            "--set",
            f"alpha={alpha!r}",
            "--set",
            "delta0_list=0.5,0.75,1.5",
            "--set",
            "grid_points=301",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = [r.split(",") for r in data_rows(read(str(out)))]
    assert rows[0] == ["delta0", "detected", "s", "gap", "overlap"]
    detected = {r[0]: r[1] for r in rows[1:]}
    assert detected["0.75"] == "true"
    assert detected["1.5"] == "false"


@pytest.mark.parametrize("grid_points", [201, 1001])
def test_ep_scan_row_is_the_gap_trace_ep_footer(tmp_path, grid_points):
    # criterion 7's coalescence: ep-scan reads its EP off the same gap trace
    # that gap-trace writes, so the row and the footer agree string for string
    settings = ["--set", f"alpha={float(np.arccos(0.8))!r}", "--set", f"grid_points={grid_points}"]
    scan, trace = tmp_path / "ep.csv", tmp_path / "trace.csv"
    assert main(["ep-scan", *settings, "--set", "delta0_list=0.5,0.75,1.5", "--out", str(scan)]) == 0
    assert main(["gap-trace", *settings, "--set", "delta0=0.75", "--out", str(trace)]) == 0
    row = next(r.split(",") for r in data_rows(read(str(scan))) if r.startswith("0.75,"))
    assert row[1] == "true"
    ep_line = next(ln for ln in footers(read(str(trace))) if ln.startswith("# ep "))
    assert ep_line == f"# ep s={row[2]} gap={row[3]} overlap={row[4]}"


def test_ep_scan_detects_a_full_model_ep_only_at_its_decay_strength(tmp_path):
    # the n=6 exceptional point of FULL_MODEL_EPS: the row is detected at
    # delta* and not at delta* (1 + 1e-3)
    delta_star, s_star = FULL_MODEL_EPS[(6, 1)]
    out = tmp_path / "ep.csv"
    deltas = f"{delta_star!r},{delta_star * (1 + 1e-3)!r}"
    settings = ["model=ising", "n_qubits=6", "seed=1", "grid_points=201", f"delta0_list={deltas}"]
    assert main(["ep-scan", *(a for kv in settings for a in ("--set", kv)), "--out", str(out)]) == 0
    tuned, detuned = [r.split(",") for r in data_rows(read(str(out)))[1:]]
    assert tuned[1] == "true"
    assert float(tuned[2]) == pytest.approx(s_star, abs=1e-6)
    assert detuned[1:] == ["false", "", "", ""]


def test_determinism_byte_identical(tmp_path):
    args = [
        "gap-trace",
        "--set",
        "model=ising",
        "--set",
        "n_qubits=2",
        "--set",
        "seed=9",
        "--set",
        "delta0=0.5",
        "--set",
        "grid_points=101",
    ]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    assert read(str(out1)).encode() == read(str(out2)).encode()


def test_exit_code_config_error(tmp_path, capsys):
    code = main(["fig1", "--out", str(tmp_path / "x.csv")])  # missing delta0_list
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case",
    [
        "tau-sweep n_list=8 delta0_list=0.5 delta_qubit=0",
        "tau-sweep n_list=8 delta0_list=-0.5",
        "fig1 delta0_list=-1",
        "fig1 delta0_list=0.5 n_qubits=-4",
        "gap-trace model=ising n_qubits=0 seed=1",
        "gap-trace model=ising n_qubits=3 seed=1 tau=-1",  # tau is not a key: runtimes are tau_list
        "gap-trace model=ising n_qubits=3 seed=-1",
        "gap-trace model=ising n_qubits=3 fields=0.1,0.2 couplings=0,1,0.5",
        "gap-trace model=ising n_qubits=2 fields=0.1,0.2 couplings=0,1,0.5;0,1,0.3",
        "ep-scan delta0_list=0.5",  # two-level model with no angle
        "ep-scan delta0=0.5 alpha=0.3",  # no delta0_list
        "evolve model=ising n_qubits=2 seed=1 tau_list=inf",
        "evolve model=ising n_qubits=2 seed=1 tau_list=nan",
        "evolve model=ising n_qubits=2 seed=1 tau_list=1 tol_evolve=-1",
        "gap-trace model=ising n_qubits=2 seed=1 delta0=nan",
        "fig1 delta0_list=inf",
        "tau-sweep n_list=-4,0 delta0_list=0.5",
    ],
)
def test_out_of_range_values_exit_as_config_errors(tmp_path, capsys, case):
    experiment, *sets = case.split()
    out = tmp_path / "x.csv"
    argv = [experiment, *(a for kv in sets for a in ("--set", kv)), "--set", "grid_points=11", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("taus", ["tau_list=10,0", "tau_list=-1"])
def test_evolve_rejects_a_non_positive_tau_as_a_config_error(tmp_path, capsys, taus):
    argv = ["evolve", "--set", "model=ising", "--set", "n_qubits=2", "--set", "seed=1", "--set", taus]
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    assert "positive taus" in capsys.readouterr().err


def test_exit_code_io_error(tmp_path, capsys):
    code = main(
        [
            "fig1",
            "--set",
            "delta0_list=0.5",
            "--set",
            "grid_points=11",
            "--out",
            str(tmp_path / "missing_dir" / "x.csv"),
        ]
    )
    assert code == 4
    assert "i/o error" in capsys.readouterr().err


def test_exit_code_missing_config_file(capsys):
    code = main(["fig1", "--config", "/nonexistent/path.conf", "--out", "/tmp/x.csv"])
    assert code == 4


def test_console_entry_point(tmp_path):
    import shutil
    import subprocess
    import sys

    exe = shutil.which("nhaqo")
    if exe is None:
        pytest.skip("console script not installed")
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [exe, "fig1", "--set", "delta0_list=1", "--set", "grid_points=11", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    proc_bad = subprocess.run([exe, "fig1", "--out", str(out)], capture_output=True, text=True)
    assert proc_bad.returncode == 2


def test_module_entry_point_exit_codes(tmp_path):
    # the exit-code contract through a fresh interpreter, with or without the console script
    import os
    import subprocess
    import sys

    import nhaqo

    src = os.path.dirname(os.path.dirname(nhaqo.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "cli.csv"

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "nhaqo.cli", *argv], capture_output=True, text=True, env=env)

    ok = run("fig1", "--set", "delta0_list=1", "--set", "grid_points=11", "--out", str(out))
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.strip() == str(out) and out.exists()
    bad = run("fig1", "--set", "delta0_list=-1", "--out", str(tmp_path / "bad.csv"))
    assert bad.returncode == 2
    assert bad.stderr.startswith("config error: ") and "Traceback" not in bad.stderr
    assert not (tmp_path / "bad.csv").exists()


def test_config_file_drives_run(tmp_path):
    conf = tmp_path / "fig1.conf"
    conf.write_text(
        "delta0_list = 0.25\n"
        "grid_points = 41\n"
        f"output_path = {tmp_path / 'from_file.csv'}\n"
    )
    code = main(["fig1", "--config", str(conf)])
    assert code == 0
    assert (tmp_path / "from_file.csv").exists()


def test_docs_name_exactly_the_config_keys():
    # README's Keys list and the module docstring's schema against the one declaration
    keys = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert re.findall(r"^    (\w+) +=", nhaqo.cli.__doc__, re.M) == keys
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("\nKeys: ", 1)[1].split(". ", 1)[0]
    assert re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", listed)) == keys
