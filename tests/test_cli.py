"""Config parsing, CSV emission, determinism and exit codes."""

import numpy as np
import pytest

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
        tau=2.0,
        grid_points=301,
        output_path="out.csv",
        couplings=((0, 1, 0.125), (1, 2, -0.7)),
        fields=(0.1, -0.2, 0.3),
    )
    text = serialize_config(cfg)
    rebuilt = ExperimentConfig(**parse_config_text(text))
    assert rebuilt == cfg
    assert config_hash(rebuilt) == config_hash(cfg)


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
    sets = ["model=ising", "n_qubits=2", "seed=1", "delta0=2", "decaying_driver=true", "tau=5000"]
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


@pytest.mark.parametrize("taus", ["tau_list=10,0", "tau=-1"])
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
