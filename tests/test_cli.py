import json

import pytest

from geomis import FirstFit, load_instance, run_online
from geomis.cli import cli_dispatch


def write_k3(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(
        "geomis-instance v1\ndim -\nvertex 0 -\nvertex 1 0\nvertex 2 0,1\n"
    )
    return path


def test_gen_levels_writes_loadable_file(tmp_path, capsys):
    out = tmp_path / "levels.txt"
    rc = cli_dispatch(
        ["gen", "--kind", "levels", "--zeta", "4", "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    stream = load_instance(out)
    assert len(stream) == 8


def test_gen_star_writes_replayable_transcript(tmp_path, capsys):
    out = tmp_path / "star.txt"
    rc = cli_dispatch(["gen", "--kind", "star", "--zeta", "5", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "# accepted 1 of 6" in text
    stream = load_instance(out)
    assert run_online(FirstFit(), stream).size == 1
    assert len(stream) == 6


def test_gen_random_balls_with_radius_range(tmp_path):
    out = tmp_path / "balls.txt"
    rc = cli_dispatch(
        [
            "gen", "--kind", "random_balls", "--n", "12", "--dim", "2",
            "--box-side", "30", "--radius-range", "1", "8",
            "--seed", "5", "--out", str(out),
        ]
    )
    assert rc == 0
    stream = load_instance(out)
    radii = {ev.payload.shape.radius for ev in stream.events}
    assert len(stream) == 12 and max(radii) > 1.0


def test_run_firstfit_on_k3(tmp_path, capsys):
    rc = cli_dispatch(["run", "--alg", "firstfit", "--in", str(write_k3(tmp_path))])
    assert rc == 0
    out = capsys.readouterr().out
    assert "algorithm firstfit" in out
    assert "arrivals 3" in out
    assert "accepted 1: 0" in out
    assert "valid_independent true" in out


def test_run_on_empty_instance(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("geomis-instance v1\ndim -\n")
    rc = cli_dispatch(["run", "--alg", "firstfit", "--in", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "arrivals 0" in out
    assert "accepted 0" in out


def test_run_filter_needs_geometry(tmp_path, capsys):
    rc = cli_dispatch(["run", "--alg", "filter", "--in", str(write_k3(tmp_path))])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_oracle_mis_prints_bare_number(tmp_path, capsys):
    rc = cli_dispatch(["oracle", "--what", "mis", "--in", str(write_k3(tmp_path))])
    assert rc == 0
    assert capsys.readouterr().out == "1\n"


def test_oracle_ikn(tmp_path, capsys):
    rc = cli_dispatch(["oracle", "--what", "ikn", "--in", str(write_k3(tmp_path))])
    assert rc == 0
    assert capsys.readouterr().out == "1\n"


def test_oracle_ratio_report(tmp_path, capsys):
    rc = cli_dispatch(["oracle", "--what", "ratio", "--in", str(write_k3(tmp_path))])
    assert rc == 0
    out = capsys.readouterr().out
    assert "opt 1" in out
    assert "alg 1" in out
    assert "ratio 1.0" in out
    assert "zeta 1" in out
    assert "bound_satisfied true" in out


def test_oracle_refusal_exits_two(tmp_path, capsys):
    out = tmp_path / "big.txt"
    assert cli_dispatch(["gen", "--kind", "levels", "--zeta", "25", "--out", str(out)]) == 0
    capsys.readouterr()
    rc = cli_dispatch(["oracle", "--what", "mis", "--in", str(out)])
    assert rc == 2
    assert "refused:" in capsys.readouterr().err


def test_oracle_node_limit_flag(tmp_path, capsys):
    rc = cli_dispatch(
        ["oracle", "--what", "mis", "--in", str(write_k3(tmp_path)), "--node-limit", "2"]
    )
    assert rc == 2
    assert "refused:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mis", "ikn", "ratio", "experiment"])
def test_negative_node_limit_exits_one(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    if command == "experiment":
        config = experiment_config(tmp_path, node_limit=-1)
        argv = ["experiment", "--config", str(config)]
    else:
        argv = ["oracle", "--what", command, "--in", str(write_k3(tmp_path)),
                "--node-limit", "-1"]
    assert cli_dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: node_limit must be >= 0, got -1\n"


def test_lattice_mindist_check(capsys):
    rc = cli_dispatch(["lattice", "--check", "mindist"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "min_pairwise_distance 4.002502342285386" in out
    assert "pass" in out


def test_lattice_closest_check(capsys):
    rc = cli_dispatch(["lattice", "--check", "closest", "--samples", "150"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "coverage_mismatches 0" in out
    assert out.rstrip().endswith("pass")


@pytest.mark.parametrize("flag, value", [("samples", 0), ("samples", -5), ("window", 0)])
def test_lattice_closest_rejects_counts_below_one(flag, value, capsys):
    rc = cli_dispatch(["lattice", "--check", "closest", f"--{flag}", str(value)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be >= 1, got {value}\n"


def test_lattice_volume_check(capsys):
    rc = cli_dispatch(["lattice", "--check", "volume", "--samples", "40000", "--seed", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "volume_estimate" in out
    assert out.rstrip().endswith("pass")


def experiment_config(tmp_path, **extra):
    cfg = {
        "algorithm": "filter",
        "trials": 5,
        "base_seed": 17,
        "generator": {
            "kind": "random_balls",
            "n": 12,
            "dim": 3,
            "box_side": 6.0,
            "seed": 2,
        },
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_experiment_stdout_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    rc = cli_dispatch(["experiment", "--config", str(experiment_config(tmp_path))])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "trial,seed,alg,n,alg_size,opt_size,ratio,time_ms"
    assert len(lines) == 6
    assert "mean_alg_size" in captured.err


def test_experiment_out_file_and_repeatability(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    config = experiment_config(tmp_path)
    out = tmp_path / "a.csv"
    assert cli_dispatch(["experiment", "--config", str(config), "--out", str(out)]) == 0
    first = out.read_bytes()
    out2 = tmp_path / "b.csv"
    assert cli_dispatch(["experiment", "--config", str(config), "--out", str(out2)]) == 0
    assert out2.read_bytes() == first
    assert "wrote" in capsys.readouterr().out


def test_experiment_trials_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    config = experiment_config(tmp_path)
    rc = cli_dispatch(["experiment", "--config", str(config), "--trials", "2"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_experiment_timing_flag_adds_times(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    config = experiment_config(tmp_path)
    rc = cli_dispatch(["experiment", "--config", str(config), "--timing"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert not lines[1].endswith(",")


def test_unknown_subcommand(capsys):
    assert cli_dispatch(["bogus"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag(capsys):
    assert cli_dispatch(["gen", "--kind", "levels"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_input_file(capsys, tmp_path):
    rc = cli_dispatch(["run", "--alg", "firstfit", "--in", str(tmp_path / "nope.txt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--alg", "firstfit", "--in", "{dir}"],
        ["run", "--alg", "firstfit", "--in", "{non_utf8}"],
        ["experiment", "--config", "{dir}"],
        ["gen", "--kind", "levels", "--out", "{dir}/"],
    ],
    ids=["run-dir", "run-non-utf8", "experiment-dir", "gen-out-dir"],
)
def test_unreadable_path_exits_one_without_traceback(tmp_path, capsys, argv):
    non_utf8 = tmp_path / "non_utf8.txt"
    non_utf8.write_bytes(b"\xffgeomis-instance v1\ndim -\n")
    paths = {"dir": str(tmp_path), "non_utf8": str(non_utf8)}
    assert cli_dispatch([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "experiment"])
def test_non_utf8_file_error_names_the_file(tmp_path, capsys, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xffgeomis-instance v1\ndim -\n")
    if command == "run":
        argv = ["run", "--alg", "firstfit", "--in", str(path)]
    else:
        argv = ["experiment", "--config", str(path)]
    assert cli_dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(path) in captured.err


def test_bad_config_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"algorithm": "firstfit", "trials": 1, "base_seed": 0, "wat": 1}')
    rc = cli_dispatch(["experiment", "--config", str(path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("trials", 2.5),
        ("base_seed", "x"),
        ("generator.radius_range", [1]),
        ("generator.n", "10"),
        ("node_limit", "a"),
    ],
)
def test_malformed_config_exits_one_without_traceback(
    tmp_path, capsys, monkeypatch, key, value
):
    monkeypatch.setenv("GEOMIS_THREADS", "2")
    config = json.loads(experiment_config(tmp_path).read_text())
    if key.startswith("generator."):
        config["generator"][key.split(".", 1)[1]] = value
    else:
        config[key] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(config))
    assert cli_dispatch(["experiment", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_help_exits_zero(capsys):
    assert cli_dispatch(["--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()
