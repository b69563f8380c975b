import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geomis

import geomis.cli as cli
import geomis.harness as harness
import geomis.lattice as lattice
from geomis import (
    AdversaryConfig,
    ArrivalSequence,
    Ball,
    ExperimentConfig,
    FirstFit,
    HyperRectangle,
    LatticeParams,
    OracleRefusal,
    filter_acceptance_probability,
    generate_instance,
    load_instance,
    run_online,
    save_instance,
)
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
    radii = {ev.payload.radius for ev in stream.events}
    assert len(stream) == 12 and max(radii) > 1.0


def test_gen_random_rects_at_m_one_round_trips_through_hr_classify(tmp_path, capsys):
    # Every side drawn at M = 1 is 1, and a box whose stored hi - lo
    # rounds away from 1 is redrawn, so hr_classify accepts the file.
    out = str(tmp_path / "unit.gis")
    rc = cli_dispatch(["gen", "--kind", "random_rects", "--M", "1", "--n", "200", "--dim", "3",
                       "--box-side", "20", "--seed", "0", "--out", out])
    assert rc == 0
    capsys.readouterr()
    assert cli_dispatch(["run", "--alg", "hr_classify", "--in", out]) == 0
    captured = capsys.readouterr()
    assert "valid_independent true" in captured.out
    assert captured.err == ""


def test_run_firstfit_on_k3(tmp_path, capsys):
    rc = cli_dispatch(["run", "--alg", "firstfit", "--in", str(write_k3(tmp_path))])
    assert rc == 0
    out = capsys.readouterr().out
    assert "algorithm firstfit" in out
    assert "arrivals 3" in out
    assert "accepted 1: 0" in out
    assert "valid_independent true" in out


def test_gen_with_no_arrivals_keeps_the_dim(tmp_path, capsys):
    out = tmp_path / "empty.gis"
    rc = cli_dispatch(["gen", "--kind", "random_balls", "--n", "0", "--out", str(out)])
    assert rc == 0
    assert out.read_text() == "geomis-instance v1\ndim 3\n"
    assert load_instance(out).dim == 3


@pytest.mark.parametrize("oracle", [True, False])
@pytest.mark.parametrize("fields", [
    {"algorithm": "filter",
     "generator": {"kind": "random_balls", "n": 0, "dim": 3, "box_side": 8.0}},
    {"algorithm": "hr_classify", "M": 4.0, "mode": "enumerate",
     "generator": {"kind": "random_rects", "n": 0, "dim": 2, "M": 4.0, "box_side": 8.0}},
])
def test_experiment_on_a_generator_placing_nothing(tmp_path, capsys, monkeypatch, fields, oracle):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    config = tmp_path / "empty.json"
    config.write_text(json.dumps({"trials": 2, "base_seed": 3, "oracle": oracle, **fields}))
    assert cli_dispatch(["experiment", "--config", str(config)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "trial,seed,alg,n,alg_size,opt_size,ratio,time_ms"
    assert rows
    for row in rows:
        _, _, alg, n, alg_size, opt_size, ratio, _ = row.split(",")
        assert (alg, n, alg_size) == (fields["algorithm"], "0", "0")
        assert (opt_size, ratio) == (("0", "1.0") if oracle else ("", ""))


def test_failed_check_reports_on_stdout_alone(tmp_path, capsys):
    path = tmp_path / "one.gis"
    path.write_text("geomis-instance v1\ndim 3\nball 0.0 0.0 0.0 1.0\n")
    # Seed 0's shift leaves the ball uncovered, so the filter accepts nothing.
    argv = ["oracle", "--what", "ratio", "--alg", "filter", "--seed", "0", "--in", str(path)]
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out.endswith("alg 0\nratio inf\nzeta 0\nbound_satisfied false\n")
    assert captured.err == ""


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


@pytest.mark.parametrize("what", ["mis", "ikn", "ratio"])
def test_oracle_builds_the_graph_once(tmp_path, capsys, monkeypatch, what):
    path = tmp_path / "balls.txt"
    config = AdversaryConfig(kind="random_balls", n=30, dim=3, box_side=8.0, seed=1)
    save_instance(generate_instance(config), path)
    built = []
    real = ArrivalSequence.adjacency

    def counting(self):
        built.append(len(self))
        return real(self)

    monkeypatch.setattr(ArrivalSequence, "adjacency", counting)
    assert cli_dispatch(["oracle", "--what", what, "--in", str(path)]) == 0
    assert built == [30]


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


# Queries whose nearest lattice point has coefficients outside
# [-w, w]^dim: the brute-force window is taken around the rounded point.
@pytest.mark.parametrize("argv, queries", [
    (["--dim", "4", "--samples", "100", "--window", "2", "--seed", "2"], 100),
    (["--dim", "2", "--window", "1", "--seed", "3"], 10000),
])
def test_lattice_closest_window_follows_the_query(argv, queries, capsys):
    rc = cli_dispatch(["lattice", "--check", "closest", *argv])
    assert capsys.readouterr().out == (
        f"queries {queries}\nmax_distance_deviation 0.0\ncoverage_mismatches 0\npass\n"
    )
    assert rc == 0


@pytest.mark.parametrize("flag, value", [("samples", 0), ("samples", -5), ("window", 0)])
def test_lattice_closest_rejects_counts_below_one(flag, value, capsys):
    rc = cli_dispatch(["lattice", "--check", "closest", f"--{flag}", str(value)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be >= 1, got {value}\n"


class _WorkStarted(Exception):
    pass


def _start_work(*args, **kwargs):
    raise _WorkStarted


@pytest.fixture
def lattice_work_stubbed(monkeypatch):
    """Each lattice self-check's first piece of work raises _WorkStarted:
    the first lattice point min_pairwise_distance builds once it has
    sized its work, and the closest and volume queries."""
    monkeypatch.setattr(lattice, "_coords", _start_work)
    for name in ("closest_lattice_point", "mc_volume_fraction"):
        monkeypatch.setattr(cli, name, _start_work)


@pytest.mark.parametrize("argv", [
    ["--check", "mindist"],
    ["--check", "closest"],
    ["--check", "volume"],
    ["--check", "volume", "--dim", "3", "--samples", "200000", "--seed", "1"],
])
def test_lattice_work_limits_admit_defaults_and_readme(argv, lattice_work_stubbed):
    with pytest.raises(_WorkStarted):
        cli_dispatch(["lattice", *argv])


@pytest.mark.parametrize("argv, message", [
    (["--check", "mindist", "--dim", "12", "--window", "3"],
     "mindist lattice differences: 13 x 13^11 exceeds the limit 1000000"),
    (["--check", "mindist", "--window", "1000000"],
     "mindist lattice differences: 4000001 x 4000001^2 exceeds the limit 1000000"),
    (["--check", "closest", "--window", "1000000"],
     "closest window points scanned: 10000 x 2000001^3 exceeds the limit 10000000"),
    (["--check", "closest", "--dim", "1000000000000"],
     "closest window points scanned: 10000 x 7^1000000000000 exceeds the limit 10000000"),
    (["--check", "volume", "--dim", "1000000000000"],
     "volume sample coordinates: 10000 x 1000000000000 exceeds the limit 4000000"),
    (["--check", "volume", "--samples", "2000000"],
     "volume sample coordinates: 2000000 x 3 exceeds the limit 4000000"),
])
def test_lattice_refuses_oversized_work_before_starting(
    argv, message, lattice_work_stubbed, capsys
):
    assert cli_dispatch(["lattice", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"refused: {message}\n"


@pytest.mark.parametrize("argv, flag, value", [
    (["--check", "mindist", "--window", "0", "--dim", "1000000000000"], "window", 0),
    (["--check", "volume", "--samples", "0", "--dim", "1000000000000"], "samples", 0),
])
def test_lattice_rejects_counts_below_one_before_sizing_work(argv, flag, value, capsys):
    assert cli_dispatch(["lattice", *argv]) == 1
    assert capsys.readouterr().err == f"error: {flag} must be >= 1, got {value}\n"


def test_lattice_volume_check(capsys):
    rc = cli_dispatch(["lattice", "--check", "volume", "--samples", "40000", "--seed", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "volume_estimate" in out
    assert out.rstrip().endswith("pass")


def test_volume_check_passes_a_correct_lattice_at_few_samples(capsys):
    # The tolerance comes from the expected fraction: a sample whose
    # points all land on one side has a standard error of 0.
    for seed in range(10):
        argv = ["--check", "volume", "--dim", "3", "--samples", "10", "--seed", str(seed)]
        assert cli_dispatch(["lattice", *argv]) == 0
        assert capsys.readouterr().out.endswith("\npass\n")


@pytest.mark.parametrize("dim", range(2, 12))
def test_volume_check_expects_the_filter_acceptance_probability(dim, capsys):
    for delta in (0.001, 0.01, 0.07, 0.1, 0.3, 0.5, 1.0):
        argv = ["--check", "volume", "--dim", str(dim), "--delta", str(delta), "--samples", "1"]
        cli_dispatch(["lattice", *argv])
        expected = filter_acceptance_probability(LatticeParams(dim, delta))
        assert f"\nexpected_fraction {expected!r}\n" in capsys.readouterr().out


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


@pytest.mark.parametrize("drop, generator, message", [
    (None, {"kind": "random_rects", "m": 4.0, "M": 8.0}, "unknown generator keys: ['m']"),
    (None, {"kind": "random_rects", "m": 4.0}, "unknown generator keys: ['m']"),
    (None, {"kind": "levels", "bogus": 1}, "unknown generator keys: ['bogus']"),
    (None, {"zeta": 4}, "missing generator keys: ['kind']"),
    ("trials", {"kind": "levels", "zeta": 4}, "missing config keys: ['trials']"),
])
def test_config_keys_named_in_one_error_line(tmp_path, capsys, drop, generator, message):
    config = {"algorithm": "firstfit", "trials": 2, "base_seed": 1, "generator": generator}
    config.pop(drop, None)
    path = tmp_path / "keys.json"
    path.write_text(json.dumps(config))
    assert cli_dispatch(["experiment", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_help_exits_zero(capsys):
    assert cli_dispatch(["--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()


@pytest.mark.parametrize("command", ["run", "experiment-serial", "experiment-pooled",
                                     "closest", "volume"])
def test_delta_above_the_bound_exits_one_without_traceback(
    tmp_path, capsys, monkeypatch, command
):
    instance = tmp_path / "balls.gis"
    assert cli_dispatch(["gen", "--kind", "random_balls", "--n", "30", "--dim", "3",
                         "--box-side", "8", "--seed", "1", "--out", str(instance)]) == 0
    capsys.readouterr()
    if command == "run":
        argv = ["run", "--alg", "filter", "--in", str(instance), "--delta", "1e200",
                "--seed", "1"]
        delta = "1e+200"
    elif command.startswith("experiment"):
        monkeypatch.setenv("GEOMIS_THREADS", "1" if command.endswith("serial") else "2")
        config = tmp_path / "huge_delta.json"
        config.write_text(json.dumps({
            "algorithm": "filter", "trials": 4, "base_seed": 42,
            "instance_path": str(instance), "oracle": False, "delta": 1e308,
        }))
        argv = ["experiment", "--config", str(config), "--out", str(tmp_path / "f.csv")]
        delta = "1e+308"
    elif command == "closest":
        argv = ["lattice", "--check", "closest", "--delta", "1e200", "--samples", "10",
                "--window", "1"]
        delta = "1e+200"
    else:
        argv = ["lattice", "--check", "volume", "--delta", "1e308", "--samples", "1000"]
        delta = "1e+308"
    assert cli_dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: delta must be in (0, 1.0], got {delta}\n"


@pytest.mark.parametrize("kind, name, value, n", [
    ("random_balls", "box_side", "nan", 3),
    ("random_balls", "box_side", "inf", 0),
    ("random_rects", "box_side", "-inf", 3),
    ("random_rects", "M", "inf", 3),
    ("random_rects", "M", "nan", 0),
])
def test_non_finite_generator_parameters_exit_one_before_any_draw(
    tmp_path, capsys, monkeypatch, kind, name, value, n
):
    message = f"error: {name} must be finite, got {value}\n"
    params = {"box_side": 10.0, "M": 8.0, name: float(value)}
    out = tmp_path / "x.gis"
    argv = ["gen", "--kind", kind, "--n", str(n), "--dim", "2", "--seed", "1",
            "--out", str(out)]
    argv += [f"--box-side={params['box_side']}", f"--M={params['M']}"]
    assert cli_dispatch(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)
    assert not out.exists()
    for threads, per_trial in (("1", False), ("2", True)):
        monkeypatch.setenv("GEOMIS_THREADS", threads)
        config = tmp_path / "gen.json"
        # json writes the non-finite floats as NaN, Infinity and -Infinity.
        config.write_text(json.dumps({
            "algorithm": "firstfit", "trials": 3, "base_seed": 1,
            "instance_per_trial": per_trial,
            "generator": {"kind": kind, "n": n, "dim": 2, "seed": 2, **params},
        }))
        csv = tmp_path / "gen.csv"
        assert cli_dispatch(["experiment", "--config", str(config), "--out", str(csv)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)
        assert not csv.exists()


@pytest.mark.parametrize("kind, name", [("random_balls", "box_side"), ("random_rects", "M")])
def test_generator_integers_past_float_range_exit_one(tmp_path, capsys, monkeypatch, kind, name):
    message = f"error: {name} must be finite, got an integer too large for a float\n"
    params = {"box_side": 10.0, "M": 8.0, name: int("9" * 401)}
    for threads, per_trial in (("1", False), ("2", True)):
        monkeypatch.setenv("GEOMIS_THREADS", threads)
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({
            "algorithm": "firstfit", "trials": 3, "base_seed": 1,
            "instance_per_trial": per_trial,
            "generator": {"kind": kind, "n": 3, "dim": 2, "seed": 2, **params},
        }))
        csv = tmp_path / "gen.csv"
        assert cli_dispatch(["experiment", "--config", str(config), "--out", str(csv)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)
        assert not csv.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("algorithm, mode", [
    ("classify", "sample"), ("hr_classify", "sample"),
    ("classify", "enumerate"), ("hr_classify", "enumerate"),
])
def test_top_level_m_past_float_range_exits_one(
    tmp_path, capsys, monkeypatch, instance_builds, threads, algorithm, mode
):
    monkeypatch.setenv("GEOMIS_THREADS", threads)
    instance = tmp_path / "boxes.gis"
    save_instance(generate_instance(AdversaryConfig(
        kind="random_rects", n=3, dim=2, m=8.0, box_side=50.0, seed=1)), instance)
    rects = {"kind": "random_rects", "n": 3, "dim": 2, "M": 8, "box_side": 50.0, "seed": 2}
    for source in ({"instance_path": str(instance)}, {"generator": rects}):
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({
            "algorithm": algorithm, "trials": 3, "base_seed": 1, "M": int("9" * 401),
            "mode": mode, **source,
        }))
        csv = tmp_path / "huge.csv"
        assert cli_dispatch(["experiment", "--config", str(config), "--out", str(csv)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: M must be finite, got an integer too large for a float\n"
        )
        assert instance_builds == []
        assert not csv.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("algorithm", ["classify", "hr_classify"])
def test_config_without_m_exits_one_before_any_instance(
    tmp_path, capsys, monkeypatch, instance_builds, threads, algorithm
):
    monkeypatch.setenv("GEOMIS_THREADS", threads)
    instance = tmp_path / "boxes.gis"
    save_instance(generate_instance(AdversaryConfig(
        kind="random_rects", n=3, dim=2, m=8.0, box_side=50.0, seed=1)), instance)
    rects = {"kind": "random_rects", "n": 3, "dim": 2, "M": 8, "box_side": 50.0, "seed": 2}
    for source in ({"instance_path": str(instance)}, {"generator": rects}):
        config = tmp_path / "no_m.json"
        config.write_text(json.dumps({
            "algorithm": algorithm, "trials": 3, "base_seed": 1, **source,
        }))
        assert cli_dispatch(["experiment", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: M must be finite and > 2, got 0.0\n")
        assert instance_builds == []


@pytest.mark.parametrize("radii, shown", [(["1", "inf"], "inf"), (["nan", "1"], "nan")])
@pytest.mark.parametrize("n", [5, 0])
def test_non_finite_radius_range_exits_one_before_any_draw(tmp_path, capsys, radii, shown, n):
    message = f"error: radius_range must be finite, got {shown}\n"
    out = tmp_path / "x.gis"
    assert cli_dispatch(["gen", "--kind", "random_balls", "--n", str(n), "--dim", "2",
                         "--box-side", "10", "--radius-range", *radii, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)
    assert not out.exists()
    config = tmp_path / "gen.json"
    # json writes the non-finite floats as NaN and Infinity.
    config.write_text(json.dumps({
        "algorithm": "firstfit", "trials": 3, "base_seed": 1,
        "generator": {"kind": "random_balls", "n": n, "dim": 2, "box_side": 10.0,
                      "seed": 2, "radius_range": [float(r) for r in radii]},
    }))
    assert cli_dispatch(["experiment", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


def test_config_integer_past_the_str_digit_limit_exits_one(tmp_path, capsys):
    config = tmp_path / "huge.json"
    config.write_text(
        '{"algorithm": "firstfit", "trials": 1, "base_seed": ' + "9" * 5000
        + ', "generator": {"kind": "levels", "zeta": 4, "seed": 2}}'
    )
    assert cli_dispatch(["experiment", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad config JSON: ")
    assert captured.err.count("\n") == 1


@pytest.fixture
def levels_work_stubbed(monkeypatch):
    """Building a levels instance raises _WorkStarted."""
    monkeypatch.setattr("geomis.adversaries.level_graph_gen", _start_work)


@pytest.mark.parametrize("zeta", [1001, 100000000])
def test_oversized_levels_refused_before_any_work(
    tmp_path, capsys, monkeypatch, levels_work_stubbed, zeta
):
    message = f"refused: levels zeta {zeta} exceeds the limit 1000\n"
    out = tmp_path / "levels.gis"
    assert cli_dispatch(["gen", "--kind", "levels", "--zeta", str(zeta), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)
    assert not out.exists()
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    config = tmp_path / "levels.json"
    config.write_text(json.dumps({
        "algorithm": "firstfit", "trials": 3, "base_seed": 1,
        "generator": {"kind": "levels", "zeta": zeta, "seed": 2},
    }))
    assert cli_dispatch(["experiment", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


def test_levels_limit_admits_zeta_at_the_limit(tmp_path, levels_work_stubbed):
    with pytest.raises(_WorkStarted):
        cli_dispatch(["gen", "--kind", "levels", "--zeta", "1000",
                      "--out", str(tmp_path / "levels.gis")])


@pytest.fixture
def instance_builds(monkeypatch):
    """Names of the harness's load_instance / generate_instance calls."""
    calls = []
    for name in ("load_instance", "generate_instance"):
        def counted(*args, _name=name, _original=getattr(harness, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    return calls


@pytest.mark.parametrize("override", [False, True])
def test_trials_past_the_limit_refused_before_any_instance(
    tmp_path, capsys, monkeypatch, instance_builds, override
):
    trials = 100000000000000000000
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    config = tmp_path / "many.json"
    config.write_text(json.dumps({
        "algorithm": "firstfit", "trials": 3 if override else trials, "base_seed": 1,
        "generator": {"kind": "levels", "zeta": 4, "seed": 2},
    }))
    argv = ["experiment", "--config", str(config)]
    if override:
        argv += ["--trials", str(trials)]
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"refused: trials {trials} exceeds the limit 1000000\n"
    )
    assert instance_builds == []


def test_trial_limit_admits_trials_at_the_limit(monkeypatch):
    monkeypatch.setattr(harness, "TRIAL_LIMIT", 3)
    levels = AdversaryConfig(kind="levels", zeta=4, seed=2)
    ExperimentConfig(algorithm="firstfit", trials=3, base_seed=1, generator=levels)
    with pytest.raises(OracleRefusal, match="^trials 4 exceeds the limit 3$"):
        ExperimentConfig(algorithm="firstfit", trials=4, base_seed=1, generator=levels)


@pytest.mark.parametrize("dim", [2, 30])
def test_enumerate_past_the_limit_refused_before_any_class(tmp_path, capsys, monkeypatch, dim):
    # M = 8 gives 4 classes per axis, so 4^dim classes against a limit of 15.
    monkeypatch.setattr(harness, "TRIAL_LIMIT", 15)
    instance = tmp_path / "boxes.gis"
    assert cli_dispatch(["gen", "--kind", "random_rects", "--n", "3", "--dim", str(dim),
                         "--M", "8", "--box-side", "50", "--out", str(instance)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("geomis.algorithms.product", _start_work)
    config = tmp_path / "enumerate.json"
    config.write_text(json.dumps({
        "algorithm": "hr_classify", "trials": 1, "base_seed": 1, "M": 8.0,
        "mode": "enumerate", "instance_path": str(instance),
    }))
    assert cli_dispatch(["experiment", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"refused: hr_classify enumerate classes: 1 x 4^{dim} exceeds the limit 15\n"
    )


def test_enumerate_limit_admits_classes_at_the_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "TRIAL_LIMIT", 16)
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    instance = tmp_path / "boxes.gis"
    assert cli_dispatch(["gen", "--kind", "random_rects", "--n", "3", "--dim", "2",
                         "--M", "8", "--box-side", "50", "--out", str(instance)]) == 0
    config = ExperimentConfig(algorithm="hr_classify", trials=1, base_seed=1, m=8.0,
                              mode="enumerate", instance_path=str(instance))
    records, _ = harness.run_experiment(config)
    assert len(records) == 16


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("source", ["file", "generator"])
def test_filter_delta_checked_before_any_instance(
    tmp_path, capsys, monkeypatch, instance_builds, threads, source
):
    monkeypatch.setenv("GEOMIS_THREADS", threads)
    balls = {"kind": "random_balls", "n": 30, "dim": 3, "box_side": 8.0, "seed": 1}
    config = {"algorithm": "filter", "trials": 4, "base_seed": 42, "delta": 2.0}
    if source == "file":
        instance = tmp_path / "balls.gis"
        save_instance(generate_instance(AdversaryConfig(**balls)), instance)
        config["instance_path"] = str(instance)
    else:
        config["generator"] = balls
    path = tmp_path / "filter.json"
    path.write_text(json.dumps(config))
    assert cli_dispatch(["experiment", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: delta must be in (0, 1.0], got 2.0\n")
    assert instance_builds == []
    # Only the filter builds a lattice, so other algorithms ignore delta.
    path.write_text(json.dumps({**config, "algorithm": "firstfit"}))
    assert cli_dispatch(["experiment", "--config", str(path)]) == 0
    assert instance_builds == ["load_instance" if source == "file" else "generate_instance"]


@pytest.mark.parametrize(
    "shapes, width",
    [
        (
            [HyperRectangle((10.0, 10.0), (12.0, 12.0)),
             HyperRectangle((0.0, 0.0), (3.0, 1.2))],
            "0.6 (half its smallest side)",
        ),
        ([Ball((30.0, 30.0), 1.0), Ball((0.0, 0.0), 9.5)], "9.5 (its radius)"),
    ],
)
def test_classify_width_error_names_the_arrival(tmp_path, capsys, shapes, width):
    instance = tmp_path / "shapes.gis"
    save_instance(ArrivalSequence.from_objects(shapes), instance)
    rc = cli_dispatch(["run", "--alg", "classify", "--M", "8", "--in", str(instance)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err == (
        f"error: arrival 1 has width {width}, outside [1, 8.0]:"
        " classify needs every width in [1, M]\n"
    )


def _experiment(generator, algorithm="firstfit"):
    return json.dumps({
        "algorithm": algorithm, "trials": 2, "base_seed": 1, "generator": generator,
    })


HUGE = 10**21
NO_ARRIVALS = "geomis-instance v1\ndim {}\n"


# Each case fails fast at the unbounded code: a traceback, or exit 0
# within a second or two, never a run that fills memory.
@pytest.mark.parametrize(
    "argv, files, expected",
    [
        ("experiment --config c.json",
         {"c.json": _experiment({"kind": "random_balls", "n": 5, "dim": 3,
                                 "box_side": 1e308, "seed": 2}, "filter")},
         (1, "error: arrival 0: ball center overflows the lattice arithmetic\n")),
        (f"gen --kind random_balls --dim {HUGE} --out x.gis", {},
         (2, f"refused: dim {HUGE} exceeds the limit 1000\n")),
        ("gen --kind random_rects --n 0 --dim 1001 --out x.gis", {},
         (2, "refused: dim 1001 exceeds the limit 1000\n")),
        ("experiment --config c.json",
         {"c.json": _experiment({"kind": "random_balls", "n": 5, "dim": HUGE,
                                 "box_side": 10.0})},
         (2, f"refused: dim {HUGE} exceeds the limit 1000\n")),
        ("run --alg filter --in f.gis", {"f.gis": NO_ARRIVALS.format(HUGE)},
         (2, f"refused: dim {HUGE} exceeds the limit 1000\n")),
        ("run --alg hr_classify --in f.gis", {"f.gis": NO_ARRIVALS.format(1001)},
         (2, "refused: dim 1001 exceeds the limit 1000\n")),
        ("gen --kind random_balls --n 1001 --dim 1000 --box-side 100 --out x.gis", {},
         (2, "refused: instance coordinates: 1001 x 1000 exceeds the limit 1000000\n")),
        ("gen --kind star --zeta 100001 --out x.gis", {},
         (2, "refused: star zeta 100001 exceeds the limit 100000\n")),
        ("experiment --config c.json", {"c.json": _experiment({"kind": "star", "zeta": 100001})},
         (2, "refused: star zeta 100001 exceeds the limit 100000\n")),
    ],
)
def test_oversized_and_overflowing_inputs_end_in_one_line(tmp_path, argv, files, expected):
    """`python -m geomis` in its own process, under a time limit: each
    input exits 1 or 2 with one stderr line, no output and no traceback."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    src = str(Path(geomis.__file__).resolve().parents[1])
    env = dict(os.environ, GEOMIS_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "geomis", *argv.split()], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stderr) == expected
    assert done.stdout == ""
    assert not (tmp_path / "x.gis").exists()
