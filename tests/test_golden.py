"""Golden outputs: SHA-256 digests of experiment CSVs and CLI output.

The digests pin how seeds, delta, M, forced classes and generator
parameters reach each algorithm and instance source, so a refactor that
changes any of them fails here even when two runs of one commit agree.
Each golden output is held here once, with the argv that prints it; the
command-line tours run in process through cli_dispatch, and one test
starts `python -m geomis` to pin the exit codes of a real process.
"""

import builtins
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import geomis
from geomis import ExperimentConfig, render_csv, run_experiment
from geomis.cli import cli_dispatch


def sha256(text):
    data = text if isinstance(text, bytes) else text.encode()
    return hashlib.sha256(data).hexdigest()


BALLS = {"kind": "random_balls", "n": 25, "dim": 2, "box_side": 30.0,
         "radius_range": [1.0, 7.0], "seed": 5}
RECTS = {"kind": "random_rects", "n": 30, "dim": 2, "M": 6.0, "box_side": 20.0, "seed": 2}

EXPERIMENTS = {
    "firstfit-levels": {
        "algorithm": "firstfit", "trials": 6, "base_seed": 3, "instance_per_trial": True,
        "generator": {"kind": "levels", "zeta": 8, "seed": 1},
    },
    "firstfit-balls-per-trial": {
        "algorithm": "firstfit", "trials": 4, "base_seed": 2, "instance_per_trial": True,
        "generator": {"kind": "random_balls", "n": 30, "dim": 2, "box_side": 10.0,
                      "radius_range": [1.0, 2.0]},
    },
    "readme-filter": {
        "algorithm": "filter", "trials": 50, "base_seed": 42, "node_limit": 100,
        "generator": {"kind": "random_balls", "n": 80, "dim": 3, "box_side": 8.0, "seed": 5},
    },
    "filter-delta": {
        "algorithm": "filter", "trials": 12, "base_seed": 8, "delta": 0.3, "oracle": False,
        "generator": {"kind": "random_balls", "n": 60, "dim": 2, "box_side": 12.0, "seed": 1},
    },
    "classify-sample": {
        "algorithm": "classify", "trials": 10, "base_seed": 9, "M": 8.0, "generator": BALLS,
    },
    "classify-enumerate": {
        "algorithm": "classify", "trials": 1, "base_seed": 9, "M": 8.0, "mode": "enumerate",
        "generator": BALLS,
    },
    "hr_classify-sample": {
        "algorithm": "hr_classify", "trials": 10, "base_seed": 4, "M": 6.0, "generator": RECTS,
    },
    "hr_classify-enumerate": {
        "algorithm": "hr_classify", "trials": 1, "base_seed": 4, "M": 6.0, "mode": "enumerate",
        "generator": RECTS,
    },
    "firstfit-star": {
        "algorithm": "firstfit", "trials": 4, "base_seed": 6,
        "generator": {"kind": "star", "zeta": 5},
    },
    "hr_classify-boxes-per-trial": {
        "algorithm": "hr_classify", "M": 8, "trials": 4, "base_seed": 42,
        "generator": {"kind": "random_rects", "n": 1000, "dim": 2, "M": 8, "box_side": 100.0},
        "instance_per_trial": True, "oracle": False,
    },
}

EXPERIMENT_DIGESTS = {
    "classify-enumerate": "3e41ba2b8cbc9d756be2d0b01db39e48530dc4faba164e08419b843742b8c0e0",
    "classify-sample": "9fdaf9f5c854e57fe33d0a1c485fa3cb9eda54fd0c61ab6c4a2f4997f2ad5b8c",
    "filter-delta": "76a1fe92f6f6fee4db3fa5d4cc7f1a7c9da7428075faeeba1c3fe9ce7b0a9d4f",
    "firstfit-balls-per-trial": "dac8854e48b655252d95ca0cdac1e97a00ba1dedb630f9a98ffcfef4bc3dc889",
    "firstfit-levels": "c3a9ec9ce5f8e6ae0abad5f5080396cd893ae617f3b3a27ec36a1af406812fc5",
    "firstfit-star": "9213d4e59350f87d075e61a8fbe6dfd28aa109485ec1907e7e1e27f52674575f",
    "hr_classify-boxes-per-trial": "5c190155f1a76e532e43c7824a973051bf73e384622ba113c405e927918f35b6",
    "hr_classify-enumerate": "675b00cf1013bbff44a035062c641833c5e4ae776409a27a710917816273fbf8",
    "hr_classify-sample": "9ec5587d96b6f3485abff35f64676ad5c98f426fc45901758d52a2180c302915",
    "readme-filter": "1d75fb02140fb7c5ecc35b2c5e6feb970add0fae7eebce6def3d2681655b6b5f",
}


# Serial runs keep the plain name; pooled runs on two workers add "-pooled".
@pytest.mark.parametrize("name,threads", [
    pytest.param(name, threads, id=name if threads == 1 else f"{name}-pooled")
    for name in sorted(EXPERIMENTS) for threads in (1, 2)
])
def test_experiment_csv_digest(name, threads, monkeypatch):
    monkeypatch.setenv("GEOMIS_THREADS", str(threads))
    records, _ = run_experiment(ExperimentConfig.from_json(json.dumps(EXPERIMENTS[name])))
    assert sha256(render_csv(records)) == EXPERIMENT_DIGESTS[name]


# Under spawn and forkserver a worker imports geomis afresh and gets the
# config and stream pickled, where fork inherits them; the bytes must
# not depend on it.  The start method is process-wide, so each run is a
# process of its own.
POOLED_DIGEST = """\
import hashlib, json, multiprocessing, sys
from geomis import ExperimentConfig, render_csv, run_experiment
multiprocessing.set_start_method(sys.argv[1])
records, _ = run_experiment(ExperimentConfig.from_json(sys.argv[2]))
print(hashlib.sha256(render_csv(records).encode()).hexdigest())
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pooled_readme_digest_under_start_method(method, tmp_path):
    src = str(Path(geomis.__file__).resolve().parents[1])
    env = dict(os.environ, GEOMIS_THREADS="2",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", POOLED_DIGEST, method, json.dumps(EXPERIMENTS["readme-filter"])],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == EXPERIMENT_DIGESTS["readme-filter"] + "\n"


def _int_only_sum(iterable, start=0):
    """builtins.sum, refusing float items: sum() compensates float sums
    from Python 3.12 on, so a float sum could change the bytes."""
    items = list(iterable)
    for item in (start, *items):
        if isinstance(item, float):
            raise AssertionError(f"sum() over the float {item!r}")
    return builtins.sum(items, start)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_sums_no_floats(name, monkeypatch):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    modules = [geomis] + [
        importlib.import_module(f"geomis.{info.name}")
        for info in pkgutil.iter_modules(geomis.__path__) if info.name != "__main__"
    ]
    for module in modules:
        monkeypatch.setattr(module, "sum", _int_only_sum, raising=False)
    records, _ = run_experiment(ExperimentConfig.from_json(json.dumps(EXPERIMENTS[name])))
    assert sha256(render_csv(records)) == EXPERIMENT_DIGESTS[name]


# instance name -> gen flags
GEN = {
    "levels": ["--kind", "levels", "--zeta", "6", "--seed", "7"],
    "unit_balls": ["--kind", "random_balls", "--n", "30", "--dim", "3",
                   "--box-side", "8", "--seed", "4"],
    "balls": ["--kind", "random_balls", "--n", "25", "--dim", "2", "--box-side", "30",
              "--radius-range", "1", "7", "--seed", "5"],
    "rects": ["--kind", "random_rects", "--n", "30", "--dim", "2", "--M", "6",
              "--box-side", "20", "--seed", "2"],
    "star": ["--kind", "star", "--zeta", "5"],
}

# digest of (file bytes, stdout with the directory replaced)
GEN_DIGESTS = {
    "balls": "4aab0e9cd2ab0c380553230a2136b6cc58af908874381786a7ed5c983a4e6bc4",
    "levels": "74e5c6deed4522eca21bfb311c337b8ece1c567b6421d59522d0560e01f7dbcd",
    "rects": "1bf226b07ec2b2d3d465c7afb85d29174018715bc5f82e88dde2641a1a7a877a",
    "star": "b875ea973698e703475b43366e8df03960fdcb2d7a8f629d9b7d441f9d6c94a9",
    "unit_balls": "63070f0b50c75dac47437bec2be60147dbf31412aeb5bb30521f7c9996e35f7f",
}

# case -> (instance, argv after "--in <file>")
RUNS = {
    "firstfit": ("levels", ["--alg", "firstfit"]),
    "filter": ("unit_balls", ["--alg", "filter", "--seed", "3", "--delta", "0.05"]),
    "classify": ("balls", ["--alg", "classify", "--seed", "9", "--M", "8"]),
    "hr_classify": ("rects", ["--alg", "hr_classify", "--seed", "4", "--M", "6"]),
    "filter-abstract": ("levels", ["--alg", "filter"]),
    "hr_classify-abstract": ("levels", ["--alg", "hr_classify"]),
}

# digest of (exit code, stdout, stderr) per command and case
RUN_DIGESTS = {
    "oracle-ikn/classify": "584a80e59d0d5a7fd5c4d968ab77548840d083dff98015748aa5fb3feed7b39f",
    "oracle-ikn/filter": "584a80e59d0d5a7fd5c4d968ab77548840d083dff98015748aa5fb3feed7b39f",
    "oracle-ikn/filter-abstract": "ed7be8e2a1701d2c34e9a43524e045b9ea3fe146a45e6779c83ff5a252ec92e9",
    "oracle-ikn/firstfit": "ed7be8e2a1701d2c34e9a43524e045b9ea3fe146a45e6779c83ff5a252ec92e9",
    "oracle-ikn/hr_classify": "584a80e59d0d5a7fd5c4d968ab77548840d083dff98015748aa5fb3feed7b39f",
    "oracle-ikn/hr_classify-abstract": "ed7be8e2a1701d2c34e9a43524e045b9ea3fe146a45e6779c83ff5a252ec92e9",
    "oracle-mis/classify": "e22e35e9f8c4605d4ddfdb00ff8f7b347782a70c09ec66cc0b6aeb2a4c072d7c",
    "oracle-mis/filter": "95cc547a1fc29fe97ffb08853b4868ddce21eac796b2ef4c2e1c3e245f7b6ae8",
    "oracle-mis/filter-abstract": "1670e42340a0bb0f16266d018cf7d23af52cf5616ffc08efcf8935af1b03203f",
    "oracle-mis/firstfit": "1670e42340a0bb0f16266d018cf7d23af52cf5616ffc08efcf8935af1b03203f",
    "oracle-mis/hr_classify": "cd38863d3e2ab2be10fc008ce40810823305f5a6f03f55f7ee0e6cb5cbaf9e73",
    "oracle-mis/hr_classify-abstract": "1670e42340a0bb0f16266d018cf7d23af52cf5616ffc08efcf8935af1b03203f",
    "oracle-ratio/classify": "694bc6e6df7343cbb19a122e0e9510c5f90b77d0a4ef12328513d3b8c7a02a14",
    "oracle-ratio/filter": "ca425a55d1ef65060376cb9fddf78e869b80a9bd8e400212c4bd453c4ecfc06f",
    "oracle-ratio/filter-abstract": "bea7519b33c3b658013a44c1f3fd4c63ac491585931c4b443bd762a8e756b602",
    "oracle-ratio/firstfit": "64b9d4ce4e04eb1779710c0b20117ba778e7866d7177fe46dac05a1bc3e0b4ed",
    "oracle-ratio/hr_classify": "bec8f791a218c8e8f5e8b3d27a755ab1ef8ec75099b012f4e9d9b2318f496cb5",
    "oracle-ratio/hr_classify-abstract": "96d200a0ea8e397827473b16384cab7f537b5a99825e6b939c02cea06a4fc7fc",
    "run/classify": "8c0c8bee3f04139f7c1469f823df3abf7d4837ea1cb36d4f900468b513fd34ba",
    "run/filter": "11c8fc0b3e8b7a9d7154506efed8a22293c247c2e17ce4143d3cfa79ee9318a7",
    "run/filter-abstract": "bea7519b33c3b658013a44c1f3fd4c63ac491585931c4b443bd762a8e756b602",
    "run/firstfit": "8a4220c5f9ffa7b3bdd59707c2d793e1e7deb26d1352b0aac36ceb933a6afce2",
    "run/hr_classify": "48d4df9c16bdd0db3db999079cf15c54285c0b29cb6d8508f9332065301bdd3c",
    "run/hr_classify-abstract": "96d200a0ea8e397827473b16384cab7f537b5a99825e6b939c02cea06a4fc7fc",
}


def run_cli(argv, capsys):
    rc = cli_dispatch(argv)
    captured = capsys.readouterr()
    return f"{rc}\0{captured.out}\0{captured.err}"


@pytest.fixture
def instances(tmp_path, capsys):
    paths = {}
    for name, flags in GEN.items():
        paths[name] = tmp_path / f"{name}.gis"
        assert cli_dispatch(["gen", *flags, "--out", str(paths[name])]) == 0
    capsys.readouterr()
    return paths


@pytest.mark.parametrize("name", sorted(GEN))
def test_gen_digest(name, tmp_path, capsys):
    out = tmp_path / "instance.gis"
    printed = run_cli(["gen", *GEN[name], "--out", str(out)], capsys)
    printed = printed.replace(str(tmp_path), "<dir>")
    assert sha256(out.read_bytes() + b"\0" + printed.encode()) == GEN_DIGESTS[name]


@pytest.mark.parametrize("command", ["run", "oracle-ratio", "oracle-mis", "oracle-ikn"])
@pytest.mark.parametrize("case", sorted(RUNS))
def test_run_and_oracle_output_digest(command, case, instances, capsys):
    instance, flags = RUNS[case]
    head = ["run"] if command == "run" else ["oracle", "--what", command.split("-")[1]]
    printed = run_cli([*head, "--in", str(instances[instance]), *flags], capsys)
    assert sha256(printed) == RUN_DIGESTS[f"{command}/{case}"]


# The README's lattice self-checks, argv after "lattice" -> (exact
# stdout, its digest)
LATTICE = {
    "mindist": (
        ["--check", "mindist"],
        "min_pairwise_distance 4.002502342285386\n"
        "required > 4: pass\n",
        "9abf21c12b8d0eb099a4da59285ecdf480d8af15a14dbbad94f8a84370098685",
    ),
    "volume": (
        ["--check", "volume", "--dim", "3", "--samples", "200000", "--seed", "1"],
        "box_origin (-7.312715117751976, 6.9486747387446535, 5.275492379532281)\n"
        "covered_fraction 0.087305 (stderr 6.312e-04)\n"
        "expected_fraction 0.08704884049847031\n"
        "volume_estimate 4.201116599999999\n"
        "expected_volume 4.1887902047863905\n"
        "pass\n",
        "0b53cd8a0d55cb822a8c10ad81e7a5035024e05633c9d12a152fcc050bce61bb",
    ),
}


@pytest.mark.parametrize("name", sorted(LATTICE))
def test_lattice_readme_output(name, capsys):
    argv, stdout, digest = LATTICE[name]
    assert run_cli(["lattice", *argv], capsys) == f"0\0{stdout}\0"
    assert sha256(stdout) == digest


# The filter on the 2000-ball instance: the experiment CSV, serial and
# pooled, and three runs, each written by relative path in one directory.
F2K_GEN = ["gen", "--kind", "random_balls", "--n", "2000", "--dim", "3",
           "--box-side", "30", "--seed", "5", "--out", "balls.gis"]
F2K_CONFIG = {"algorithm": "filter", "trials": 20, "base_seed": 42,
              "instance_path": "balls.gis", "oracle": False}


@pytest.fixture(scope="module")
def f2k_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("f2k")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        assert cli_dispatch(F2K_GEN) == 0
    (path / "filter2k.json").write_text(json.dumps(F2K_CONFIG))
    return path


@pytest.mark.parametrize("threads", [1, 2])
def test_filter_2k_experiment_csv_digest(threads, f2k_dir, monkeypatch):
    monkeypatch.chdir(f2k_dir)
    monkeypatch.setenv("GEOMIS_THREADS", str(threads))
    assert cli_dispatch(["experiment", "--config", "filter2k.json", "--out", "f2k.csv"]) == 0
    digest = sha256((f2k_dir / "f2k.csv").read_bytes())
    assert digest == "a70abe03eb2114d25f5fa1c83b5330ffe22f2743814067b836e641a65711286c"


def test_filter_2k_run_output_digest(f2k_dir, monkeypatch, capsys):
    monkeypatch.chdir(f2k_dir)
    capsys.readouterr()
    for seed in range(3):
        assert cli_dispatch(["run", "--alg", "filter", "--seed", str(seed), "--in", "balls.gis"]) == 0
    digest = sha256(capsys.readouterr().out)
    assert digest == "56902e713f0dd4098d1e2610fbcf8295d9b41b6a20744957092d40fe0793b773"


# The README's ball-oracle and level-graph tours: each writes its files
# in a fresh directory, and the pinned text is the stdout of all its
# commands.
def test_readme_ball_oracle_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_dispatch(["gen", "--kind", "random_balls", "--n", "80", "--dim", "3",
                         "--box-side", "8", "--seed", "5", "--out", "balls80.gis"]) == 0
    capsys.readouterr()
    for what in ("mis", "ikn"):
        assert cli_dispatch(["oracle", "--what", what, "--in", "balls80.gis",
                             "--node-limit", "100"]) == 0
    assert cli_dispatch(["oracle", "--what", "ratio", "--alg", "firstfit", "--in", "balls80.gis",
                         "--node-limit", "100"]) == 0
    assert capsys.readouterr().out == (
        "34\n"
        "4\n"
        "opt 34\n"
        "alg 31\n"
        "ratio 1.096774193548387\n"
        "zeta 4\n"
        "bound_satisfied true\n"
    )


def test_readme_level_graph_tour_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_dispatch(["gen", "--kind", "levels", "--zeta", "4", "--seed", "7",
                         "--out", "levels.gis"]) == 0
    assert cli_dispatch(["run", "--alg", "firstfit", "--in", "levels.gis"]) == 0
    assert cli_dispatch(["oracle", "--what", "ratio", "--in", "levels.gis",
                         "--alg", "firstfit"]) == 0
    assert capsys.readouterr().out == (
        "wrote levels.gis (8 arrivals)\n"
        "algorithm firstfit\n"
        "arrivals 8\n"
        "accepted 2: 0 1\n"
        "valid_independent true\n"
        "valid_irrevocable true\n"
        "opt 5\n"
        "alg 2\n"
        "ratio 2.5\n"
        "zeta 4\n"
        "bound_satisfied true\n"
    )


# The filter outside d = 3: run --alg filter at seeds 0, 1, 2 on one
# instance each of d = 2 and d = 4 (26 accepted at seed 0), digest of the
# three runs' stdout.
FILTER_DIMS = {
    2: (["--box-side", "40"],
        "ecb55b289d910775626b91a09933f693a3e46888e9ceddd66c0ce892d85effcb"),
    4: (["--box-side", "12"],
        "bfb615903082e7d18572b50ab27f3a953eade071f0722bd9b959e5019e15dba4"),
}


@pytest.mark.parametrize("dim", sorted(FILTER_DIMS))
def test_filter_generic_dim_run_output_digest(dim, tmp_path, monkeypatch, capsys):
    flags, expected = FILTER_DIMS[dim]
    monkeypatch.chdir(tmp_path)
    assert cli_dispatch(["gen", "--kind", "random_balls", "--n", "1000", "--dim", str(dim),
                         *flags, "--seed", "1", "--out", "balls.gis"]) == 0
    capsys.readouterr()
    for seed in range(3):
        assert cli_dispatch(["run", "--alg", "filter", "--seed", str(seed), "--in", "balls.gis"]) == 0
    assert sha256(capsys.readouterr().out) == expected


# Random instances in d = 7 (balls) and d = 5 (boxes) through gen and
# run --alg firstfit, digest of the whole stdout.
def test_high_dimension_instances_output_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["gen", "--kind", "random_balls", "--n", "1000", "--dim", "7", "--box-side", "8",
         "--seed", "1", "--out", "b7.gis"],
        ["run", "--alg", "firstfit", "--in", "b7.gis"],
        ["gen", "--kind", "random_rects", "--n", "500", "--dim", "5", "--M", "4",
         "--box-side", "20", "--seed", "1", "--out", "r5.gis"],
        ["run", "--alg", "firstfit", "--in", "r5.gis"],
    ):
        assert cli_dispatch(argv) == 0
    digest = sha256(capsys.readouterr().out)
    assert digest == "c0e70a326ecf4e9918595b2c3539457a7bdacac7ca2e38e7b7b83acf154fdf50"


# The workload-sized instances, 1000 boxes and 2000 unit balls, through
# gen and run --alg firstfit, digest of the whole stdout.
def test_workload_sized_instances_output_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in (
        "gen --kind random_rects --n 1000 --dim 2 --M 8 --box-side 100 --seed 5 --out rects.gis",
        "run --alg firstfit --in rects.gis",
        "gen --kind random_balls --n 2000 --dim 3 --box-side 30 --seed 5 --out balls.gis",
        "run --alg firstfit --in balls.gis",
    ):
        assert cli_dispatch(argv.split()) == 0
    digest = sha256(capsys.readouterr().out)
    assert digest == "820c086f9296d39479e7d6745febeb7f6ae2b51cfa19e73b315858d2c293484e"


def test_module_entry_point_exit_codes(tmp_path):
    """`python -m geomis` in its own process: main() exits with
    cli_dispatch's code, and a refused or invalid command prints one
    line to stderr and no traceback."""
    src = str(Path(geomis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run(argv):
        done = subprocess.run([sys.executable, "-m", "geomis", *argv.split()],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert "Traceback" not in done.stderr
        return done.returncode, done.stdout, done.stderr

    assert run("lattice --check mindist") == (0, LATTICE["mindist"][1], "")
    assert run("gen --kind random_balls --n 3 --dim 2 --box-side nan --seed 1 --out x.gis") == (
        1, "", "error: box_side must be finite, got nan\n"
    )
    assert not (tmp_path / "x.gis").exists()
    (tmp_path / "many.json").write_text(
        '{"algorithm": "firstfit", "trials": 100000000000000000000, "base_seed": 1,'
        ' "generator": {"kind": "levels", "zeta": 4, "seed": 2}}'
    )
    assert run("experiment --config many.json") == (
        2, "", "refused: trials 100000000000000000000 exceeds the limit 1000000\n"
    )
