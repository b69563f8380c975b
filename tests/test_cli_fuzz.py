"""Fuzz the CLI contract in process: experiment configs, instance
files and the argv of gen, run, oracle and lattice, drawn valid and
then broken in at most two places.

Whatever the input, cli_dispatch returns 0, 1 or 2 and lets no
exception escape, and a non-zero exit prints exactly one stderr line,
starting with "error:" or "refused:".  The one other non-zero exit is a
failed check, a ratio whose bound fails or a lattice self-check that
fails: a report on stdout, with exit 2 and nothing on stderr.  No
drawn value is valid but large, so each example is refused before any
instance is built or runs in a few milliseconds.
"""

import contextlib
import io
import json
import math
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from geomis import AdversaryConfig, generate_instance, save_instance
from geomis.adversaries import GENERATOR_KINDS
from geomis.algorithms import ALGORITHMS
from geomis.cli import cli_dispatch
from geomis.instances import MAGIC

HUGE = 10**30
HOSTILE = (-1, 0, HUGE, math.nan, math.inf, -math.inf, "3", [1], {}, None, True)
MISSING = object()  # the key is left out

# Fixed instance files, written once per test into its own directory.
FILES = {
    "balls.gis": dict(kind="random_balls", n=6, dim=3, box_side=5.0, seed=1),
    "rects.gis": dict(kind="random_rects", n=6, dim=2, m=4.0, box_side=8.0, seed=1),
    "levels.gis": dict(kind="levels", zeta=3, seed=1),
}

GENERATOR = {
    "kind": GENERATOR_KINDS,
    "zeta": (1, 3, MISSING),
    "n": (0, 3, 8, MISSING),
    "dim": (1, 2, 3, MISSING),
    "M": (2.0, 4, MISSING),
    "box_side": (5.0, 10, MISSING),
    "seed": (0, 5, MISSING),
    "radius_range": ([1, 1], [1.0, 2.0], MISSING),
}
CONFIG = {
    "algorithm": ALGORITHMS,
    "trials": (1, 3),
    "base_seed": (0, 7),
    "delta": (0.01, 0.5, MISSING),
    "M": (4.0, 8, MISSING),
    "mode": ("sample", "enumerate", MISSING),
    "oracle": (True, False, MISSING),
    "node_limit": (40, 0, MISSING),
    "instance_per_trial": (False, True, MISSING),
    "timing": (False, MISSING),
    "out": ("out.csv", MISSING),
}
# Hostile values beyond HOSTILE, for the keys that take more than numbers.
SPECIAL = {
    "kind": ("bogus",),
    "algorithm": ("bogus",),
    "mode": ("",),
    "radius_range": ([1, HUGE], [HUGE, HUGE], [0, 1], [1], [math.nan, 1]),
    "instance_path": ("absent.gis", "."),
    "out": (".",),
}


@st.composite
def broken(draw, valid, extra=None):
    """A dict with each key drawn from its valid pool (MISSING leaves it
    out), then at most two keys given a hostile value or left out, and
    sometimes an unknown key."""
    values = {key: draw(st.sampled_from(pool)) for key, pool in valid.items()}
    values.update(extra or {})
    for key in draw(st.lists(st.sampled_from(sorted(values)), max_size=2, unique=True)):
        values[key] = draw(st.sampled_from((*HOSTILE, *SPECIAL.get(key, ()), MISSING)))
    if draw(st.sampled_from((False,) * 9 + (True,))):
        values["bogus"] = 1
    return {key: value for key, value in values.items() if value is not MISSING}


sources = st.one_of(
    st.fixed_dictionaries({"generator": broken(GENERATOR)}),
    st.fixed_dictionaries({"instance_path": st.sampled_from(sorted(FILES))}),
)
configs = sources.flatmap(lambda source: broken(CONFIG, source))


def _valid_but_large(config):
    """hr_classify enumerates 100^dim classes at M = 10^30: up to 10^6
    trials, under the trial limit."""
    return (config.get("algorithm") == "hr_classify" and config.get("mode") == "enumerate"
            and config.get("M") == HUGE)


def _dispatch(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict("os.environ", {"GEOMIS_THREADS": "1"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_dispatch(argv)
    return rc, out.getvalue(), err.getvalue()


def _assert_contract(rc, out, err):
    assert rc in (0, 1, 2)
    if rc == 2 and out.endswith("bound_satisfied false\n"):
        assert err == ""
    elif rc != 0:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith(("error: ", "refused: ")), err


# The explicit examples are the inputs that once ended in a traceback or
# a run that filled memory, each now one error: or refused: line, and
# the two paths the OS refuses: a missing instance and a directory as out.
EXPERIMENT = {"algorithm": "firstfit", "trials": 2, "base_seed": 1}
BALLS = {"kind": "random_balls", "n": 5, "dim": 3, "box_side": 10.0, "seed": 2}

# Each example takes milliseconds; the two tests take under 3 s together.
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def test_experiment_configs_keep_the_contract(tmp_path):
    for name, fields in FILES.items():
        save_instance(generate_instance(AdversaryConfig(**fields)), tmp_path / name)

    @FUZZ
    @given(config=configs)
    @example(config=dict(EXPERIMENT, generator={**BALLS, "box_side": 1e308}, algorithm="filter"))
    @example(config=dict(EXPERIMENT, generator={**BALLS, "dim": 10**21}))
    @example(config=dict(EXPERIMENT, generator={**BALLS, "n": 1001, "dim": 1000}))
    @example(config=dict(EXPERIMENT, generator={"kind": "star", "zeta": 100001}))
    @example(config=dict(EXPERIMENT, instance_path="absent.gis"))
    @example(config=dict(EXPERIMENT, instance_path="balls.gis", out="."))
    def check(config):
        if _valid_but_large(config):
            return
        config = dict(config)
        for key in ("instance_path", "out"):
            if isinstance(config.get(key), str):
                config[key] = str(tmp_path / config[key])
        (tmp_path / "c.json").write_text(json.dumps(config))
        _assert_contract(*_dispatch(["experiment", "--config", str(tmp_path / "c.json")]))

    check()


NUMBERS = ("0", "1", "2.5", "-1", "4")
TOKENS = ("nan", "inf", "-inf", "1e308", "-1e308", "1e400", str(HUGE), "x", "1,2", "-", "")
HEADERS = ("", "geomis-instance v2", "\ufeff" + MAGIC, "dim 0", "dim -1", "dim 1001",
           f"dim {HUGE}", "dim nan", "dim 1.5", "dim", "dim 3 4", "dimension 3")


@st.composite
def instance_texts(draw):
    """An instance file of one valid kind, then at most two faults: a
    line replaced by a hostile header, a token replaced, dropped or
    added, or a line's tag changed."""
    dim = draw(st.sampled_from((1, 2, 3, None)))
    n = draw(st.integers(0, 5))
    numbers = st.lists(st.sampled_from(NUMBERS), min_size=dim or 0, max_size=dim or 0)
    if dim is None:
        lines = [f"vertex {v} " + (",".join(map(str, range(v))) if v else "-") for v in range(n)]
    elif draw(st.booleans()):
        lines = [" ".join(["ball", *draw(numbers), "1"]) for _ in range(n)]
    else:
        lines = [" ".join(["rect", *(f"{lo} {float(lo) + 2}" for lo in draw(numbers))])
                 for _ in range(n)]
    lines = [MAGIC, "dim " + ("-" if dim is None else str(dim)), *lines]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        fault = draw(st.sampled_from(("header", "replace", "drop", "add", "tag")))
        if fault == "header":
            lines[at] = draw(st.sampled_from(HEADERS))
            continue
        tokens = lines[at].split() or [""]
        spot = draw(st.integers(0, len(tokens) - 1))
        if fault == "replace":
            tokens[spot] = draw(st.sampled_from(TOKENS + NUMBERS))
        elif fault == "drop":
            del tokens[spot]
        elif fault == "add":
            tokens.insert(spot, draw(st.sampled_from(TOKENS + NUMBERS)))
        else:
            tokens[0] = draw(st.sampled_from(("ball", "rect", "vertex", "point")))
        lines[at] = " ".join(tokens)
    return "\n".join(lines) + "\n"


commands = st.one_of(
    st.builds(lambda alg: ["run", "--alg", alg], st.sampled_from(ALGORITHMS)),
    st.builds(lambda what: ["oracle", "--what", what], st.sampled_from(["mis", "ikn"])),
    st.builds(lambda alg: ["oracle", "--what", "ratio", "--alg", alg],
              st.sampled_from(ALGORITHMS)),
)


def test_instance_files_keep_the_contract(tmp_path):
    @FUZZ
    @given(text=instance_texts(), command=commands)
    @example(text=f"{MAGIC}\ndim {10**21}\n", command=["run", "--alg", "filter"])
    @example(text=f"{MAGIC}\ndim 1001\n", command=["run", "--alg", "hr_classify"])
    def check(text, command):
        path = tmp_path / "f.gis"
        path.write_text(text, encoding="utf-8")
        _assert_contract(*_dispatch([*command, "--in", str(path)]))

    check()


# CLI argv: each subcommand's flags, each drawn from small valid values
# (MISSING leaves an optional flag at its default).  A value is split on
# spaces into tokens; --in and --out name files in the test's directory.
# --window and --samples are never left out: at their defaults a closest
# check is valid but scans up to 10^7 window points.
FLAGS = {
    "gen": {
        "--kind": GENERATOR_KINDS,
        "--zeta": ("1", "3", MISSING),
        "--n": ("0", "7", "30", MISSING),
        "--dim": ("1", "2", "4", MISSING),
        "--M": ("1", "4.5", MISSING),
        "--box-side": ("5", "10", MISSING),
        "--radius-range": ("1 1", "1 2", MISSING),
        "--seed": ("0", "7", MISSING),
        "--out": ("out.gis",),
    },
    "run": {
        "--alg": ALGORITHMS,
        "--in": tuple(FILES),
        "--seed": ("0", "7", MISSING),
        "--delta": ("0.01", "1", MISSING),
        "--M": ("4", "8.5", MISSING),
    },
    "oracle": {
        "--what": ("mis", "ikn", "ratio"),
        "--in": tuple(FILES),
        "--alg": (*ALGORITHMS, MISSING),
        "--seed": ("0", "7", MISSING),
        "--delta": ("0.01", "1", MISSING),
        "--M": ("4", "8.5", MISSING),
        "--node-limit": ("0", "40", MISSING),
    },
    "lattice": {
        "--check": ("mindist", "closest", "volume"),
        "--dim": ("2", "3", "4", MISSING),
        "--delta": ("0.01", "1", MISSING),
        "--window": ("1", "2"),
        "--samples": ("1", "50"),
        "--seed": ("0", "7", MISSING),
    },
}
# Hostile tokens for any flag.  HUGE parses as every int and float flag;
# each flag it could make large (zeta, n, dim, window, samples) has a
# limit that refuses it before anything is allocated.
ARGV_HOSTILE = ("-1", "0", "nan", "inf", "-inf", "x", "2.5", "", str(HUGE), "1 1",
                "absent.gis", ".")


@st.composite
def argvs(draw):
    """A subcommand's argv from FLAGS, then at most two flags given a
    hostile value or left out, and sometimes an unknown flag or an
    unknown subcommand."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    values = {flag: draw(st.sampled_from(pool)) for flag, pool in flags.items()}
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True)):
        kept = flag in ("--window", "--samples")
        values[flag] = draw(st.sampled_from((*ARGV_HOSTILE, *(() if kept else (MISSING,)))))
    argv = [command]
    for flag, value in values.items():
        if value is not MISSING:
            argv += [flag, *value.split(" ")]
    extra = draw(st.sampled_from((None,) * 8 + ("--bogus", "subcommand")))
    if extra == "--bogus":
        argv += ["--bogus", "1"]
    elif extra == "subcommand":
        argv[0] = "bogus"
    return argv


def _assert_argv_contract(rc, out, err):
    if rc == 2 and out.endswith("FAIL\n"):  # a lattice self-check that fails
        assert err == ""
    else:
        _assert_contract(rc, out, err)


# The examples are hand probes of the contract, then the one input that
# ended in a traceback: a negative volume seed, which numpy refused.
def test_cli_argv_keeps_the_contract(tmp_path):
    for name, fields in FILES.items():
        save_instance(generate_instance(AdversaryConfig(**fields)), tmp_path / name)

    @FUZZ
    @given(argv=argvs())
    @example(argv=["gen", "--kind", "random_balls", "--n", "0", "--out", "out.gis"])
    @example(argv=["gen", "--kind", "star", "--zeta", "0", "--out", "out.gis"])
    @example(argv=["gen", "--kind", "random_balls", "--box-side", "1e308", "--out", "out.gis"])
    @example(argv=["gen", "--kind", "random_balls", "--radius-range", "1", "1e308",
                   "--out", "out.gis"])
    @example(argv=["gen", "--kind", "random_rects", "--M", "2", "--out", "out.gis"])
    @example(argv=["gen", "--kind", "levels", "--zeta", str(HUGE), "--out", "out.gis"])
    @example(argv=["oracle", "--what", "mis", "--node-limit", "-1", "--in", "balls.gis"])
    @example(argv=["oracle", "--what", "ratio", "--alg", "filter", "--in", "balls.gis"])
    @example(argv=["lattice", "--check", "mindist", "--window", "0"])
    @example(argv=["lattice", "--check", "closest", "--dim", str(HUGE)])
    @example(argv=["lattice", "--check", "volume", "--samples", "1"])
    @example(argv=["lattice", "--check", "volume", "--samples", "1", "--seed", "-1"])
    def check(argv):
        argv = list(argv)
        for at, token in enumerate(argv[:-1]):
            if token in ("--in", "--out"):
                argv[at + 1] = str(tmp_path / argv[at + 1])
        _assert_argv_contract(*_dispatch(argv))

    check()

