import json
import math
from functools import reduce
from operator import add

import pytest

import geomis.algorithms
import geomis.harness as harness
import geomis.online
from conftest import ReferenceLatticeFilter, reference_experiment_records
from geomis import (
    AdversaryConfig,
    ArrivalSequence,
    ExperimentConfig,
    LatticeFilter,
    LatticeParams,
    TrialRecord,
    UsageError,
    class_count,
    derive_seed,
    generate_instance,
    level_graph_gen,
    random_balls_gen,
    render_csv,
    run_experiment,
    run_online,
    save_instance,
    summarize,
)
from geomis.algorithms import Classify
from geomis.harness import CSV_COLUMNS


def test_derive_seed_golden_values():
    assert derive_seed(0, 0) == 16294208416658607535
    assert derive_seed(0, 0) == derive_seed(0, 0)
    assert derive_seed(0, 1) == 7960286522194355700


def test_derive_seed_distinct_over_many_trials():
    seen = {derive_seed(12345, i) for i in range(10000)}
    assert len(seen) == 10000


def test_derive_seed_handles_odd_bases():
    assert 0 <= derive_seed(-17, 3) < 2**64
    assert 0 <= derive_seed(2**80 + 5, 2) < 2**64
    with pytest.raises(UsageError):
        derive_seed(0, -1)


def test_trial_record_validation():
    # The ratio is derived from opt_size and alg_size, never stored.
    assert TrialRecord(0, 1, "firstfit", 5, 2, 4, 0.0).ratio == 2.0
    assert TrialRecord(0, 1, "firstfit", 5, 0, 3, 0.0).ratio == math.inf
    assert TrialRecord(0, 1, "firstfit", 0, 0, 0, 0.0).ratio == 1.0
    assert TrialRecord(0, 1, "firstfit", 5, 2, None, 0.0).ratio is None


def test_config_json_roundtrip():
    config = ExperimentConfig(
        algorithm="filter",
        trials=7,
        base_seed=99,
        generator=AdversaryConfig(
            kind="random_balls", n=12, dim=3, box_side=6.0, seed=5
        ),
        delta=0.01,
    )
    text = json.dumps(
        {
            "algorithm": "filter", "trials": 7, "base_seed": 99, "instance_path": None,
            "generator": {
                "kind": "random_balls", "n": 12, "dim": 3, "box_side": 6.0, "seed": 5
            },
            "delta": 0.01, "M": 0.0, "mode": "sample", "oracle": True, "node_limit": 40,
            "instance_per_trial": False, "timing": False, "out": None,
        }
    )
    assert ExperimentConfig.from_json(text) == config


def test_config_from_json_uses_capital_m():
    text = json.dumps(
        {
            "algorithm": "classify",
            "trials": 3,
            "base_seed": 0,
            "M": 8.0,
            "generator": {
                "kind": "random_balls",
                "n": 6,
                "dim": 2,
                "box_side": 25.0,
                "seed": 1,
                "radius_range": [1.0, 8.0],
            },
        }
    )
    config = ExperimentConfig.from_json(text)
    assert config.m == 8.0
    assert config.generator.radius_range == (1.0, 8.0)
    with pytest.raises(UsageError, match="unknown config keys"):
        ExperimentConfig.from_json(text.replace('"M"', '"m"'))


def test_config_rejects_unknown_keys_and_bad_shapes():
    with pytest.raises(UsageError):
        ExperimentConfig.from_json('{"algorithm": "firstfit", "bogus": 1}')
    with pytest.raises(UsageError):
        ExperimentConfig.from_json("not json")
    with pytest.raises(UsageError):
        ExperimentConfig.from_json('["list"]')
    with pytest.raises(UsageError):
        ExperimentConfig(algorithm="firstfit", trials=1, base_seed=0)
    with pytest.raises(UsageError):
        ExperimentConfig(
            algorithm="mystery",
            trials=1,
            base_seed=0,
            instance_path="x",
        )
    with pytest.raises(UsageError):
        ExperimentConfig(
            algorithm="firstfit",
            trials=1,
            base_seed=0,
            instance_path="x",
            mode="enumerate",
        )
    with pytest.raises(UsageError):
        ExperimentConfig(
            algorithm="firstfit",
            trials=1,
            base_seed=0,
            instance_path="x",
            instance_per_trial=True,
        )
    # Rejected when read, even with the oracle off.
    with pytest.raises(UsageError, match="^node_limit must be >= 0, got -1$"):
        ExperimentConfig(
            algorithm="firstfit",
            trials=1,
            base_seed=0,
            instance_path="x",
            oracle=False,
            node_limit=-1,
        )


def fixed_instance_config(tmp_path, **overrides):
    stream = level_graph_gen(5, seed=3)
    path = tmp_path / "levels.txt"
    save_instance(stream, path)
    base = dict(
        algorithm="firstfit",
        trials=5,
        base_seed=42,
        instance_path=str(path),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_deterministic_instance_gives_identical_records(tmp_path, monkeypatch):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    config = fixed_instance_config(tmp_path)
    records, summary = run_experiment(config)
    assert len(records) == 5
    first = records[0]
    for r in records[1:]:
        assert (r.alg_size, r.opt_size, r.ratio, r.n) == (
            first.alg_size,
            first.opt_size,
            first.ratio,
            first.n,
        )
    assert first.alg_size == 2
    assert first.opt_size >= 6
    assert summary.mean_alg_size == 2.0
    assert summary.stderr_alg_size == 0.0
    assert summary.oracle_refusals == 0


def test_parallel_and_serial_agree(tmp_path, monkeypatch):
    config = fixed_instance_config(tmp_path, trials=6)
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    serial, _ = run_experiment(config)
    monkeypatch.setenv("GEOMIS_THREADS", "2")
    parallel, _ = run_experiment(config)
    assert render_csv(serial) == render_csv(parallel)


STAR = AdversaryConfig(kind="star", zeta=3)
RECTS_PER_TRIAL = {"generator": AdversaryConfig(kind="random_rects", n=4, dim=2, m=4.0),
                   "instance_per_trial": True}


# The instance path names no file: each config is refused when built,
# before anything could load it.
@pytest.mark.parametrize("fields, message", [
    ({"algorithm": "mystery"},
     "unknown algorithm 'mystery'; expected one of"
     " ('firstfit', 'filter', 'classify', 'hr_classify')"),
    ({"algorithm": "filter", "delta": 0.0}, "delta must be in (0, 1.0], got 0.0"),
    ({"algorithm": "classify"}, "M must be finite and > 2, got 0.0"),
    ({"algorithm": "hr_classify", "m": 2}, "M must be finite and > 2, got 2.0"),
    ({"algorithm": "classify", "m": 2.0, "mode": "enumerate"}, "M must be finite and > 2, got 2.0"),
    ({"algorithm": "firstfit", "mode": "enumerate"},
     "enumerate mode applies to classify / hr_classify only"),
    ({"algorithm": "filter", "mode": "enumerate"},
     "enumerate mode applies to classify / hr_classify only"),
    ({"algorithm": "classify", "m": 8.0, "mode": "enumerate", "instance_path": None,
      "generator": STAR}, "enumerate mode needs a fixed instance"),
    ({"algorithm": "hr_classify", "m": 8.0, "mode": "enumerate", "instance_path": None,
      **RECTS_PER_TRIAL}, "enumerate mode needs a fixed instance"),
    ({"algorithm": "firstfit", "mode": "bogus"},
     "mode must be 'sample' or 'enumerate', got 'bogus'"),
])
def test_algorithm_parameters_refused_when_the_config_is_built(fields, message):
    with pytest.raises(UsageError) as err:
        ExperimentConfig(**{"trials": 2, "base_seed": 0, "instance_path": "missing.gis", **fields})
    assert str(err.value) == message


@pytest.mark.parametrize("fields", [
    {"algorithm": "firstfit", "delta": 5.0},
    {"algorithm": "classify", "m": 2.0000000000000004, "delta": 5.0},
    {"algorithm": "hr_classify", "m": 8.0, "mode": "enumerate"},
    {"algorithm": "filter", "delta": 1.0},
])
def test_config_accepts_parameters_in_range_or_unread(fields):
    ExperimentConfig(**{"trials": 2, "base_seed": 0, "instance_path": "missing.gis", **fields})


def test_bad_thread_env(monkeypatch, tmp_path):
    config = fixed_instance_config(tmp_path)
    monkeypatch.setenv("GEOMIS_THREADS", "zero")
    with pytest.raises(UsageError):
        run_experiment(config)
    monkeypatch.setenv("GEOMIS_THREADS", "0")
    with pytest.raises(UsageError):
        run_experiment(config)


def test_star_generator_runs_adaptively(monkeypatch):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    config = ExperimentConfig(
        algorithm="firstfit",
        trials=3,
        base_seed=7,
        generator=AdversaryConfig(kind="star", zeta=6),
    )
    records, summary = run_experiment(config)
    for r in records:
        assert r.alg_size == 1
        assert r.opt_size == 6
        assert r.ratio == 6.0
        assert r.n == 7
    assert summary.mean_ratio == 6.0


def test_instance_per_trial_resamples(monkeypatch, tmp_path):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    config = ExperimentConfig(
        algorithm="firstfit",
        trials=6,
        base_seed=11,
        generator=AdversaryConfig(
            kind="random_balls", n=15, dim=2, box_side=6.0, seed=0
        ),
        instance_per_trial=True,
    )
    records, _ = run_experiment(config)
    sizes = {r.alg_size for r in records}
    again, _ = run_experiment(config)
    assert render_csv(records) == render_csv(again)
    assert len(sizes) > 1  # instances genuinely differ across trials


def test_enumerate_mode_covers_every_class(monkeypatch, tmp_path):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    from geomis import random_balls_gen

    stream = random_balls_gen(18, dim=2, box_side=25.0, seed=21, radius_range=(1.0, 8.0))
    path = tmp_path / "balls.txt"
    save_instance(stream, path)
    config = ExperimentConfig(
        algorithm="classify",
        trials=1,
        base_seed=5,
        instance_path=str(path),
        m=8.0,
        mode="enumerate",
    )
    records, summary = run_experiment(config)
    assert len(records) == class_count(8.0) == 4
    expected_sizes = [
        run_online(Classify(8.0, forced_class=j), stream).size for j in range(4)
    ]
    assert [r.alg_size for r in records] == expected_sizes
    assert summary.mean_alg_size == sum(expected_sizes) / 4


@pytest.fixture
def oracle_calls(monkeypatch):
    """Sizes of the graphs passed to the harness's exact_mis, in call order."""
    calls = []
    real = harness.exact_mis

    def counting(graph, node_limit):
        calls.append(len(graph))
        return real(graph, node_limit)

    monkeypatch.setattr(harness, "exact_mis", counting)
    return calls


def balls_file(tmp_path):
    stream = random_balls_gen(18, dim=2, box_side=25.0, seed=21, radius_range=(1.0, 8.0))
    path = tmp_path / "balls.txt"
    save_instance(stream, path)
    return str(path)


BALLS = AdversaryConfig(kind="random_balls", n=15, dim=2, box_side=6.0, seed=0)
RECTS = AdversaryConfig(kind="random_rects", n=12, dim=2, m=4.0, box_side=20.0, seed=3)

# name -> (config builder, exact_mis calls expected from run_experiment)
ORACLE_CASES = {
    "file-sample": (lambda tmp: fixed_instance_config(tmp), 1),
    "generator-sample": (
        lambda tmp: ExperimentConfig(
            algorithm="filter", trials=4, base_seed=8, generator=BALLS
        ),
        1,
    ),
    "file-enumerate": (
        lambda tmp: ExperimentConfig(
            algorithm="classify", trials=1, base_seed=5, m=8.0, mode="enumerate",
            instance_path=balls_file(tmp),
        ),
        1,
    ),
    "generator-enumerate": (
        lambda tmp: ExperimentConfig(
            algorithm="hr_classify", trials=1, base_seed=5, m=4.0, mode="enumerate",
            generator=RECTS,
        ),
        1,
    ),
    "oracle-off": (lambda tmp: fixed_instance_config(tmp, oracle=False), 0),
    "instance-per-trial": (
        lambda tmp: ExperimentConfig(
            algorithm="firstfit", trials=4, base_seed=11, generator=BALLS,
            instance_per_trial=True,
        ),
        4,
    ),
    "star": (
        lambda tmp: ExperimentConfig(
            algorithm="firstfit", trials=3, base_seed=7,
            generator=AdversaryConfig(kind="star", zeta=5),
        ),
        3,
    ),
    "refusal-fixed": (lambda tmp: fixed_instance_config(tmp, node_limit=9), 1),
    "refusal-per-trial": (
        lambda tmp: ExperimentConfig(
            algorithm="firstfit", trials=3, base_seed=2, generator=BALLS,
            instance_per_trial=True, node_limit=14,
        ),
        3,
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_oracle_solved_once_per_instance(name, tmp_path, monkeypatch, oracle_calls):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    build, expected_calls = ORACLE_CASES[name]
    config = build(tmp_path)
    records, summary = run_experiment(config)
    assert len(oracle_calls) == expected_calls
    expected, ratios = reference_experiment_records(config)
    assert render_csv(records) == render_csv(expected)
    assert [r.ratio for r in records] == ratios
    if name.startswith("refusal"):
        assert all(r.opt_size is None and r.ratio is None for r in records)
        assert summary.oracle_refusals == len(records)
    else:  # with the oracle off, too, no trial counts as refused
        assert summary.oracle_refusals == 0


# Configs that no trial can run, with the error each is refused with: no
# dimension for the algorithm, no M (refused when the config is built),
# or a payload that the algorithm refuses when it arrives.
UNRUNNABLE = {
    "filter-abstract-file": (
        lambda tmp: fixed_instance_config(tmp, algorithm="filter"),
        "filter needs a geometric instance",
    ),
    "hr_classify-abstract-file": (
        lambda tmp: fixed_instance_config(tmp, algorithm="hr_classify", m=4.0),
        "hr_classify needs a geometric instance",
    ),
    "classify-without-M": (
        lambda tmp: ExperimentConfig(
            algorithm="classify", trials=3, base_seed=1, instance_path=balls_file(tmp)
        ),
        "M must be finite and > 2, got 0.0",
    ),
    "hr_classify-without-M": (
        lambda tmp: ExperimentConfig(
            algorithm="hr_classify", trials=3, base_seed=1, generator=RECTS
        ),
        "M must be finite and > 2, got 0.0",
    ),
    "filter-non-unit-balls": (
        lambda tmp: ExperimentConfig(
            algorithm="filter", trials=3, base_seed=1,
            generator=AdversaryConfig(
                kind="random_balls", n=30, dim=3, box_side=20.0, seed=0,
                radius_range=(1.0, 3.0),
            ),
        ),
        "LatticeFilter requires unit balls, got radius 1.5178335005859267",
    ),
    "classify-width-outside-M": (
        lambda tmp: ExperimentConfig(
            algorithm="classify", trials=3, base_seed=1, m=4.0, instance_path=balls_file(tmp)
        ),
        "arrival 0 has width 5.444999582833044 (its radius), outside [1, 4.0]:"
        " classify needs every width in [1, M]",
    ),
}


@pytest.mark.parametrize("name", sorted(UNRUNNABLE))
def test_unrunnable_config_rejected_before_the_oracle(
    name, tmp_path, monkeypatch, oracle_calls
):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    build, message = UNRUNNABLE[name]
    with pytest.raises(UsageError) as err:
        run_experiment(build(tmp_path))
    assert str(err.value) == message
    assert oracle_calls == []


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_pooled_records_match_per_trial_reference(name, tmp_path, monkeypatch):
    monkeypatch.setenv("GEOMIS_THREADS", "2")
    config = ORACLE_CASES[name][0](tmp_path)
    records, _ = run_experiment(config)
    expected, ratios = reference_experiment_records(config)
    assert render_csv(records) == render_csv(expected)
    assert [r.ratio for r in records] == ratios


def test_pool_ships_the_instance_once_per_worker(tmp_path, monkeypatch):
    path = tmp_path / "balls.gis"
    save_instance(random_balls_gen(200, 3, 12.0, seed=5), path)
    config = ExperimentConfig(
        algorithm="filter", trials=16, base_seed=3, instance_path=str(path), oracle=False
    )
    pickled = []
    real = ArrivalSequence.__reduce_ex__

    def counting(self, protocol):
        pickled.append(len(self))
        return real(self, protocol)

    monkeypatch.setattr(ArrivalSequence, "__reduce_ex__", counting)
    monkeypatch.setenv("GEOMIS_THREADS", "2")
    records, _ = run_experiment(config)
    assert len(records) == 16
    assert len(pickled) <= 2


def test_filter_experiment_fires_the_spans_the_benchmark_requires(monkeypatch):
    # perfbench traces filter experiments through these module attributes
    # and refuses a run in which one never fires: run_online and
    # finalize_run once per trial, parity_rounded_point once per covered
    # arrival.  A path that goes round one of them fails here.
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    calls = {"run_online": 0, "finalize_run": 0}
    rounded = []

    def counted(owner, name):
        real = getattr(owner, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counting)

    counted(harness, "run_online")
    counted(geomis.online, "finalize_run")
    real_round = geomis.algorithms.parity_rounded_point

    def rounding(params, c):
        rounded.append(list(c))
        return real_round(params, c)

    monkeypatch.setattr(geomis.algorithms, "parity_rounded_point", rounding)
    balls = AdversaryConfig(kind="random_balls", n=80, dim=3, box_side=8.0, seed=5)
    config = ExperimentConfig(
        algorithm="filter", trials=6, base_seed=42, generator=balls, oracle=False
    )
    records, _ = run_experiment(config)
    assert calls == {"run_online": 6, "finalize_run": 6}
    # Covered, as the reference judges it: a filter with no cell taken
    # yet accepts the arrival.
    stream, params = generate_instance(balls), LatticeParams(3, config.delta)
    covered = []
    for i in range(6):
        shift = LatticeFilter(params, seed=derive_seed(42, i)).shift
        covered += [
            [x + b for x, b in zip(ev.payload.center, shift)]
            for ev in stream.events
            if ReferenceLatticeFilter(params, shift=shift).decide(ev)
        ]
    assert rounded == covered
    assert sum(r.alg_size for r in records) < len(covered) < 6 * len(stream)


def test_oracle_refusal_recorded_not_raised(monkeypatch, tmp_path):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    config = ExperimentConfig(
        algorithm="firstfit",
        trials=2,
        base_seed=3,
        generator=AdversaryConfig(kind="levels", zeta=30, seed=1),
        node_limit=10,
    )
    records, summary = run_experiment(config)
    for r in records:
        assert r.opt_size is None and r.ratio is None
        assert r.alg_size == 2
    assert summary.oracle_refusals == 2
    assert summary.mean_ratio is None


def test_summarize_known_values():
    records = [
        TrialRecord(i, 0, "firstfit", 4, s, None, 0.0)
        for i, s in enumerate([1, 2, 3])
    ]
    summary = summarize(records)
    assert summary.mean_alg_size == 2.0
    assert summary.stderr_alg_size == pytest.approx(math.sqrt(1.0 / 3.0))
    assert summary.ci3_low == pytest.approx(2.0 - 3.0 * summary.stderr_alg_size)
    assert summary.ci3_high == pytest.approx(2.0 + 3.0 * summary.stderr_alg_size)
    assert summary.mean_ratio is None
    assert summary.oracle_refusals == 3
    with pytest.raises(UsageError):
        summarize([])


def test_one_trial_experiment_has_a_zero_width_interval(tmp_path, monkeypatch):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    records, summary = run_experiment(fixed_instance_config(tmp_path, trials=1))
    assert len(records) == 1 and summary.trials == 1
    assert summary.mean_alg_size == records[0].alg_size
    assert summary.stderr_alg_size == 0.0
    assert summary.ci3_low == summary.ci3_high == summary.mean_alg_size
    assert summary.mean_ratio == records[0].ratio
    with pytest.raises(UsageError) as excinfo:
        fixed_instance_config(tmp_path, trials=0)
    assert str(excinfo.value) == "trials must be >= 1, got 0"


def test_summarize_folds_float_sums_left():
    # math.fsum, like sum() from Python 3.12 on, rounds both the ratio
    # sum and the squared deviations of these trials differently from a
    # left fold, so the printed summary would depend on the interpreter.
    opt_alg = [(36, 27), (35, 25), (35, 18)]
    records = [
        TrialRecord(i, 0, "firstfit", 40, a, o, 0.0) for i, (o, a) in enumerate(opt_alg)
    ]
    ratios = [o / a for o, a in opt_alg]
    squares = [(a - 70 / 3) ** 2 for _, a in opt_alg]
    assert reduce(add, ratios) != math.fsum(ratios)
    assert reduce(add, squares) != math.fsum(squares)
    summary = summarize(records)
    assert summary.mean_alg_size == 70 / 3
    assert summary.mean_ratio == reduce(add, ratios) / 3
    assert summary.stderr_alg_size == math.sqrt(reduce(add, squares) / 2 / 3)
    assert summary.mean_ratio != math.fsum(ratios) / 3
    assert summary.stderr_alg_size != math.sqrt(math.fsum(squares) / 2 / 3)


def test_summary_recomputable_from_records(tmp_path, monkeypatch):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    config = fixed_instance_config(tmp_path)
    records, summary = run_experiment(config)
    assert summarize(records) == summary


def test_render_csv_layout():
    records = [
        TrialRecord(0, 11, "filter", 9, 3, 6, 1.25),
        TrialRecord(1, 12, "filter", 9, 0, 6, 2.5),
        TrialRecord(2, 13, "filter", 9, 4, None, 0.5),
    ]
    text = render_csv(records)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "0,11,filter,9,3,6,2.0,"
    assert lines[2] == "1,12,filter,9,0,6,inf,"
    assert lines[3] == "2,13,filter,9,4,,,"
    timed = render_csv(records, timing=True).splitlines()
    assert timed[1].endswith(",1.250")
    assert timed[3].endswith(",0.500")


def test_csv_written_when_out_set(tmp_path, monkeypatch):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    out = tmp_path / "results.csv"
    config = fixed_instance_config(tmp_path, out=str(out))
    records, _ = run_experiment(config)
    assert out.read_text() == render_csv(records)
