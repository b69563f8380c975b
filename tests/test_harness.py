import json
import math

import pytest

import geomis.harness as harness
from conftest import reference_experiment_records
from geomis import (
    AdversaryConfig,
    ArrivalSequence,
    ExperimentConfig,
    TrialRecord,
    UsageError,
    class_count,
    derive_seed,
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
    TrialRecord(0, 1, "firstfit", 5, 2, 4, 2.0, 0.0)
    TrialRecord(0, 1, "firstfit", 5, 0, 3, math.inf, 0.0)
    TrialRecord(0, 1, "firstfit", 0, 0, 0, 1.0, 0.0)
    TrialRecord(0, 1, "firstfit", 5, 2, None, None, 0.0)
    with pytest.raises(UsageError):
        TrialRecord(0, 1, "firstfit", 5, 2, 4, 3.0, 0.0)
    with pytest.raises(UsageError):
        TrialRecord(0, 1, "firstfit", 5, 2, None, 2.0, 0.0)
    with pytest.raises(UsageError):
        TrialRecord(0, 1, "firstfit", 5, 2, 4, None, 0.0)


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
    assert render_csv(records) == render_csv(reference_experiment_records(config))
    if name.startswith("refusal"):
        assert all(r.opt_size is None and r.ratio is None for r in records)
        assert summary.oracle_refusals == len(records)
    else:  # with the oracle off, too, no trial counts as refused
        assert summary.oracle_refusals == 0


# Configs that no trial can run: no dimension for the algorithm, no M,
# or a payload that the algorithm refuses when it arrives.
UNRUNNABLE = {
    "filter-abstract-file": lambda tmp: fixed_instance_config(tmp, algorithm="filter"),
    "hr_classify-abstract-file": (
        lambda tmp: fixed_instance_config(tmp, algorithm="hr_classify", m=4.0)
    ),
    "classify-without-M": lambda tmp: ExperimentConfig(
        algorithm="classify", trials=3, base_seed=1, instance_path=balls_file(tmp)
    ),
    "hr_classify-without-M": lambda tmp: ExperimentConfig(
        algorithm="hr_classify", trials=3, base_seed=1, generator=RECTS
    ),
    "filter-non-unit-balls": lambda tmp: ExperimentConfig(
        algorithm="filter", trials=3, base_seed=1,
        generator=AdversaryConfig(
            kind="random_balls", n=30, dim=3, box_side=20.0, seed=0, radius_range=(1.0, 3.0)
        ),
    ),
    "classify-width-outside-M": lambda tmp: ExperimentConfig(
        algorithm="classify", trials=3, base_seed=1, m=4.0, instance_path=balls_file(tmp)
    ),
}


@pytest.mark.parametrize("name", sorted(UNRUNNABLE))
def test_unrunnable_config_rejected_before_the_oracle(
    name, tmp_path, monkeypatch, oracle_calls
):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    config = UNRUNNABLE[name](tmp_path)
    with pytest.raises(UsageError):
        run_experiment(config)
    assert oracle_calls == []


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_pooled_records_match_per_trial_reference(name, tmp_path, monkeypatch):
    monkeypatch.setenv("GEOMIS_THREADS", "2")
    config = ORACLE_CASES[name][0](tmp_path)
    records, _ = run_experiment(config)
    assert render_csv(records) == render_csv(reference_experiment_records(config))


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
        TrialRecord(i, 0, "firstfit", 4, s, None, None, 0.0)
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


def test_summary_recomputable_from_records(tmp_path, monkeypatch):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    config = fixed_instance_config(tmp_path)
    records, summary = run_experiment(config)
    assert summarize(records) == summary


def test_render_csv_layout():
    records = [
        TrialRecord(0, 11, "filter", 9, 3, 6, 2.0, 1.25),
        TrialRecord(1, 12, "filter", 9, 0, 6, math.inf, 2.5),
        TrialRecord(2, 13, "filter", 9, 4, None, None, 0.5),
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
