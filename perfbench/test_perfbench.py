"""Smoke test of the benchmark itself, at reduced size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import COUNT_UNITS, import_program  # noqa: E402

import_program()

import calibration  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, experiment_config  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def result(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, proc.stderr
    return out


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


def test_workloads_match_the_contract():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in CONTRACT["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_prints_with_its_unit_and_counts_repeat(workload):
    plain = result(workload, 0)["metrics"]
    assert {k: v["unit"] for k, v in plain.items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in plain.values())

    first, second = (result(workload, 1)["metrics"] for _ in range(2))
    assert {k: v["unit"] for k, v in first.items()} == units("per_layer")
    for name in COUNT_UNITS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["geometry.edges"]["value"] > 0
    oracle_calls = first["oracle.exact_mis.calls"]["value"]
    assert (oracle_calls > 0) == (workload == "oracle_readme")
    # only filter_fixed_2k's set-up generates and writes an instance
    generator = first["setup.adversaries.random_balls_gen.busy_s"]["value"]
    assert (generator > 0) == (workload == "filter_fixed_2k")
    assert 0 < first["trace.coverage"]["value"] <= 1


def test_default_seed_is_the_readme_config():
    assert experiment_config("oracle_readme", 0, "full") == {
        "algorithm": "filter",
        "trials": 50,
        "base_seed": 42,
        "generator": {"kind": "random_balls", "n": 80, "dim": 3, "box_side": 8.0, "seed": 5},
        "node_limit": 100,
    }


def test_tracer_refuses_a_missing_callable():
    import geomis.harness

    original = geomis.harness.exact_mis
    bogus = tracer.TARGETS + (("oracle.gone", "geomis.oracle", "no_such_function", None),)
    with pytest.raises(tracer.TracerError, match="no_such_function"):
        tracer.Tracer(bogus)
    assert geomis.harness.exact_mis is original


def test_tracer_puts_the_originals_back():
    import geomis.harness

    original = geomis.harness.exact_mis
    t = tracer.Tracer()
    with t:
        assert geomis.harness.exact_mis is not original
    assert geomis.harness.exact_mis is original


def test_tracer_refuses_a_span_that_never_fired():
    t = tracer.Tracer()
    with t:
        spans = t.take()
    with pytest.raises(tracer.TracerError, match="lattice.parity_rounded_point"):
        spans.require(["lattice.parity_rounded_point"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "oracle_readme", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_samples_every_cpu_and_stops_its_samplers():
    cpus = sorted(os.sched_getaffinity(0))
    with calibration.Speed(cpus) as speed:
        samplers = list(speed._procs)
        start = time.perf_counter()
        time.sleep(0.5)
        end = time.perf_counter()
    assert len(samplers) == len(cpus)
    assert all(proc.returncode == 0 for proc in samplers)
    assert sorted(speed.samples) == cpus
    wall, cpu = speed.slowdown([(start, end)])
    assert wall > 0 and cpu > 0
    assert speed.slowdown([(end + 1, end + 2)], default=(1.0, 1.0)) == (1.0, 1.0)
    with pytest.raises(calibration.CalibrationError):
        speed.slowdown([(end + 1, end + 2)])
