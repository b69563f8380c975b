#!/usr/bin/env python3
"""Benchmark of the geomis experiment path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  Each workload is a closed loop
of one caller that runs one seeded experiment again and again through
``geomis.cli.cli_dispatch``.  ``--trace 0`` prints the end-to-end
metrics; its timed calls run in a process of their own, so that the
peak RSS covers them and their pool workers only.  Its times are scaled
to a reference machine speed, sampled on every CPU while they run (see
calibration.py); the unscaled figures are printed on the line before
the result.  ``--trace 1`` runs
serially with the per-layer tracer, traces one in-process set-up as
well, and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Optional

from calibration import CalibrationError, Speed
from workloads import (
    CONFIG_FILE,
    DEFAULT_SEED,
    INSTANCE_FILE,
    SIZES,
    WORKLOADS,
    experiment_config,
    instance_size,
    write_workload_files,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

# Set-ups per end-to-end run, made both before and after the timed
# calls: each time at least this many, and until this much set-up time
# has passed.  setup_s is the median of all of them, which so spans the
# run's window as the timed calls do.
SETUP_MIN_REPEATS = 2
SETUP_SECONDS = 2.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s.p50": "s",
    "cpu_s.p50": "s",
    "trials_per_s": "trials/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: counts repeat exactly per experiment call, times
# are medians over the traced calls.
COUNT_UNITS = {
    "oracle.exact_mis.calls": "count",
    "oracle.refusals": "count",
    "online.adjacency.calls": "count",
    "geometry.intersection_graph.calls": "count",
    "geometry.edges": "count",
    "instances.bytes_read": "bytes",
    "online.arrivals": "count",
    "online.accepted": "count",
    "lattice.parity_rounded_point.calls": "count",
}
TIME_UNITS = {
    "oracle.exact_mis.busy_s": "s",
    "online.adjacency.busy_s": "s",
    "geometry.intersection_graph.busy_s": "s",
    "adversaries.generate_instance.busy_s": "s",
    "adversaries.generate_instance.self_s": "s",
    "instances.load_instance.self_s": "s",
    "online.from_objects.self_s": "s",
    "online.finalize_run.busy_s": "s",
    "algorithms.decide_s": "s",
    "lattice.parity_rounded_point.busy_s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.write_csv.busy_s": "s",
    "cli.cli_dispatch.self_s": "s",
}
# Per-layer metrics of the one traced in-process set-up.
SETUP_TIME_UNITS = {
    "setup.adversaries.random_balls_gen.busy_s": "s",
    "setup.adversaries.random_balls_gen.self_s": "s",
    "setup.geometry.intersection_graph.busy_s": "s",
    "setup.instances.save_instance.busy_s": "s",
}
RATIO_UNITS = {
    "oracle.exact_mis.repeat_ratio": "ratio",
    "online.accept_ratio": "ratio",
    "harness.pool_efficiency": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}
PER_LAYER_UNITS = {**COUNT_UNITS, **TIME_UNITS, **SETUP_TIME_UNITS, **RATIO_UNITS}

# Spans that only dispatch to the layers; their self time is time the
# named layers do not account for, so trace.coverage leaves it out.
GLUE_SPANS = ("cli.cli_dispatch", "harness.run_experiment")

# Span name -> layer, for the share table printed by the traced run.
# run_online's self time is the algorithms' decide loop.
LAYER_OF_SPAN = {"online.run_online": "algorithms"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; exit non-zero without a result."""


def import_program():
    """Import geomis from this checkout's src/ and nowhere else."""
    init = SRC / "geomis" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no program to benchmark: {init} is missing")
    sys.path.insert(0, str(SRC))
    import geomis

    if Path(geomis.__file__).resolve() != init.resolve():
        raise BenchError(f"imported geomis from {geomis.__file__}, not {init}")
    return geomis


def environment_stamp(workload: str, seed: int, threads: int, nproc: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "geomis").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    loadavg = Path("/proc/loadavg")
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "geomis_threads": threads,
        "loadavg": loadavg.read_text().split()[:3] if loadavg.exists() else None,
    }


def run_setup(workload: str, seed: int, size: str, directory: Path,
              cpu: int) -> tuple[float, float]:
    """Set the workload up in a fresh process pinned to ``cpu``; return
    its start and end times."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-into", str(directory),
        "--workload", workload, "--seed", str(seed), "--size", size,
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                          preexec_fn=lambda: yield_to_samplers({cpu}))
    end = time.perf_counter()
    if proc.returncode != 0:
        raise BenchError(f"setup of {workload} failed:\n{proc.stderr}")
    return start, end


def file_digests(directory: Path) -> dict[str, str]:
    """Digests of the files a set-up writes (the timed calls' CSVs sit
    next to them)."""
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in (CONFIG_FILE, INSTANCE_FILE)
        if (directory / name).is_file()
    }


def run_setups(workload: str, seed: int, size: str, directory: Path, cpu: int,
               files: Optional[dict[str, str]] = None
               ) -> tuple[list[tuple[float, float]], dict[str, str]]:
    """Set the workload up in fresh processes, at least SETUP_MIN_REPEATS
    times and until SETUP_SECONDS have passed; return their (start, end)
    times and the digests of the files written.  Every set-up must write
    the same bytes, and the same as ``files`` when that is given."""
    spans: list[tuple[float, float]] = []
    while len(spans) < SETUP_MIN_REPEATS or sum(b - a for a, b in spans) < SETUP_SECONDS:
        spans.append(run_setup(workload, seed, size, directory, cpu))
        written = file_digests(directory)
        if files not in (None, written):
            raise BenchError("set-up wrote different files on a repeat")
        files = written
    return spans, files


@dataclass
class Sample:
    start: float
    wall: float
    cpu: float


def _cpu_seconds() -> float:
    """User+sys CPU of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Caller:
    """Runs the workload's experiment and checks every CSV it writes.

    A call fails if it raises, exits non-zero, or writes a CSV (or
    summary) that differs from the reference: the recorded digest when
    one exists for this seed, otherwise the run's first serial call.
    Pooled calls made before any serial one are checked by ``settle``.
    """

    def __init__(self, geomis, config: dict, directory: Path, expected_n: int,
                 reference: Optional[str]) -> None:
        self.geomis = geomis
        self.config = config
        self.csv_path = directory / "out.csv"
        self.argv = ["experiment", "--config", str(directory / CONFIG_FILE),
                     "--out", str(self.csv_path)]
        self.expected_n = expected_n
        self.reference = reference
        self.summary: Optional[str] = None
        self.attempted = 0
        self.failed = 0
        self.checked: set[str] = set()
        self.pending: Counter[str] = Counter()  # pooled digests awaiting a serial reference

    def call(self, threads: int) -> Sample:
        os.environ["GEOMIS_THREADS"] = str(threads)
        self.csv_path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                # looked up at call time, so the tracer's wrapper runs
                code = self.geomis.cli.cli_dispatch(self.argv)
        except Exception as exc:  # a crash is a failed call, not a benchmark crash
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu0
        problem = self._problem(code, out.getvalue(), err.getvalue(), threads)
        if problem:
            self.failed += 1
            print(f"perfbench: failed call: {problem}", file=sys.stderr)
        return Sample(start=start, wall=wall, cpu=cpu)

    def _problem(self, code, stdout: str, stderr: str, threads: int) -> Optional[str]:
        if code != 0:
            return f"exit {code}: {stderr.strip()}"
        if not self.csv_path.is_file():
            return "no CSV written"
        data = self.csv_path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self.checked:
            bad = self._check_rows(data.decode(errors="replace"))
            if bad:
                return bad
            self.checked.add(digest)
        if self.summary is None:
            self.summary = stdout
        elif stdout != self.summary:
            return "summary differs from the run's first call"
        if self.reference is None:
            if threads != 1:
                self.pending[digest] += 1
                return None
            self.reference = digest
        if digest != self.reference:
            return f"CSV sha256 {digest} differs from reference {self.reference}"
        return None

    def settle(self) -> None:
        """Make a serial call and fail every pending pooled call whose CSV
        differs from it."""
        if not self.pending:
            return
        self.call(1)
        for digest, count in self.pending.items():
            if digest != self.reference:
                self.failed += count
                print(f"perfbench: pooled CSV sha256 {digest} differs from the serial "
                      f"reference {self.reference} ({count} calls)", file=sys.stderr)
        self.pending.clear()

    def _check_rows(self, text: str) -> Optional[str]:
        """Check the CSV's shape and the invariants every row must keep."""
        rows = list(csv.reader(io.StringIO(text)))
        cfg = self.config
        if rows[:1] != [list(self.geomis.harness.CSV_COLUMNS)]:
            return f"bad CSV header {rows[:1]}"
        if len(rows) - 1 != cfg["trials"]:
            return f"{len(rows) - 1} CSV rows for {cfg['trials']} trials"
        oracle = cfg.get("oracle", True)
        for i, row in enumerate(rows[1:]):
            try:
                trial, _seed, alg, n, alg_size, opt, ratio, time_ms = row
                ok = (int(trial), alg, int(n)) == (i, cfg["algorithm"], self.expected_n)
                ok = ok and 0 <= int(alg_size) <= int(n) and not time_ms
                if oracle:
                    alg_n, opt_n = int(alg_size), int(opt)
                    expected = opt_n / alg_n if alg_n else float("inf") if opt_n else 1.0
                    ok = ok and opt_n >= alg_n and float(ratio) == expected
                else:
                    ok = ok and not opt and not ratio
            except ValueError:
                ok = False
            if not ok:
                return f"bad CSV row {i}: {row}"
        return None


def timed_loop(step, seconds: float) -> None:
    """Run ``step`` until the next run would likely end past ``seconds``;
    at least once."""
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        step()
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + median(durations) > seconds:
            return


def make_caller(geomis, args: argparse.Namespace, directory: Path) -> Caller:
    return Caller(
        geomis,
        experiment_config(args.workload, args.seed, args.size),
        directory,
        instance_size(args.workload, args.size),
        reference_digest(args.workload, args.seed, args.size),
    )


def timed_calls(geomis, args: argparse.Namespace, threads: int) -> None:
    """The timed calls of an end-to-end run, made in a process of their
    own.  Its max RSS and its reaped children's then cover these calls
    and their pool workers only: the set-ups ran in the parent, and the
    serial reference (if one is needed) comes after the RSS is read.
    Serial calls run pinned to the CPU whose speed scales them."""
    yield_to_samplers({serial_cpu()} if threads == 1 else None)
    caller = make_caller(geomis, args, args.timed_into)
    samples: list[Sample] = []
    timed_loop(lambda: samples.append(caller.call(threads)), args.seconds)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    caller.settle()
    print(json.dumps({
        "start": [s.start for s in samples],
        "wall": [s.wall for s in samples],
        "cpu": [s.cpu for s in samples],
        "maxrss_kib": max(own, kids),  # ru_maxrss is in KiB on Linux
        "attempted": caller.attempted,
        "failed": caller.failed,
    }))


def yield_to_samplers(cpus: Optional[set[int]]) -> None:
    """Lower this process's priority below the speed samplers', so that
    a sampler's loop runs whole when it wakes; pin it to ``cpus`` if
    given."""
    os.nice(19)
    if cpus is not None:
        os.sched_setaffinity(0, cpus)


def serial_cpu() -> int:
    """The CPU that serial work is pinned to."""
    return min(os.sched_getaffinity(0))


def end_to_end(args: argparse.Namespace, threads: int,
               directory: Path) -> tuple[dict[str, float], int, int]:
    """Set up, make the timed calls in a process of their own, and set
    up again, while calibration.Speed samples every CPU.  Each time is
    scaled by the speed of the CPUs it ran on while it ran: a serial
    call's or set-up's pinned CPU, or every CPU for a pooled call."""
    cpus = sorted(os.sched_getaffinity(0))
    cpu = serial_cpu()
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--timed-into", str(directory),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--seconds", str(args.seconds),
    ]
    with Speed(cpus) as speed:
        setups, files = run_setups(args.workload, args.seed, args.size, directory, cpu)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            raise BenchError(f"the timed calls of {args.workload} exited with {proc.returncode}")
        setups += run_setups(args.workload, args.seed, args.size, directory, cpu, files)[0]
    timed = json.loads(proc.stdout.splitlines()[-1])
    walls, cpu_times = timed["wall"], timed["cpu"]
    call_cpus = [cpu] if threads == 1 else cpus
    spans = [(a, a + w) for a, w in zip(timed["start"], walls)]
    overall = speed.slowdown(spans, call_cpus)
    slow = [speed.slowdown([span], call_cpus, overall) for span in spans]
    setup_slow = speed.slowdown(setups, [cpu])[0]
    setup_times = [b - a for a, b in setups]
    trials = experiment_config(args.workload, args.seed, args.size)["trials"]
    raw = {
        "setup_s": median(setup_times),
        "wall_s.p50": median(walls),
        "cpu_s.p50": median(cpu_times),
        "trials_per_s": trials * len(walls) / sum(walls),
    }
    print(f"perfbench: medians over {len(walls)} timed calls and {len(setup_times)} set-ups; "
          f"slowdown wall {median(f for f, _ in slow):.4f}, cpu {median(f for _, f in slow):.4f} "
          f"(medians over calls), wall {setup_slow:.4f} (set-ups); "
          "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    scaled_walls = [w / f for w, (f, _) in zip(walls, slow)]
    metrics = {
        "setup_s": median(setup_times) / setup_slow,
        "wall_s.p50": median(scaled_walls),
        "cpu_s.p50": median(c / f for c, (_, f) in zip(cpu_times, slow)),
        "trials_per_s": trials * len(walls) / sum(scaled_walls),
        "peak_rss_mb": timed["maxrss_kib"] / 1024.0,
    }
    return metrics, timed["attempted"], timed["failed"]


def per_layer(geomis, args: argparse.Namespace, threads: int,
              directory: Path) -> tuple[dict[str, float], int, int]:
    """Trace one in-process set-up, then alternate untraced and traced
    serial calls, so the tracing overhead compares calls made close
    together in time."""
    from tracer import SETUP_TARGETS, Tracer, TracerError

    spec = WORKLOADS[args.workload]
    try:
        tracer, setup_tracer = Tracer(), Tracer(SETUP_TARGETS)
        with setup_tracer:
            write_workload_files(args.workload, args.seed, args.size, directory)
        setup_spans = setup_tracer.take()
        setup_spans.require(spec.setup_spans)
    except TracerError as exc:
        raise BenchError(f"tracer refused: {exc}") from None
    caller = make_caller(geomis, args, directory)
    untraced: list[float] = []
    calls: list[dict[str, float]] = []
    kept = []  # the last traced call's spans

    def step() -> None:
        untraced.append(caller.call(1).wall)
        with tracer:
            sample = caller.call(1)
        spans = tracer.take()
        try:
            spans.require(spec.expected_spans)
        except TracerError as exc:
            raise BenchError(f"tracer refused: {exc}") from None
        calls.append(call_metrics(spans, sample.wall))
        if any(calls[-1][k] != calls[0][k] for k in COUNT_UNITS):
            caller.failed += 1
            print(f"perfbench: counts changed between traced calls: {calls[-1]}",
                  file=sys.stderr)
        kept[:] = [spans]

    timed_loop(step, args.seconds)
    pooled = caller.call(threads).wall if threads > 1 else None
    spans_path = WORK_DIR / f"spans-{args.workload}-{args.seed}.tsv"
    kept[0].write_tsv(spans_path)
    shares = layer_shares(kept[0])
    print(f"perfbench: medians over {len(calls)} traced and {len(untraced)} untraced calls; "
          f"spans of the last traced call in {spans_path}")
    print("perfbench: self-time share by layer, last traced call: "
          + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))

    # counts (and ratios of counts) repeat exactly; times take the median
    exact = set(COUNT_UNITS) | {"oracle.exact_mis.repeat_ratio", "online.accept_ratio"}
    metrics = {k: calls[0][k] if k in exact else median(c[k] for c in calls) for k in calls[0]}
    traced_wall = metrics.pop("wall")
    serial_wall = median(untraced)
    metrics["trace.overhead_frac"] = (traced_wall - serial_wall) / serial_wall
    metrics["harness.pool_efficiency"] = (
        serial_wall / (pooled * threads) if pooled is not None else 1.0
    )
    setup_summary = setup_spans.summary()
    for metric in SETUP_TIME_UNITS:
        name, _, key = metric.removeprefix("setup.").rpartition(".")
        metrics[metric] = setup_summary[name][key]
    return metrics, caller.attempted, caller.failed


def call_metrics(spans, wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced experiment call."""
    summary = spans.summary()

    def stat(name: str, key: str) -> float:
        return summary[name][key]

    mis_calls = stat("oracle.exact_mis", "calls")
    arrivals = spans.counts["online.arrivals"]
    metrics = {
        "wall": wall,
        "oracle.exact_mis.calls": mis_calls,
        "oracle.exact_mis.repeat_ratio": mis_calls / len(spans.graphs) if spans.graphs else 0.0,
        "oracle.refusals": spans.counts["oracle.refusals"],
        "online.adjacency.calls": stat("online.adjacency", "calls"),
        "geometry.intersection_graph.calls": stat("geometry.intersection_graph", "calls"),
        "geometry.edges": spans.counts["geometry.edges"],
        "instances.bytes_read": spans.counts["instances.bytes_read"],
        "online.arrivals": arrivals,
        "online.accepted": spans.counts["online.accepted"],
        "online.accept_ratio": spans.counts["online.accepted"] / arrivals if arrivals else 0.0,
        "lattice.parity_rounded_point.calls": stat("lattice.parity_rounded_point", "calls"),
        "algorithms.decide_s": stat("online.run_online", "self_s"),
        "trace.coverage": sum(
            v["self_s"] for name, v in summary.items() if name not in GLUE_SPANS
        ) / wall,
    }
    for metric in TIME_UNITS:
        if metric not in metrics:
            name, _, key = metric.rpartition(".")
            metrics[metric] = stat(name, key)
    return metrics


def layer_shares(spans) -> dict[str, float]:
    """Self time per layer (module) as a share of all traced time."""
    shares: dict[str, float] = {}
    summary = spans.summary()
    total = sum(v["self_s"] for v in summary.values())
    for name, v in summary.items():
        layer = LAYER_OF_SPAN.get(name, name.split(".")[0])
        shares[layer] = shares.get(layer, 0.0) + v["self_s"] / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def reference_digest(workload: str, seed: int, size: str) -> Optional[str]:
    if size != "full" or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="small runs every workload at reduced size (smoke test)")
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--timed-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    geomis = import_program()
    if args.setup_into is not None:
        write_workload_files(args.workload, args.seed, args.size, args.setup_into)
        return 0
    nproc = len(os.sched_getaffinity(0))
    threads = min(WORKLOADS[args.workload].threads, nproc)
    if args.timed_into is not None:
        timed_calls(geomis, args, threads)
        return 0

    stamp = environment_stamp(args.workload, args.seed, threads, nproc)
    directory = WORK_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    directory.mkdir(parents=True)
    try:
        if args.trace == 0:
            metrics, attempted, failed = end_to_end(args, threads, directory)
            units = END_TO_END_UNITS
        else:
            metrics, attempted, failed = per_layer(geomis, args, threads, directory)
            units = PER_LAYER_UNITS
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    print("perfbench-env " + json.dumps(stamp, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, CalibrationError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
