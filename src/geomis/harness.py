"""Seeded experiment runner with CSV reporting.

An experiment is a JSON-describable config: an algorithm, an instance
source (file or generator), a trial count, and a base seed.  Per-trial
seeds come from a fixed 64-bit mix of (base_seed, trial_index), so runs
are reproducible to the byte across platforms and across any degree of
parallelism.  Trials are independent; GEOMIS_THREADS caps the worker
processes that run them (default: one per CPU).  A config checks its
algorithm's parameters with algorithms.check_parameters when it is
built, before any instance is, and each trial builds its algorithm
with algorithms.make_algorithm.  A fixed instance is shipped to each
pool worker once, and the oracle solves it once, after the trials, so
a config that no trial can run fails before the oracle starts; only
the star adversary and instance_per_trial build and solve a graph per
trial.  A record stores opt_size only; its ratio is
derived from it by online.empirical_ratio.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import MISSING, dataclass, fields, replace
from functools import reduce
from operator import add
from pathlib import Path
from typing import Optional, Sequence, Union

from .adversaries import AdversaryConfig, generate_instance, star_adversary
from .algorithms import check_parameters, class_choices, make_algorithm
from .geometry import UsageError, require_finite, require_type
from .instances import load_instance
from .online import ArrivalSequence, empirical_ratio, run_online
from .oracle import DEFAULT_NODE_LIMIT, OracleRefusal, check_node_limit, exact_mis

_MASK64 = (1 << 64) - 1

CSV_COLUMNS = ("trial", "seed", "alg", "n", "alg_size", "opt_size", "ratio", "time_ms")

# The most trials one experiment may run: a larger sampled count is
# refused when the config is built, more enumerated classes before any.
TRIAL_LIMIT = 10**6


def derive_seed(base_seed: int, trial_index: int) -> int:
    """Deterministic 64-bit per-trial seed.

    SplitMix64: advance the stream by (trial_index + 1) golden-ratio
    steps from base_seed, then apply the finalizing mix.  Pure integer
    arithmetic, identical on every platform.  Distinct trial indices
    under one base seed always produce distinct values.
    """
    if trial_index < 0:
        raise UsageError(f"trial_index must be >= 0, got {trial_index}")
    x = (int(base_seed) + (trial_index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class TrialRecord:
    """One trial's outcome; opt_size, and with it ratio, is absent when
    the oracle was skipped or refused."""

    trial: int
    seed: int
    algorithm: str
    n: int
    alg_size: int
    opt_size: Optional[int]
    wall_time_ms: float

    @property
    def ratio(self) -> Optional[float]:
        if self.opt_size is None:
            return None
        return empirical_ratio(self.opt_size, self.alg_size)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce an experiment, read from a JSON
    config by from_json.

    Exactly one of instance_path / generator supplies the instance.  A
    generator builds the instance once from its own seed; set
    instance_per_trial to rebuild per trial from the trial seed.  mode
    "enumerate" replaces sampled class draws with one trial per class of
    a fixed instance, each class weighted equally, for the strategies
    that draw a class.  timing
    controls whether measured wall time is written to the CSV; it is
    off by default so repeated runs produce byte-identical output.
    """

    algorithm: str
    trials: int
    base_seed: int
    instance_path: Optional[str] = None
    generator: Optional[AdversaryConfig] = None
    delta: float = 0.01
    m: float = 0.0
    mode: str = "sample"
    oracle: bool = True
    node_limit: int = DEFAULT_NODE_LIMIT
    instance_per_trial: bool = False
    timing: bool = False
    out: Optional[str] = None

    def __post_init__(self) -> None:
        for name, value, kind in (
            ("trials", self.trials, int),
            ("base_seed", self.base_seed, int),
            ("delta", self.delta, float),
            ("M", self.m, float),
            ("oracle", self.oracle, bool),
            ("node_limit", self.node_limit, int),
            ("instance_per_trial", self.instance_per_trial, bool),
            ("timing", self.timing, bool),
        ):
            require_type(name, value, kind)
        require_finite("M", self.m)
        check_node_limit(self.node_limit)
        for name, value in (("instance_path", self.instance_path), ("out", self.out)):
            if value is not None:
                require_type(name, value, str)
        check_parameters(self.algorithm, self.delta, float(self.m), self.mode == "enumerate")
        if (self.instance_path is None) == (self.generator is None):
            raise UsageError("exactly one of instance_path or generator is required")
        if self.mode not in ("sample", "enumerate"):
            raise UsageError(f"mode must be 'sample' or 'enumerate', got {self.mode!r}")
        if self.mode == "sample" and self.trials < 1:
            raise UsageError(f"trials must be >= 1, got {self.trials}")
        if self.mode == "sample" and self.trials > TRIAL_LIMIT:
            raise OracleRefusal(f"trials {self.trials} exceeds the limit {TRIAL_LIMIT}")
        if self.instance_per_trial and self.generator is None:
            raise UsageError("instance_per_trial requires a generator source")
        if self.mode == "enumerate" and (self.instance_per_trial or self.adaptive):
            raise UsageError("enumerate mode needs a fixed instance")

    @property
    def adaptive(self) -> bool:
        """Whether the generator is the star adversary, which builds each
        trial's instance from the algorithm's own answers."""
        return self.generator is not None and self.generator.kind == "star"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an int past the str digit limit
            raise UsageError(f"bad config JSON: {exc}") from None
        if not isinstance(data, dict):
            raise UsageError("config JSON must be an object")
        kwargs = _json_fields(cls, data, "config")
        gen = kwargs.get("generator")
        if gen is not None:
            if not isinstance(gen, dict):
                raise UsageError("generator must be a JSON object")
            kwargs["generator"] = AdversaryConfig(**_json_fields(AdversaryConfig, gen, "generator"))
        return cls(**kwargs)


def _json_fields(cls: type, data: dict, what: str) -> dict:
    """Keyword arguments for dataclass cls from a JSON object, whose key for
    the field m is "M"; one UsageError names unknown ("m" too) or missing keys."""
    by_key = {("M" if f.name == "m" else f.name): f for f in fields(cls)}
    unknown = sorted(set(data) - set(by_key))
    missing = [k for k, f in by_key.items() if k not in data and f.default is MISSING]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise UsageError(f"{problem} {what} keys: {keys}")
    return {by_key[key].name: value for key, value in data.items()}


@dataclass(frozen=True)
class ExperimentSummary:
    trials: int
    mean_alg_size: float
    stderr_alg_size: float
    ci3_low: float
    ci3_high: float
    mean_ratio: Optional[float]
    oracle_refusals: int


def summarize(records: Sequence[TrialRecord], *, oracle: bool = True) -> ExperimentSummary:
    """Mean accepted size with a 3-sigma interval, plus the mean ratio
    over trials where the oracle answered.  With oracle=False no trial
    was scored, so none counts as a refusal."""
    if not records:
        raise UsageError("cannot summarize zero trials")
    sizes = [r.alg_size for r in records]
    n = len(sizes)
    mean = sum(sizes) / n
    # Float sums fold left: sum() compensates from Python 3.12 on.
    if n > 1:
        var = reduce(add, [(s - mean) ** 2 for s in sizes]) / (n - 1)
        stderr = math.sqrt(var / n)
    else:
        stderr = 0.0
    ratios = [r.ratio for r in records if r.ratio is not None]
    mean_ratio = reduce(add, ratios) / len(ratios) if ratios else None
    refusals = sum(1 for r in records if r.opt_size is None) if oracle else 0
    return ExperimentSummary(
        trials=n,
        mean_alg_size=mean,
        stderr_alg_size=stderr,
        ci3_low=mean - 3.0 * stderr,
        ci3_high=mean + 3.0 * stderr,
        mean_ratio=mean_ratio,
        oracle_refusals=refusals,
    )


def _worker_count(trials: int) -> int:
    env = os.environ.get("GEOMIS_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise UsageError(f"GEOMIS_THREADS must be an integer, got {env!r}") from None
        if cap < 1:
            raise UsageError(f"GEOMIS_THREADS must be >= 1, got {cap}")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, trials))


def _solve_opt(config: ExperimentConfig, stream: ArrivalSequence) -> Optional[int]:
    """Maximum independent set size; None when the oracle is off or refuses."""
    if not config.oracle:
        return None
    try:
        return exact_mis(stream.adjacency(), config.node_limit).size
    except OracleRefusal:
        return None


def _run_trial(
    config: ExperimentConfig,
    stream: Optional[ArrivalSequence],
    trial_index: int,
    forced: Optional[tuple[int, ...]],
) -> TrialRecord:
    """One trial on the fixed instance stream, left unscored; with no
    stream, on this trial's own instance, scored after the timed region."""
    seed = derive_seed(config.base_seed, trial_index)
    fixed = stream is not None
    start = time.perf_counter()
    if not (fixed or config.adaptive):
        stream = generate_instance(replace(config.generator, seed=seed))
    algorithm = make_algorithm(
        config.algorithm, None if config.adaptive else stream.dim,
        seed=seed, delta=config.delta, m=config.m, forced=forced,
    )
    if config.adaptive:
        outcome = star_adversary(config.generator.zeta, algorithm)
        stream, run = outcome.stream, outcome.result
    else:
        run = run_online(algorithm, stream)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return TrialRecord(
        trial=trial_index,
        seed=seed,
        algorithm=config.algorithm,
        n=len(stream),
        alg_size=run.size,
        opt_size=None if fixed else _solve_opt(config, stream),
        wall_time_ms=elapsed_ms,
    )


# A pool worker's (config, stream), set once per worker by _init_worker.
_worker_state: tuple = ()


def _init_worker(config: ExperimentConfig, stream: Optional[ArrivalSequence]) -> None:
    global _worker_state
    _worker_state = (config, stream)


def _pooled_trial(job: tuple[int, Optional[tuple[int, ...]]]) -> TrialRecord:
    return _run_trial(*_worker_state, *job)


def run_experiment(
    config: ExperimentConfig,
) -> tuple[list[TrialRecord], ExperimentSummary]:
    """Run all trials (in parallel when allowed) and summarize.

    Results are assembled in trial order, so the output never depends
    on scheduling.
    """
    stream: Optional[ArrivalSequence] = None
    if config.instance_path is not None:
        stream = load_instance(config.instance_path)
    elif not config.adaptive and not config.instance_per_trial:
        stream = generate_instance(config.generator)

    if config.mode == "enumerate":
        classes = class_choices(config.algorithm, stream.dim, config.m, TRIAL_LIMIT)
    else:
        classes = [None] * config.trials
    jobs = list(enumerate(classes))

    workers = _worker_count(len(jobs))
    if workers > 1:
        # Imported here: the pool machinery (concurrent.futures.process
        # and multiprocessing) costs a serial run 25-35 ms to import.
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(jobs) // (workers * 4))
        # Each worker gets config and stream once (inherited under fork),
        # so a job is only its trial index and forced class.
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(config, stream)
        ) as pool:
            records = list(pool.map(_pooled_trial, jobs, chunksize=chunk))
    else:
        records = [_run_trial(config, stream, *job) for job in jobs]
    if stream is not None:
        opt = _solve_opt(config, stream)
        records = [replace(r, opt_size=opt) for r in records]
    summary = summarize(records, oracle=config.oracle)
    if config.out is not None:
        write_csv(records, config.out, timing=config.timing)
    return records, summary


def _format_ratio(ratio: Optional[float]) -> str:
    if ratio is None:
        return ""
    if math.isinf(ratio):
        return "inf"
    return repr(ratio)


def render_csv(records: Sequence[TrialRecord], timing: bool = False) -> str:
    """Fixed-column CSV text; timing=False blanks time_ms so identical
    configs render byte-identical output."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.trial,
                r.seed,
                r.algorithm,
                r.n,
                r.alg_size,
                "" if r.opt_size is None else r.opt_size,
                _format_ratio(r.ratio),
                f"{r.wall_time_ms:.3f}" if timing else "",
            ]
        )
    return buf.getvalue()


def write_csv(
    records: Sequence[TrialRecord], path: Union[str, Path], timing: bool = False
) -> None:
    Path(path).write_text(render_csv(records, timing=timing))
