"""The machine's speed, sampled on every CPU while the benchmark runs.

On a virtual machine that shares its cores with other tenants, the same
pure-Python work runs at two speeds about 1.6x apart, switching within
a second and independently on each vCPU.  The share of time at the slow
speed wanders over minutes, so raw times of the same code differ by up
to 30% between runs of a minute.  Part of the slowness is time the host
takes the vCPU away (steal), which wall time counts and CPU time does
not.  The benchmark therefore keeps one sampler process pinned to each
CPU it may use.  Every ``PERIOD_S`` a sampler times a fixed loop, in
wall time and in CPU time.  A time measured over an interval is then
scaled to a reference speed, the speed at which one loop takes
``REFERENCE_LOOP_S``, by the mean loop time of the samples taken on its
CPUs within the interval: a wall time by the loops' wall time, a CPU
time by their CPU time.  The mean, not the median, because a call's
time adds up the slow and fast stretches it spans.

The loop imports nothing from the program, so a change to the program
moves the scaled times exactly as it moves the raw ones.  The samplers
cost each CPU about 3% of its time, in raw and scaled times alike.

    python3 perfbench/calibration.py CPU   # one sampler; stops at EOF on stdin
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
from pathlib import Path
from statistics import fmean
from time import perf_counter, process_time
from typing import Iterable

# A loop takes about REFERENCE_LOOP_S at the reference speed (about the
# mean on the 2-vCPU machine the baseline in README.md comes from).
PERIOD_S = 0.1
REFERENCE_LOOP_S = 0.003


class CalibrationError(RuntimeError):
    """A sampler failed, or no sample fell within the timed intervals."""


def _loop() -> int:
    """Integer arithmetic and dict stores, as in the interpreter-bound
    parts of the program."""
    table: dict[int, int] = {}
    x = 0
    for i in range(12000):
        x = (x * 31 + i) & 0xFFFFFFFFFFFF
        table[x & 4095] = x
    return x


def sample(cpu: int) -> None:
    """Time the loop on ``cpu`` every PERIOD_S until stdin closes, then
    print the samples as JSON triples of (start, wall, cpu)."""
    os.sched_setaffinity(0, {cpu})
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start, cpu0 = perf_counter(), process_time()  # perf_counter: CLOCK_MONOTONIC
        _loop()
        samples.append((start, perf_counter() - start, process_time() - cpu0))
    print(json.dumps(samples))


class Speed:
    """Samplers on the given CPUs for the duration of a ``with`` block."""

    def __init__(self, cpus: Iterable[int]) -> None:
        self.cpus = sorted(cpus)
        self.samples: dict[int, list[tuple[float, float, float]]] = {}
        self._procs: list[subprocess.Popen] = []

    def __enter__(self) -> "Speed":
        try:
            for cpu in self.cpus:
                self._procs.append(subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                ))
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def _stop(self) -> None:
        """Close every sampler's stdin, collect its samples and wait for
        it to end; kill one that does not."""
        for cpu, proc in zip(self.cpus, self._procs):
            try:
                out, _ = proc.communicate("", timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                continue
            if proc.returncode == 0 and out.strip():
                self.samples[cpu] = [tuple(s) for s in json.loads(out)]
        self._procs.clear()

    def slowdown(self, intervals: Iterable[tuple[float, float]],
                 cpus: Iterable[int] | None = None,
                 default: tuple[float, float] | None = None) -> tuple[float, float]:
        """How much slower than the reference speed the given CPUs ran
        within the intervals, in wall time and in CPU time: divide a raw
        wall or CPU time by the matching figure to scale it.  Returns
        ``default``, if given, when no sample fell within them."""
        spans = list(intervals)
        loops = [
            (wall, cpu_time)
            for cpu in (self.cpus if cpus is None else cpus)
            for start, wall, cpu_time in self.samples.get(cpu, ())
            if any(a <= start and start + wall <= b for a, b in spans)
        ]
        if not loops and default is not None:
            return default
        if not loops:
            raise CalibrationError("no speed samples fell within the timed intervals")
        return (fmean(w for w, _ in loops) / REFERENCE_LOOP_S,
                fmean(c for _, c in loops) / REFERENCE_LOOP_S)


if __name__ == "__main__":
    sample(int(sys.argv[1]))
