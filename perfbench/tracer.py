"""Per-layer spans recorded from outside the program.

The tracer replaces public callables at the module (or class)
attributes that their callers look up, records one span per call --
name, start, end and parent span -- and restores the originals on exit.
Nothing under src/ is edited.  Spans stay in memory in compact arrays
until the caller aggregates or writes them out.

The tracer is loud: it refuses to be built when a callable it wraps is
missing, and ``require`` refuses when an expected span never fired, so
a refactor that moves a layer cannot make it read zero.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Optional

import numpy as np
from geomis.oracle import OracleRefusal


class TracerError(RuntimeError):
    """A wrapped callable is missing or an expected span never fired."""


# Hooks see (tracer, args, result) after a call returns normally.
def _count_edges(tracer: "Tracer", args, result) -> None:
    tracer.counts["geometry.edges"] += sum(len(s) for s in result) // 2


def _count_bytes(tracer: "Tracer", args, result) -> None:
    tracer.counts["instances.bytes_read"] += Path(args[0]).stat().st_size


def _count_run(tracer: "Tracer", args, result) -> None:
    tracer.counts["online.arrivals"] += len(args[1])
    tracer.counts["online.accepted"] += result.size


def _note_graph(tracer: "Tracer", args, result) -> None:
    tracer.graphs.add(tuple(frozenset(s) for s in args[0]))


# (span name, module, attribute path, hook).  The module and attribute
# are where the caller on the experiment path looks the callable up.
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli.cli_dispatch", "geomis.cli", "cli_dispatch", None),
    ("harness.run_experiment", "geomis.cli", "run_experiment", None),
    ("harness.write_csv", "geomis.harness", "write_csv", None),
    ("instances.load_instance", "geomis.harness", "load_instance", _count_bytes),
    ("adversaries.generate_instance", "geomis.harness", "generate_instance", None),
    ("online.from_objects", "geomis.online", "ArrivalSequence.from_objects", None),
    ("geometry.intersection_graph", "geomis.online", "intersection_graph", _count_edges),
    ("online.run_online", "geomis.harness", "run_online", _count_run),
    ("online.finalize_run", "geomis.online", "finalize_run", None),
    ("lattice.parity_rounded_point", "geomis.algorithms", "parity_rounded_point", None),
    ("online.adjacency", "geomis.online", "ArrivalSequence.adjacency", None),
    ("oracle.exact_mis", "geomis.harness", "exact_mis", _note_graph),
)

# The set-up's generator, graph and instance writer, where the
# benchmark's own set-up (workloads.write_workload_files) looks them up.
SETUP_TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("adversaries.random_balls_gen", "geomis.adversaries", "random_balls_gen", None),
    ("online.from_objects", "geomis.online", "ArrivalSequence.from_objects", None),
    ("geometry.intersection_graph", "geomis.online", "intersection_graph", _count_edges),
    ("instances.save_instance", "geomis.instances", "save_instance", None),
)


@dataclass
class Spans:
    """The spans and counts of one request, in recording order."""

    names: list[str]
    starts: array
    ends: array
    parents: array
    codes: array
    counts: Counter
    graphs: set

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy time and self time, in seconds.

        Self time is a span's duration minus the time its child spans
        cover; spans nest strictly because they come from one thread.
        """
        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(
            self.starts, dtype=np.float64
        )
        parents = np.frombuffer(self.parents, dtype=np.int64)
        codes = np.frombuffer(self.codes, dtype=np.uint16)
        child = np.bincount(parents + 1, weights=dur, minlength=len(dur) + 1)[1:]
        k = len(self.names)
        calls = np.bincount(codes, minlength=k)
        busy = np.bincount(codes, weights=dur, minlength=k)
        own = np.bincount(codes, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def require(self, names: Iterable[str]) -> None:
        """Refuse when any expected span never fired."""
        fired = {self.names[c] for c in set(self.codes)}
        missing = [n for n in names if n not in fired]
        if missing:
            raise TracerError(f"expected spans never fired: {', '.join(missing)}")

    def write_tsv(self, path: Path) -> None:
        """Write the spans, times relative to the first span's start."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, (s, e, p, c) in enumerate(
                zip(self.starts, self.ends, self.parents, self.codes)
            ):
                out.write(f"{sid}\t{p}\t{self.names[c]}\t{s - origin:.9f}\t{e - origin:.9f}\n")


class Tracer:
    """Records nested spans in one thread.

    Construction finds every target (``TARGETS`` unless others are
    given) and builds its wrapper, refusing if one is missing; ``with
    tracer:`` swaps the wrappers in and puts the originals back on exit,
    so traced and untraced calls can alternate.
    """

    def __init__(self, targets=TARGETS) -> None:
        self.names: list[str] = []
        self.stack: list[int] = []
        self._swaps: list[tuple[object, str, object, object]] = []
        self._spans = self._fresh()
        for name, module_name, attr, hook in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or leaf not in vars(owner):
                raise TracerError(f"cannot trace {name}: {module_name}.{attr} is missing")
            original = vars(owner)[leaf]
            if isinstance(original, classmethod):
                wrapper = classmethod(self.wrap(name, original.__func__, hook))
            else:
                wrapper = self.wrap(name, original, hook)
            self._swaps.append((owner, leaf, original, wrapper))

    def _fresh(self) -> Spans:
        spans = Spans(self.names, array("d"), array("d"), array("q"), array("H"),
                      Counter(), set())
        self.starts, self.ends = spans.starts, spans.ends
        self.parents, self.codes = spans.parents, spans.codes
        self.counts, self.graphs = spans.counts, spans.graphs
        return spans

    def take(self) -> Spans:
        """Return the spans recorded since the last take and start afresh."""
        if self.stack:
            raise TracerError("spans taken while some are still open")
        taken, self._spans = self._spans, self._fresh()
        return taken

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        code = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.starts)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.codes.append(code)
            self.ends.append(0.0)
            self.stack.append(sid)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except OracleRefusal:
                self.counts["oracle.refusals"] += 1
                raise
            finally:
                self.ends[sid] = perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, leaf, _original, wrapper in self._swaps:
            setattr(owner, leaf, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, leaf, original, _wrapper in self._swaps:
            setattr(owner, leaf, original)
