"""Online arrival model and the greedy first-fit baseline.

Vertices arrive one at a time; each arrival reveals its edges to the
vertices already seen, and an algorithm must irrevocably accept or
reject it before the next arrival.  The accepted set must stay
independent in the revealed graph.  A geometric arrival's payload is
the shape itself, a Ball or HyperRectangle that the algorithms read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Optional, Protocol, Sequence

from .geometry import Shape, UsageError, intersection_graph, require_at_least
from .lattice import CrossResidues


@dataclass(frozen=True)
class ArrivalEvent:
    """One arrival: its id, edges to earlier ids, optional shape."""

    id: int
    neighbors: frozenset[int]
    payload: Optional[Shape] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "neighbors", frozenset(self.neighbors))


@dataclass(frozen=True)
class ArrivalSequence:
    """A full arrival order with consistent ids and edges.

    Ids are 0..n-1 in arrival order, every edge points backwards, and
    payloads are all present (with one shared dimension) or all absent.
    """

    events: tuple[ArrivalEvent, ...]
    dim: Optional[int] = None

    def __post_init__(self) -> None:
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        if self.dim is None and events and events[0].payload is not None:
            object.__setattr__(self, "dim", events[0].payload.dim)
        payload_count = 0
        for i, ev in enumerate(events):
            if ev.id != i:
                raise UsageError(f"event {i} has id {ev.id}; ids must be 0..n-1 in order")
            for nb in ev.neighbors:
                if not 0 <= nb < i:
                    raise UsageError(
                        f"event {i} lists neighbor {nb}, which has not arrived yet"
                    )
            if ev.payload is not None:
                payload_count += 1
                if self.dim is not None and ev.payload.dim != self.dim:
                    raise UsageError(
                        f"event {i} payload dim {ev.payload.dim} != sequence dim {self.dim}"
                    )
        if payload_count not in (0, len(events)):
            raise UsageError("payloads must be present on every event or on none")

    @classmethod
    def from_objects(cls, objects: Sequence[Shape], dim: Optional[int] = None) -> "ArrivalSequence":
        """Arrival order = list order; each object is its own payload, and
        edges come from intersection_graph, which rejects non-shapes.
        dim, which every object must have, defaults to the first object's."""
        adjacency = intersection_graph(objects)
        events = tuple(
            ArrivalEvent(
                id=i,
                neighbors=frozenset(filter(i.__gt__, adjacency[i])),
                payload=obj,
            )
            for i, obj in enumerate(objects)
        )
        return cls(events=events, dim=dim)

    @classmethod
    def from_neighbor_lists(cls, neighbor_lists: Sequence[Iterable[int]]) -> "ArrivalSequence":
        """Abstract sequence from per-vertex lists of earlier neighbors."""
        events = tuple(
            ArrivalEvent(id=i, neighbors=frozenset(nbrs))
            for i, nbrs in enumerate(neighbor_lists)
        )
        return cls(events=events, dim=None)

    @cached_property
    def cross_residues(self) -> CrossResidues:
        """The lattice filter's index of this stream, kept for every
        later filter run on it."""
        return CrossResidues(self.events)

    def adjacency(self) -> list[set[int]]:
        """Symmetric adjacency lists of the full revealed graph."""
        adj: list[set[int]] = [set() for _ in self.events]
        for ev in self.events:
            for nb in ev.neighbors:
                adj[ev.id].add(nb)
                adj[nb].add(ev.id)
        return adj

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one online run."""

    accepted: tuple[int, ...]
    decisions: tuple[bool, ...]
    valid_independent: bool

    @property
    def size(self) -> int:
        return len(self.accepted)


class OnlineAlgorithm(Protocol):
    def decide(self, event: ArrivalEvent) -> bool: ...


class FirstFit:
    """Accept an arrival iff it conflicts with nothing accepted so far.

    The accepted set is maximal independent in the revealed graph and
    dominates it: every rejected vertex touched an accepted one.
    """

    def __init__(self) -> None:
        self.accepted: set[int] = set()

    def decide(self, event: ArrivalEvent) -> bool:
        if event.neighbors & self.accepted:
            return False
        self.accepted.add(event.id)
        return True


def finalize_run(
    events: Sequence[ArrivalEvent], decisions: Sequence[bool]
) -> RunResult:
    """Assemble a RunResult and audit it against the revealed edges;
    each decision counts by its truth and is stored as a bool."""
    if len(events) != len(decisions):
        raise UsageError("one decision per event is required")
    decisions = tuple(map(bool, decisions))
    accepted: list[int] = []
    accepted_set: set[int] = set()
    independent = True
    for ev in compress(events, decisions):
        if ev.neighbors & accepted_set:
            independent = False
        accepted.append(ev.id)
        accepted_set.add(ev.id)
    return RunResult(
        accepted=tuple(accepted), decisions=decisions, valid_independent=independent
    )


def run_online(algorithm: OnlineAlgorithm, stream: ArrivalSequence) -> RunResult:
    """Feed the stream to the algorithm once, in order.  An algorithm
    with a decide_stream (LatticeFilter) decides the whole stream in one
    call, equal to one decide per arrival; any other gets one decide
    per arrival."""
    decide_stream = getattr(algorithm, "decide_stream", None)
    if decide_stream is None:
        decisions = list(map(algorithm.decide, stream.events))
    else:
        decisions = decide_stream(stream)
    return finalize_run(stream.events, decisions)


def empirical_ratio(opt_size: int, alg_size: int) -> float:
    """opt/alg with the conventions: empty vs empty is 1, empty alg vs
    nonempty opt is +inf."""
    require_at_least("opt_size", opt_size, 0)
    if alg_size == 0:
        return 1.0 if opt_size == 0 else float("inf")
    return opt_size / alg_size
