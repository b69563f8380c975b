"""Exact offline references: maximum independent set and the
independent kissing number.

Both run on one memoized branching engine per graph, which peels
degree-0 and degree-1 vertices and branches on a highest-degree one;
the kissing number solves every neighborhood as a mask of the graph's
own adjacency.  Exponential-time machinery for small instances only:
every entry point validates its graph and refuses inputs past a hard
node limit instead of silently grinding.  Results are deterministic,
with lexicographically smallest witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Optional, Sequence

from .geometry import UsageError
from .online import ArrivalSequence, RunResult, empirical_ratio

DEFAULT_NODE_LIMIT = 40

Graph = Sequence[AbstractSet[int]]


class OracleRefusal(RuntimeError):
    """Raised when requested work exceeds a hard size limit: the
    oracle's node limit, a lattice self-check's work cap, the levels
    generator's zeta limit or an experiment's trial limit."""


@dataclass(frozen=True)
class MisResult:
    size: int
    witness: tuple[int, ...]


@dataclass(frozen=True)
class IknResult:
    zeta: int
    witness_center: Optional[int]
    witness_set: tuple[int, ...]


@dataclass(frozen=True)
class RatioReport:
    opt_size: int
    alg_size: int
    ratio: float
    zeta: int
    bound_satisfied: bool


def _adjacency_masks(graph: Graph) -> list[int]:
    n = len(graph)
    masks = [0] * n
    for v, nbrs in enumerate(graph):
        for u in nbrs:
            if not 0 <= u < n:
                raise UsageError(f"vertex {v} lists out-of-range neighbor {u}")
            if u == v:
                raise UsageError(f"vertex {v} lists itself as a neighbor")
            masks[v] |= 1 << u
    for v in range(n):
        mm = masks[v]
        while mm:
            u = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            if not (masks[u] >> v) & 1:
                raise UsageError(f"edge {v}-{u} is not symmetric")
    return masks


class _MisEngine:
    """Memoized branching for independent set sizes on bitmasks.  A mask
    is solved as its induced subgraph: only adj[v] & mask is read."""

    def __init__(self, adj: list[int]) -> None:
        self.adj = adj
        self.closed = [adj[v] | (1 << v) for v in range(len(adj))]
        self.cache: dict[int, int] = {}

    def size(self, mask: int) -> int:
        if mask == 0:
            return 0
        cached = self.cache.get(mask)
        if cached is not None:
            return cached
        # Peel conflict-free and single-conflict vertices: both always
        # extend to an optimum, so they can be committed without branching.
        gain = 0
        m = mask
        while m:
            changed = False
            mm = m
            while mm:
                v = (mm & -mm).bit_length() - 1
                mm &= mm - 1
                nbrs = self.adj[v] & m
                if nbrs == 0:
                    m &= ~(1 << v)
                    gain += 1
                    changed = True
                elif nbrs & (nbrs - 1) == 0:
                    m &= ~(self.closed[v] & m)
                    gain += 1
                    changed = True
                    break
            if not changed:
                break
        if m == 0:
            result = gain
        else:
            result = gain + self._branch(m)
        self.cache[mask] = result
        return result

    def _branch(self, m: int) -> int:
        # Branch on the most conflicted vertex: skip it, or take it and
        # drop its whole neighborhood.
        best_v = -1
        best_deg = -1
        mm = m
        while mm:
            v = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            deg = (self.adj[v] & m).bit_count()
            if deg > best_deg:
                best_deg = deg
                best_v = v
        without = self.size(m & ~(1 << best_v))
        with_v = 1 + self.size(m & ~self.closed[best_v])
        return max(without, with_v)

    def witness(self, mask: int, size: int) -> tuple[int, ...]:
        """Lexicographically smallest independent set of the given size
        within mask; size must be self.size(mask)."""
        chosen: list[int] = []
        while size > 0:
            t = mask
            while t:
                v = (t & -t).bit_length() - 1
                t &= t - 1
                if 1 + self.size(mask & ~self.closed[v]) == size:
                    chosen.append(v)
                    mask &= ~self.closed[v]
                    size -= 1
                    break
        return tuple(chosen)


def check_node_limit(node_limit: int) -> None:
    """Reject a negative node_limit, which no graph could satisfy."""
    if node_limit < 0:
        raise UsageError(f"node_limit must be >= 0, got {node_limit}")


def refuse_above(limit: int, what: str, count: int, base: int, exponent: int = 1) -> None:
    """Refuse work on count * base**exponent items above limit, for
    count >= 1 and base >= 2.  The exponent is clipped where the power
    already passes limit, so that no huge power is ever computed."""
    if count * base ** min(exponent, limit.bit_length()) > limit:
        power = f"{base}^{exponent}" if exponent > 1 else str(base)
        raise OracleRefusal(f"{what}: {count} x {power} exceeds the limit {limit}")


def _whole_graph_engine(graph: Graph, node_limit: int) -> _MisEngine:
    """Refuse a graph above node_limit before any work, then validate it
    and build its engine."""
    check_node_limit(node_limit)
    n = len(graph)
    if n > node_limit:
        raise OracleRefusal(
            f"graph has {n} vertices, above the exact-search limit {node_limit}"
        )
    return _MisEngine(_adjacency_masks(graph))


def exact_mis(graph: Graph, node_limit: int = DEFAULT_NODE_LIMIT) -> MisResult:
    """Exact maximum independent set with a lexicographically smallest
    witness.  Refuses graphs larger than node_limit."""
    engine = _whole_graph_engine(graph, node_limit)
    full = (1 << len(graph)) - 1
    opt = engine.size(full)
    return MisResult(size=opt, witness=engine.witness(full, opt))


def independent_kissing_number(
    graph: Graph, node_limit: int = DEFAULT_NODE_LIMIT
) -> IknResult:
    """Largest independent set within any single vertex's neighborhood.

    Bounds every online greedy run: the offline optimum is at most this
    number times the greedy acceptance count (when positive).  Validates
    the whole graph once, then solves every neighborhood on one engine.
    Refuses if any neighborhood exceeds node_limit.
    """
    check_node_limit(node_limit)
    return _kissing_number(_MisEngine(_adjacency_masks(graph)), node_limit)


def _kissing_number(engine: _MisEngine, node_limit: int) -> IknResult:
    """independent_kissing_number on an engine built for the whole graph."""
    best = IknResult(zeta=0, witness_center=None, witness_set=())
    for v, nbrs in enumerate(engine.adj):
        degree = nbrs.bit_count()
        if degree > node_limit:
            raise OracleRefusal(
                f"neighborhood of vertex {v} has {degree} vertices, above {node_limit}"
            )
        zeta = engine.size(nbrs)
        if zeta > best.zeta:
            best = IknResult(
                zeta=zeta, witness_center=v, witness_set=engine.witness(nbrs, zeta)
            )
    return best


def verify_ratio(
    stream: ArrivalSequence, run: RunResult, node_limit: int = DEFAULT_NODE_LIMIT
) -> RatioReport:
    """Compare a run against the exact optimum of the revealed graph.

    bound_satisfied checks opt <= max(zeta, 1) * alg; the floor at 1
    covers conflict-free instances, where any greedy run is optimal.
    Refuses as exact_mis does, then validates the graph once and answers
    both the optimum and the kissing number on one engine.
    """
    graph = stream.adjacency()
    engine = _whole_graph_engine(graph, node_limit)
    opt = engine.size((1 << len(graph)) - 1)
    ikn = _kissing_number(engine, node_limit)
    ratio = empirical_ratio(opt, run.size)
    bound = opt <= max(ikn.zeta, 1) * run.size
    return RatioReport(
        opt_size=opt,
        alg_size=run.size,
        ratio=ratio,
        zeta=ikn.zeta,
        bound_satisfied=bound,
    )
