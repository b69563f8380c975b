"""Exact offline references: maximum independent set and the
independent kissing number.

Exponential-time machinery for small instances only; every entry point
refuses inputs past a hard node limit instead of silently grinding.
Results are deterministic, with lexicographically smallest witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Optional, Sequence

from .geometry import UsageError
from .online import ArrivalSequence, RunResult, empirical_ratio

DEFAULT_NODE_LIMIT = 40

Graph = Sequence[AbstractSet[int]]


class OracleRefusal(RuntimeError):
    """Raised when an instance exceeds the oracle's hard size limit."""


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
    """Memoized branch-and-bound for independent set sizes on bitmasks."""

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
        if m.bit_count() >= 18:
            lower = self._greedy_lower(m)
            upper = self._matching_upper(m)
            if lower == upper:
                return lower
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

    def _greedy_lower(self, m: int) -> int:
        count = 0
        mm = m
        while mm:
            best_v = -1
            best_deg = 1 << 60
            t = mm
            while t:
                v = (t & -t).bit_length() - 1
                t &= t - 1
                deg = (self.adj[v] & mm).bit_count()
                if deg < best_deg:
                    best_deg = deg
                    best_v = v
                    if deg == 0:
                        break
            count += 1
            mm &= ~self.closed[best_v]
        return count

    def _matching_upper(self, m: int) -> int:
        # Each greedily matched conflict pair contributes at most one
        # vertex to any independent set.
        n = m.bit_count()
        matched = 0
        mm = m
        while mm:
            v = (mm & -mm).bit_length() - 1
            mm &= ~(1 << v)
            nbrs = self.adj[v] & mm
            if nbrs:
                u = (nbrs & -nbrs).bit_length() - 1
                mm &= ~(1 << u)
                matched += 1
        return n - matched


def exact_mis(graph: Graph, node_limit: int = DEFAULT_NODE_LIMIT) -> MisResult:
    """Exact maximum independent set with a lexicographically smallest
    witness.  Refuses graphs larger than node_limit."""
    n = len(graph)
    if n > node_limit:
        raise OracleRefusal(
            f"graph has {n} vertices, above the exact-search limit {node_limit}"
        )
    adj = _adjacency_masks(graph)
    engine = _MisEngine(adj)
    full = (1 << n) - 1
    opt = engine.size(full)
    witness: list[int] = []
    mask = full
    target = opt
    while target > 0:
        t = mask
        while t:
            v = (t & -t).bit_length() - 1
            t &= t - 1
            if 1 + engine.size(mask & ~engine.closed[v]) == target:
                witness.append(v)
                mask &= ~engine.closed[v]
                target -= 1
                break
    return MisResult(size=opt, witness=tuple(witness))


def independent_kissing_number(
    graph: Graph, node_limit: int = DEFAULT_NODE_LIMIT
) -> IknResult:
    """Largest independent set within any single vertex's neighborhood.

    Bounds every online greedy run: the offline optimum is at most this
    number times the greedy acceptance count (when positive).  Refuses
    if any neighborhood exceeds node_limit.
    """
    best = IknResult(zeta=0, witness_center=None, witness_set=())
    for v in range(len(graph)):
        nbrs = sorted(graph[v])
        if len(nbrs) > node_limit:
            raise OracleRefusal(
                f"neighborhood of vertex {v} has {len(nbrs)} vertices, above {node_limit}"
            )
        index = {u: i for i, u in enumerate(nbrs)}
        nbr_set = set(nbrs)
        local: list[set[int]] = [
            {index[w] for w in graph[u] if w in nbr_set} for u in nbrs
        ]
        res = exact_mis(local, node_limit)
        if res.size > best.zeta:
            best = IknResult(
                zeta=res.size,
                witness_center=v,
                witness_set=tuple(nbrs[i] for i in res.witness),
            )
    return best


def verify_ratio(
    stream: ArrivalSequence, run: RunResult, node_limit: int = DEFAULT_NODE_LIMIT
) -> RatioReport:
    """Compare a run against the exact optimum of the revealed graph.

    bound_satisfied checks opt <= max(zeta, 1) * alg; the floor at 1
    covers conflict-free instances, where any greedy run is optimal.
    """
    graph = stream.adjacency()
    mis = exact_mis(graph, node_limit)
    ikn = independent_kissing_number(graph, node_limit)
    ratio = empirical_ratio(mis.size, run.size)
    bound = mis.size <= max(ikn.zeta, 1) * run.size
    return RatioReport(
        opt_size=mis.size,
        alg_size=run.size,
        ratio=ratio,
        zeta=ikn.zeta,
        bound_satisfied=bound,
    )
