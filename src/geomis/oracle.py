"""Exact offline references: maximum independent set and the
independent kissing number.

Both run on one memoized branching engine per graph, which peels
simplicial vertices (those whose remaining neighborhood is a clique,
degree-0 and degree-1 vertices among them), splits what is left into
connected components solved (and memoized) one by one, and branches on
a highest-degree vertex of a connected remainder.  The kissing number
solves every neighborhood as a mask of the graph's own adjacency.
Witnesses are built component by component too, and exact_mis builds
its witness only when it is first read, so a caller that wants the
size alone never pays for one.  Exponential-time machinery for small
instances only: every entry point validates its graph and refuses
inputs past a hard node limit, which counts the whole graph, instead of
silently grinding.  Results are deterministic, with lexicographically
smallest witnesses.
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
    """Each vertex's neighbors as a bitmask, in one pass that raises
    UsageError at the first offence: vertex by vertex, a neighbor out of
    range, the vertex itself or a non-integer; then the lowest edge
    listed at one end only.  A neighbor listed twice is accepted, and
    neighbor collections need not have a length."""
    n = len(graph)
    masks = [0] * n
    for v, nbrs in enumerate(graph):
        try:
            for u in nbrs:
                if not 0 <= u < n:
                    raise UsageError(f"vertex {v} lists out-of-range neighbor {u}")
                if u == v:
                    raise UsageError(f"vertex {v} lists itself as a neighbor")
                masks[v] |= 1 << u
        except TypeError:
            raise UsageError(f"vertex {v} lists a non-integer neighbor in {nbrs!r}") from None
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
    is solved as its induced subgraph: only adj[v] & mask is read.

    After peeling, a disconnected remainder is split into its connected
    components, each solved and memoized as its own mask, so that a
    component met again under other branches is solved once.  Witnesses
    are the union of each component's lexicographically smallest one.
    """

    def __init__(self, adj: list[int]) -> None:
        self.adj = adj
        self.closed = [adj[v] | (1 << v) for v in range(len(adj))]
        self.cache: dict[int, int] = {}

    def size(self, mask: int, touched: int = -1) -> int:
        """Independence number of the subgraph that mask induces.

        touched holds every vertex whose neighborhood within mask may be
        a clique; a caller that knows the others are not passes it to
        spare their tests.  The default tests every vertex."""
        if mask == 0:
            return 0
        cached = self.cache.get(mask)
        if cached is not None:
            return cached
        # Peel simplicial vertices: when what is left of v's neighborhood
        # is a clique, v extends to an optimum, so it is committed
        # without branching.  Conflict-free and single-conflict vertices
        # are the smallest cases.  Dropping N[v] changes the
        # neighborhoods of its neighbors' neighbors only, so only those
        # are tested again.
        adj, closed = self.adj, self.closed
        gain = 0
        m = mask
        todo = touched & m
        while todo:
            v = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            nbrs = t = adj[v] & m
            while t:
                u = (t & -t).bit_length() - 1
                if nbrs & ~closed[u]:
                    break
                t &= t - 1
            else:
                m &= ~closed[v]
                gain += 1
                while nbrs:
                    u = (nbrs & -nbrs).bit_length() - 1
                    nbrs &= nbrs - 1
                    todo |= adj[u]
                todo &= m
        # Solve each component of what is left as its own mask.  It has
        # no vertex left to peel, so it goes straight to branching.
        while m:
            component = self._component(m)
            m &= ~component
            solved = self.cache.get(component)
            if solved is None:
                solved = self.cache[component] = self._branch(component)
            gain += solved
        self.cache[mask] = gain
        return gain

    def _component(self, m: int) -> int:
        """The connected component of m's lowest vertex in the subgraph
        that m induces, by a breadth-first search over bitmasks that
        stops as soon as it has reached all of m."""
        component = frontier = m & -m
        while frontier and component != m:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = self.adj[v] & m & ~component
            component |= new
            frontier |= new
        return component

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
        # Skipping best_v changes only its neighbors' neighborhoods.
        without = self.size(m & ~(1 << best_v), self.adj[best_v] & m)
        return max(without, 1 + self.size(m & ~self.closed[best_v]))

    def witness(self, mask: int) -> tuple[int, ...]:
        """Lexicographically smallest maximum independent set within mask.

        A vertex extends to an optimum of the whole mask exactly when it
        extends to an optimum of its own component, so the answer is the
        union of each component's smallest witness.  Within a component,
        the lowest vertex that extends to an optimum is taken, and what
        it leaves of the component is split again."""
        chosen: list[int] = []
        pending = [mask]
        while pending:
            m = pending.pop()
            if m == 0:
                continue
            component = self._component(m)
            pending.append(m & ~component)
            size = self.size(component)
            t = component
            while t:
                v = (t & -t).bit_length() - 1
                t &= t - 1
                rest = component & ~self.closed[v]
                if 1 + self.size(rest) == size:
                    chosen.append(v)
                    pending.append(rest)
                    break
        return tuple(sorted(chosen))


class MisResult:
    """Size of a maximum independent set and its lexicographically
    smallest witness.  exact_mis hands over its engine in place of the
    witness, which is built from the engine's memo the first time it is
    read, after which the engine is dropped; reading only the size never
    builds one."""

    __slots__ = ("size", "_witness", "_engine")

    def __init__(self, size: int, witness: tuple[int, ...]) -> None:
        self.size = size
        self._witness = witness
        self._engine: Optional[_MisEngine] = None

    @classmethod
    def _built_on_read(cls, size: int, engine: _MisEngine) -> MisResult:
        result = cls(size, ())
        result._engine = engine
        return result

    @property
    def witness(self) -> tuple[int, ...]:
        if self._engine is not None:
            self._witness = self._engine.witness((1 << len(self._engine.adj)) - 1)
            self._engine = None
        return self._witness

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MisResult):
            return NotImplemented
        return (self.size, self.witness) == (other.size, other.witness)

    def __hash__(self) -> int:
        return hash((self.size, self.witness))

    def __repr__(self) -> str:
        return f"MisResult(size={self.size!r}, witness={self.witness!r})"


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
    witness, built when .witness is first read.  Refuses graphs larger
    than node_limit."""
    engine = _whole_graph_engine(graph, node_limit)
    return MisResult._built_on_read(engine.size((1 << len(graph)) - 1), engine)


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
    engine = _MisEngine(_adjacency_masks(graph))
    zeta, center = _kissing_number(engine, node_limit)
    witness = () if center is None else engine.witness(engine.adj[center])
    return IknResult(zeta=zeta, witness_center=center, witness_set=witness)


def _kissing_number(engine: _MisEngine, node_limit: int) -> tuple[int, Optional[int]]:
    """zeta on an engine built for the whole graph, and the first vertex
    whose neighborhood attains it (None when zeta is 0); builds no
    witness."""
    zeta, center = 0, None
    for v, nbrs in enumerate(engine.adj):
        degree = nbrs.bit_count()
        if degree > node_limit:
            raise OracleRefusal(
                f"neighborhood of vertex {v} has {degree} vertices, above {node_limit}"
            )
        size = engine.size(nbrs)
        if size > zeta:
            zeta, center = size, v
    return zeta, center


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
    zeta, _ = _kissing_number(engine, node_limit)
    ratio = empirical_ratio(opt, run.size)
    bound = opt <= max(zeta, 1) * run.size
    return RatioReport(
        opt_size=opt,
        alg_size=run.size,
        ratio=ratio,
        zeta=zeta,
        bound_satisfied=bound,
    )
