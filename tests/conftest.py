"""Shared test helpers: independent reference implementations.

Everything here is written from first principles, separate from the
package internals, so library bugs cannot hide behind shared code.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from functools import reduce
from operator import add
from typing import AbstractSet, Sequence

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from geomis import (
    DEFAULT_NODE_LIMIT,
    ArrivalSequence,
    Ball,
    Classify,
    FirstFit,
    HRClassify,
    HyperRectangle,
    IknResult,
    LatticeFilter,
    LatticeParams,
    MisResult,
    OracleRefusal,
    TrialRecord,
    UsageError,
    class_count,
    derive_seed,
    empirical_ratio,
    exact_mis,
    generate_instance,
    load_instance,
    run_online,
    star_adversary,
)
from geomis.geometry import Shape

SQRT3 = math.sqrt(3.0)

# Tier-1 draws the same hypothesis examples on every run, so a failure it
# shows once it shows again.  CI also runs the fuzz and property tests
# under "explore" (pytest --hypothesis-profile explore), which draws fresh
# examples each time.
settings.register_profile("derandomized", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("derandomized")

_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    """Queue an acceptance-criterion verdict for the end-of-run summary."""
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(set(_criterion_lines)):
            terminalreporter.write_line(line)


class AcceptAll:
    """Negative control: accepts every arrival, so any edge breaks validity."""

    def decide(self, event) -> bool:
        return True


class RejectAll:
    """Negative control: rejects every arrival."""

    def decide(self, event) -> bool:
        return False


def gnp_stream(n: int, p: float, rng: random.Random) -> ArrivalSequence:
    """Erdos-Renyi arrival sequence: each backward edge tossed independently."""
    lists = []
    for i in range(n):
        lists.append([j for j in range(i) if rng.random() < p])
    return ArrivalSequence.from_neighbor_lists(lists)


def brute_mis(adjacency: list[set[int]]) -> tuple[int, tuple[int, ...]]:
    """Exhaustive maximum independent set; lexicographically smallest witness.

    Subsets enumerated as bitmasks; only usable for small n.
    """
    n = len(adjacency)
    masks = [0] * n
    for v, nbrs in enumerate(adjacency):
        for u in nbrs:
            masks[v] |= 1 << u
    return _brute_scan(n, masks)


def _brute_scan(n: int, masks: list[int]) -> tuple[int, tuple[int, ...]]:
    best_size = 0
    best_witness: tuple[int, ...] = ()
    for subset in range(1 << n):
        ok = True
        m = subset
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if masks[v] & subset:
                ok = False
                break
        if not ok:
            continue
        size = subset.bit_count()
        witness = tuple(i for i in range(n) if (subset >> i) & 1)
        if size > best_size or (size == best_size and witness < best_witness):
            best_size = size
            best_witness = witness
    return best_size, best_witness


# The exact oracle as it stood before its bound short-circuit and the
# per-neighborhood relabelling were removed: a greedy lower bound and a
# matching upper bound end the search early when they meet on 18 or
# more vertices, and every neighborhood becomes its own relabelled and
# validated graph.  The package's engine must give the same results.

def _reference_adjacency_masks(graph: Sequence[AbstractSet[int]]) -> list[int]:
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


class _ReferenceMisEngine:
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


def reference_exact_mis(
    graph: Sequence[AbstractSet[int]], node_limit: int = DEFAULT_NODE_LIMIT
) -> MisResult:
    """Exact maximum independent set with a lexicographically smallest
    witness.  Refuses graphs larger than node_limit."""
    n = len(graph)
    if n > node_limit:
        raise OracleRefusal(
            f"graph has {n} vertices, above the exact-search limit {node_limit}"
        )
    adj = _reference_adjacency_masks(graph)
    engine = _ReferenceMisEngine(adj)
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


def reference_independent_kissing_number(
    graph: Sequence[AbstractSet[int]], node_limit: int = DEFAULT_NODE_LIMIT
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
        res = reference_exact_mis(local, node_limit)
        if res.size > best.zeta:
            best = IknResult(
                zeta=res.size,
                witness_center=v,
                witness_set=tuple(nbrs[i] for i in res.witness),
            )
    return best


def _closed_shapes_meet(a: Shape, b: Shape) -> bool:
    """The closed-contact rules, written out apart from geomis.geometry."""
    if isinstance(a, Ball):
        return math.dist(a.center, b.center) <= a.radius + b.radius
    return all(
        al <= bu and bl <= au
        for al, au, bl, bu in zip(a.lo, a.hi, b.lo, b.hi)
    )


def pairwise_intersection_graph(objects: list[Shape]) -> list[set[int]]:
    """Intersection graph by the all-pairs scan over i < j."""
    n = len(objects)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if _closed_shapes_meet(objects[i], objects[j]):
                adjacency[i].add(j)
                adjacency[j].add(i)
    return adjacency


def _margin_ok(a: Shape, others: list[Shape], margin: float) -> bool:
    """The generators' margin rule, checked against every accepted object."""
    for b in others:
        if isinstance(a, Ball):
            gap = abs(math.dist(a.center, b.center) - (a.radius + b.radius))
            if gap < margin:
                return False
        else:
            for al, au, bl, bu in zip(a.lo, a.hi, b.lo, b.hi):
                if abs(al - bu) < margin or abs(bl - au) < margin:
                    return False
    return True


def _draw_until_clear(draw, n: int, margin: float, fits=lambda obj: True) -> list[Shape]:
    accepted: list[Shape] = []
    for _ in range(n):
        for _ in range(1000):
            obj = draw()
            if fits(obj) and _margin_ok(obj, accepted, margin):
                accepted.append(obj)
                break
        else:
            raise UsageError("too crowded")
    return accepted


def reference_random_balls(
    n: int, dim: int, box_side: float, seed: int,
    radius_range: tuple[float, float] = (1.0, 1.0), margin: float = 1e-6,
) -> list[Shape]:
    """random_balls_gen's objects, drawn from the same RNG calls."""
    rng = random.Random(seed)
    lo, hi = radius_range

    def draw() -> Shape:
        center = tuple(rng.uniform(0.0, box_side) for _ in range(dim))
        radius = lo if lo == hi else rng.uniform(lo, hi)
        return Ball(center, radius)

    return _draw_until_clear(draw, n, margin)


def reference_random_rects(
    n: int, dim: int, m: float, box_side: float, seed: int, margin: float = 1e-6
) -> list[Shape]:
    """random_rects_gen's objects, drawn from the same RNG calls: a box
    whose stored sides leave [1, m] is redrawn."""
    rng = random.Random(seed)

    def draw() -> Shape:
        lo = tuple(rng.uniform(0.0, box_side) for _ in range(dim))
        sides = tuple(rng.uniform(1.0, m) for _ in range(dim))
        hi = tuple(l + s for l, s in zip(lo, sides))
        return HyperRectangle(lo, hi)

    def fits(box: Shape) -> bool:
        return all(1.0 <= s <= m for s in box.sides)

    return _draw_until_clear(draw, n, margin, fits)


def _reference_algorithm(config, stream, seed, forced):
    if config.algorithm == "firstfit":
        return FirstFit()
    if config.algorithm == "filter":
        return LatticeFilter(LatticeParams(dim=stream.dim, delta=config.delta), seed=seed)
    if config.algorithm == "classify":
        if forced is not None:
            return Classify(config.m, forced_class=forced[0])
        return Classify(config.m, seed=seed)
    if forced is not None:
        return HRClassify(config.m, stream.dim, forced_classes=forced)
    return HRClassify(config.m, stream.dim, seed=seed)


def reference_experiment_records(config) -> tuple[list[TrialRecord], list]:
    """run_experiment's records by the serial solve-every-trial loop,
    and each trial's ratio as computed here.

    Every trial loads or builds its own instance, runs the algorithm on
    it and then calls exact_mis on that trial's graph.  Wall times are 0.
    """
    star = config.generator is not None and config.generator.kind == "star"

    def instance(seed):
        if config.instance_path is not None:
            return load_instance(config.instance_path)
        if config.instance_per_trial:
            return generate_instance(replace(config.generator, seed=seed))
        return generate_instance(config.generator)

    if config.mode == "enumerate":
        k = class_count(config.m)
        repeat = 1 if config.algorithm == "classify" else instance(None).dim
        classes = list(itertools.product(range(k), repeat=repeat))
    else:
        classes = [None] * config.trials
    records, ratios = [], []
    for i, forced in enumerate(classes):
        seed = derive_seed(config.base_seed, i)
        if star:
            algorithm = _reference_algorithm(config, None, seed, forced)
            outcome = star_adversary(config.generator.zeta, algorithm)
            stream, run = outcome.stream, outcome.result
        else:
            stream = instance(seed)
            run = run_online(_reference_algorithm(config, stream, seed, forced), stream)
        opt = ratio = None
        if config.oracle:
            try:
                opt = exact_mis(stream.adjacency(), config.node_limit).size
                ratio = empirical_ratio(opt, run.size)
            except OracleRefusal:
                pass
        records.append(TrialRecord(i, seed, config.algorithm, len(stream), run.size, opt, 0.0))
        ratios.append(ratio)
    return records, ratios


def reference_lattice_point(params: LatticeParams, coeffs) -> tuple[float, ...]:
    """Coordinates of the lattice point with integer coefficients coeffs."""
    ints = [int(a) for a in coeffs]
    rest = ints[1:]
    x1 = (4.0 + params.delta) * ints[0] - (2.0 + params.delta / 2.0) * sum(rest)
    return (x1,) + tuple(2.0 * SQRT3 * a for a in rest)


def reference_parity_rounded_point(
    params: LatticeParams, c: Sequence[float]
) -> tuple[tuple[float, ...], tuple]:
    """Per-axis parity rounding, one branch per parity case."""
    rest: list[int] = []
    for x in c[1:]:
        z = math.floor(x / SQRT3)
        rest.append(z // 2 if z % 2 == 0 else (z + 1) // 2)
    k = sum(rest) % 2
    z1 = math.floor(c[0] / (2.0 + params.delta / 2.0))
    m = z1 if z1 % 2 == k else z1 + 1
    coeffs = ((m + sum(rest)) // 2,) + tuple(rest)
    return reference_lattice_point(params, coeffs), coeffs


@st.composite
def lattice_queries(draw, params: LatticeParams):
    """Query points for the rounding: uniform ones, lattice points plus
    or minus a unit axis vector, and points whose axes 2..d sit on odd
    multiples of sqrt(3); each near 0 or near +-1e6."""
    dim = params.dim
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]))
    kind = draw(st.sampled_from(["uniform", "unit_offset", "odd_sqrt3"]))
    if kind == "uniform":
        return [offset + draw(st.floats(-50.0, 50.0)) for _ in range(dim)]
    if kind == "unit_offset":
        # A lattice point near offset on every axis, or with axes 2..d at
        # exactly 0 so that the squared distance 1 is exact more often.
        zero_rest = draw(st.booleans())
        rest = [
            0 if zero_rest else round(offset / (2.0 * SQRT3)) + draw(st.integers(-20, 20))
            for _ in range(dim - 1)
        ]
        a1 = round((offset + (2.0 + params.delta / 2.0) * sum(rest)) / (4.0 + params.delta))
        q = list(reference_lattice_point(params, [a1 + draw(st.integers(-20, 20))] + rest))
        q[draw(st.integers(0, dim - 1))] += draw(st.sampled_from([1.0, -1.0]))
        return q
    centre = round(offset / SQRT3) // 2
    return [offset + draw(st.floats(-50.0, 50.0))] + [
        (2 * (centre + draw(st.integers(-20, 20))) + 1) * SQRT3 for _ in range(dim - 1)
    ]


lattice_params = st.builds(
    LatticeParams, dim=st.integers(2, 4), delta=st.sampled_from([0.01, 0.3, 0.5])
)


class ReferenceLatticeFilter(LatticeFilter):
    """LatticeFilter deciding through a shifted center and the reference
    rounding, under the shift LatticeFilter fixed when it was built."""

    def decide(self, event) -> bool:
        ball = event.payload
        if not isinstance(ball, Ball) or ball.radius != 1.0 or ball.dim != self.params.dim:
            raise UsageError("reference filter needs unit balls of the lattice dimension")
        shifted = tuple(x + b for x, b in zip(ball.center, self.shift))
        p, coeffs = reference_parity_rounded_point(self.params, shifted)
        # Folded left from axis 1, as LatticeFilter adds (sum() compensates
        # from Python 3.12 on).
        if reduce(add, [(a - b) ** 2 for a, b in zip(p, shifted)]) > 1.0:
            return False
        if coeffs in self.occupied:
            return False
        self.occupied[coeffs] = event.id
        return True


def reference_basis(dim: int, delta: float) -> np.ndarray:
    """Row-vector basis built straight from the definition."""
    basis = np.zeros((dim, dim))
    basis[0, 0] = 4.0 + delta
    for i in range(1, dim):
        basis[i, 0] = -(2.0 + delta / 2.0)
        basis[i, i] = 2.0 * SQRT3
    return basis


def window_lattice_points(dim: int, delta: float, window: int) -> np.ndarray:
    """All lattice points with coefficients in [-window, window]^dim."""
    basis = reference_basis(dim, delta)
    span = range(-window, window + 1)
    coeffs = np.array(list(itertools.product(span, repeat=dim)), dtype=np.float64)
    return coeffs @ basis


def brute_min_distances(
    points: np.ndarray, queries: np.ndarray, chunk: int = 400, margin: float = 12.0
) -> np.ndarray:
    """Nearest distance from each query to the given point set.

    Points farther than `margin` from the query bounding box on any axis
    are dropped first; the lattice covering radius is far below 12, so a
    nearest member can never be pruned.
    """
    lo = queries.min(axis=0) - margin
    hi = queries.max(axis=0) + margin
    keep = ((points >= lo) & (points <= hi)).all(axis=1)
    pts = points[keep]
    out = np.empty(len(queries))
    for start in range(0, len(queries), chunk):
        q = queries[start : start + chunk]
        d2 = ((q[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        out[start : start + chunk] = np.sqrt(d2.min(axis=1))
    return out


@pytest.fixture
def k3_stream() -> ArrivalSequence:
    return ArrivalSequence.from_neighbor_lists([[], [0], [0, 1]])
