"""Shared test helpers: independent reference implementations.

Everything here is written from first principles, separate from the
package internals, so library bugs cannot hide behind shared code.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from geomis import (
    ArrivalSequence,
    Ball,
    Classify,
    FirstFit,
    HRClassify,
    HyperRectangle,
    LatticeFilter,
    LatticeParams,
    OracleRefusal,
    Point,
    SizedObject,
    TrialRecord,
    UsageError,
    class_count,
    derive_seed,
    empirical_ratio,
    exact_mis,
    generate_instance,
    load_instance,
    objects_intersect,
    run_online,
    star_adversary,
)

SQRT3 = math.sqrt(3.0)

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


def pairwise_intersection_graph(objects: list[SizedObject]) -> list[set[int]]:
    """Intersection graph by the all-pairs scan over i < j."""
    n = len(objects)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if objects_intersect(objects[i], objects[j]):
                adjacency[i].add(j)
                adjacency[j].add(i)
    return adjacency


def _margin_ok(obj: SizedObject, others: list[SizedObject], margin: float) -> bool:
    """The generators' margin rule, checked against every accepted object."""
    for other in others:
        a, b = obj.shape, other.shape
        if isinstance(a, Ball):
            gap = abs(math.dist(a.center.coords, b.center.coords) - (a.radius + b.radius))
            if gap < margin:
                return False
        else:
            for al, au, bl, bu in zip(a.lo.coords, a.hi.coords, b.lo.coords, b.hi.coords):
                if abs(al - bu) < margin or abs(bl - au) < margin:
                    return False
    return True


def _draw_until_clear(draw, n: int, margin: float) -> list[SizedObject]:
    accepted: list[SizedObject] = []
    for _ in range(n):
        for _ in range(1000):
            obj = draw()
            if _margin_ok(obj, accepted, margin):
                accepted.append(obj)
                break
        else:
            raise UsageError("too crowded")
    return accepted


def reference_random_balls(
    n: int, dim: int, box_side: float, seed: int,
    radius_range: tuple[float, float] = (1.0, 1.0), margin: float = 1e-6,
) -> list[SizedObject]:
    """random_balls_gen's objects, drawn from the same RNG calls."""
    rng = random.Random(seed)
    lo, hi = radius_range

    def draw() -> SizedObject:
        center = Point(tuple(rng.uniform(0.0, box_side) for _ in range(dim)))
        radius = lo if lo == hi else rng.uniform(lo, hi)
        return SizedObject(Ball(center, radius))

    return _draw_until_clear(draw, n, margin)


def reference_random_rects(
    n: int, dim: int, m: float, box_side: float, seed: int, margin: float = 1e-6
) -> list[SizedObject]:
    """random_rects_gen's objects, drawn from the same RNG calls."""
    rng = random.Random(seed)

    def draw() -> SizedObject:
        lo = tuple(rng.uniform(0.0, box_side) for _ in range(dim))
        sides = tuple(rng.uniform(1.0, m) for _ in range(dim))
        hi = tuple(l + s for l, s in zip(lo, sides))
        return SizedObject(HyperRectangle(Point(lo), Point(hi)))

    return _draw_until_clear(draw, n, margin)


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


def reference_experiment_records(config) -> list[TrialRecord]:
    """run_experiment's records by the serial solve-every-trial loop.

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
    records = []
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
        records.append(
            TrialRecord(i, seed, config.algorithm, len(stream), run.size, opt, ratio, 0.0)
        )
    return records


def reference_lattice_point(params: LatticeParams, coeffs) -> Point:
    """The lattice point with integer coefficients coeffs, as a Point."""
    ints = [int(a) for a in coeffs]
    rest = ints[1:]
    x1 = (4.0 + params.delta) * ints[0] - (2.0 + params.delta / 2.0) * sum(rest)
    return Point((x1,) + tuple(2.0 * SQRT3 * a for a in rest))


def reference_parity_rounded_point(params: LatticeParams, c: Point) -> tuple[Point, tuple]:
    """Per-axis parity rounding on Points, one branch per parity case."""
    rest: list[int] = []
    for x in c.coords[1:]:
        z = math.floor(x / SQRT3)
        rest.append(z // 2 if z % 2 == 0 else (z + 1) // 2)
    k = sum(rest) % 2
    z1 = math.floor(c.coords[0] / (2.0 + params.delta / 2.0))
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
        q = list(reference_lattice_point(params, [a1 + draw(st.integers(-20, 20))] + rest).coords)
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
    """LatticeFilter deciding through a shifted Point and the reference
    rounding; the shift is drawn exactly as LatticeFilter draws it."""

    def decide(self, event) -> bool:
        ball = event.payload.shape
        if not isinstance(ball, Ball) or ball.radius != 1.0 or ball.dim != self.params.dim:
            raise UsageError("reference filter needs unit balls of the lattice dimension")
        if self._shift is None:
            rng = random.Random(self._seed)
            self._shift = tuple(rng.uniform(0.0, e) for e in self.params.shift_extents())
        shifted = Point(tuple(x + b for x, b in zip(ball.center.coords, self._shift)))
        p, coeffs = reference_parity_rounded_point(self.params, shifted)
        if sum((a - b) ** 2 for a, b in zip(p.coords, shifted.coords)) > 1.0:
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
