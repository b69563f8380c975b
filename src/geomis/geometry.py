"""Geometric primitives and intersection graphs.

Closed balls and axis-aligned boxes in d dimensions, whose center and
corners are plain tuples of finite floats, and the intersection graphs
derived from them by closed contact.
A Shape, a ball or a box, is an arrival's whole payload; its width,
the radius of the largest ball it encloses, is the size the algorithms
classify by.  Touching counts as intersecting; callers that need to
avoid knife-edge cases keep their inputs away from exact tangency.

intersection_graph joins both shapes over one UniformGrid: int cell
keys on at most the first three axes, so at most 27 neighbour cells in
any dimension, and cells sorted once, before the join, on a first
coordinate that boxes bisect.  The box predicate tests the last axis
and axis 0 before the rest.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from operator import le, lt, mul, sub
from typing import Iterable, Iterator, Sequence, Union


_KEYED_AXES = 3


class UsageError(ValueError):
    """Raised for malformed or inconsistent caller input."""


_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def require_type(name: str, value: object, kind: type) -> None:
    """Raise UsageError unless value is of kind (int, float, bool or str).

    float accepts ints too; bools never pass as numbers.
    """
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and (kind is bool or not isinstance(value, bool)):
        return
    raise UsageError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")


def require_finite(name: str, value: float) -> float:
    """value as a float, refusing NaN and infinities, which pass the range
    checks, and ints past float range, which the message does not print."""
    try:
        x = float(value)
    except OverflowError:
        raise UsageError(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(x):
        raise UsageError(f"{name} must be finite, got {x}")
    return x


def _coordinates(values: Iterable[float]) -> tuple[float, ...]:
    """values as a non-empty tuple of finite floats."""
    coords = tuple(map(float, values))
    if not coords:
        raise UsageError("point needs at least one coordinate")
    if not all(map(math.isfinite, coords)):
        raise UsageError(f"non-finite coordinate in {coords!r}")
    return coords


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _coordinates(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise UsageError(f"ball radius must be positive, got {self.radius}")

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def width(self) -> float:
        """Radius of the largest enclosed ball: the radius itself."""
        return self.radius


@dataclass(frozen=True)
class HyperRectangle:
    """Closed axis-aligned box given by strict lower/upper corners."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        lo, hi = _coordinates(self.lo), _coordinates(self.hi)
        if len(lo) != len(hi):
            raise UsageError("corner dimension mismatch")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if all(map(lt, lo, hi)):
            return
        for axis, (l, u) in enumerate(zip(lo, hi)):
            if not l < u:
                raise UsageError(
                    f"degenerate box: lo[{axis}]={l} must be < hi[{axis}]={u}"
                )

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> tuple[float, ...]:
        return tuple(u - l for l, u in zip(self.lo, self.hi))

    @property
    def width(self) -> float:
        """Radius of the largest enclosed ball: half the minimum side."""
        return min(self.sides) / 2.0


Shape = Union[Ball, HyperRectangle]


def _balls_meet(ca: Sequence[float], ra: float, cb: Sequence[float], rb: float) -> bool:
    """Closed contact: the center distance is at most the radius sum."""
    return math.dist(ca, cb) <= ra + rb


def _boxes_meet(
    alo: Sequence[float], ahi: Sequence[float], blo: Sequence[float], bhi: Sequence[float]
) -> bool:
    """Closed contact: the intervals overlap on every axis.

    The last axis and axis 0 are compared first, plainly: the box join's
    bisect on axis 0 leaves the last axis to reject most candidates.
    Boxes of more than two axes then compare all of them.
    """
    return (
        alo[-1] <= bhi[-1] and blo[-1] <= ahi[-1]
        and alo[0] <= bhi[0] and blo[0] <= ahi[0]
        and (len(alo) < 3 or (all(map(le, alo, bhi)) and all(map(le, blo, ahi))))
    )


class UniformGrid:
    """Uniform grid of cubic cells for fixed-radius near-neighbour search.

    Cells are keyed on at most the first three coordinates: points within
    ``reach`` on every axis are within it on those, so they fall in the
    same or adjacent cells, and every such pair is found around one point
    (``near``) or by joining each occupied cell with its occupied
    neighbours (``cell_pairs``) (Bentley, Stanat & Williams, IPL 1977),
    among at most 27 cells in any dimension.  The side's relative padding
    absorbs last-ulp rounding in the predicates that decide ``reach``; its
    absolute padding absorbs the rounding of ``x / side`` at the largest
    magnitude in ``lows`` and ``highs``, between which every point lies,
    and keeps ``floor`` from overflow.  A cell key is one int: the cell's
    coordinates, offset so the lowest is 1, as mixed-radix digits, axis 0
    the most significant, with a spare digit at both ends, so a
    neighbour's key is the key plus a fixed delta.  Items are numbered
    0, 1, ... as added, and a cell lists them in that order until
    ``cell_pairs`` sorts each cell once on their points' first
    coordinates, ``firsts[item]``, ties in insertion order.
    """

    def __init__(self, reach: float, lows: Sequence[float], highs: Sequence[float]) -> None:
        lows, highs = lows[:_KEYED_AXES], highs[:_KEYED_AXES]
        extent = max(map(abs, (*lows, *highs)))
        side = self.side = reach * (1.0 + 1e-9) + extent * 1e-12
        lowest = [math.floor(lo / side) - 1 for lo in lows]
        radices = [math.floor(hi / side) - low + 2 for hi, low in zip(highs, lowest)]
        strides = self._strides = [math.prod(radices[axis + 1:]) for axis in range(len(radices))]
        self._base = -sum(map(mul, lowest, strides))
        # Key deltas of the 3^keyed neighbour offsets, ascending as product
        # lists them, and the later ones, after the middle one, 0.
        deltas = self._deltas = [
            sum(map(mul, offset, strides)) for offset in product((-1, 0, 1), repeat=len(strides))
        ]
        self._later = deltas[len(deltas) // 2 + 1:]
        self._cells: dict[int, list[int]] = {}
        self.firsts: list[float] = []

    def _key(self, coords: Sequence[float]) -> int:
        side = self.side
        return self._base + sum([math.floor(x / side) * s for x, s in zip(coords, self._strides)])

    def add(self, coords: Sequence[float]) -> None:
        """Store the next item, numbered by how many came before it, in the
        cell of the point coords."""
        self._cells.setdefault(self._key(coords), []).append(len(self.firsts))
        self.firsts.append(coords[0])

    def near(self, coords: Sequence[float]) -> Iterator[int]:
        """Items stored in the cells around the point coords, in no set order."""
        cells, key = self._cells, self._key(coords)
        for members in filter(None, map(cells.get, [key + d for d in self._deltas])):
            yield from members

    def cell_pairs(self) -> Iterator[tuple[list[int], list[int]]]:
        """Every two occupied cells at most one step apart on every keyed
        axis, each pair once: a cell with itself, then with each of larger
        key.  Each cell is first sorted on ``firsts``, stably."""
        cells, first = self._cells, self.firsts.__getitem__
        for cell in cells.values():
            cell.sort(key=first)
        for key, cell in cells.items():
            yield cell, cell
            for delta in self._later:
                other = cells.get(key + delta)
                if other:
                    yield cell, other


def intersection_graph(objects: Sequence[Shape]) -> list[set[int]]:
    """Symmetric adjacency lists of the pairwise intersection graph.

    All objects must be balls or boxes, of one dimension and one shape
    kind.  Vertex i is objects[i]; an edge means the closed shapes meet.
    This is a cell-pair join: every object is bucketed once into a
    UniformGrid keyed by ball centers (cell side twice the largest
    radius) or box lower corners (cell side the largest box side), each
    cell is sorted once on that point's first coordinate, and each
    candidate pair from UniformGrid.cell_pairs is decided by _balls_meet
    or _boxes_meet, which tests a box pair's last axis and axis 0 first.
    A box i is tested only against the prefix that hi_i[0] bisects off a
    cell (sort and sweep in a grid: Cohen, Lin, Manocha & Ponamgi,
    I-COLLIDE 1995), in its own cell past i.  That is exact: it drops only
    boxes j with lo_j[0] > hi_i[0], which _boxes_meet rejects by that very
    comparison, tangency included.  Balls test whole cells.  The join
    is near-linear at bounded size and density.  Each adjacency set is
    filled in ascending order, as a pairwise scan over i < j fills it.
    """
    n = len(objects)
    if n == 0:
        return []
    first = objects[0]
    of_balls = isinstance(first, Ball)
    for i, obj in enumerate(objects):
        if not isinstance(obj, (Ball, HyperRectangle)):
            raise UsageError(f"unsupported shape type {type(obj).__name__}")
        if obj.dim != first.dim:
            raise UsageError(f"object {i} has dim {obj.dim}, expected {first.dim}")
        if isinstance(obj, Ball) != of_balls:
            raise UsageError("mixed ball/box intersection is not supported")
    # meet(keys[i], extras[i], keys[j], extras[j]) decides the pair i, j;
    # no j with keys[j][0] > bounds[i] meets i.
    if of_balls:
        keys = [obj.center for obj in objects]
        extras = [obj.radius for obj in objects]
        reach = 2.0 * max(extras)
        meet = _balls_meet
        bounds = [math.inf] * n
    else:
        keys = [obj.lo for obj in objects]
        extras = [obj.hi for obj in objects]
        reach = max([max(map(sub, hi, lo)) for lo, hi in zip(keys, extras)])
        meet = _boxes_meet
        bounds = [hi[0] for hi in extras]
    grid = UniformGrid(reach, [min(a) for a in zip(*keys)], [max(a) for a in zip(*keys)])
    for key in keys:
        grid.add(key)
    first = grid.firsts.__getitem__
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for members, others in grid.cell_pairs():
        same = members is others
        for x, i in enumerate(members):
            key, extra, mine = keys[i], extras[i], neighbours[i]
            stop = bisect_right(others, bounds[i], key=first)
            for j in others[x + 1:stop] if same else others[:stop]:
                if meet(key, extra, keys[j], extras[j]):
                    mine.append(j)
                    neighbours[j].append(i)
    return [set(sorted(found)) for found in neighbours]
