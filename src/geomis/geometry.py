"""Geometric primitives and intersection graphs.

Closed balls and axis-aligned boxes in d dimensions, whose center and
corners are plain tuples of finite floats, and the intersection graphs
derived from them by closed contact.
A Shape, a ball or a box, is an arrival's whole payload; its width,
the radius of the largest ball it encloses, is the size the algorithms
classify by.  Touching counts as intersecting; callers that need to
avoid knife-edge cases keep their inputs away from exact tangency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product
from operator import add, le
from typing import Iterable, Iterator, Optional, Sequence, Union


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
    """Closed contact: the intervals overlap on every axis."""
    return all(map(le, alo, bhi)) and all(map(le, blo, ahi))


class UniformGrid:
    """Uniform grid of cubic cells for fixed-radius near-neighbour search.

    Two points whose coordinates differ by at most ``reach`` on every
    axis, and whose coordinates are at most ``extent`` in absolute
    value, always fall in the same or adjacent cells, so every such pair
    is found either around one point (``near``, over the 3^dim cells
    around it) or by joining each occupied cell with its occupied
    neighbours (``cell_pairs``) (Bentley, Stanat & Williams, IPL 1977).
    The cell side is padded: the relative term absorbs last-ulp rounding
    in the predicates that decide ``reach``, and the absolute term
    absorbs the rounding of ``x / side`` at magnitude ``extent`` and
    keeps that quotient small enough for ``floor`` never to overflow.
    """

    def __init__(self, dim: int, reach: float, extent: float) -> None:
        self.side = reach * (1.0 + 1e-9) + extent * 1e-12
        self._neighbourhood = 3**dim
        self._offsets: Optional[tuple[tuple[int, ...], ...]] = None
        self._cells: dict[tuple[int, ...], list[int]] = {}

    def cell(self, coords: Sequence[float]) -> tuple[int, ...]:
        side = self.side
        return tuple([math.floor(x / side) for x in coords])

    def near(self, cell: tuple[int, ...]) -> Iterator[int]:
        """Items stored in the 3^dim cells around cell, in no set order."""
        for members in self._occupied_around(cell, later=False):
            yield from members

    def cell_pairs(self) -> Iterator[tuple[list[int], list[int]]]:
        """The item lists of every two occupied cells at most one step
        apart on every axis, each pair once: a cell with itself, then
        with each such cell after it in lexicographic order.  Items of
        one cell are in insertion order."""
        for cell, members in self._cells.items():
            yield members, members
            for others in self._occupied_around(cell, later=True):
                yield members, others

    def _occupied_around(self, cell: tuple[int, ...], later: bool) -> Iterator[list[int]]:
        """Item lists of the occupied cells at most one step from cell on
        every axis, cell included; with later, only those after cell in
        lexicographic order.

        While fewer cells are occupied than a neighbourhood holds (always
        so in high dimension), the occupied cells are scanned instead, so
        neither time nor memory ever grows with 3^dim beyond the number
        of occupied cells.
        """
        cells = self._cells
        if len(cells) < self._neighbourhood:
            for key, members in cells.items():
                if (not later or key > cell) and all(
                    -1 <= k - c <= 1 for k, c in zip(key, cell)
                ):
                    yield members
            return
        if self._offsets is None:
            self._offsets = tuple(product((-1, 0, 1), repeat=len(cell)))
        # product lists the offsets in lexicographic order, so the ones
        # after the all-zero middle offset lead to the later cells.
        start = len(self._offsets) // 2 + 1 if later else 0
        for offset in islice(self._offsets, start, None):
            members = cells.get(tuple(map(add, cell, offset)))
            if members:
                yield members

    def add(self, cell: tuple[int, ...], item: int) -> None:
        self._cells.setdefault(cell, []).append(item)


def intersection_graph(objects: Sequence[Shape]) -> list[set[int]]:
    """Symmetric adjacency lists of the pairwise intersection graph.

    All objects must be balls or boxes, of one dimension and one shape
    kind.  Vertex i is objects[i]; an edge means the closed shapes meet.
    This is a cell-pair join: every object is bucketed once into a
    UniformGrid keyed by ball centers (cell side twice the largest
    radius) or box lower corners (cell side the largest box side), and
    each candidate pair from UniformGrid.cell_pairs is decided by
    _balls_meet or _boxes_meet.
    That takes near-linear time when the objects have bounded size and
    bounded density.  Each adjacency set is filled in ascending order,
    as a pairwise scan over i < j would fill it, so set iteration order
    is reproducible.
    """
    n = len(objects)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    if n == 0:
        return adjacency
    first = objects[0]
    of_balls = isinstance(first, Ball)
    for i, obj in enumerate(objects):
        if not isinstance(obj, (Ball, HyperRectangle)):
            raise UsageError(f"unsupported shape type {type(obj).__name__}")
        if obj.dim != first.dim:
            raise UsageError(f"object {i} has dim {obj.dim}, expected {first.dim}")
        if isinstance(obj, Ball) != of_balls:
            raise UsageError("mixed ball/box intersection is not supported")
    # meet(keys[i], extras[i], keys[j], extras[j]) decides the pair i, j.
    if of_balls:
        keys = [obj.center for obj in objects]
        extras = [obj.radius for obj in objects]
        reach = 2.0 * max(extras)
        meet = _balls_meet
    else:
        keys = [obj.lo for obj in objects]
        extras = [obj.hi for obj in objects]
        reach = max(max(obj.sides) for obj in objects)
        meet = _boxes_meet
    extent = max(abs(x) for key in keys for x in key)
    grid = UniformGrid(first.dim, reach, extent)
    for i, key in enumerate(keys):
        grid.add(grid.cell(key), i)
    edges: list[tuple[int, int]] = []  # (j, i) with i < j
    for members, others in grid.cell_pairs():
        same = members is others
        for x, i in enumerate(members):
            key, extra = keys[i], extras[i]
            for j in others[x + 1:] if same else others:
                if meet(key, extra, keys[j], extras[j]):
                    edges.append((j, i) if i < j else (i, j))
    # Inserting in (j, i) order fills every set in ascending order.
    edges.sort()
    for j, i in edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    return adjacency
