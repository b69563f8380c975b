"""Geometric primitives and intersection graphs.

Points, closed balls, and axis-aligned boxes in d dimensions, plus the
closed-contact intersection predicates used to derive conflict graphs.
Touching counts as intersecting; callers that need to avoid knife-edge
cases keep their inputs away from exact tangency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
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


@dataclass(frozen=True)
class Point:
    """Immutable point in R^d, d >= 1."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        coords = tuple(float(x) for x in self.coords)
        if len(coords) == 0:
            raise UsageError("point needs at least one coordinate")
        if not all(math.isfinite(x) for x in coords):
            raise UsageError(f"non-finite coordinate in {coords!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def translated(self, offset: Iterable[float]) -> "Point":
        off = tuple(offset)
        if len(off) != self.dim:
            raise UsageError("offset dimension mismatch")
        return Point(tuple(x + o for x, o in zip(self.coords, off)))

    def __iter__(self):
        return iter(self.coords)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points of equal dimension."""
    if a.dim != b.dim:
        raise UsageError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return math.dist(a.coords, b.coords)


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius", float(self.radius))
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise UsageError(f"ball radius must be positive, got {self.radius}")

    @property
    def dim(self) -> int:
        return self.center.dim


@dataclass(frozen=True)
class HyperRectangle:
    """Closed axis-aligned box given by strict lower/upper corners."""

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if self.lo.dim != self.hi.dim:
            raise UsageError("corner dimension mismatch")
        for axis, (l, u) in enumerate(zip(self.lo.coords, self.hi.coords)):
            if not l < u:
                raise UsageError(
                    f"degenerate box: lo[{axis}]={l} must be < hi[{axis}]={u}"
                )

    @property
    def dim(self) -> int:
        return self.lo.dim

    @property
    def sides(self) -> tuple[float, ...]:
        return tuple(u - l for l, u in zip(self.lo.coords, self.hi.coords))


Shape = Union[Ball, HyperRectangle]


def balls_intersect(a: Ball, b: Ball) -> bool:
    """Closed-contact test: true iff center distance <= radius sum."""
    return distance(a.center, b.center) <= a.radius + b.radius


def rects_intersect(a: HyperRectangle, b: HyperRectangle) -> bool:
    """Closed-contact test: true iff the interval overlap holds on every axis."""
    if a.dim != b.dim:
        raise UsageError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return all(
        al <= bu and bl <= au
        for al, au, bl, bu in zip(a.lo.coords, a.hi.coords, b.lo.coords, b.hi.coords)
    )


@dataclass(frozen=True)
class SizedObject:
    """A shape together with its size metadata.

    width is the radius of the largest ball the shape encloses (ball:
    its radius; box: half the minimum side).  alpha records how fat the
    shape is: width divided by the radius of the smallest enclosing
    ball (1 for balls, min side / diameter for boxes).
    """

    shape: Shape

    def __post_init__(self) -> None:
        if not isinstance(self.shape, (Ball, HyperRectangle)):
            raise UsageError(f"unsupported shape type {type(self.shape).__name__}")

    @property
    def dim(self) -> int:
        return self.shape.dim

    @property
    def width(self) -> float:
        if isinstance(self.shape, Ball):
            return self.shape.radius
        return min(self.shape.sides) / 2.0

    @property
    def alpha(self) -> float:
        if isinstance(self.shape, Ball):
            return 1.0
        sides = self.shape.sides
        return min(sides) / math.hypot(*sides)


def objects_intersect(a: SizedObject, b: SizedObject) -> bool:
    """Intersection test for two sized objects of the same shape kind."""
    if isinstance(a.shape, Ball) and isinstance(b.shape, Ball):
        return balls_intersect(a.shape, b.shape)
    if isinstance(a.shape, HyperRectangle) and isinstance(b.shape, HyperRectangle):
        return rects_intersect(a.shape, b.shape)
    raise UsageError("mixed ball/box intersection is not supported")


class UniformGrid:
    """Uniform grid of cubic cells for fixed-radius near-neighbour lookup.

    Two points whose coordinates differ by at most ``reach`` on every
    axis, and whose coordinates are at most ``extent`` in absolute
    value, always fall in the same or adjacent cells, so a lookup over
    the 3^dim cells around a point finds every such partner (Bentley,
    Stanat & Williams, IPL 1977).  The cell side is padded: the relative
    term absorbs last-ulp rounding in the predicates that decide
    ``reach``, and the absolute term absorbs the rounding of
    ``x / side`` at magnitude ``extent`` and keeps that quotient small
    enough for ``floor`` never to overflow.
    """

    def __init__(self, dim: int, reach: float, extent: float) -> None:
        self.side = reach * (1.0 + 1e-9) + extent * 1e-12
        self._neighbourhood = 3**dim
        self._offsets: Optional[tuple[tuple[int, ...], ...]] = None
        self._cells: dict[tuple[int, ...], list[int]] = {}

    def cell(self, coords: Sequence[float]) -> tuple[int, ...]:
        side = self.side
        return tuple(math.floor(x / side) for x in coords)

    def near(self, cell: tuple[int, ...]) -> Iterator[int]:
        """Items stored in the 3^dim cells around cell, in no set order.

        While fewer cells are occupied than a neighbourhood holds (always
        so in high dimension), the occupied cells are scanned instead, so
        neither time nor memory ever grows with 3^dim beyond the number
        of occupied cells.
        """
        cells = self._cells
        if len(cells) < self._neighbourhood:
            for key, members in cells.items():
                if all(-1 <= k - c <= 1 for k, c in zip(key, cell)):
                    yield from members
            return
        if self._offsets is None:
            self._offsets = tuple(product((-1, 0, 1), repeat=len(cell)))
        for offset in self._offsets:
            members = cells.get(tuple(c + o for c, o in zip(cell, offset)))
            if members:
                yield from members

    def add(self, cell: tuple[int, ...], item: int) -> None:
        self._cells.setdefault(cell, []).append(item)


def intersection_graph(objects: Sequence[SizedObject]) -> list[set[int]]:
    """Symmetric adjacency lists of the pairwise intersection graph.

    All objects must share one dimension and one shape kind.  Vertex i
    is objects[i]; an edge means the closed shapes meet.  Candidate
    pairs come from a UniformGrid keyed by ball centers (cell side twice
    the largest radius) or box lower corners (cell side the largest box
    side), and each candidate is decided by objects_intersect.  That
    takes near-linear time when the objects have bounded size and
    bounded density.
    """
    n = len(objects)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    if n == 0:
        return adjacency
    dim = objects[0].dim
    of_balls = isinstance(objects[0].shape, Ball)
    for i, obj in enumerate(objects):
        if obj.dim != dim:
            raise UsageError(f"object {i} has dim {obj.dim}, expected {dim}")
        if isinstance(obj.shape, Ball) != of_balls:
            raise UsageError("mixed ball/box intersection is not supported")
    if of_balls:
        keys = [obj.shape.center.coords for obj in objects]
        reach = 2.0 * max(obj.shape.radius for obj in objects)
    else:
        keys = [obj.shape.lo.coords for obj in objects]
        reach = max(max(obj.shape.sides) for obj in objects)
    extent = max(abs(x) for key in keys for x in key)
    grid = UniformGrid(dim, reach, extent)
    for j, obj in enumerate(objects):
        cell = grid.cell(keys[j])
        # Ascending hits make every adjacency set grow in ascending
        # order, as a pairwise scan over i < j would.
        for i in sorted(grid.near(cell)):
            if objects_intersect(objects[i], obj):
                adjacency[i].add(j)
                adjacency[j].add(i)
        grid.add(cell, j)
    return adjacency
