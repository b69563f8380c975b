"""Instance sources: worst-case adversaries and seeded random generators.

The star adversary adaptively punishes any deterministic online
algorithm down to the kissing-number ratio; the level-graph family does
the same in expectation against randomized algorithms.  The random
generators produce seeded geometric instances whose predicates stay a
safe margin away from exact tangency.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .geometry import (
    Ball,
    HyperRectangle,
    Point,
    SizedObject,
    UniformGrid,
    UsageError,
    require_type,
)
from .online import (
    ArrivalEvent,
    ArrivalSequence,
    OnlineAlgorithm,
    RunResult,
    finalize_run,
)
from .oracle import OracleRefusal

# Generated instances keep every intersection predicate at least this
# far from flipping, so closed-contact ties never occur.
DEGENERACY_MARGIN = 1e-6

_REDRAW_LIMIT = 1000

# The largest zeta a levels instance may have.  Each of its 2*zeta
# vertices lists every ancestor, about zeta^2 neighbour entries in all,
# so a config past this is refused before anything is built.
LEVELS_ZETA_LIMIT = 1000

GENERATOR_KINDS = ("star", "levels", "random_balls", "random_rects")


class StarOutcome(NamedTuple):
    stream: ArrivalSequence
    result: RunResult
    opt_size: int


def star_adversary(zeta: int, algorithm: OnlineAlgorithm) -> StarOutcome:
    """Adaptive lowest-common-denominator attack with parameter zeta.

    Reveals one isolated vertex.  If the algorithm rejects it, the game
    ends with offline optimum 1 and nothing accepted.  If it accepts,
    zeta pairwise-independent neighbors of that vertex arrive, all
    unacceptable to any algorithm that must stay independent, so the
    optimum is zeta against one acceptance.  The revealed graph always
    has independent kissing number at most zeta.
    """
    if zeta < 1:
        raise UsageError(f"zeta must be >= 1, got {zeta}")
    events = [ArrivalEvent(id=0, neighbors=frozenset())]
    decisions = [bool(algorithm.decide(events[0]))]
    if decisions[0]:
        for i in range(1, zeta + 1):
            ev = ArrivalEvent(id=i, neighbors=frozenset({0}))
            events.append(ev)
            decisions.append(bool(algorithm.decide(ev)))
        opt = zeta
    else:
        opt = 1
    stream = ArrivalSequence(events=tuple(events))
    return StarOutcome(stream=stream, result=finalize_run(events, decisions), opt_size=opt)


def level_graph_gen(zeta: int, seed: Optional[int] = None) -> ArrivalSequence:
    """Randomized hard family with 2*zeta vertices in zeta levels.

    Each level holds a left and a right vertex, revealed in that order.
    Level 1 is edgeless.  For each later level a fair coin picks one
    parent among the previous level's pair; both new vertices connect
    to that parent and to everything the parent already connects to.
    The maximum independent set has at least zeta + 1 vertices, the
    independent kissing number is at most zeta, and greedy first-fit
    accepts exactly the two level-1 vertices.
    """
    if zeta < 1:
        raise UsageError(f"zeta must be >= 1, got {zeta}")
    rng = random.Random(seed)
    events: list[ArrivalEvent] = [
        ArrivalEvent(id=0, neighbors=frozenset()),
        ArrivalEvent(id=1, neighbors=frozenset()),
    ]
    reach: dict[int, frozenset[int]] = {0: frozenset(), 1: frozenset()}
    for level in range(2, zeta + 1):
        left = 2 * (level - 1)
        parent = 2 * (level - 2) + rng.randrange(2)
        ancestors = frozenset({parent}) | reach[parent]
        for vid in (left, left + 1):
            events.append(ArrivalEvent(id=vid, neighbors=ancestors))
            reach[vid] = ancestors
    return ArrivalSequence(events=tuple(events))


class _BallIndex:
    """Accepted balls, grid-indexed for the tangency margin rule.

    A pair can sit within DEGENERACY_MARGIN of tangency only if its
    centers are closer than the radius sum plus the margin, so a grid
    with that reach finds every pair the rule could reject.
    """

    def __init__(self, dim: int, max_radius: float, box_side: float) -> None:
        self.grid = UniformGrid(dim, 2.0 * max_radius + DEGENERACY_MARGIN, box_side)
        self.balls: list[Ball] = []

    def clear(self, obj: SizedObject) -> bool:
        a = obj.shape
        for j in self.grid.near(self.grid.cell(a.center.coords)):
            b = self.balls[j]
            gap = abs(math.dist(a.center.coords, b.center.coords) - (a.radius + b.radius))
            if gap < DEGENERACY_MARGIN:
                return False
        return True

    def add(self, obj: SizedObject) -> None:
        self.grid.add(self.grid.cell(obj.shape.center.coords), len(self.balls))
        self.balls.append(obj.shape)


class _BoxEndpoints:
    """Per-axis sorted endpoints of the accepted boxes.

    The box margin rule compares a new box with every accepted box, near
    or far, on every axis, so it looks endpoints up by value instead of
    by neighbourhood.
    """

    def __init__(self, dim: int) -> None:
        self.los: list[list[float]] = [[] for _ in range(dim)]
        self.his: list[list[float]] = [[] for _ in range(dim)]

    def clear(self, obj: SizedObject) -> bool:
        box = obj.shape
        for al, au, los, his in zip(box.lo.coords, box.hi.coords, self.los, self.his):
            if _endpoint_near(his, al) or _endpoint_near(los, au):
                return False
        return True

    def add(self, obj: SizedObject) -> None:
        box = obj.shape
        for l, u, los, his in zip(box.lo.coords, box.hi.coords, self.los, self.his):
            insort(los, l)
            insort(his, u)


def _endpoint_near(values: list[float], x: float) -> bool:
    """True iff some v in the sorted values has abs(x - v) < DEGENERACY_MARGIN.

    Every v with that property lies in [x - 2*margin, x + 2*margin] even
    after rounding, so only that window is tested.  abs(x - v) equals
    abs(v - x) exactly, because rounding is symmetric in sign.
    """
    margin = DEGENERACY_MARGIN
    start = bisect_left(values, x - 2.0 * margin)
    stop = bisect_right(values, x + 2.0 * margin, start)
    return any(abs(x - v) < margin for v in values[start:stop])


def _place(n: int, draw, index) -> list[SizedObject]:
    """Draw n objects in order, redrawing each until index finds it clear."""
    objects: list[SizedObject] = []
    for _ in range(n):
        for _ in range(_REDRAW_LIMIT):
            obj = draw()
            if index.clear(obj):
                break
        else:
            raise UsageError(
                "could not place an object clear of tangency; the box is too crowded"
            )
        index.add(obj)
        objects.append(obj)
    return objects


def random_balls_gen(
    n: int,
    dim: int,
    box_side: float,
    seed: Optional[int] = None,
    radius_range: tuple[float, float] = (1.0, 1.0),
) -> ArrivalSequence:
    """n balls with centers uniform in [0, box_side]^dim.

    Radii are uniform in radius_range (the default keeps them unit).
    Margin rule: a draw is redrawn while its distance to any accepted
    ball is within DEGENERACY_MARGIN (1e-6) of the radius sum, so no
    pair is within 1e-6 of tangency.
    """
    if n < 0:
        raise UsageError(f"n must be >= 0, got {n}")
    if dim < 1:
        raise UsageError(f"dim must be >= 1, got {dim}")
    if box_side <= 0:
        raise UsageError(f"box_side must be positive, got {box_side}")
    lo, hi = float(radius_range[0]), float(radius_range[1])
    if not 0 < lo <= hi:
        raise UsageError(f"bad radius range {radius_range}")
    rng = random.Random(seed)

    def draw() -> SizedObject:
        center = Point(tuple(rng.uniform(0.0, box_side) for _ in range(dim)))
        radius = lo if lo == hi else rng.uniform(lo, hi)
        return SizedObject(Ball(center=center, radius=radius))

    objects = _place(n, draw, _BallIndex(dim, hi, box_side))
    return ArrivalSequence.from_objects(objects)


def random_rects_gen(
    n: int,
    dim: int,
    m: float,
    box_side: float,
    seed: Optional[int] = None,
) -> ArrivalSequence:
    """n axis-aligned boxes with lower corners uniform in [0, box_side]^dim
    and side lengths uniform in [1, M].

    Margin rule: a draw is redrawn while, on any axis, its lower
    endpoint is within DEGENERACY_MARGIN (1e-6) of the upper endpoint of
    any accepted box, near or far, or its upper endpoint is within 1e-6
    of such a box's lower endpoint.  So no two boxes have facing
    endpoints within 1e-6 on any axis.
    """
    if n < 0:
        raise UsageError(f"n must be >= 0, got {n}")
    if dim < 1:
        raise UsageError(f"dim must be >= 1, got {dim}")
    if box_side <= 0:
        raise UsageError(f"box_side must be positive, got {box_side}")
    if m < 1:
        raise UsageError(f"M must be >= 1, got {m}")
    rng = random.Random(seed)

    def draw() -> SizedObject:
        lo = tuple(rng.uniform(0.0, box_side) for _ in range(dim))
        sides = tuple(rng.uniform(1.0, m) for _ in range(dim))
        hi = tuple(l + s for l, s in zip(lo, sides))
        return SizedObject(HyperRectangle(lo=Point(lo), hi=Point(hi)))

    objects = _place(n, draw, _BoxEndpoints(dim))
    return ArrivalSequence.from_objects(objects)


@dataclass(frozen=True)
class AdversaryConfig:
    """Declarative instance source, usable from config files.

    kind is one of GENERATOR_KINDS.  Unused fields may stay at their
    defaults.  A levels config with zeta above LEVELS_ZETA_LIMIT raises
    OracleRefusal, so gen and experiment refuse it with exit 2.
    """

    kind: str
    zeta: int = 0
    n: int = 0
    dim: int = 0
    m: float = 0.0
    box_side: float = 0.0
    seed: int = 0
    radius_range: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise UsageError(f"unknown adversary kind {self.kind!r}")
        for name, kind in (
            ("zeta", int), ("n", int), ("dim", int), ("m", float),
            ("box_side", float), ("seed", int),
        ):
            require_type(f"generator {name}", getattr(self, name), kind)
        if not isinstance(self.radius_range, (list, tuple)) or len(self.radius_range) != 2:
            raise UsageError(
                f"generator radius_range must be a [lo, hi] pair, got {self.radius_range!r}"
            )
        for value in self.radius_range:
            require_type("generator radius_range entry", value, float)
        object.__setattr__(self, "radius_range", tuple(self.radius_range))
        if self.kind == "levels" and self.zeta > LEVELS_ZETA_LIMIT:
            raise OracleRefusal(
                f"levels zeta {self.zeta} exceeds the limit {LEVELS_ZETA_LIMIT}"
            )


def generate_instance(config: AdversaryConfig) -> ArrivalSequence:
    """Build the (non-adaptive) instance a config describes.

    The star adversary is adaptive and cannot be materialized up front;
    ask for it through star_adversary with a live algorithm instead.
    """
    if config.kind == "levels":
        return level_graph_gen(config.zeta, seed=config.seed)
    if config.kind == "random_balls":
        return random_balls_gen(
            config.n,
            config.dim,
            config.box_side,
            seed=config.seed,
            radius_range=config.radius_range,
        )
    if config.kind == "random_rects":
        return random_rects_gen(
            config.n, config.dim, config.m, config.box_side, seed=config.seed
        )
    raise UsageError("the star adversary is adaptive; use star_adversary directly")
