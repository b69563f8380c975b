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
from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import add
from typing import NamedTuple, Optional

from .geometry import (
    Ball,
    HyperRectangle,
    Shape,
    UniformGrid,
    UsageError,
    refuse_above,
    refuse_beyond,
    require_at_least,
    require_finite,
    require_type,
)
from .online import (
    ArrivalEvent,
    ArrivalSequence,
    OnlineAlgorithm,
    RunResult,
    finalize_run,
)

# Generated instances keep every intersection predicate at least this
# far from flipping, so closed-contact ties never occur.
DEGENERACY_MARGIN = 1e-6

_REDRAW_LIMIT = 1000

# The largest zeta a levels instance may have.  Each of its 2*zeta
# vertices lists every ancestor, about zeta^2 neighbour entries in all,
# so a config past this is refused before anything is built.
LEVELS_ZETA_LIMIT = 1000

# The largest zeta a star adversary may have.  It reveals zeta + 1
# vertices, about 55 MB of arrivals at the limit.
STAR_ZETA_LIMIT = 10**5

# The most axes, and the most coordinates over its n objects, that a
# generated instance or an instance file's dim line may ask for.  The
# generators allocate per axis, and the class draws of hr_classify draw
# per axis, before the first object.  10^5 balls in 3-D fit.
DIM_LIMIT = 1000
COORDINATE_LIMIT = 10**6

GENERATOR_KINDS = ("star", "levels", "random_balls", "random_rects")


def refuse_oversized(n: int, dim: int) -> None:
    """Refuse, with OracleRefusal, n objects of dim coordinates each
    past DIM_LIMIT or COORDINATE_LIMIT, before anything is allocated."""
    refuse_beyond("dim", dim, DIM_LIMIT)
    refuse_above(COORDINATE_LIMIT, "instance coordinates", n, dim)


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
    has independent kissing number at most zeta.  A zeta above
    STAR_ZETA_LIMIT is refused.
    """
    require_at_least("zeta", zeta, 1)
    refuse_beyond("star zeta", zeta, STAR_ZETA_LIMIT)
    events = [ArrivalEvent(id=0, neighbors=frozenset())]
    decisions = [algorithm.decide(events[0])]
    if decisions[0]:
        for i in range(1, zeta + 1):
            ev = ArrivalEvent(id=i, neighbors=frozenset({0}))
            events.append(ev)
            decisions.append(algorithm.decide(ev))
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
    accepts exactly the two level-1 vertices.  A zeta above
    LEVELS_ZETA_LIMIT is refused.
    """
    require_at_least("zeta", zeta, 1)
    refuse_beyond("levels zeta", zeta, LEVELS_ZETA_LIMIT)
    rng = random.Random(seed)
    neighbors: list[frozenset[int]] = [frozenset(), frozenset()]
    for level in range(2, zeta + 1):
        parent = 2 * (level - 2) + rng.randrange(2)
        neighbors += [neighbors[parent] | {parent}] * 2
    return ArrivalSequence.from_neighbor_lists(neighbors)


class _BallIndex:
    """Accepted balls, grid-indexed for the tangency margin rule.

    A pair can sit within DEGENERACY_MARGIN of tangency only if its
    centers are closer than the radius sum plus the margin, so a grid
    with that reach finds every pair the rule could reject.
    """

    def __init__(self, dim: int, max_radius: float, box_side: float) -> None:
        reach = 2.0 * max_radius + DEGENERACY_MARGIN
        self.grid = UniformGrid(reach, (0.0,) * dim, (box_side,) * dim)
        self.balls: list[Ball] = []

    def clear(self, a: Ball) -> bool:
        for j in self.grid.near(a.center):
            b = self.balls[j]
            gap = abs(math.dist(a.center, b.center) - (a.radius + b.radius))
            if gap < DEGENERACY_MARGIN:
                return False
        return True

    def add(self, ball: Ball) -> None:
        self.grid.add(ball.center, len(self.balls))
        self.balls.append(ball)


class _BoxEndpoints:
    """Per-axis sorted endpoints of the accepted boxes.

    The box margin rule compares a new box with every accepted box, near
    or far, on every axis, so it looks endpoints up by value instead of
    by neighbourhood.  The same per-axis pass also turns away a box whose
    stored side hi - lo, which is what HyperRectangle.sides reads, has
    rounded out of [1, m].
    """

    def __init__(self, dim: int, m: float) -> None:
        self.los: list[list[float]] = [[] for _ in range(dim)]
        self.his: list[list[float]] = [[] for _ in range(dim)]
        self.m = m

    def clear(self, box: HyperRectangle) -> bool:
        m = self.m
        for al, au, los, his in zip(box.lo, box.hi, self.los, self.his):
            if not 1.0 <= au - al <= m or _endpoint_near(his, al) or _endpoint_near(los, au):
                return False
        return True

    def add(self, box: HyperRectangle) -> None:
        for l, u, los, his in zip(box.lo, box.hi, self.los, self.his):
            insort(los, l)
            insort(his, u)


def _endpoint_near(values: list[float], x: float) -> bool:
    """True iff some v in the sorted values has abs(x - v) < DEGENERACY_MARGIN.

    Rounding keeps x - v monotone in v, so the nearest v below x and the
    nearest v at or above it decide; for those, abs(x - v) is x - v and
    v - x, equal to the bit because rounding is symmetric in sign.
    """
    at = bisect_left(values, x)
    return (at > 0 and x - values[at - 1] < DEGENERACY_MARGIN) or (
        at < len(values) and values[at] - x < DEGENERACY_MARGIN
    )


def _require_region(n: int, dim: int, box_side: float) -> float:
    """Check n, dim and box_side before any draw; box_side as a float."""
    require_at_least("n", n, 0)
    require_at_least("dim", dim, 1)
    refuse_oversized(n, dim)
    box_side = require_finite("box_side", box_side)
    if box_side <= 0:
        raise UsageError(f"box_side must be positive, got {box_side}")
    return box_side


def _place(n: int, draw, index) -> list[Shape]:
    """Draw n objects in order, redrawing each until index finds it clear."""
    objects: list[Shape] = []
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
    box_side = _require_region(n, dim, box_side)
    lo, hi = (require_finite("radius_range", r) for r in radius_range)
    if not 0 < lo <= hi:
        raise UsageError(f"bad radius range {radius_range}")
    rng = random.Random(seed)

    def draw() -> Ball:
        center = [rng.uniform(0.0, box_side) for _ in range(dim)]
        radius = lo if lo == hi else rng.uniform(lo, hi)
        return Ball(center=center, radius=radius)

    objects = _place(n, draw, _BallIndex(dim, hi, box_side))
    return ArrivalSequence.from_objects(objects, dim)


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
    endpoints within 1e-6 on any axis.  A draw is also redrawn when
    lo + side rounds to an upper endpoint whose stored side hi - lo
    leaves [1, M], so every box meets HRClassify's side rule; at M = 1
    that is a side of exactly 1.
    """
    box_side = _require_region(n, dim, box_side)
    m = require_finite("M", m)
    require_at_least("M", m, 1)
    uniform = random.Random(seed).uniform

    def draw() -> HyperRectangle:
        lo = [uniform(0.0, box_side) for _ in range(dim)]
        sides = [uniform(1.0, m) for _ in range(dim)]
        return HyperRectangle(lo, list(map(add, lo, sides)))

    objects = _place(n, draw, _BoxEndpoints(dim, m))
    return ArrivalSequence.from_objects(objects, dim)


@dataclass(frozen=True)
class AdversaryConfig:
    """Declarative instance source, usable from config files.

    kind is one of GENERATOR_KINDS.  Unused fields may stay at their
    defaults.  A config past its kind's size bound raises OracleRefusal,
    so gen and experiment refuse it with exit 2: a levels or star zeta
    above LEVELS_ZETA_LIMIT or STAR_ZETA_LIMIT, or random objects past
    refuse_oversized.
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
        if self.kind == "levels":
            refuse_beyond("levels zeta", self.zeta, LEVELS_ZETA_LIMIT)
        elif self.kind == "star":
            refuse_beyond("star zeta", self.zeta, STAR_ZETA_LIMIT)
        else:
            refuse_oversized(self.n, self.dim)


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
