"""Randomized online strategies with provable acceptance guarantees.

LatticeFilter thins unit-ball streams through a randomly shifted sparse
lattice: survivors of the coverage test form disjoint cliques (one per
lattice point), so keeping the first ball per lattice cell is greedy
acceptance on the filtered subsequence.  Each ball survives with
probability vol(unit ball) / ((4+delta) * (2*sqrt(3))^(d-1)), giving an
expected acceptance of at least that fraction of the offline optimum;
at d=3 the reciprocal is (36 + 9*delta)/pi.  Each decision first runs
lattice.cross_axis_terms, which rejects an arrival that one axis 2..d
alone keeps farther than 1 from the lattice, about two thirds of them
at d=3; that axis's term is in the full squared distance too, so the
early return is exact.  The rest are rounded (parity_rounded_point);
an occupied cell rejects, else the axis-1 term joins the returned ones.
There is no batch path: run_online gives the accepted set of any shift.

Classify handles fat objects of bounded width spread: it draws one
dyadic width class [2^j, 2^(j+1)) uniformly and plays greedy first-fit
on that class only.  HRClassify does the same for hyper-rectangles with
an independent class draw per axis, where each class has independent
kissing number at most 4^d.  Every strategy makes its random draw, the
shift or the classes, from its seed when it is built; decide draws none.

ALGORITHMS names the strategies, together with FirstFit; make_algorithm
builds any of them from a name, and the harness and the CLI build them
only through it.
"""

from __future__ import annotations

import math
import random
from itertools import product
from operator import add, le, lt, sub
from typing import Optional, Sequence

from .geometry import Ball, HyperRectangle, UsageError
from .lattice import (
    CoeffVector,
    LatticeParams,
    cross_axis_terms,
    parity_rounded_point,
    period_box,
    unit_ball_volume,
)
from .online import ArrivalEvent, FirstFit, OnlineAlgorithm
from .oracle import refuse_above


def _floor_log2(x: float) -> int:
    """The j with 2^j <= x < 2^(j+1) exactly: frexp writes x as f * 2^e
    with 1/2 <= f < 1, and never overflows near the top of float range."""
    return math.frexp(x)[1] - 1


def class_count(m: float) -> int:
    """Number of dyadic size classes covering [1, M]."""
    if not (math.isfinite(m) and m > 2):
        raise UsageError(f"M must be finite and > 2, got {m}")
    return _floor_log2(m) + 1


def width_class_index(width: float) -> int:
    """The j with width in [2^j, 2^(j+1))."""
    if width <= 0:
        raise UsageError(f"width must be positive, got {width}")
    return _floor_log2(width)


class LatticeFilter:
    """Online strategy for unit balls: accept the first ball whose shifted
    center each lattice point covers, by a sum of pow squares <= 1.

    The shift is given, or drawn once from seed when the filter is
    built, uniformly over one lattice period per axis.  Within one run,
    balls covered by the same lattice point pairwise intersect and balls
    covered by different lattice points never do, so one-per-cell
    acceptance is exactly greedy first-fit on the covered subsequence.
    """

    def __init__(
        self, params: LatticeParams, seed: Optional[int] = None,
        shift: Optional[Sequence[float]] = None,
    ) -> None:
        self.params = params
        extents = params.shift_extents()
        if shift is None:
            rng = random.Random(seed)
            self.shift = tuple(rng.uniform(0.0, e) for e in extents)
        else:
            self.shift = tuple(float(x) for x in shift)
            if len(self.shift) != params.dim:
                raise UsageError(f"shift must have {params.dim} coordinates")
            for x, e in zip(self.shift, extents):
                if not 0.0 <= x < e:
                    raise UsageError(f"shift coordinate {x} outside [0, {e})")
        self.occupied: dict[CoeffVector, int] = {}

    def decide(self, event: ArrivalEvent) -> bool:
        ball = event.payload
        if not isinstance(ball, Ball):
            raise UsageError("LatticeFilter requires unit-ball payloads")
        center = ball.center
        if len(center) != self.params.dim:
            raise UsageError(f"ball dim {len(center)} does not match lattice dim {self.params.dim}")
        if ball.radius != 1.0:
            raise UsageError(f"LatticeFilter requires unit balls, got radius {ball.radius}")
        shifted = list(map(add, center, self.shift))
        # Most arrivals fail on one axis 2..d alone; each such term is
        # also in the distance below, so this return changes no decision.
        if (terms := cross_axis_terms(shifted)) is None:
            return False
        # The one-shot rounding finds the covering lattice point whenever
        # one exists within distance 1, so this equals the coverage test.
        coords, coeffs = parity_rounded_point(self.params, shifted)
        if coeffs in self.occupied:
            return False
        if sum(terms, (coords[0] - shifted[0]) ** 2) > 1.0:
            return False
        self.occupied[coeffs] = event.id
        return True


def filter_acceptance_probability(
    params: LatticeParams | int, delta: float = 0.01
) -> float:
    """Probability that a fixed unit ball survives the random shift:
    vol(unit ball) over the volume of period_box(dim, delta), the box
    product taken axis by axis as lattice --check volume takes it.

    Accepts either a LatticeParams or a bare dimension plus delta;
    delta=0 gives the limiting value (pi/36 at dim=3).
    """
    if isinstance(params, LatticeParams):
        dim, delta = params.dim, params.delta
    else:
        dim = params
    if dim < 2:
        raise UsageError(f"dim must be >= 2, got {dim}")
    if not (math.isfinite(delta) and delta >= 0):
        raise UsageError(f"delta must be >= 0, got {delta}")
    return unit_ball_volume(dim) / math.prod(period_box(dim, delta))


class _ClassFirstFit:
    """First-fit on the arrivals whose per-axis dyadic class tuple is
    chosen_classes: the forced tuple, or one uniform class per axis drawn
    from seed when built.  Subclasses check an arrival and return its
    per-axis sizes in _sizes; size s is in class j iff 2^j <= s < 2^(j+1)."""

    _index_name = "class index"

    def __init__(
        self, m: float, axes: int, seed: Optional[int], forced: Optional[Sequence[int]]
    ) -> None:
        self.m = float(m)
        k = class_count(self.m)
        if forced is None:
            rng = random.Random(seed)
            self.chosen_classes = tuple(rng.randrange(k) for _ in range(axes))
        else:
            self.chosen_classes = tuple(int(j) for j in forced)
            if len(self.chosen_classes) != axes:
                raise UsageError(f"forced_classes must have {axes} entries")
            for j in self.chosen_classes:
                if not 0 <= j < k:
                    raise UsageError(f"{self._index_name} {j} outside 0..{k - 1}")
        self._lows = [2.0 ** j for j in self.chosen_classes]
        self._highs = [2.0 * low for low in self._lows]  # inf above float range
        self._greedy = FirstFit()

    def decide(self, event: ArrivalEvent) -> bool:
        sizes = self._sizes(event)
        in_class = all(map(le, self._lows, sizes)) and all(map(lt, sizes, self._highs))
        return in_class and self._greedy.decide(event)


class Classify(_ClassFirstFit):
    """Online strategy for sized objects with widths in [1, M]: draw one
    dyadic width class uniformly, then play first-fit on that class."""

    _index_name = "forced_class"

    def __init__(
        self, m: float, seed: Optional[int] = None, forced_class: Optional[int] = None
    ) -> None:
        super().__init__(m, 1, seed, None if forced_class is None else (forced_class,))

    def _sizes(self, event: ArrivalEvent) -> tuple[float]:
        if event.payload is None:
            raise UsageError("Classify requires sized-object payloads")
        width = event.payload.width
        if not 1.0 <= width <= self.m:
            meaning = "its radius" if isinstance(event.payload, Ball) else "half its smallest side"
            raise UsageError(
                f"arrival {event.id} has width {width} ({meaning}), outside [1, {self.m}]:"
                " classify needs every width in [1, M]"
            )
        return (width,)


class HRClassify(_ClassFirstFit):
    """Online strategy for axis-aligned boxes with sides in [1, M]: draw
    one dyadic class per axis, keep boxes matching on every axis, and
    play first-fit on them."""

    def __init__(
        self, m: float, dim: int, seed: Optional[int] = None,
        forced_classes: Optional[Sequence[int]] = None,
    ) -> None:
        if dim < 1:
            raise UsageError(f"dim must be >= 1, got {dim}")
        super().__init__(m, dim, seed, forced_classes)

    def _sizes(self, event: ArrivalEvent) -> list[float]:
        rect = event.payload
        if not isinstance(rect, HyperRectangle):
            raise UsageError("HRClassify requires box payloads")
        dim = len(self.chosen_classes)
        if rect.dim != dim:
            raise UsageError(f"box dim {rect.dim} does not match configured dim {dim}")
        sides = list(map(sub, rect.hi, rect.lo))
        for s in sides:
            if not 1.0 <= s <= self.m:
                raise UsageError(f"side length {s} outside [1, {self.m}]")
        return sides


ALGORITHMS = ("firstfit", "filter", "classify", "hr_classify")


def _require_dim(name: str, dim: Optional[int]) -> int:
    if dim is None:
        raise UsageError(f"{name} needs a geometric instance")
    return dim


def make_algorithm(
    name: str,
    dim: Optional[int],
    *,
    seed: Optional[int],
    delta: float,
    m: float,
    forced: Optional[tuple[int, ...]] = None,
) -> OnlineAlgorithm:
    """Build the named strategy for a stream of dimension dim (None for
    an abstract stream).  forced, one entry of class_choices, fixes the
    class that classify / hr_classify would otherwise draw from seed."""
    if name not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")
    if name == "firstfit":
        return FirstFit()
    if name == "classify":
        return Classify(m, seed=seed, forced_class=None if forced is None else forced[0])
    if name == "filter":
        return LatticeFilter(LatticeParams(dim=_require_dim(name, dim), delta=delta), seed=seed)
    return HRClassify(m, _require_dim(name, dim), seed=seed, forced_classes=forced)


def class_choices(name: str, dim: Optional[int], m: float, limit: int) -> list[tuple[int, ...]]:
    """Every class classify (one index) or hr_classify (one per axis)
    can draw, in the order enumerate mode runs them; refused with
    OracleRefusal, before any is built, when there are more than limit."""
    k = class_count(m)
    axes = 1 if name == "classify" else _require_dim(name, dim)
    refuse_above(limit, f"{name} enumerate classes", 1, k, axes)
    return list(product(range(k), repeat=axes))
