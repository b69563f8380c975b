"""Randomized online strategies with provable acceptance guarantees.

LatticeFilter thins unit-ball streams through a randomly shifted sparse
lattice: survivors of the coverage test form disjoint cliques (one per
lattice point), so keeping the first ball per lattice cell is greedy
acceptance on the filtered subsequence.  Each ball survives with
probability vol(unit ball) / ((4+delta) * (2*sqrt(3))^(d-1)), giving an
expected acceptance of at least that fraction of the offline optimum;
at d=3 the reciprocal is (36 + 9*delta)/pi.  Each decision first runs
lattice.cross_axes_within_one, which rejects an arrival that one axis
2..d alone keeps farther than 1 from the lattice, about two thirds of
them at d=3; that axis's term is in the full squared distance too, so
the early return is exact.  Only the rest are rounded, with
lattice.parity_rounded_point.  The filter has no batch path, so its
accepted set under any shift comes from run_online.

Classify handles fat objects of bounded width spread: it draws one
dyadic width class [2^j, 2^(j+1)) uniformly and plays greedy first-fit
on that class only.  HRClassify does the same for hyper-rectangles with
an independent class draw per axis, where each class has independent
kissing number at most 4^d.

ALGORITHMS names the strategies, together with FirstFit; make_algorithm
builds any of them from a name, and the harness and the CLI build them
only through it.
"""

from __future__ import annotations

import math
import random
from itertools import product
from typing import Optional, Sequence

from .geometry import Ball, HyperRectangle, UsageError
from .lattice import (
    CoeffVector,
    LatticeParams,
    cross_axes_within_one,
    parity_rounded_point,
    unit_ball_volume,
)
from .online import ArrivalEvent, FirstFit, OnlineAlgorithm


def _floor_log2(x: float) -> int:
    j = int(math.floor(math.log2(x)))
    # repair float noise at dyadic boundaries so 2^j <= x < 2^(j+1) exactly
    while 2.0 ** (j + 1) <= x:
        j += 1
    while 2.0 ** j > x:
        j -= 1
    return j


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
    """Online strategy for unit balls: accept the first ball whose
    shifted center each lattice point covers.

    The shift is drawn once, lazily at the first arrival, uniformly
    over one lattice period per axis.  Within one run, balls covered by
    the same lattice point pairwise intersect and balls covered by
    different lattice points never do, so one-per-cell acceptance is
    exactly greedy first-fit on the covered subsequence.
    """

    def __init__(
        self,
        params: LatticeParams,
        seed: Optional[int] = None,
        shift: Optional[Sequence[float]] = None,
    ) -> None:
        self.params = params
        self._seed = seed
        self._shift: Optional[tuple[float, ...]] = None
        if shift is not None:
            self._shift = self._validated_shift(shift)
        self.occupied: dict[CoeffVector, int] = {}

    def _validated_shift(self, shift: Sequence[float]) -> tuple[float, ...]:
        b = tuple(float(x) for x in shift)
        extents = self.params.shift_extents()
        if len(b) != self.params.dim:
            raise UsageError(f"shift must have {self.params.dim} coordinates")
        for x, e in zip(b, extents):
            if not 0.0 <= x < e:
                raise UsageError(f"shift coordinate {x} outside [0, {e})")
        return b

    @property
    def shift(self) -> Optional[tuple[float, ...]]:
        return self._shift

    def decide(self, event: ArrivalEvent) -> bool:
        if event.payload is None or not isinstance(event.payload.shape, Ball):
            raise UsageError("LatticeFilter requires unit-ball payloads")
        ball = event.payload.shape
        center = ball.center.coords
        if len(center) != self.params.dim:
            raise UsageError(
                f"ball dim {len(center)} does not match lattice dim {self.params.dim}"
            )
        if ball.radius != 1.0:
            raise UsageError(f"LatticeFilter requires unit balls, got radius {ball.radius}")
        if self._shift is None:
            rng = random.Random(self._seed)
            self._shift = tuple(
                rng.uniform(0.0, e) for e in self.params.shift_extents()
            )
        shifted = [x + b for x, b in zip(center, self._shift)]
        # Most arrivals fail on one axis 2..d alone; each such term is
        # also in the sum below, so this return changes no decision.
        if not cross_axes_within_one(shifted):
            return False
        # The one-shot rounding finds the covering lattice point whenever
        # one exists within distance 1, so this equals the coverage test.
        coords, coeffs = parity_rounded_point(self.params, shifted)
        if sum([(p - q) ** 2 for p, q in zip(coords, shifted)]) > 1.0:
            return False
        if coeffs in self.occupied:
            return False
        self.occupied[coeffs] = event.id
        return True


def filter_acceptance_probability(
    params: LatticeParams | int, delta: float = 0.01
) -> float:
    """Probability that a fixed unit ball survives the random shift:
    vol(unit ball) / ((4+delta) * (2*sqrt(3))^(dim-1)).

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
    cell = (4.0 + delta) * (2.0 * math.sqrt(3.0)) ** (dim - 1)
    return unit_ball_volume(dim) / cell


class Classify:
    """Online strategy for sized objects with widths in [1, M]: draw one
    dyadic width class uniformly, then play first-fit on that class."""

    def __init__(
        self,
        m: float,
        seed: Optional[int] = None,
        forced_class: Optional[int] = None,
    ) -> None:
        self.m = float(m)
        self.num_classes = class_count(self.m)
        if forced_class is not None and not 0 <= forced_class < self.num_classes:
            raise UsageError(
                f"forced_class {forced_class} outside 0..{self.num_classes - 1}"
            )
        self._seed = seed
        self.chosen_class: Optional[int] = forced_class
        self._greedy = FirstFit()

    def decide(self, event: ArrivalEvent) -> bool:
        if event.payload is None:
            raise UsageError("Classify requires sized-object payloads")
        width = event.payload.width
        if not 1.0 <= width <= self.m:
            raise UsageError(f"width {width} outside [1, {self.m}]")
        if self.chosen_class is None:
            self.chosen_class = random.Random(self._seed).randrange(self.num_classes)
        if width_class_index(width) != self.chosen_class:
            return False
        return self._greedy.decide(event)


class HRClassify:
    """Online strategy for axis-aligned boxes with sides in [1, M]: draw
    one dyadic class per axis, keep boxes matching on every axis, and
    play first-fit on them."""

    def __init__(
        self,
        m: float,
        dim: int,
        seed: Optional[int] = None,
        forced_classes: Optional[Sequence[int]] = None,
    ) -> None:
        self.m = float(m)
        if dim < 1:
            raise UsageError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.classes_per_axis = class_count(self.m)
        self.chosen_classes: Optional[tuple[int, ...]] = None
        if forced_classes is not None:
            forced = tuple(int(j) for j in forced_classes)
            if len(forced) != dim:
                raise UsageError(f"forced_classes must have {dim} entries")
            for j in forced:
                if not 0 <= j < self.classes_per_axis:
                    raise UsageError(
                        f"class index {j} outside 0..{self.classes_per_axis - 1}"
                    )
            self.chosen_classes = forced
        self._seed = seed
        self._greedy = FirstFit()

    @property
    def num_classes(self) -> int:
        return self.classes_per_axis**self.dim

    def decide(self, event: ArrivalEvent) -> bool:
        if event.payload is None or not isinstance(event.payload.shape, HyperRectangle):
            raise UsageError("HRClassify requires box payloads")
        rect = event.payload.shape
        if rect.dim != self.dim:
            raise UsageError(f"box dim {rect.dim} does not match configured dim {self.dim}")
        sides = rect.sides
        for s in sides:
            if not 1.0 <= s <= self.m:
                raise UsageError(f"side length {s} outside [1, {self.m}]")
        if self.chosen_classes is None:
            rng = random.Random(self._seed)
            self.chosen_classes = tuple(
                rng.randrange(self.classes_per_axis) for _ in range(self.dim)
            )
        cls = tuple(width_class_index(s) for s in sides)
        if cls != self.chosen_classes:
            return False
        return self._greedy.decide(event)


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


def class_choices(name: str, dim: Optional[int], m: float) -> list[tuple[int, ...]]:
    """Every class classify (one index) or hr_classify (one per axis)
    can draw, in the order enumerate mode runs them."""
    k = class_count(m)
    if name == "classify":
        return [(j,) for j in range(k)]
    return list(product(range(k), repeat=_require_dim(name, dim)))
