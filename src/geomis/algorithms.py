"""Randomized online strategies with provable acceptance guarantees.

LatticeFilter thins unit-ball streams through a randomly shifted sparse
lattice: survivors of the coverage test form disjoint cliques (one per
lattice point), so keeping the first ball per lattice cell is greedy
acceptance on the filtered subsequence.  Each ball survives with
probability vol(unit ball) / ((4+delta) * (2*sqrt(3))^(d-1)), giving an
expected acceptance of at least that fraction of the offline optimum;
at d=3 the reciprocal is (36 + 9*delta)/pi.  Each decision is one frame
that snaps axes 2..d first and rejects at one that alone keeps the
arrival farther than 1 from the lattice (about two thirds of them at
d=3), and else gives the squared distance to the rounded point.  Only a
covered arrival, at most 1 away, is rounded again by
parity_rounded_point to name its cell; an occupied one rejects.
run_online takes the filter's stream path, decide_stream.  A stream's
first filter run calls decide on every arrival.  From its second run
on, the stream's lattice.CrossResidues, sorted once per stream, names
the arrivals whose axes 2..d all lie in this shift's bands, and only
those reach decide; every other arrival is one decide would reject on
such an axis, and is rejected without a call.  decide stays the one
decision rule and the one check of the payloads.

Classify handles fat objects of bounded width spread: it draws one
dyadic width class [2^j, 2^(j+1)) uniformly and plays greedy first-fit
on that class only.  HRClassify does the same for hyper-rectangles with
an independent class draw per axis, where each class has independent
kissing number at most 4^d.  Every strategy makes its random draw, the
shift or the classes, from its seed when it is built; decide draws none.

ALGORITHMS names the strategies, together with FirstFit; make_algorithm
builds any of them from a name, and the harness and the CLI build them
only through it.  check_parameters holds each strategy's rules on its
parameters (filter's delta, classify's and hr_classify's M, which of
them enumerate mode applies to), so an experiment config refuses a bad
one before it builds an instance.
"""

from __future__ import annotations

import math
import random
from functools import reduce
from itertools import product
from math import floor
from operator import add, le, lt, sub
from typing import Optional, Sequence

from .geometry import Ball, HyperRectangle, UsageError, refuse_above, require_at_least
from .lattice import (
    SQRT3,
    TWO_SQRT3,
    CoeffVector,
    LatticeParams,
    check_delta,
    parity_rounded_point,
    unit_ball_volume,
)
from .online import ArrivalEvent, ArrivalSequence, FirstFit, OnlineAlgorithm


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
    center each lattice point covers, within distance 1.

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
        self._dim = params.dim
        self._unit = params.axis1_unit
        self._period = params.axis1_period
        self._shift0, self._cross_shift = self.shift[0], self.shift[1:]

    def decide(self, event: ArrivalEvent) -> bool:
        ball = event.payload
        if not isinstance(ball, Ball):
            raise UsageError("LatticeFilter requires unit-ball payloads")
        center = ball.center
        if len(center) != self._dim:
            raise UsageError(f"ball dim {len(center)} does not match lattice dim {self._dim}")
        if ball.radius != 1.0:
            raise UsageError(f"LatticeFilter requires unit balls, got radius {ball.radius}")
        try:
            # Axes 2..d snap on their own first; one square above 1 rejects,
            # as a sum of non-negative floats is never below a term.
            terms = []
            k = 0
            for x in map(add, center[1:], self._cross_shift):
                a = (floor(x / SQRT3) + 1) // 2
                if (t := (TWO_SQRT3 * a - x) ** 2) > 1.0:
                    return False
                terms.append(t)
                k += a
            # Then axis 1 rounds under k's parity and the squares fold left
            # from its term, to the bit parity_rounded_point's distance.  The
            # rounded point covers whenever any lattice point does, so this
            # decides.
            x0 = center[0] + self._shift0
            z1 = floor(x0 / self._unit)
            m = z1 if z1 % 2 == k % 2 else z1 + 1
            x1 = self._period * ((m + k) // 2) - self._unit * k
            if reduce(add, terms, (x1 - x0) ** 2) > 1.0:
                return False
            _, coeffs = parity_rounded_point(self.params, list(map(add, center, self.shift)))
        except OverflowError:
            # Far out, a center's rounding error can square past float range.
            # Its arrival is refused here, and no coordinate bound is set, so
            # every decision that completes stays as it was.
            raise UsageError(
                f"arrival {event.id}: ball center overflows the lattice arithmetic"
            ) from None
        if coeffs in self.occupied:
            return False
        self.occupied[coeffs] = event.id
        return True

    def decide_stream(self, stream: ArrivalSequence) -> list[bool]:
        """decide on every arrival of the stream, in order, with the
        decisions and occupied that gives.  The stream's first filter
        run of this dim calls decide on every arrival, which so checks
        every payload, and a run without a refusal passes the stream's
        cross_residues.  From then on only its candidates under this
        shift reach decide; every other arrival decide would reject on
        an axis 2..d without touching occupied, so it is False here."""
        events = stream.events
        index = stream.cross_residues
        candidates = index.candidates(self._dim, self._cross_shift)
        if candidates is None:
            decisions = list(map(self.decide, events))
            index.passed(self._dim)
            return decisions
        decisions = [False] * len(events)
        decide = self.decide
        for i in candidates:
            decisions[i] = decide(events[i])
        return decisions


def filter_acceptance_probability(params: LatticeParams) -> float:
    """Probability that a fixed unit ball survives the random shift:
    vol(unit ball) over the volume of params.shift_extents(), the box
    product taken axis by axis as lattice --check volume takes it.  The
    delta -> 0 limit (pi/36 at dim=3) is the same quotient over
    period_box(dim, 0.0).
    """
    return unit_ball_volume(params.dim) / math.prod(params.shift_extents())


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
        require_at_least("dim", dim, 1)
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


def _require_known(name: str) -> None:
    if name not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")


def _require_dim(name: str, dim: Optional[int]) -> int:
    if dim is None:
        raise UsageError(f"{name} needs a geometric instance")
    return dim


def check_parameters(name: str, delta: float, m: float, enumerate: bool) -> None:
    """Refuse parameters the named strategy cannot run with, in this
    order: an unknown name, filter's delta, the M of classify and
    hr_classify, and enumerate mode for a strategy that draws no class.
    Cheap, so an experiment config calls it before any instance is built."""
    _require_known(name)
    if name == "filter":
        check_delta(delta)
    if name in ("classify", "hr_classify"):
        class_count(m)
    elif enumerate:
        raise UsageError("enumerate mode applies to classify / hr_classify only")


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
    _require_known(name)
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
