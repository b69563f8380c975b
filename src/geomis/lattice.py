"""A sparse lattice whose points stay pairwise further than 4 apart.

Basis in R^d (d >= 2), with a small stretch delta > 0:

    v1 = (4 + delta) e1
    vi = -(2 + delta/2) e1 + 2*sqrt(3) ei          for i = 2..d

Every nonzero integer combination has length > 4, with the minimum
sqrt((2 + delta/2)^2 + 12) barely above 4, so unit balls centered on
distinct lattice points never meet while the lattice stays as dense as
that constraint allows.

Coordinates of a lattice point with coefficients (a1, ..., ad):

    x1 = (2 + delta/2) * (2*a1 - a2 - ... - ad)
    xi = 2*sqrt(3) * ai                            for i = 2..d

so axis 1 holds multiples of s = 2 + delta/2 whose multiplier parity
equals the parity of a2 + ... + ad, and axes 2..d hold even multiples
of sqrt(3).  Rounding a query per axis under that parity coupling is a
constant-time operation; it lands on the covering lattice point
whenever one exists within distance 1, but it is not always the
globally nearest point, so closest-point queries additionally scan the
constant-size candidate window that the rounded distance bounds.

Queries and lattice points are plain coordinate sequences.  Every
scalar query rounds with one core, parity_rounded_point, and builds
points with one formula, _coords.  LatticeFilter.decide writes the
rounding's arithmetic out in its own frame, axes 2..d first, and is
checked against parity_rounded_point.  (One call into this module per
arrival cost the filter about 6% of its throughput on 2 vCPUs under
CPython 3.11.)  decide calls parity_rounded_point itself only to name a
covered arrival's cell, and sees only the arrivals BoxIndex finds in
its bands.  A change to the rounding is made in three places:
parity_rounded_point, decide, and BoxIndex's bands, which are the
per-axis test of both written as residue intervals on every axis, with
the parity coupling carried from axes 2..d to axis 1.
coverage_cells is the same rounding over a numpy batch, which
mc_volume_fraction draws over a period_box in fixed-size chunks; only
these two use numpy, and they import it when called.

The self-checks of geomis lattice live here, each refused past a limit
of this module before its work starts: min_pairwise_distance,
closest_check (closest_lattice_point and is_covered against an
exhaustive window scan) and volume_check (mc_volume_fraction).
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add, mul
from typing import Iterable, Optional, Sequence

from .geometry import UsageError, refuse_above, refuse_beyond, require_at_least

SQRT3 = math.sqrt(3.0)
# The step on axes 2..d.  TWO_SQRT3 * a is 2.0 * SQRT3 * a to the bit.
TWO_SQRT3 = 2.0 * SQRT3

# LatticeParams' default stretch and the largest it accepts.  Larger
# values only thin the lattice out, and huge ones overflow floats.
DEFAULT_DELTA = 0.01
MAX_DELTA = 1.0

# Work limits, each refused before its work starts.  The default and README
# checks need 13^3 differences, 10000 x 7^3 window points and 200000 x 3
# coordinates.
MINDIST_DIFFERENCE_LIMIT = 10**6
CLOSEST_WINDOW_LIMIT = 10**8
CLOSEST_POINT_LIMIT = 10**7
VOLUME_COORDINATE_LIMIT = 4 * 10**6
# mc_volume_fraction draws and tests its samples this many coordinates at
# a time (2 MB of floats), so its memory does not grow with samples.
VOLUME_CHUNK_COORDINATES = 2**18

CoeffVector = tuple[int, ...]


def check_delta(delta: float) -> None:
    """Raise UsageError unless delta lies in (0, MAX_DELTA].  Compared
    before any float conversion, which overflows on huge ints."""
    if not 0.0 < delta <= MAX_DELTA:
        raise UsageError(f"delta must be in (0, {MAX_DELTA}], got {delta}")


@dataclass(frozen=True)
class LatticeParams:
    """Dimension and stretch of the lattice; delta must lie in
    (0, MAX_DELTA]."""

    dim: int
    delta: float = DEFAULT_DELTA

    def __post_init__(self) -> None:
        require_at_least("lattice dimension", self.dim, 2)
        check_delta(self.delta)
        object.__setattr__(self, "delta", float(self.delta))

    @cached_property
    def axis1_unit(self) -> float:
        """Base step s on axis 1; admissible coordinates are s * m."""
        return 2.0 + self.delta / 2.0

    @cached_property
    def axis1_period(self) -> float:
        """Translation period along axis 1 (= v1 length = 2s)."""
        return 4.0 + self.delta

    @property
    def cross_period(self) -> float:
        """Translation period along each axis >= 2 (= 4*sqrt(3))."""
        return 4.0 * SQRT3

    def shift_extents(self) -> tuple[float, ...]:
        """Per-axis ranges a random shift is drawn from: period_box."""
        return period_box(self.dim, self.delta)


def period_box(dim: int, delta: float) -> tuple[float, ...]:
    """Sides of a box that holds one lattice point per translate; delta
    may be 0, the limit."""
    return (4.0 + delta,) + (TWO_SQRT3,) * (dim - 1)


def lattice_point(params: LatticeParams, coeffs: Sequence[int]) -> tuple[float, ...]:
    """Coordinates of the lattice point with the given integer coefficients."""
    if len(coeffs) != params.dim:
        raise UsageError(f"expected {params.dim} coefficients, got {len(coeffs)}")
    ints = []
    for a in coeffs:
        try:
            whole = a == int(a)
        except (ValueError, OverflowError):  # NaN, infinities
            whole = False
        if not whole:
            raise UsageError(f"coefficients must be integers, got {a!r}")
        ints.append(int(a))
    return _coords(params, ints[0], ints[1:])


def _coords(params: LatticeParams, a1: int, rest: Sequence[int]) -> tuple[float, ...]:
    """Coordinates of the lattice point (a1, *rest); every scalar query
    builds points with it, so their floats agree to the bit."""
    x1 = params.axis1_period * a1 - params.axis1_unit * sum(rest)
    return (x1, *[TWO_SQRT3 * a for a in rest])


def parity_rounded_point(
    params: LatticeParams, c: Iterable[float]
) -> tuple[tuple[float, ...], CoeffVector]:
    """One-shot per-axis rounding to an admissible lattice point.

    Axes 2..d snap to the nearest even multiple of sqrt(3) (exact
    midpoints round up); axis 1 then snaps to the nearest multiple of
    s = 2 + delta/2 whose multiplier parity matches the other axes'
    coefficient sum (again rounding up at the midpoint).  Constant
    time.  Guaranteed to return the covering lattice point whenever
    the query is within distance 1 of any lattice point; for faraway
    queries a different parity choice can be nearer, so use
    closest_lattice_point for true nearest-point queries.

    c is any sequence of coordinates.  Returns the rounded point's
    coordinates, computed exactly as lattice_point computes them, and
    its coefficients.
    """
    try:
        x0, *rest = c
    except ValueError:  # no coordinate at all
        raise UsageError(f"query dim 0 does not match lattice dim {params.dim}") from None
    if len(rest) + 1 != params.dim:
        raise UsageError(
            f"query dim {len(rest) + 1} does not match lattice dim {params.dim}"
        )
    # ceil(z / 2) for z = floor(x / sqrt(3)): the even multiple of sqrt(3)
    # nearest x, rounding up from the odd midpoint.
    coeffs = [(math.floor(x / SQRT3) + 1) // 2 for x in rest]
    a1 = _axis1_coeff(params, x0, sum(coeffs))
    return _coords(params, a1, coeffs), (a1, *coeffs)


def _axis1_coeff(params: LatticeParams, x0: float, rest_sum: int) -> int:
    """Axis-1 coefficient of the lattice point nearest x0 on axis 1
    among those whose other coefficients sum to rest_sum.  Their x1 is
    s * m for the integers m of rest_sum's parity; this takes the m
    nearest x0 / s, rounding up at the midpoint."""
    z1 = math.floor(x0 / params.axis1_unit)
    m = z1 if z1 % 2 == rest_sum % 2 else z1 + 1
    return (m + rest_sum) // 2


class BoxIndex:
    """One stream's arrival ids sorted, on each axis, by their center's
    residue modulo that axis's period, which holds one even and one odd
    lattice position: cross_period on axes 2..d, axis1_period on axis 1.

    Under a shift s, an axis-i coordinate lies within 1 of 2*sqrt(3)*a
    exactly when its residue lies in the cyclic band [-s_i - 1, -s_i + 1]
    for a even, or in that band moved by TWO_SQRT3 for a odd, 1.46 away.
    Axis 1's positions are multiples of axis1_period when a2 + ... + ad
    is even, and are moved by axis1_unit when it is odd.  So candidates
    carries the ids whose coefficient sum so far is even, and those whose
    sum is odd, across axes 2..d, and keeps those in the axis-1 band of
    their parity: the arrivals within 1 of the rounded point on every
    axis, a superset of those decide does not reject.  Each band is two
    bisects into keys that hold each residue r twice, as r and r + period,
    so a band that wraps past the period is one slice.

    candidates names every arrival until a filter of that dim has decided
    every arrival without a refusal (passed): decide alone checks the
    payloads, and a stream run once pays no sort.  Axes 2..d are sorted
    once per dim, axis 1 again whenever delta, and so its period, changes.
    """

    def __init__(self, events: Sequence) -> None:
        self._events = events
        # The dim at which decide passed the whole stream, its sorts of
        # axes 2..d, and axis 1's sort with the period it was made for.
        self._dim: Optional[int] = None
        self._cross: Optional[list[tuple[list[float], list[int]]]] = None
        self._axis1: Optional[tuple[float, list[float], list[int]]] = None

    def passed(self, dim: int) -> None:
        """Record that a filter of dim decided every arrival without a refusal."""
        if dim != self._dim:
            self._dim, self._cross, self._axis1 = dim, None, None

    def candidates(self, params: LatticeParams, shift: Sequence[float]) -> Sequence[int]:
        """Ids, in arrival order, of the arrivals a filter of params sends
        to decide: every id until the stream has passed at its dim, then
        those within 1 of the shift's rounded point on every axis."""
        if params.dim != self._dim:
            return range(len(self._events))
        if self._cross is None:
            centers = [ev.payload.center for ev in self._events]
            # The bands are widened by slack, far above the few ulps of the
            # largest coordinate by which the residue arithmetic here and
            # decide's floor and pow can disagree.  Once a band spans a
            # period, every arrival is a candidate.
            largest = max(map(abs, itertools.chain.from_iterable(centers)), default=0.0)
            self._half = 1.0 + 1e-9 + largest * 2.0 ** -40
            self._cross = [
                _sorted_residues([c[i] for c in centers], params.cross_period)
                for i in range(1, params.dim)
            ]
        period = params.axis1_period
        if self._axis1 is None or self._axis1[0] != period:
            xs = [ev.payload.center[0] for ev in self._events]
            self._axis1 = (period, *_sorted_residues(xs, period))
        (even, odd), *rest = [
            self._bands(keys, ids, params.cross_period, -s, TWO_SQRT3 - s)
            for (keys, ids), s in zip(self._cross, shift[1:])
        ]
        even, odd = set(even), set(odd)
        for on_even, on_odd in rest:
            even, odd = (
                even.intersection(on_even) | odd.intersection(on_odd),
                even.intersection(on_odd) | odd.intersection(on_even),
            )
        _, keys, ids = self._axis1
        on_even, on_odd = self._bands(keys, ids, period, -shift[0], params.axis1_unit - shift[0])
        return sorted(even.intersection(on_even).union(odd.intersection(on_odd)))

    def _bands(self, keys: list[float], ids: list[int], period: float, *centres: float) -> list:
        """The ids in the band around each of centres on one axis."""
        bands = []
        for centre in centres:
            lo = (centre - self._half) % period
            bands.append(ids[bisect_left(keys, lo):bisect_right(keys, lo + 2.0 * self._half)])
        return bands


def _sorted_residues(xs: list[float], period: float) -> tuple[list[float], list[int]]:
    """xs's residues modulo period, sorted and then repeated plus period,
    and the positions they came from."""
    residues = [x % period for x in xs]
    order = sorted(range(len(xs)), key=residues.__getitem__)
    keys = list(map(residues.__getitem__, order))
    return keys + [r + period for r in keys], order + order


def closest_lattice_point(
    params: LatticeParams, c: Sequence[float]
) -> tuple[tuple[float, ...], CoeffVector]:
    """The lattice point nearest to c, with its coefficients.

    Starts from the parity-rounded point, whose distance D bounds the
    answer, then scans every lattice point whose per-axis distances can
    stay within D: a constant-size window for fixed dimension, growing
    about like 4^(dim-1), refused above CLOSEST_WINDOW_LIMIT points and
    scanned without being stored.  Exact up to float rounding; ties keep
    the first candidate in scan order.
    """
    if not all(map(math.isfinite, c)):
        raise UsageError(f"non-finite coordinate in {tuple(c)!r}")
    p0, _ = parity_rounded_point(params, c)
    bound = math.dist(p0, c) + 1e-9
    axis_ranges = [
        range(math.ceil((x - bound) / TWO_SQRT3), math.floor((x + bound) / TWO_SQRT3) + 1)
        for x in c[1:]
    ]
    points = math.prod(map(len, axis_ranges))
    refuse_beyond("closest_lattice_point window points", points, CLOSEST_WINDOW_LIMIT)

    def candidate(combo: CoeffVector) -> tuple[tuple[float, ...], CoeffVector]:
        a1 = _axis1_coeff(params, c[0], sum(combo))
        return _coords(params, a1, combo), (a1, *combo)

    return min(
        map(candidate, itertools.product(*axis_ranges)),
        key=lambda cand: reduce(add, [(a - b) ** 2 for a, b in zip(cand[0], c)]),
    )


def is_covered(params: LatticeParams, c: Sequence[float]) -> bool:
    """True iff c lies in some closed unit ball centered at a lattice point:
    rounds c once and decides by math.dist <= 1 to the rounded point, the
    covering point whenever there is one (LatticeFilter sums pow squares)."""
    if not all(map(math.isfinite, c)):
        raise UsageError(f"non-finite coordinate in {tuple(c)!r}")
    p, _ = parity_rounded_point(params, c)
    return math.dist(p, c) <= 1.0


def coverage_cells(
    params: LatticeParams, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized coverage test for an (n, dim) array of query points.

    Returns (covered, coeffs): a boolean array and an (n, dim) int64
    array of parity-rounded coefficients.  For covered points the
    coefficients identify the unique covering lattice point; for
    uncovered points they are merely the rounded cell.
    """
    import numpy as np

    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != params.dim:
        raise UsageError(f"expected shape (n, {params.dim}), got {pts.shape}")
    s = params.axis1_unit
    z = np.floor(pts[:, 1:] / SQRT3).astype(np.int64)
    a_rest = (z + (z & 1)) >> 1  # even z -> z/2, odd z -> (z+1)/2
    snapped = a_rest.astype(np.float64) * TWO_SQRT3
    k = a_rest.sum(axis=1) & 1
    z1 = np.floor(pts[:, 0] / s).astype(np.int64)
    m = np.where((z1 & 1) == k, z1, z1 + 1)
    x1 = m.astype(np.float64) * s
    d2 = (pts[:, 0] - x1) ** 2 + ((pts[:, 1:] - snapped) ** 2).sum(axis=1)
    covered = d2 <= 1.0
    a1 = (m + a_rest.sum(axis=1)) >> 1
    coeffs = np.column_stack([a1, a_rest])
    return covered, coeffs


def min_pairwise_distance(params: LatticeParams, window: int = 3) -> float:
    """Minimum distance between distinct lattice points with coefficients
    in [-window, window]^dim.

    Pairwise differences of such points are exactly the lattice points
    with coefficients in [-2*window, 2*window]^dim, so the minimum over
    pairs equals the minimum norm over that difference window, refused
    above MINDIST_DIFFERENCE_LIMIT differences.  Squares are products,
    and axes 2..d add up by a left fold, as a short numpy row sums
    (sum() compensates from Python 3.12 on), before x1*x1.
    """
    require_at_least("window", window, 1)
    side = 4 * window + 1
    refuse_above(MINDIST_DIFFERENCE_LIMIT, "mindist lattice differences", side, side, params.dim - 1)
    best = math.inf
    for a1, *rest in itertools.product(range(-2 * window, 2 * window + 1), repeat=params.dim):
        if a1 == 0 and not any(rest):
            continue
        x1, *xs = _coords(params, a1, rest)
        best = min(best, x1 * x1 + reduce(add, map(mul, xs, xs)))
    return math.sqrt(best)


def mc_volume_fraction(
    params: LatticeParams, origin: Sequence[float], samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the covered fraction of the period box at
    origin, whose sides are params.shift_extents().

    Draws uniform samples, tests coverage, and returns (fraction,
    binomial standard error).  The box is one fundamental cell, which
    makes fraction times its volume an estimate of the unit-ball volume
    regardless of where the box sits.  The samples are drawn and tested
    VOLUME_CHUNK_COORDINATES coordinates at a time from one generator,
    which draws the same numbers as one draw of them all.  Refused above
    VOLUME_COORDINATE_LIMIT sample coordinates before numpy is imported.
    """
    require_at_least("samples", samples, 1)
    refuse_above(VOLUME_COORDINATE_LIMIT, "volume sample coordinates", samples, params.dim)
    require_at_least("seed", seed, 0)
    if len(origin) != params.dim:
        raise UsageError("origin dimension mismatch")
    import numpy as np

    rng = np.random.default_rng(seed)
    lo = np.asarray(origin, dtype=np.float64)
    hi = lo + np.asarray(params.shift_extents())
    rows = max(1, VOLUME_CHUNK_COORDINATES // params.dim)
    covered = 0
    for start in range(0, samples, rows):
        pts = rng.uniform(lo, hi, size=(min(rows, samples - start), params.dim))
        covered += int(coverage_cells(params, pts)[0].sum())
    fraction = covered / samples
    stderr = math.sqrt(fraction * (1.0 - fraction) / samples)
    return fraction, stderr


def closest_check(params: LatticeParams, samples: int, window: int, seed: int) -> tuple[float, int]:
    """On samples queries drawn with seed from a box one translation
    period wide on each axis, the largest deviation of
    closest_lattice_point's distance from _window_reference's and the
    count of is_covered answers that disagree with reference <= 1.
    Refused above CLOSEST_POINT_LIMIT window points before any draw."""
    require_at_least("samples", samples, 1)
    require_at_least("window", window, 1)
    side = 2 * window + 1
    refuse_above(CLOSEST_POINT_LIMIT, "closest window points scanned", samples, side, params.dim)
    rng = random.Random(seed)
    extents = (params.axis1_period,) + (params.cross_period,) * (params.dim - 1)
    worst, mismatches = 0.0, 0
    for _ in range(samples):
        c = tuple(rng.uniform(0.0, e) for e in extents)
        p, _ = closest_lattice_point(params, c)
        ref = _window_reference(params, c, window)
        worst = max(worst, abs(math.dist(p, c) - ref))
        mismatches += is_covered(params, c) != (ref <= 1.0)
    return worst, mismatches


def _window_reference(params: LatticeParams, c: tuple[float, ...], window: int) -> float:
    """Exhaustive nearest-lattice-point distance over the coefficients
    within window of c's parity-rounded ones on every axis."""
    _, rounded = parity_rounded_point(params, c)
    windows = [range(a - window, a + window + 1) for a in rounded]
    return min(math.dist(_coords(params, a1, rest), c) for a1, *rest in itertools.product(*windows))


def volume_check(
    params: LatticeParams, samples: int, seed: int
) -> tuple[tuple[float, ...], float, float]:
    """(origin, fraction, stderr) of mc_volume_fraction at an origin drawn
    from [-10, 10]^dim with seed, refused as it refuses, before the draw."""
    require_at_least("samples", samples, 1)
    refuse_above(VOLUME_COORDINATE_LIMIT, "volume sample coordinates", samples, params.dim)
    rng = random.Random(seed)
    origin = tuple(rng.uniform(-10.0, 10.0) for _ in range(params.dim))
    return (origin, *mc_volume_fraction(params, origin, samples, seed=seed))


def unit_ball_volume(dim: int) -> float:
    """Lebesgue volume of the unit ball in R^dim.  Past the float range
    of gamma (dim 342) or of the power of pi (about dim 1240), the same
    quotient is taken in logs."""
    require_at_least("dimension", dim, 1)
    try:
        return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    except OverflowError:
        return math.exp(dim / 2.0 * math.log(math.pi) - math.lgamma(dim / 2.0 + 1.0))
