import itertools
import math
import random
import time
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomis import (
    Ball,
    LatticeFilter,
    LatticeParams,
    OracleRefusal,
    UsageError,
    closest_lattice_point,
    coverage_cells,
    is_covered,
    lattice_point,
    mc_volume_fraction,
    min_pairwise_distance,
    parity_rounded_point,
    unit_ball_volume,
)
from geomis.lattice import CLOSEST_WINDOW_LIMIT, MAX_DELTA, TWO_SQRT3
from geomis.online import ArrivalEvent

from conftest import (
    SQRT3,
    brute_min_distances,
    lattice_params,
    lattice_queries,
    reference_basis,
    reference_parity_rounded_point,
    window_lattice_points,
)

P3 = LatticeParams(dim=3, delta=0.01)


def test_params_validation():
    with pytest.raises(UsageError):
        LatticeParams(dim=1, delta=0.01)
    with pytest.raises(UsageError):
        LatticeParams(dim=3, delta=0.0)
    with pytest.raises(UsageError):
        LatticeParams(dim=3, delta=-0.5)


@pytest.mark.parametrize("delta", [math.nextafter(MAX_DELTA, 2.0), 1e200, 10**400, math.inf, math.nan])
def test_params_reject_delta_above_the_bound(delta):
    with pytest.raises(UsageError, match=r"delta must be in \(0, 1.0\]"):
        LatticeParams(dim=3, delta=delta)
    assert LatticeParams(dim=3, delta=MAX_DELTA).delta == 1.0


def test_basis_matches_reference():
    units = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    got = np.array([lattice_point(P3, e) for e in units])
    assert np.allclose(got, reference_basis(3, 0.01), atol=0.0)


def test_lattice_point_examples():
    assert tuple(lattice_point(P3, (0, 0, 0))) == (0.0, 0.0, 0.0)
    assert tuple(lattice_point(P3, (1, 0, 0))) == (4.01, 0.0, 0.0)
    p = lattice_point(P3, (0, 1, 0))
    assert tuple(p) == pytest.approx((-2.005, 2 * SQRT3, 0.0))


def test_lattice_point_input_validation():
    with pytest.raises(UsageError):
        lattice_point(P3, (0, 0))
    for bad in (0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(UsageError, match="^coefficients must be integers, got "):
            lattice_point(P3, (bad, 0, 0))


def test_basis_vectors_pairwise_far():
    basis = [lattice_point(P3, c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for a, b in itertools.combinations(basis + [(0.0, 0.0, 0.0)], 2):
        d = math.dist(tuple(a), tuple(b))
        assert d > 4.0


def test_parity_rounding_odd_axis_rounds_up():
    # Coordinate sqrt(3) sits exactly between multiples 0 and 2*sqrt(3);
    # the odd intermediate rounds upward.
    point, coeffs = parity_rounded_point(P3, (0.0, SQRT3, 0.0))
    assert tuple(point)[1] == pytest.approx(2 * SQRT3)
    assert coeffs[1] == 1


def test_parity_rounding_returns_lattice_member():
    rng = random.Random(11)
    for _ in range(200):
        q = tuple(rng.uniform(-12, 12) for _ in range(3))
        point, coeffs = parity_rounded_point(P3, q)
        assert tuple(point) == pytest.approx(tuple(lattice_point(P3, coeffs)), abs=1e-12)


@given(data=st.data(), params=lattice_params)
@settings(max_examples=400, deadline=None)
def test_parity_rounding_matches_point_reference(data, params):
    q = data.draw(lattice_queries(params))
    ref_point, ref_coeffs = reference_parity_rounded_point(params, q)
    expected = (ref_point, ref_coeffs)
    for query in (q, tuple(q), iter(q)):
        assert parity_rounded_point(params, query) == expected
    assert lattice_point(params, ref_coeffs) == ref_point


def test_parity_rounding_rejects_a_dimension_mismatch():
    for query in ([1.0, 2.0], (1.0, 2.0), [1.0, 2.0, 3.0, 4.0]):
        with pytest.raises(UsageError):
            parity_rounded_point(P3, query)


@pytest.mark.parametrize("query", [[], ()])
def test_lattice_queries_refuse_an_empty_point(query):
    for ask in (parity_rounded_point, is_covered, closest_lattice_point):
        with pytest.raises(UsageError, match="^query dim 0 does not match lattice dim 3$"):
            ask(P3, query)


@given(
    data=st.data(),
    params=st.builds(LatticeParams, dim=st.integers(2, 5), delta=st.sampled_from([0.01, 0.3, 1.0])),
)
@settings(max_examples=400, deadline=None)
def test_cross_axis_pretest_rejects_only_uncovered_queries(data, params):
    # LatticeFilter.decide under a zero or a drawn shift, against the pow
    # squares of parity_rounded_point's coordinates folded from axis 1.
    q = data.draw(lattice_queries(params))
    shift = data.draw(st.just((0.0,) * params.dim) | st.tuples(
        *[st.floats(0.0, e, exclude_max=True) for e in params.shift_extents()]
    ))
    c = [x + b for x, b in zip(q, shift)]
    coords, coeffs = parity_rounded_point(params, c)
    terms = [(p - x) ** 2 for p, x in zip(coords, c)]
    filt = LatticeFilter(params, shift=shift)
    accepted = filt.decide(ArrivalEvent(0, frozenset(), Ball(tuple(q), 1.0)))
    # An axis 2..d term above 1 rejects, and only uncovered queries.
    if any(t > 1.0 for t in terms[1:]):
        assert not accepted
    assert accepted == (reduce(add, terms) <= 1.0)
    assert filt.occupied == ({coeffs: 0} if accepted else {})


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_cross_axis_pretest_passes_at_distance_exactly_one(dim):
    # parity_rounded_point, the rounding LatticeFilter.decide is checked
    # against, at distance exactly 1 and one ulp beyond: the cell stays,
    # the fold goes from 1.0 to above 1, and beyond on an axis 2..d that
    # axis's square alone is above 1, where decide rejects first.
    # test_filter_accepts_at_distance_exactly_one runs these queries
    # through decide.
    for delta in (0.01, 0.5):
        params = LatticeParams(dim=dim, delta=delta)
        cell = (2,) + (0,) * (dim - 1)
        base = lattice_point(params, cell)
        for axis in range(dim):
            for gap in (1.0, -1.0):
                q = list(base)
                q[axis] += gap
                for covered in (True, False):
                    coords, coeffs = parity_rounded_point(params, q)
                    assert coeffs == cell
                    terms = [(p - x) ** 2 for p, x in zip(coords, q)]
                    d2 = reduce(add, terms)
                    assert d2 == 1.0 if covered else d2 > 1.0
                    assert any(t > 1.0 for t in terms[1:]) is (not covered and axis > 0)
                    q[axis] = math.nextafter(q[axis], gap * math.inf)


def test_closest_beats_parity_rounding_here():
    # A query where one-shot parity rounding picks the origin but a
    # strictly nearer lattice point exists.
    q = (1.955, 1.682, 0.0)
    rounded, rounded_coeffs = parity_rounded_point(P3, q)
    closest, closest_coeffs = closest_lattice_point(P3, q)
    assert rounded_coeffs == (0, 0, 0)
    assert closest_coeffs == (1, 1, 0)
    assert tuple(closest) == pytest.approx((2.005, 2 * SQRT3, 0.0))
    d_round = math.dist(tuple(q), tuple(rounded))
    d_close = math.dist(tuple(q), tuple(closest))
    assert d_close < d_round


def test_closest_recovers_exact_members():
    rng = random.Random(5)
    for _ in range(100):
        coeffs = tuple(rng.randrange(-4, 5) for _ in range(3))
        member = lattice_point(P3, coeffs)
        point, got_coeffs = closest_lattice_point(P3, member)
        assert got_coeffs == coeffs
        assert math.dist(tuple(point), tuple(member)) <= 1e-9


@pytest.mark.parametrize("dim,count", [(2, 400), (3, 400), (4, 150)])
def test_closest_matches_brute_force(dim, count):
    params = LatticeParams(dim=dim, delta=0.01)
    rng = np.random.default_rng(1234 + dim)
    # Queries inside one fundamental cell, where a window of +/-3
    # coefficients provably contains the nearest member.
    extents = [params.axis1_period] + [params.cross_period] * (dim - 1)
    queries = rng.uniform(0.0, 1.0, size=(count, dim)) * np.array(extents)
    # Coefficient window 7 strictly dominates the lattice covering radius
    # for queries inside one fundamental cell, so this scan is exhaustive.
    points = window_lattice_points(dim, 0.01, window=7)
    brute = brute_min_distances(points, queries)
    for q, expected in zip(queries, brute):
        got_point, _ = closest_lattice_point(params, tuple(q))
        got = math.dist(tuple(got_point), tuple(q))
        assert abs(got - expected) <= 1e-9


def test_is_covered_examples():
    assert is_covered(P3, (0.0, 0.0, 0.0))
    assert is_covered(P3, (0.5, 0.5, 0.5))
    assert not is_covered(P3, (0.0, 1.5, 0.0))
    assert is_covered(P3, (4.01, 0.0, 0.6))


@pytest.mark.parametrize("query, shown", [
    ((math.nan, 0.0, 0.0), "(nan, 0.0, 0.0)"),
    ([0.0, math.inf, 0.0], "(0.0, inf, 0.0)"),
    ((0.5, 0.0, -math.inf), "(0.5, 0.0, -inf)"),
])
def test_lattice_queries_refuse_non_finite_coordinates(query, shown):
    for ask in (closest_lattice_point, is_covered):
        with pytest.raises(UsageError) as info:
            ask(P3, query)
        assert str(info.value) == f"non-finite coordinate in {shown}"


def test_coverage_matches_parity_distance():
    rng = random.Random(3)
    for _ in range(300):
        q = tuple(rng.uniform(-10, 10) for _ in range(3))
        point, _ = parity_rounded_point(P3, q)
        assert is_covered(P3, q) == (math.dist(tuple(point), tuple(q)) <= 1.0)


def test_coverage_cells_matches_scalar_path():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-15, 15, size=(500, 3))
    covered, cells = coverage_cells(P3, pts)
    assert covered.shape == (500,)
    assert cells.shape == (500, 3)
    for row, flag, cell in zip(pts, covered, cells):
        q = tuple(row)
        assert bool(flag) == is_covered(P3, q)
        _, coeffs = parity_rounded_point(P3, q)
        assert tuple(int(c) for c in cell) == coeffs


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_coverage_at_distance_exactly_one_on_every_axis(dim):
    # Lattice points whose coordinates plus or minus 1 on any axis are
    # exact in binary, (1, 0, 0) at d = 3 among the queries: both paths
    # cover a query at distance exactly 1 in the point's cell, and
    # neither covers it one ulp further out.
    for delta, cell in ((0.01, (0,) * dim), (0.5, (0,) * dim), (0.5, (2,) + (0,) * (dim - 1))):
        params = LatticeParams(dim=dim, delta=delta)
        base = lattice_point(params, cell)
        for axis in range(dim):
            for gap in (1.0, -1.0):
                q = list(base)
                q[axis] += gap
                for covered in (True, False):
                    assert (math.dist(base, q) == 1.0) is covered
                    assert is_covered(params, q) is covered
                    flags, cells = coverage_cells(params, np.array([q]))
                    assert flags.tolist() == [covered]
                    assert tuple(cells[0].tolist()) == cell
                    q[axis] = math.nextafter(q[axis], gap * math.inf)


def test_min_pairwise_distance_closed_form():
    expected = math.sqrt((2 + 0.01 / 2) ** 2 + 12.0)
    for window in (2, 3):
        got = min_pairwise_distance(P3, window=window)
        assert got == pytest.approx(expected, abs=1e-12)
    assert min_pairwise_distance(P3, window=2) > 4.0


def test_min_pairwise_distance_matches_literal_enumeration():
    for dim in (2, 3):
        params = LatticeParams(dim=dim, delta=0.01)
        pts = window_lattice_points(dim, 0.01, window=2)
        best = math.inf
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                best = min(best, float(np.linalg.norm(pts[i] - pts[j])))
        assert min_pairwise_distance(params, window=2) == pytest.approx(best, abs=1e-12)


def test_min_pairwise_distance_grows_with_delta():
    loose = min_pairwise_distance(LatticeParams(dim=3, delta=0.5), window=2)
    tight = min_pairwise_distance(P3, window=2)
    assert loose > tight
    assert loose == pytest.approx(math.sqrt(2.25**2 + 12.0), abs=1e-12)


def _numpy_min_pairwise_distance(params, window):
    """The difference-window minimum as one numpy meshgrid per axis-1
    coefficient, the reference min_pairwise_distance must match to the bit."""
    span = np.arange(-2 * window, 2 * window + 1, dtype=np.int64)
    grids = np.meshgrid(*([span] * (params.dim - 1)), indexing="ij")
    rest = np.stack([g.ravel() for g in grids], axis=1)
    rest_sq = ((rest.astype(np.float64) * (2.0 * SQRT3)) ** 2).sum(axis=1)
    rest_sum = rest.sum(axis=1).astype(np.float64)
    best = math.inf
    for a1 in span:
        x1 = params.axis1_period * float(a1) - params.axis1_unit * rest_sum
        d2 = x1 * x1 + rest_sq
        if a1 == 0:
            d2[int(np.flatnonzero((rest == 0).all(axis=1))[0])] = np.inf
        best = min(best, float(d2.min()))
    return math.sqrt(best)


# Every window the mindist check accepts ((4w+1)^dim <= 10^6) up to dim 6;
# the two largest at the default delta only.
@pytest.mark.parametrize("dim, window, delta", [
    (dim, window, delta) for dim in range(2, 7) for window in (1, 2, 3)
    for delta in (0.001, 0.01, 0.3, 1.0)
    if (4 * window + 1) ** dim <= 10**5 or (4 * window + 1) ** dim <= 10**6 and delta == 0.01
])
def test_min_pairwise_distance_matches_numpy_reference_to_the_bit(dim, window, delta):
    params = LatticeParams(dim=dim, delta=delta)
    assert min_pairwise_distance(params, window) == _numpy_min_pairwise_distance(params, window)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("delta", [0.01, 0.5, 1.0])
def test_is_covered_decides_as_the_closest_point_at_distance_one(dim, delta):
    params = LatticeParams(dim=dim, delta=delta)
    rng = random.Random(dim * 100 + int(delta * 10))
    for _ in range(300):
        center = lattice_point(params, [rng.randint(-4, 4) for _ in range(dim)])
        u = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        norm = math.hypot(*u)
        for r in (1.0, 1.0 - 1e-15, 1.0 + 1e-15):
            q = tuple(x + r * ui / norm for x, ui in zip(center, u))
            closest, _ = closest_lattice_point(params, q)
            assert is_covered(params, q) == (math.dist(closest, q) <= 1.0)


def test_period_box_extents():
    assert P3.shift_extents() == pytest.approx((4.01, 2 * SQRT3, 2 * SQRT3))
    assert math.prod(P3.shift_extents()) == pytest.approx(4.01 * 12.0)


def test_mc_volume_fraction_rejects_wrong_box_and_samples():
    with pytest.raises(UsageError):
        mc_volume_fraction(P3, (0.0, 0.0), samples=100, seed=0)
    with pytest.raises(UsageError):
        mc_volume_fraction(P3, (0.0, 0.0, 0.0), samples=0, seed=0)


def test_mc_volume_fraction_seeded_and_sane():
    origin = (0.0, 0.0, 0.0)
    frac1, err1 = mc_volume_fraction(P3, origin, samples=20000, seed=99)
    frac2, _ = mc_volume_fraction(P3, origin, samples=20000, seed=99)
    assert frac1 == frac2
    expected = unit_ball_volume(3) / math.prod(P3.shift_extents())
    assert abs(frac1 - expected) <= 4 * err1


def test_mc_volume_fraction_translation_invariant_within_noise():
    fa, ea = mc_volume_fraction(P3, (0.0, 0.0, 0.0), samples=20000, seed=7)
    fb, eb = mc_volume_fraction(P3, (17.3, -4.9, 2.02), samples=20000, seed=8)
    assert abs(fa - fb) <= 4 * math.hypot(ea, eb)


def test_unit_ball_volume_closed_forms():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0)


def test_unit_ball_volume_past_the_float_range_of_gamma():
    # The direct quotient through dim 341; logs from 342 on, where gamma
    # overflows, and past about 1240, where the power of pi does too.
    assert unit_ball_volume(341) == math.pi ** 170.5 / math.gamma(171.5)
    for dim in (342, 343, 400):
        recurrence = unit_ball_volume(dim - 2) * 2.0 * math.pi / dim
        assert unit_ball_volume(dim) == pytest.approx(recurrence, rel=1e-12)
    assert unit_ball_volume(1300) == unit_ball_volume(4000) == 0.0


def test_min_pairwise_distance_refuses_past_its_limit():
    # 13^12 differences, about 2 x 10^13 iterations, refused before any.
    with pytest.raises(OracleRefusal) as err:
        min_pairwise_distance(LatticeParams(dim=12), 3)
    assert str(err.value) == "mindist lattice differences: 13 x 13^11 exceeds the limit 1000000"


def test_closest_lattice_point_refuses_a_window_past_its_limit():
    # At dim 30 the window holds about 10^15 points: refused at once.
    params = LatticeParams(dim=30)
    rng = random.Random(0)
    q = tuple(rng.uniform(0.0, e) for e in params.shift_extents())
    start = time.perf_counter()
    with pytest.raises(OracleRefusal, match=r"^closest_lattice_point window points \d+ "
                       r"exceeds the limit 100000000$"):
        closest_lattice_point(params, q)
    assert time.perf_counter() - start < 1.0
    # Through dim 14, the most the closest check admits, the rounded
    # distance is at most sqrt((2 + delta/2)^2 + 3 (dim - 1)), so each
    # axis 2..d spans at most 4 coefficients: 4^13 points, under the limit.
    bound = math.sqrt((2.0 + MAX_DELTA / 2.0) ** 2 + 3.0 * 13) + 1e-9
    assert math.floor(2.0 * bound / TWO_SQRT3) + 1 == 4
    assert 4**13 <= CLOSEST_WINDOW_LIMIT < 4**14


@pytest.mark.parametrize("call, message", [
    (lambda: coverage_cells(P3, np.zeros((4, 2))), "expected shape (n, 3), got (4, 2)"),
    (lambda: coverage_cells(P3, np.zeros(3)), "expected shape (n, 3), got (3,)"),
    (lambda: min_pairwise_distance(P3, window=0), "window must be >= 1, got 0"),
    (lambda: unit_ball_volume(0), "dimension must be >= 1, got 0"),
    (lambda: mc_volume_fraction(P3, (0.0, 0.0, 0.0), samples=1, seed=-1),
     "seed must be >= 0, got -1"),
])
def test_lattice_helpers_refuse_bad_arguments(call, message):
    with pytest.raises(UsageError) as err:
        call()
    assert str(err.value) == message
