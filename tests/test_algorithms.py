import math
import random
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomis import (
    ArrivalSequence,
    ExperimentConfig,
    Ball,
    Classify,
    FirstFit,
    HRClassify,
    HyperRectangle,
    LatticeFilter,
    LatticeParams,
    UsageError,
    class_count,
    derive_seed,
    empirical_ratio,
    exact_mis,
    independent_kissing_number,
    filter_acceptance_probability,
    is_covered,
    lattice_point,
    random_balls_gen,
    run_experiment,
    run_online,
    save_instance,
    width_class_index,
)
import geomis.algorithms
import geomis.geometry
import geomis.lattice
from geomis.algorithms import make_algorithm
from geomis.lattice import (
    TWO_SQRT3,
    parity_rounded_point,
    period_box,
    unit_ball_volume,
)
from geomis.online import ArrivalEvent, finalize_run

from conftest import (
    ReferenceLatticeFilter,
    lattice_params,
    lattice_queries,
    reference_parity_rounded_point,
)

P3 = LatticeParams(dim=3, delta=0.01)


def unit_ball_stream(centers):
    objs = [Ball(tuple(c), 1.0) for c in centers]
    return ArrivalSequence.from_objects(objs)


def random_unit_ball_stream(rng, n, box_side, dim=3):
    centers = [[rng.uniform(0, box_side) for _ in range(dim)] for _ in range(n)]
    return unit_ball_stream(centers)


def rect_stream(rect_bounds):
    objs = [
        HyperRectangle(tuple(lo), tuple(hi))
        for lo, hi in rect_bounds
    ]
    return ArrivalSequence.from_objects(objs)


# --- dyadic size classes ---------------------------------------------------


def test_class_count_examples():
    assert class_count(8.0) == 4
    assert class_count(5.0) == 3
    assert class_count(2.0001) == 2
    with pytest.raises(UsageError):
        class_count(2.0)
    with pytest.raises(UsageError):
        class_count(math.inf)


def test_width_class_index_examples():
    assert width_class_index(3.5) == 1
    assert width_class_index(1.0) == 0
    assert width_class_index(2.0) == 1
    assert width_class_index(4.0) == 2
    assert width_class_index(8.0) == 3
    with pytest.raises(UsageError):
        width_class_index(0.0)


def test_size_classes_reach_the_top_of_float_range():
    assert class_count(1e308) == 1024
    assert width_class_index(2.0**1023) == 1023
    assert width_class_index(5e-324) == -1074
    box = HyperRectangle((0.0, 0.0), (2.0**1023, 1.5))
    event = ArrivalSequence.from_objects([box]).events[0]
    assert HRClassify(1e308, 2, forced_classes=(1023, 0)).decide(event)
    assert not HRClassify(1e308, 2, forced_classes=(1022, 0)).decide(event)


def test_every_width_in_exactly_one_class():
    rng = random.Random(4)
    for _ in range(500):
        m = rng.uniform(2.001, 64.0)
        w = rng.uniform(1.0, m)
        j = width_class_index(w)
        assert 0 <= j < class_count(m)
        assert 2.0**j <= w < 2.0 ** (j + 1)


# --- Classify ---------------------------------------------------------------


def test_classify_forced_class_hand_run():
    # widths 1.5, 3.0, 2.5; the two class-1 objects are disjoint.
    objs = [
        Ball((0.0, 0.0), 1.5),
        Ball((20.0, 0.0), 3.0),
        Ball((40.0, 0.0), 2.5),
    ]
    stream = ArrivalSequence.from_objects(objs)
    result = run_online(Classify(8.0, forced_class=1), stream)
    assert result.accepted == (1, 2)


def test_classify_equals_first_fit_on_chosen_class():
    rng = random.Random(10)
    for _ in range(15):
        n = rng.randrange(1, 30)
        objs = [
            Ball(
                (rng.uniform(0, 25), rng.uniform(0, 25)),
                rng.uniform(1.0, 8.0),
            )
            for _ in range(n)
        ]
        stream = ArrivalSequence.from_objects(objs)
        adj = stream.adjacency()
        for j in range(class_count(8.0)):
            got = run_online(Classify(8.0, forced_class=j), stream)
            accepted = []
            for ev in stream.events:
                if width_class_index(ev.payload.width) != j:
                    continue
                if not (set(ev.neighbors) & set(accepted)):
                    accepted.append(ev.id)
            assert list(got.accepted) == accepted
            for v in got.accepted:
                assert width_class_index(stream.events[v].payload.width) == j
            assert got.valid_independent


def test_classify_width_out_of_range():
    stream = unit_ball_stream([(0.0, 0.0, 0.0)])  # width 1 ok
    run_online(Classify(8.0, forced_class=0), stream)
    low = ArrivalSequence.from_objects([Ball((0.0,), 0.5)])
    with pytest.raises(UsageError):
        run_online(Classify(8.0, forced_class=0), low)
    high = ArrivalSequence.from_objects([Ball((0.0,), 9.0)])
    with pytest.raises(UsageError):
        run_online(Classify(8.0, forced_class=0), high)


@pytest.mark.parametrize("m", [6.0, 8.0])
def test_classify_width_exactly_m(m):
    # Width M is in range, in the top class; one ulp above is refused.
    top = class_count(m) - 1
    at_m = ArrivalSequence.from_objects([Ball((0.0,), m)])
    assert run_online(Classify(m, forced_class=top), at_m).accepted == (0,)
    assert run_online(Classify(m, forced_class=top - 1), at_m).accepted == ()
    over = math.nextafter(m, 2 * m)
    above = ArrivalSequence.from_objects([Ball((0.0,), over)])
    with pytest.raises(UsageError) as excinfo:
        run_online(Classify(m, forced_class=top), above)
    assert str(excinfo.value) == (
        f"arrival 0 has width {over} (its radius), outside [1, {m}]:"
        " classify needs every width in [1, M]"
    )


def test_classify_requires_payload(k3_stream):
    with pytest.raises(UsageError):
        run_online(Classify(8.0, forced_class=0), k3_stream)


def test_classify_forced_class_bounds():
    with pytest.raises(UsageError):
        Classify(8.0, forced_class=4)
    with pytest.raises(UsageError):
        Classify(8.0, forced_class=-1)


def test_classify_seeded_class_draw_uniform():
    counts = [0, 0, 0, 0]
    for seed in range(2000):
        (j,) = Classify(8.0, seed=seed).chosen_classes
        counts[j] += 1
    assert sum(counts) == 2000
    expected = 2000 / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # df=3; 16.27 is the 0.999 quantile
    assert chi2 < 16.27, counts


def test_classify_same_seed_same_run():
    rng = random.Random(77)
    stream = random_unit_ball_stream(rng, 20, 10.0)
    a = run_online(Classify(8.0, seed=5), stream)
    b = run_online(Classify(8.0, seed=5), stream)
    assert a == b


# --- HRClassify -------------------------------------------------------------


def test_hr_class_tuple_example():
    stream = rect_stream([((0.0, 0.0), (1.5, 3.2))])
    alg = HRClassify(5.0, dim=2, forced_classes=(0, 1))
    result = run_online(alg, stream)
    assert result.accepted == (0,)
    assert alg.chosen_classes == (0, 1)
    assert class_count(5.0) ** 2 == 9
    other = run_online(HRClassify(5.0, dim=2, forced_classes=(1, 1)), stream)
    assert other.accepted == ()


def test_hr_classify_equals_first_fit_on_chosen_class():
    rng = random.Random(21)
    for _ in range(8):
        n = rng.randrange(1, 24)
        bounds = []
        for _ in range(n):
            lo = (rng.uniform(0, 20), rng.uniform(0, 20))
            sides = (rng.uniform(1, 5), rng.uniform(1, 5))
            bounds.append((lo, (lo[0] + sides[0], lo[1] + sides[1])))
        stream = rect_stream(bounds)
        for j1 in range(3):
            for j2 in range(3):
                got = run_online(
                    HRClassify(5.0, dim=2, forced_classes=(j1, j2)), stream
                )
                accepted = []
                for ev in stream.events:
                    cls = tuple(
                        width_class_index(s) for s in ev.payload.sides
                    )
                    if cls != (j1, j2):
                        continue
                    if not (set(ev.neighbors) & set(accepted)):
                        accepted.append(ev.id)
                assert list(got.accepted) == accepted


def test_hr_classify_validation():
    with pytest.raises(UsageError):
        HRClassify(5.0, dim=2, forced_classes=(0,))
    with pytest.raises(UsageError):
        HRClassify(5.0, dim=2, forced_classes=(0, 3))
    big = rect_stream([((0.0, 0.0), (6.0, 1.5))])
    with pytest.raises(UsageError):
        run_online(HRClassify(5.0, dim=2, forced_classes=(0, 0)), big)
    wrong_dim = rect_stream([((0.0, 0.0), (1.5, 1.5))])
    with pytest.raises(UsageError):
        run_online(HRClassify(5.0, dim=3, forced_classes=(0, 0, 0)), wrong_dim)
    ball = unit_ball_stream([(0.0, 0.0, 0.0)])
    with pytest.raises(UsageError):
        run_online(HRClassify(5.0, dim=3, forced_classes=(0, 0, 0)), ball)


@pytest.mark.parametrize("m", [6.0, 8.0])
def test_hr_classify_sides_exactly_one_and_m(m):
    # Both ends of [1, M] are in range: side 1 is in class 0 and side M
    # in the top class, whether or not M is a power of two.
    k = class_count(m)
    stream = rect_stream([((0.0, 0.0), (1.0, m))])
    for first in range(k):
        for second in range(k):
            alg = HRClassify(m, dim=2, forced_classes=(first, second))
            expected = (0,) if (first, second) == (0, k - 1) else ()
            assert run_online(alg, stream).accepted == expected
    over = rect_stream([((0.0, 0.0), (1.0, math.nextafter(m, 2 * m)))])
    with pytest.raises(UsageError):
        run_online(HRClassify(m, dim=2, forced_classes=(0, k - 1)), over)


def test_hr_classify_in_dimension_one():
    # Intervals of lengths 2.5, 2.5, 1 and 2.5: class 1 keeps the first,
    # drops the second that meets it, skips the class-0 one, keeps the last.
    stream = rect_stream([((0.0,), (2.5,)), ((2.0,), (4.5,)), ((5.0,), (6.0,)), ((4.5,), (7.0,))])
    assert run_online(HRClassify(5.0, dim=1, forced_classes=(1,)), stream).accepted == (0, 3)
    assert run_online(HRClassify(5.0, dim=1, forced_classes=(0,)), stream).accepted == (2,)
    assert HRClassify(5.0, dim=1, seed=3).chosen_classes[0] in range(class_count(5.0))
    with pytest.raises(UsageError) as excinfo:
        HRClassify(5.0, dim=0)
    assert str(excinfo.value) == "dim must be >= 1, got 0"


def test_hr_classify_helper_needs_geometry(k3_stream):
    with pytest.raises(UsageError):
        make_algorithm("hr_classify", k3_stream.dim, seed=0, delta=0.01, m=5.0)


# --- LatticeFilter ----------------------------------------------------------


def test_filter_shift_zero_hand_runs():
    # covered by origin -> accepted
    stream = unit_ball_stream([(0.2, 0.0, 0.0)])
    result = run_online(LatticeFilter(P3, shift=(0.0, 0.0, 0.0)), stream)
    assert result.accepted == (0,)
    # not covered (nearest lattice point at distance 2) -> ignored
    stream = unit_ball_stream([(2.0, 0.0, 0.0)])
    result = run_online(LatticeFilter(P3, shift=(0.0, 0.0, 0.0)), stream)
    assert result.accepted == ()
    # both covered by origin -> first in, second out
    stream = unit_ball_stream([(0.2, 0.0, 0.0), (0.5, 0.5, 0.0)])
    result = run_online(LatticeFilter(P3, shift=(0.0, 0.0, 0.0)), stream)
    assert result.accepted == (0,)
    assert result.decisions == (True, False)


def test_filter_accepts_one_per_cell_across_cells():
    far = lattice_point(P3, (1, 1, 0))
    stream = unit_ball_stream([(0.1, 0.0, 0.0), tuple(far)])
    result = run_online(LatticeFilter(P3, shift=(0.0, 0.0, 0.0)), stream)
    assert result.accepted == (0, 1)


def test_filter_zero_covered_accepts_nothing():
    # centers chosen in the uncovered gap around (0, 1.9, 0)
    centers = [(0.0, 1.9, 0.0), (0.3, 1.8, 0.2), (3.0, 1.9, 0.0)]
    for c in centers:
        assert not is_covered(P3, c)
    stream = unit_ball_stream(centers)
    result = run_online(LatticeFilter(P3, shift=(0.0, 0.0, 0.0)), stream)
    assert result.accepted == ()


def test_filter_equals_literal_first_fit_over_covered():
    rng = random.Random(31)
    extents = P3.shift_extents()
    for _ in range(30):
        stream = random_unit_ball_stream(rng, rng.randrange(1, 40), 14.0)
        shift = tuple(rng.uniform(0.0, e) for e in extents)
        got = run_online(LatticeFilter(P3, shift=shift), stream)
        accepted = []
        for ev in stream.events:
            center = tuple(x + b for x, b in zip(ev.payload.center, shift))
            if not is_covered(P3, center):
                continue
            if not (set(ev.neighbors) & set(accepted)):
                accepted.append(ev.id)
        assert list(got.accepted) == accepted
        assert got.valid_independent


# x ** 2 and x * x differ in the last bit for about one float in a
# thousand, which moves these tangent centers across distance 1: the
# first on axis 1, the second on axis 2.
@pytest.mark.parametrize("center", [
    (8.580134886953957, 0.8284014174402877),
    (7.4024545482422575, 0.786535196296597),
])
def test_filter_squares_by_pow_not_multiplication(center):
    params = LatticeParams(dim=2, delta=0.01)
    result = run_online(LatticeFilter(params, shift=(0.0, 0.0)), unit_ball_stream([center]))
    assert result.accepted == (0,)
    coords, _ = parity_rounded_point(params, center)
    a, b = (p - x for p, x in zip(coords, center))
    assert a ** 2 + b ** 2 == 1.0 < a * a + b * b


def test_filter_and_is_covered_split_on_a_tangent_center():
    # The filter sums pow squares, is_covered takes math.dist: at this
    # center the sum rounds to just above 1 and the distance to 1.
    center = (8.364046709781382, 0.8680768860983207, 0.3578748123442727)
    coords, _ = parity_rounded_point(P3, center)
    assert reduce(add, [(p - x) ** 2 for p, x in zip(coords, center)]) > 1.0
    assert math.dist(coords, center) == 1.0
    assert is_covered(P3, center)
    result = run_online(LatticeFilter(P3, shift=(0.0, 0.0, 0.0)), unit_ball_stream([center]))
    assert result.accepted == ()


def test_filter_seeded_shift_reproducible():
    rng = random.Random(99)
    stream = random_unit_ball_stream(rng, 25, 12.0)
    a = run_online(LatticeFilter(P3, seed=123), stream)
    b = run_online(LatticeFilter(P3, seed=123), stream)
    assert a == b
    alg = LatticeFilter(P3, seed=123)
    run_online(alg, stream)
    extents = P3.shift_extents()
    assert all(0.0 <= x < e for x, e in zip(alg.shift, extents))


@pytest.mark.parametrize("seed", [0, 1, 123, 2**70])
def test_strategies_draw_from_their_seed_when_built(seed):
    # No arrival reaches the strategies: the draws are fixed in __init__,
    # as one uniform shift coordinate or one randrange per axis from
    # random.Random(seed).
    rng = random.Random(seed)
    shift = tuple(rng.uniform(0.0, e) for e in (4.01, 2 * math.sqrt(3), 2 * math.sqrt(3)))
    assert LatticeFilter(P3, seed=seed).shift == shift
    assert ReferenceLatticeFilter(P3, seed=seed).shift == shift
    assert make_algorithm("filter", 3, seed=seed, delta=0.01, m=8.0).shift == shift
    assert Classify(8.0, seed=seed).chosen_classes == (random.Random(seed).randrange(4),)
    rng = random.Random(seed)
    classes = tuple(rng.randrange(3) for _ in range(3))
    assert HRClassify(5.0, dim=3, seed=seed).chosen_classes == classes
    assert make_algorithm("hr_classify", 3, seed=seed, delta=0.01, m=5.0).chosen_classes == classes


def test_filter_validation():
    with pytest.raises(UsageError):
        LatticeFilter(P3, shift=(0.0, 0.0))
    with pytest.raises(UsageError):
        LatticeFilter(P3, shift=(-0.1, 0.0, 0.0))
    with pytest.raises(UsageError):
        LatticeFilter(P3, shift=(0.0, 2.0 * math.sqrt(3.0), 0.0))
    non_unit = ArrivalSequence.from_objects(
        [Ball((0.0, 0.0, 0.0), 2.0)]
    )
    with pytest.raises(UsageError):
        run_online(LatticeFilter(P3, shift=(0.0, 0.0, 0.0)), non_unit)
    two_d = unit_ball_stream([(0.0, 0.0)])
    with pytest.raises(UsageError):
        run_online(LatticeFilter(P3, shift=(0.0, 0.0, 0.0)), two_d)


def test_filter_requires_payload(k3_stream):
    with pytest.raises(UsageError):
        run_online(LatticeFilter(P3), k3_stream)


@given(data=st.data(), params=lattice_params)
@settings(max_examples=200, deadline=None)
def test_filter_decisions_match_point_reference(data, params):
    centres = data.draw(st.lists(lattice_queries(params), min_size=1, max_size=10))
    how = data.draw(st.sampled_from(["zero", "drawn", "seeded"]))
    if how == "seeded":
        seed = data.draw(st.integers(0, 2**64 - 1))
        fast, ref = LatticeFilter(params, seed=seed), ReferenceLatticeFilter(params, seed=seed)
    else:
        shift = [
            0.0 if how == "zero" else data.draw(st.floats(0.0, e, exclude_max=True))
            for e in params.shift_extents()
        ]
        fast, ref = LatticeFilter(params, shift=shift), ReferenceLatticeFilter(params, shift=shift)
    # Every centre arrives twice, so occupied cells are hit again.
    events = [
        ArrivalEvent(i, frozenset(), Ball(tuple(c), 1.0))
        for i, c in enumerate(centres + centres)
    ]
    assert [fast.decide(ev) for ev in events] == [ref.decide(ev) for ev in events]
    assert fast.occupied == ref.occupied
    assert fast.shift == ref.shift


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_filter_accepts_at_distance_exactly_one(dim):
    # Lattice points whose coordinates, plus or minus 1 on any axis, are
    # exact in binary, so the reference fold is exactly 1.0 and both
    # filters accept; one ulp further out it is above 1 and both reject.
    cases = [(0.01, 0), (0.01, 2), (0.5, 0), (0.5, 2), (0.5, 3), (0.5, -7)]
    for delta, a1 in cases:
        params = LatticeParams(dim=dim, delta=delta)
        cell = (a1,) + (0,) * (dim - 1)
        base = lattice_point(params, cell)
        for axis in range(dim):
            for sign in (1.0, -1.0):
                centre = list(base)
                centre[axis] += sign
                for covered in (True, False):
                    p, coeffs = reference_parity_rounded_point(params, centre)
                    assert coeffs == cell
                    d2 = reduce(add, [(a - b) ** 2 for a, b in zip(p, centre)])
                    assert d2 == 1.0 if covered else d2 > 1.0
                    ball = Ball(tuple(centre), 1.0)
                    for alg in (LatticeFilter, ReferenceLatticeFilter):
                        filt = alg(params, shift=(0.0,) * dim)
                        assert filt.decide(ArrivalEvent(0, frozenset(), ball)) is covered
                        assert filt.occupied == ({cell: 0} if covered else {})
                    centre[axis] = math.nextafter(centre[axis], sign * math.inf)


def test_filter_builds_no_point_per_arrival(monkeypatch):
    # Shapes check their coordinates through geometry._coordinates; the
    # decide loop must check none.
    stream = random_unit_ball_stream(random.Random(2), 200, 12.0)
    built = []
    real = geomis.geometry._coordinates

    def counting(values):
        built.append(values)
        return real(values)

    monkeypatch.setattr(geomis.geometry, "_coordinates", counting)
    result = run_online(LatticeFilter(P3, seed=4), stream)
    assert result.size > 0
    assert built == []
    Ball((0.0, 0.0, 0.0), 1.0)
    assert built == [(0.0, 0.0, 0.0)]


def test_filter_rounds_exactly_the_covered_arrivals(monkeypatch):
    stream = random_unit_ball_stream(random.Random(3), 200, 12.0)
    rounded = []
    real = geomis.algorithms.parity_rounded_point

    def counting(params, c):
        rounded.append(list(c))
        return real(params, c)

    monkeypatch.setattr(geomis.algorithms, "parity_rounded_point", counting)
    fast, ref = LatticeFilter(P3, seed=9), ReferenceLatticeFilter(P3, seed=9)
    assert [fast.decide(ev) for ev in stream.events] == [
        ref.decide(ev) for ev in stream.events
    ]
    assert fast.occupied == ref.occupied
    assert fast.shift == ref.shift
    # Covered, as the reference judges it: a filter with no cell taken
    # yet accepts the arrival.
    covered = [
        [x + b for x, b in zip(ev.payload.center, fast.shift)]
        for ev in stream.events
        if ReferenceLatticeFilter(P3, shift=fast.shift).decide(ev)
    ]
    assert rounded == covered
    assert len(fast.occupied) < len(rounded) < len(stream)


# --- LatticeFilter's stream path --------------------------------------------


class _SeenFilter(LatticeFilter):
    """LatticeFilter recording the id of every arrival decide sees."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.seen: list[int] = []

    def decide(self, event) -> bool:
        self.seen.append(event.id)
        return super().decide(event)


def _outcome(run):
    try:
        return run(), None
    except UsageError as exc:
        return None, str(exc)


def assert_stream_path_is_decide(params, stream, **how):
    """run_online, which takes the filter's stream path, against decide
    on every arrival of a twin filter: the same decisions and occupied,
    or the same refusal at the same arrival.  A fresh stream runs twice,
    so it is checked both on its first run, which sends decide every
    arrival, and on a later one, which sends decide only the index's
    candidates.  Returns the ids the last run sent to decide."""
    fresh = "box_index" not in vars(stream)
    for _ in range(2 if fresh else 1):
        fast, ref = _SeenFilter(params, **how), _SeenFilter(params, **how)
        got, got_error = _outcome(lambda: run_online(fast, stream))
        want, want_error = _outcome(
            lambda: finalize_run(stream.events, [ref.decide(ev) for ev in stream.events])
        )
        assert got == want
        assert got_error == want_error
        if want_error is not None or fresh:
            assert fast.seen == ref.seen
        fresh = False
        assert fast.occupied == ref.occupied
        assert fast.seen == sorted(set(fast.seen))
    return fast.seen


def _in_box(params, center, shift):
    """Whether every axis of the shifted center lies within 1 of the
    reference rounding's point."""
    shifted = [x + b for x, b in zip(center, shift)]
    p, _ = reference_parity_rounded_point(params, shifted)
    return all((a - x) ** 2 <= 1.0 for a, x in zip(p, shifted))


def _unlinked_stream(centers, radius=1.0):
    """Balls at centers with no edges; decide reads no edge."""
    return ArrivalSequence(tuple(
        ArrivalEvent(i, frozenset(), Ball(tuple(c), radius)) for i, c in enumerate(centers)
    ))


def test_stream_path_on_2000_balls_under_200_trial_seeds():
    # The benchmark's instance under the README's first 200 trial seeds:
    # after the stream's first run, decide sees about a sixth of it,
    # exactly the arrivals within 1 of the rounded point on every axis
    # (checked by the reference rounding on the first 20 seeds).
    stream = random_balls_gen(2000, 3, 30.0, seed=5)
    reached = 0
    for i in range(200):
        seed = derive_seed(42, i)
        seen = assert_stream_path_is_decide(P3, stream, seed=seed)
        if i < 20:
            shift = LatticeFilter(P3, seed=seed).shift
            assert seen == [
                ev.id for ev in stream.events
                if _in_box(P3, ev.payload.center, shift)
            ]
        reached += len(seen)
    assert reached == 66362


@given(data=st.data(), dim=st.integers(2, 5), delta=st.sampled_from([0.01, 0.5, 1.0]))
@settings(max_examples=150, deadline=None)
def test_stream_path_matches_decide_on_drawn_streams(data, dim, delta):
    params = LatticeParams(dim, delta)
    scale = data.draw(st.sampled_from([10.0, 1e6, 1e12]))
    uniform = st.lists(st.floats(-scale, scale), min_size=dim, max_size=dim)
    centres = data.draw(st.lists(st.one_of(uniform, lattice_queries(params)), max_size=30))
    shift = [data.draw(st.floats(0.0, e, exclude_max=True)) for e in params.shift_extents()]
    # Every centre arrives twice, so occupied cells are hit again.
    assert_stream_path_is_decide(params, _unlinked_stream(centres + centres), shift=shift)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_stream_path_at_the_band_edges(dim):
    # Centers exactly 1 and one ulp beyond 1 from a line of even
    # multiples of sqrt(3) on one axis 2..d, or on axis 1 from the
    # position whose parity matches the other axes' coefficient sum, all
    # other axes on the lattice point: at a zero shift the first is
    # accepted and the second rejected; under drawn shifts both sit where
    # the residue band's slack must let them through to decide.  Centers
    # on parity boundaries (an odd multiple of sqrt(3) on an axis 2..d,
    # a multiple of axis1_unit of the other parity on axis 1) and one ulp
    # to each side of them sit where the band an arrival falls in changes.
    params = LatticeParams(dim, 0.01)
    rng = random.Random(dim)
    shifts = [(0.0,) * dim] + [
        tuple(rng.uniform(0.0, e) for e in params.shift_extents()) for _ in range(30)
    ]
    for shift in shifts:
        centres = []
        for axis in range(1, dim):
            for a in (-3, 0, 2):
                for sign in (1.0, -1.0):
                    centre = [-b for b in shift]
                    centre[axis] = TWO_SQRT3 * a + sign - shift[axis]
                    centres.append(list(centre))
                    centre[axis] = math.nextafter(centre[axis], sign * math.inf)
                    centres.append(centre)
        drawn = tuple(rng.choices(range(-3, 4), k=dim - 1))
        for rest in ((0,) * (dim - 1), (1,) + (0,) * (dim - 2), drawn):
            for a1 in (-1, 0, 1):
                point = lattice_point(params, (a1, *rest))
                for sign in (1.0, -1.0):
                    centre = [x - b for x, b in zip(point, shift)]
                    centre[0] = point[0] + sign - shift[0]
                    centres.append(list(centre))
                    centre[0] = math.nextafter(centre[0], sign * math.inf)
                    centres.append(centre)
        for axis in range(dim):
            step = params.axis1_unit if axis == 0 else math.sqrt(3.0)
            for odd in (-1, 1, 3):
                centre = [-b for b in shift]
                x = step * odd - shift[axis]
                for centre[axis] in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)):
                    centres.append(list(centre))
        assert_stream_path_is_decide(params, _unlinked_stream(centres), shift=shift)
        for centre in centres:
            assert_stream_path_is_decide(params, _unlinked_stream([centre]), shift=shift)
    # At a zero shift and a = 0: accepted at exactly 1, rejected beyond.
    # On axis 1 also at an odd coefficient sum, 1 from -axis1_unit.
    edges = [([0.0] * dim, axis) for axis in range(dim)]
    edges.append((list(lattice_point(params, (0, 1) + (0,) * (dim - 2))), 0))
    for point, axis in edges:
        for sign in (1.0, -1.0):
            centre = list(point)
            centre[axis] += sign
            exact = run_online(LatticeFilter(params, shift=(0.0,) * dim), _unlinked_stream([centre]))
            centre[axis] = math.nextafter(centre[axis], sign * math.inf)
            beyond = run_online(LatticeFilter(params, shift=(0.0,) * dim), _unlinked_stream([centre]))
            assert (exact.accepted, beyond.accepted) == ((0,), ())


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("tiny", [-1e-300, -5e-324])
def test_stream_path_at_a_residue_that_rounds_up_to_the_period(dim, tiny):
    # tiny % cross_period rounds to cross_period itself, the far end of
    # the period, while decide sees tiny + (TWO_SQRT3 - 1) as TWO_SQRT3 - 1,
    # exactly 1 from the lattice point it accepts the arrival at.  The
    # largest coordinate, on any axis, gives no slack here; the band's
    # constant keeps the arrival a candidate.
    params = LatticeParams(dim, 0.01)
    shift = (params.axis1_unit, TWO_SQRT3 - 1.0) + (0.0,) * (dim - 2)
    centre = (0.0, tiny) + (0.0,) * (dim - 2)
    stream = _unlinked_stream([centre])
    assert assert_stream_path_is_decide(params, stream, shift=shift) == [0]
    assert run_online(LatticeFilter(params, shift=shift), stream).accepted == (0,)


def test_stream_path_admits_every_arrival_at_huge_coordinates():
    # Near 1e15 a float step is 0.125, and the band's slack spans the
    # whole period: every arrival reaches decide, which still accepts some.
    rng = random.Random(15)
    centres = [
        [rng.choice([1e15, -1e15]) + rng.randrange(-400, 400) * 0.125 for _ in range(3)]
        for _ in range(300)
    ]
    stream = _unlinked_stream(centres)
    for seed in range(10):
        seen = assert_stream_path_is_decide(P3, stream, seed=seed)
        assert seen == list(range(len(centres)))
    assert run_online(LatticeFilter(P3, seed=0), stream).size > 0


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_stream_path_admits_every_arrival_when_axis_1_is_huge(dim):
    # The slack follows the largest coordinate on any axis: with axis 1
    # near 1e15 and every other axis small, every arrival still reaches
    # decide.
    params = LatticeParams(dim, 0.01)
    rng = random.Random(dim)
    centres = [
        [1e15 + rng.randrange(-400, 400) * 0.125]
        + [rng.uniform(-20.0, 20.0) for _ in range(dim - 1)]
        for _ in range(300)
    ]
    stream = _unlinked_stream(centres)
    for seed in range(5):
        seen = assert_stream_path_is_decide(params, stream, seed=seed)
        assert seen == list(range(len(centres)))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_stream_path_under_three_deltas_on_one_stream(dim):
    # Axis 1's sort is made for one delta; a filter of another delta on
    # the same stream must not read it.
    stream = random_unit_ball_stream(random.Random(dim), 300, 12.0, dim=dim)
    for delta in (0.01, 0.5, 1.0, 0.01):
        for seed in range(3):
            assert_stream_path_is_decide(LatticeParams(dim, delta), stream, seed=seed)


def test_stream_path_refuses_as_decide_does(k3_stream):
    # Arrival 0 is off every band at a zero shift (1.9 is more than 1
    # from 0 and from 2*sqrt(3)), so a refusal at arrival 0 shows that
    # decide saw every arrival; arrival 1 is on the lattice point.
    zero = {"shift": (0.0, 0.0, 0.0)}
    box_stream = ArrivalSequence.from_objects([
        HyperRectangle((0.0, 1.5, 0.0), (0.5, 2.0, 0.5)),
        HyperRectangle((3.0, 3.0, 3.0), (4.0, 4.0, 4.0)),
    ])
    cases = [
        (box_stream, "LatticeFilter requires unit-ball payloads"),
        (_unlinked_stream([(0.0, 1.9, 0.0), (0.0, 0.0, 0.0)], radius=2.0),
         "LatticeFilter requires unit balls, got radius 2.0"),
        (_unlinked_stream([(0.0, 1.9), (0.0, 0.0)]), "ball dim 2 does not match lattice dim 3"),
        (_unlinked_stream([(0.0, 1.9, 0.0, 1.9), (0.0, 0.0, 0.0, 0.0)]),
         "ball dim 4 does not match lattice dim 3"),
        (k3_stream, "LatticeFilter requires unit-ball payloads"),
    ]
    for stream, message in cases:
        for _ in range(3):
            filt = _SeenFilter(P3, **zero)
            with pytest.raises(UsageError) as err:
                run_online(filt, stream)
            assert str(err.value) == message
            assert filt.seen == [0]
        assert_stream_path_is_decide(P3, stream, **zero)
    # A unit ball off every band, then a ball of radius 2: decide rejects
    # the first and refuses the second, on every run.
    mixed = ArrivalSequence((
        ArrivalEvent(0, frozenset(), Ball((0.0, 1.9, 0.0), 1.0)),
        ArrivalEvent(1, frozenset(), Ball((0.0, 0.0, 0.0), 2.0)),
    ))
    assert assert_stream_path_is_decide(P3, mixed, **zero) == [0, 1]
    assert list(mixed.box_index.candidates(P3, (0.0, 0.0, 0.0))) == [0, 1]


def test_stream_path_on_empty_and_abstract_streams(k3_stream):
    for stream in (ArrivalSequence(events=(), dim=3), ArrivalSequence(events=())):
        for _ in range(2):
            assert run_online(LatticeFilter(P3, seed=1), stream).decisions == ()
        assert assert_stream_path_is_decide(P3, stream, seed=1) == []
    assert_stream_path_is_decide(P3, k3_stream, seed=1)
    assert list(k3_stream.box_index.candidates(P3, (0.0, 0.0, 0.0))) == [0, 1, 2]


def test_box_index_sorted_once_from_the_second_run(monkeypatch):
    # A stream run once is never sorted; the first run that finds the
    # stream passed sorts axes 2..d, once for every later run of that dim
    # whatever its delta or shift, and sorts axis 1 again only when the
    # delta, and so axis1_period, changes.
    sorts = []
    real_sort = geomis.lattice._sorted_residues

    def sort(xs, period):
        sorts.append(period)
        return real_sort(xs, period)

    monkeypatch.setattr(geomis.lattice, "_sorted_residues", sort)
    cross = P3.cross_period
    stream = random_unit_ball_stream(random.Random(4), 50, 12.0)
    first = _SeenFilter(P3, seed=1)
    run_online(first, stream)
    assert (first.seen, sorts) == (list(range(50)), [])
    index = stream.box_index
    for delta, seed in [(0.01, 2), (0.01, 3), (0.5, 4), (1.0, 5), (1.0, 6)]:
        later = _SeenFilter(LatticeParams(3, delta), seed=seed)
        run_online(later, stream)
        assert len(later.seen) < 50
    assert sorts == [cross, cross, 4.01, 4.5, 5.0]
    # A filter of another dim refuses the stream at its first arrival and
    # leaves the index as it was.
    with pytest.raises(UsageError, match="ball dim 3 does not match lattice dim 2"):
        run_online(LatticeFilter(LatticeParams(2, 0.01), seed=5), stream)
    run_online(LatticeFilter(LatticeParams(3, 1.0), seed=7), stream)
    assert stream.box_index is index and sorts == [cross, cross, 4.01, 4.5, 5.0]


def test_filter_acceptance_probability_closed_forms():
    p = filter_acceptance_probability(P3)
    assert p == pytest.approx((4.0 * math.pi / 3.0) / 48.12, rel=1e-14)
    assert abs(p - 0.087049) < 1e-6
    # The delta -> 0 limit: the same quotient over period_box at delta = 0.
    limit = unit_ball_volume(3) / math.prod(period_box(3, 0.0))
    near_limit = filter_acceptance_probability(LatticeParams(3, 1e-12))
    assert near_limit == pytest.approx(limit, rel=1e-12)
    assert limit == pytest.approx(math.pi / 36.0, rel=1e-14)
    assert 1.0 / limit == pytest.approx(36.0 / math.pi, rel=1e-14)
    assert 1.0 / limit == pytest.approx(11.459, abs=5e-4)
    recip4 = math.prod(period_box(4, 0.0)) / unit_ball_volume(4)
    assert recip4 == pytest.approx(192.0 * math.sqrt(3.0) / math.pi**2, rel=1e-12)
    assert abs(recip4 - 33.8) < 0.15


def test_filter_acceptance_frequency_quick():
    # Smaller sibling of the statistical acceptance check: 20k balls,
    # fresh shift each, 4 sigma guard band.
    rng = np.random.default_rng(555)
    n = 20000
    centers = rng.uniform(0.0, 30.0, size=(n, 3))
    extents = np.array(P3.shift_extents())
    shifts = rng.uniform(0.0, 1.0, size=(n, 3)) * extents
    from geomis import coverage_cells

    covered, _ = coverage_cells(P3, centers + shifts)
    p = filter_acceptance_probability(P3)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(covered.mean() - p) <= 4 * sigma


def test_filter_mean_ratio_on_2000_balls_beats_zeta():
    # The paper's R^3 claim on the 2000-ball instance: the filter's mean
    # ratio stays below 1/p (about 11.49), itself below zeta = 12.
    stream = random_balls_gen(2000, 3, 30.0, seed=5)
    adjacency = stream.adjacency()
    opt = exact_mis(adjacency, node_limit=2000).size
    assert opt == 1039
    ratios = []
    for seed in range(50):
        filt = LatticeFilter(P3, seed=seed)
        run = run_online(filt, stream)
        assert run.valid_independent
        accepted = set(run.accepted)
        assert not any(adjacency[v] & accepted for v in accepted)
        # Covered arrivals, by the reference rounding and fold, grouped by
        # cell: each group is a clique and the filter keeps its first.
        cells: dict[tuple, list[int]] = {}
        for ev in stream.events:
            shifted = [x + b for x, b in zip(ev.payload.center, filt.shift)]
            p, cell = reference_parity_rounded_point(P3, shifted)
            if reduce(add, [(a - b) ** 2 for a, b in zip(p, shifted)]) <= 1.0:
                cells.setdefault(cell, []).append(ev.id)
        for members in cells.values():
            for i, a in enumerate(members):
                assert adjacency[a].issuperset(members[i + 1:])
        assert filt.occupied == {cell: members[0] for cell, members in cells.items()}
        ratios.append(empirical_ratio(opt, run.size))
    assert reduce(add, ratios) / len(ratios) < 1.0 / filter_acceptance_probability(P3) < 12.0


def _nested_family(kind, m):
    """One object of size M, then unit objects clear of each other and
    of tangency inside it: boxes of side 1 on a grid of spacing 1.5, or
    balls of radius 1 on a grid of spacing 3 within M - 1.5 of the
    center."""
    if kind == "boxes":
        lows = [0.25 + 1.5 * i for i in range(int((m - 1.25) // 1.5) + 1)]
        small = [HyperRectangle((x, y), (x + 1.0, y + 1.0)) for x in lows for y in lows]
        return [HyperRectangle((0.0, 0.0), (m, m))] + small
    grid = [3.0 * i for i in range(-int(m // 3), int(m // 3) + 1)]
    small = [Ball((x, y), 1.0) for x in grid for y in grid if math.hypot(x, y) <= m - 1.5]
    return [Ball((0.0, 0.0), m)] + small


def test_size_ratio_separates_first_fit_from_the_class_algorithms(tmp_path, monkeypatch):
    # The paper's separation for sizes in [1, M], d = 2: the deterministic
    # ratio zeta grows polynomially in M on this family, while drawing a
    # dyadic class keeps the expected ratio within K^d for K classes.
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    for kind, algorithm, axes in (("boxes", "hr_classify", 2), ("balls", "classify", 1)):
        separations = []
        for m in (4.0, 8.0, 16.0, 32.0):
            stream = ArrivalSequence.from_objects(_nested_family(kind, m))
            n = len(stream)
            small = n - 1
            adjacency = stream.adjacency()
            assert exact_mis(adjacency, node_limit=n).size == small
            assert independent_kissing_number(adjacency, node_limit=n).zeta == small
            first_fit = empirical_ratio(small, run_online(FirstFit(), stream).size)
            assert first_fit == small
            path = tmp_path / f"{kind}-{m}.gis"
            save_instance(stream, path)
            config = ExperimentConfig(
                algorithm=algorithm, trials=1, base_seed=1, m=m, mode="enumerate",
                instance_path=str(path), node_limit=n,
            )
            records, summary = run_experiment(config)
            k = class_count(m)
            assert len(records) == k**axes
            assert all(r.opt_size == small for r in records)
            # Enumerate mode runs every class once, so the mean is exact.
            mean = summary.mean_alg_size
            assert mean >= small / k**axes
            separations.append(first_fit / empirical_ratio(small, mean))
        assert separations == sorted(separations) and len(set(separations)) == 4


def test_first_fit_baseline_on_ball_stream():
    rng = random.Random(3)
    stream = random_unit_ball_stream(rng, 30, 10.0)
    result = run_online(FirstFit(), stream)
    adj = stream.adjacency()
    acc = set(result.accepted)
    for v in acc:
        assert not (adj[v] & acc)


def test_filter_refuses_an_arrival_whose_arithmetic_overflows():
    # Axis 1's rounding error at 1e200 squares past float range.
    filt = LatticeFilter(LatticeParams(dim=2, delta=0.01), shift=(0.0, 0.0))
    event = ArrivalEvent(7, frozenset(), Ball((1e200, 1e200), 1.0))
    with pytest.raises(UsageError, match="^arrival 7: ball center overflows the lattice arithmetic$"):
        filt.decide(event)
    assert filt.occupied == {}
