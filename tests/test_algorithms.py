import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomis import (
    ArrivalSequence,
    Ball,
    Classify,
    FirstFit,
    HRClassify,
    HyperRectangle,
    LatticeFilter,
    LatticeParams,
    Point,
    SizedObject,
    UsageError,
    class_count,
    filter_acceptance_probability,
    is_covered,
    lattice_point,
    run_online,
    width_class_index,
)
import geomis.algorithms
from geomis.algorithms import make_algorithm
from geomis.lattice import cross_axes_within_one
from geomis.online import ArrivalEvent

from conftest import ReferenceLatticeFilter, lattice_params, lattice_queries

P3 = LatticeParams(dim=3, delta=0.01)


def unit_ball_stream(centers):
    objs = [SizedObject(Ball(Point(tuple(c)), 1.0)) for c in centers]
    return ArrivalSequence.from_objects(objs)


def random_unit_ball_stream(rng, n, box_side, dim=3):
    centers = [[rng.uniform(0, box_side) for _ in range(dim)] for _ in range(n)]
    return unit_ball_stream(centers)


def rect_stream(rect_bounds):
    objs = [
        SizedObject(HyperRectangle(Point(tuple(lo)), Point(tuple(hi))))
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
        SizedObject(Ball(Point((0.0, 0.0)), 1.5)),
        SizedObject(Ball(Point((20.0, 0.0)), 3.0)),
        SizedObject(Ball(Point((40.0, 0.0)), 2.5)),
    ]
    stream = ArrivalSequence.from_objects(objs)
    result = run_online(Classify(8.0, forced_class=1), stream)
    assert result.accepted == (1, 2)


def test_classify_equals_first_fit_on_chosen_class():
    rng = random.Random(10)
    for _ in range(15):
        n = rng.randrange(1, 30)
        objs = [
            SizedObject(
                Ball(
                    Point((rng.uniform(0, 25), rng.uniform(0, 25))),
                    rng.uniform(1.0, 8.0),
                )
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
    low = ArrivalSequence.from_objects([SizedObject(Ball(Point((0.0,)), 0.5))])
    with pytest.raises(UsageError):
        run_online(Classify(8.0, forced_class=0), low)
    high = ArrivalSequence.from_objects([SizedObject(Ball(Point((0.0,)), 9.0))])
    with pytest.raises(UsageError):
        run_online(Classify(8.0, forced_class=0), high)


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
    dummy = ArrivalSequence.from_objects(
        [SizedObject(Ball(Point((0.0,)), 1.0))]
    )
    for seed in range(2000):
        alg = Classify(8.0, seed=seed)
        run_online(alg, dummy)
        counts[alg.chosen_class] += 1
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
    assert alg.num_classes == 9
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
                        width_class_index(s) for s in ev.payload.shape.sides
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
        assert not is_covered(P3, Point(c))
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
            center = Point(tuple(x + b for x, b in zip(ev.payload.shape.center, shift)))
            if not is_covered(P3, center):
                continue
            if not (set(ev.neighbors) & set(accepted)):
                accepted.append(ev.id)
        assert list(got.accepted) == accepted
        assert got.valid_independent


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


def test_filter_validation():
    with pytest.raises(UsageError):
        LatticeFilter(P3, shift=(0.0, 0.0))
    with pytest.raises(UsageError):
        LatticeFilter(P3, shift=(-0.1, 0.0, 0.0))
    with pytest.raises(UsageError):
        LatticeFilter(P3, shift=(0.0, 2.0 * math.sqrt(3.0), 0.0))
    non_unit = ArrivalSequence.from_objects(
        [SizedObject(Ball(Point((0.0, 0.0, 0.0)), 2.0))]
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
        ArrivalEvent(i, frozenset(), SizedObject(Ball(Point(tuple(c)), 1.0)))
        for i, c in enumerate(centres + centres)
    ]
    assert [fast.decide(ev) for ev in events] == [ref.decide(ev) for ev in events]
    assert fast.occupied == ref.occupied
    assert fast.shift == ref.shift


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_filter_accepts_at_distance_exactly_one(dim):
    # Lattice points whose coordinates, plus or minus 1 on any axis, are
    # exact in binary, so the squared distance is exactly 1.0.
    cases = [(0.01, 0), (0.5, 0), (0.5, 3), (0.5, -7)]
    for delta, a1 in cases:
        params = LatticeParams(dim=dim, delta=delta)
        base = lattice_point(params, (a1,) + (0,) * (dim - 1)).coords
        for axis in range(dim):
            for sign in (1.0, -1.0):
                centre = list(base)
                centre[axis] += sign
                assert sum((a - b) ** 2 for a, b in zip(centre, base)) == 1.0
                ball = SizedObject(Ball(Point(tuple(centre)), 1.0))
                for alg in (LatticeFilter, ReferenceLatticeFilter):
                    filt = alg(params, shift=(0.0,) * dim)
                    assert filt.decide(ArrivalEvent(0, frozenset(), ball))
                    assert filt.occupied == {(a1,) + (0,) * (dim - 1): 0}


def test_filter_builds_no_point_per_arrival(monkeypatch):
    stream = random_unit_ball_stream(random.Random(2), 200, 12.0)
    built = []
    real = Point.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Point, "__post_init__", counting)
    result = run_online(LatticeFilter(P3, seed=4), stream)
    assert result.size > 0
    assert built == []


def test_filter_rounds_only_arrivals_that_pass_the_cross_axis_pretest(monkeypatch):
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
    shifted = [
        [x + b for x, b in zip(ev.payload.shape.center.coords, fast.shift)]
        for ev in stream.events
    ]
    assert rounded == [c for c in shifted if cross_axes_within_one(c)]
    assert len(fast.occupied) <= len(rounded) < len(stream)


def test_filter_acceptance_probability_closed_forms():
    p = filter_acceptance_probability(3, 0.01)
    assert p == pytest.approx((4.0 * math.pi / 3.0) / 48.12, rel=1e-14)
    assert abs(p - 0.087049) < 1e-6
    assert filter_acceptance_probability(P3) == p
    limit = filter_acceptance_probability(3, 0.0)
    assert limit == pytest.approx(math.pi / 36.0, rel=1e-14)
    assert 1.0 / limit == pytest.approx(36.0 / math.pi, rel=1e-14)
    assert 1.0 / limit == pytest.approx(11.459, abs=5e-4)
    recip4 = 1.0 / filter_acceptance_probability(4, 0.0)
    assert recip4 == pytest.approx(192.0 * math.sqrt(3.0) / math.pi**2, rel=1e-12)
    assert abs(recip4 - 33.8) < 0.15
    with pytest.raises(UsageError):
        filter_acceptance_probability(1, 0.01)
    with pytest.raises(UsageError):
        filter_acceptance_probability(3, -0.2)


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


def test_first_fit_baseline_on_ball_stream():
    rng = random.Random(3)
    stream = random_unit_ball_stream(rng, 30, 10.0)
    result = run_online(FirstFit(), stream)
    adj = stream.adjacency()
    acc = set(result.accepted)
    for v in acc:
        assert not (adj[v] & acc)
