import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomis import (
    AdversaryConfig,
    Ball,
    HyperRectangle,
    Point,
    SizedObject,
    UsageError,
    balls_intersect,
    distance,
    generate_instance,
    intersection_graph,
    objects_intersect,
    rects_intersect,
)

from conftest import pairwise_intersection_graph

finite_coord = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def test_distance_three_four_five():
    assert distance(Point((0.0, 0.0)), Point((3.0, 4.0))) == 5.0


def test_distance_requires_matching_dimension():
    with pytest.raises(UsageError):
        distance(Point((0.0,)), Point((0.0, 0.0)))


def test_point_rejects_non_finite_coordinates():
    with pytest.raises(UsageError):
        Point((0.0, float("nan")))
    with pytest.raises(UsageError):
        Point((float("inf"),))
    with pytest.raises(UsageError):
        Point(())


def test_point_iteration_and_dim():
    p = Point((1.5, 1.0))
    assert tuple(p) == (1.5, 1.0)
    assert p.dim == 2


def test_ball_requires_positive_radius():
    with pytest.raises(UsageError):
        Ball(Point((0.0,)), 0.0)
    with pytest.raises(UsageError):
        Ball(Point((0.0,)), -1.0)


def test_rect_requires_strictly_increasing_bounds():
    with pytest.raises(UsageError):
        HyperRectangle(Point((0.0, 0.0)), Point((1.0, 0.0)))
    r = HyperRectangle(Point((0.0, 0.0)), Point((2.0, 1.0)))
    assert r.sides == (2.0, 1.0)


def test_tangent_balls_intersect():
    a = Ball(Point((0.0, 0.0)), 1.0)
    b = Ball(Point((2.0, 0.0)), 1.0)
    assert balls_intersect(a, b)
    c = Ball(Point((2.0 + 1e-9, 0.0)), 1.0)
    assert not balls_intersect(a, c)


def test_rects_sharing_a_face_intersect():
    a = HyperRectangle(Point((0.0, 0.0)), Point((1.0, 1.0)))
    b = HyperRectangle(Point((1.0, 0.0)), Point((2.0, 1.0)))
    assert rects_intersect(a, b)
    c = HyperRectangle(Point((1.0 + 1e-9, 0.0)), Point((2.0, 1.0)))
    assert not rects_intersect(a, c)


def test_rects_sharing_only_a_corner_intersect():
    a = HyperRectangle(Point((0.0, 0.0)), Point((1.0, 1.0)))
    b = HyperRectangle(Point((1.0, 1.0)), Point((2.0, 2.0)))
    assert rects_intersect(a, b)


def test_mixed_kinds_rejected():
    ball = SizedObject(Ball(Point((0.0, 0.0)), 1.0))
    rect = SizedObject(HyperRectangle(Point((0.0, 0.0)), Point((1.0, 1.0))))
    with pytest.raises(UsageError):
        objects_intersect(ball, rect)


def test_sized_object_metadata_ball():
    obj = SizedObject(Ball(Point((0.0, 0.0, 0.0)), 2.5))
    assert obj.width == 2.5
    assert obj.alpha == 1.0


def test_sized_object_metadata_unit_cube():
    cube = HyperRectangle(Point((0.0, 0.0, 0.0)), Point((1.0, 1.0, 1.0)))
    obj = SizedObject(cube)
    assert obj.width == pytest.approx(0.5)
    assert obj.alpha == pytest.approx(1.0 / math.sqrt(3.0))


def test_sized_object_rejects_unknown_shape():
    with pytest.raises(UsageError):
        SizedObject(Point((0.0, 0.0)))


def test_intersection_graph_chain_of_balls():
    objs = [
        SizedObject(Ball(Point((0.0, 0.0)), 1.0)),
        SizedObject(Ball(Point((1.9, 0.0)), 1.0)),
        SizedObject(Ball(Point((3.9, 0.0)), 1.0)),
    ]
    adj = intersection_graph(objs)
    assert adj == [{1}, {0, 2}, {1}]


def test_intersection_graph_empty():
    assert intersection_graph([]) == []


@given(
    ax=finite_coord, ay=finite_coord, bx=finite_coord, by=finite_coord,
    ra=st.floats(min_value=0.1, max_value=10.0),
    rb=st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_ball_intersection_symmetric(ax, ay, bx, by, ra, rb):
    a = Ball(Point((ax, ay)), ra)
    b = Ball(Point((bx, by)), rb)
    assert balls_intersect(a, b) == balls_intersect(b, a)


@given(
    ax=finite_coord, ay=finite_coord, bx=finite_coord, by=finite_coord,
    ra=st.floats(min_value=0.1, max_value=10.0),
    rb=st.floats(min_value=0.1, max_value=10.0),
    shift=st.tuples(
        st.floats(min_value=-8.0, max_value=8.0),
        st.floats(min_value=-8.0, max_value=8.0),
    ),
)
@settings(max_examples=200, deadline=None)
def test_ball_intersection_translation_invariant(ax, ay, bx, by, ra, rb, shift):
    a = Ball(Point((ax, ay)), ra)
    b = Ball(Point((bx, by)), rb)
    a2 = Ball(Point((ax + shift[0], ay + shift[1])), ra)
    b2 = Ball(Point((bx + shift[0], by + shift[1])), rb)
    # Exact float translation can flip razor-thin tangency cases; keep clear of them.
    gap = distance(a.center, b.center) - (ra + rb)
    if abs(gap) > 1e-6:
        assert balls_intersect(a, b) == balls_intersect(a2, b2)


def _random_shapes(rng, balls, n, dim, offset):
    objs = []
    for _ in range(n):
        lo = tuple(offset + rng.uniform(-10, 10) for _ in range(dim))
        if balls:
            objs.append(SizedObject(Ball(Point(lo), rng.uniform(0.2, 3.0))))
        else:
            hi = tuple(l + rng.uniform(0.1, 6.0) for l in lo)
            objs.append(SizedObject(HyperRectangle(Point(lo), Point(hi))))
    return objs


def assert_matches_pairwise(objs):
    """The grid join equals the all-pairs scan, down to the iteration
    order of every adjacency set."""
    adj = intersection_graph(objs)
    ref = pairwise_intersection_graph(objs)
    assert adj == ref
    assert [list(s) for s in adj] == [list(s) for s in ref]
    return adj


def test_intersection_graph_matches_pairwise_predicate():
    rng = random.Random(7)
    for dim in (1, 2, 3, 4, 5, 6):
        for offset in (0.0, -1e6, 1e6, -1e15, 1e15):
            for balls in (True, False):
                for _ in range(4):
                    objs = _random_shapes(rng, balls, rng.randrange(0, 40), dim, offset)
                    assert_matches_pairwise(objs)


@pytest.mark.parametrize(
    "kind, n, dim, box_side",
    [("random_rects", 1000, 2, 100.0), ("random_balls", 2000, 3, 30.0)],
)
def test_intersection_graph_matches_pairwise_on_workload_shapes(kind, n, dim, box_side):
    config = AdversaryConfig(kind=kind, n=n, dim=dim, m=8.0, box_side=box_side, seed=5)
    stream = generate_instance(config)
    adj = assert_matches_pairwise([ev.payload for ev in stream.events])
    assert sum(map(len, adj)) > n


def test_intersection_graph_rejects_mixed_kinds_far_apart():
    ball = SizedObject(Ball(Point((0.0, 0.0)), 1.0))
    rect = SizedObject(HyperRectangle(Point((500.0, 500.0)), Point((501.0, 501.0))))
    with pytest.raises(UsageError):
        intersection_graph([ball, rect])
    with pytest.raises(UsageError):
        intersection_graph([rect, ball])


def test_intersection_graph_tangent_chains_across_cells():
    # Exactly representable positions 2 apart, so every consecutive pair
    # touches; over 1500 steps the pairs meet every phase of the grid
    # cells, and a cell side even 0.1% short of 2 would split one.
    n = 1500
    path = [{k - 1, k + 1} & set(range(n)) for k in range(n)]
    balls = [SizedObject(Ball(Point((-1e6 + 2.0 * k, 3.0)), 1.0)) for k in range(n)]
    assert intersection_graph(balls) == path
    boxes = [
        SizedObject(HyperRectangle(
            Point((2.0 * k - 7.0, 2.0 * k)), Point((2.0 * k - 5.0, 2.0 * k + 2.0))
        ))
        for k in range(n)
    ]
    assert intersection_graph(boxes) == path
    assert_matches_pairwise(balls[:40])


def _dyadic(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda k: k / 8.0)


@st.composite
def shape_lists(draw):
    """Balls or boxes in d = 1..6 on a 1/8 grid, so that tangent pairs
    are exact, shifted by an offset of 0, about +-1e6 or +-1e15 (where
    1/8 is one ulp)."""
    dim = draw(st.integers(1, 6))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6, 1e6 + 0.375, 1e15, -1e15]))
    balls = draw(st.booleans())
    n = draw(st.integers(0, 30))
    objs = []
    for _ in range(n):
        corner = [offset + draw(_dyadic(-160, 160)) for _ in range(dim)]
        if balls:
            radius = draw(_dyadic(1, 40))
            objs.append(SizedObject(Ball(Point(tuple(corner)), radius)))
            if draw(st.booleans()):
                # An exactly tangent partner along one axis.
                axis = draw(st.integers(0, dim - 1))
                other = draw(_dyadic(1, 40))
                corner[axis] += radius + other
                objs.append(SizedObject(Ball(Point(tuple(corner)), other)))
        else:
            sides = [draw(_dyadic(1, 64)) for _ in range(dim)]
            hi = [c + s for c, s in zip(corner, sides)]
            objs.append(SizedObject(HyperRectangle(Point(tuple(corner)), Point(tuple(hi)))))
            if draw(st.booleans()):
                # A partner whose lower corner sits on this box's upper corner.
                far = [u + draw(_dyadic(1, 64)) for u in hi]
                partner = HyperRectangle(Point(tuple(hi)), Point(tuple(far)))
                objs.append(SizedObject(partner))
    return draw(st.permutations(objs))


@given(objs=shape_lists())
@settings(max_examples=150, deadline=None)
def test_intersection_graph_equals_pairwise_reference(objs):
    assert_matches_pairwise(objs)


def test_intersection_graph_in_high_dimension():
    # 3^24 neighbour cells could never be listed; the grid scans its
    # occupied cells instead.  A long axis per ball, one of three,
    # spreads the balls over cells 3 wide, with touching pairs in the
    # same cell and across cell borders.
    rng = random.Random(5)
    dim, n = 24, 25
    balls = []
    for _ in range(n):
        center = [rng.uniform(0.0, 0.3) for _ in range(dim)]
        center[rng.randrange(3)] = rng.uniform(0.0, 9.0)
        balls.append(SizedObject(Ball(Point(tuple(center)), rng.uniform(0.5, 1.5))))
    adj = assert_matches_pairwise(balls)
    edges = sum(map(len, adj)) // 2
    assert 0 < edges < n * (n - 1) // 2
