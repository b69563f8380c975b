import math
import os
import random
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geomis
from geomis import (
    AdversaryConfig,
    Ball,
    HyperRectangle,
    ArrivalSequence,
    UsageError,
    generate_instance,
    intersection_graph,
    save_instance,
)
from geomis.geometry import _boxes_meet

from conftest import _closed_shapes_meet, pairwise_intersection_graph

finite_coord = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def meet(a, b) -> bool:
    """Whether intersection_graph joins the pair a, b."""
    return intersection_graph([a, b]) == [{1}, {0}]


def test_shapes_from_any_coordinate_sequence_are_equal(tmp_path):
    balls = [Ball((0, 1), 2), Ball([0.0, 1.0], 2.0), Ball((0.0, 1.0), 2.0)]
    boxes = [
        HyperRectangle((0, 1), (2, 3)),
        HyperRectangle([0.0, 1.0], [2.0, 3.0]),
        HyperRectangle((0.0, 1.0), (2.0, 3.0)),
    ]
    expected = [
        "geomis-instance v1\ndim 2\nball 0.0 1.0 2.0\n",
        "geomis-instance v1\ndim 2\nrect 0.0 2.0 1.0 3.0\n",
    ]
    for shapes, text in zip((balls, boxes), expected):
        assert all(shape == shapes[0] for shape in shapes)
        assert len({hash(shape) for shape in shapes}) == 1
        for shape in shapes:
            path = tmp_path / "one.gis"
            save_instance(ArrivalSequence.from_objects([shape]), path)
            assert path.read_bytes() == text.encode()


def test_point_iteration_and_dim():
    ball = Ball((1.5, 1), 2.0)
    box = HyperRectangle([0, 1.0, 2], (3.0, 4, 5.5))
    for coords, values in [
        (ball.center, (1.5, 1.0)),
        (box.lo, (0.0, 1.0, 2.0)),
        (box.hi, (3.0, 4.0, 5.5)),
    ]:
        assert type(coords) is tuple and all(type(x) is float for x in coords)
        assert tuple(iter(coords)) == values
    assert ball.dim == 2
    assert box.dim == 3


def test_point_rejects_non_finite_coordinates():
    nan, inf = float("nan"), float("inf")
    for build, message in [
        (lambda: Ball((), 1.0), "point needs at least one coordinate"),
        (lambda: Ball((0.0, nan), 1.0), "non-finite coordinate in (0.0, nan)"),
        (lambda: Ball([inf], 1.0), "non-finite coordinate in (inf,)"),
        (lambda: HyperRectangle((), ()), "point needs at least one coordinate"),
        (lambda: HyperRectangle((0.0, -inf), (1.0, 1.0)), "non-finite coordinate in (0.0, -inf)"),
        (lambda: HyperRectangle((0.0, 0.0), (1.0, nan)), "non-finite coordinate in (1.0, nan)"),
        (lambda: HyperRectangle((0.0,), (1.0, 1.0)), "corner dimension mismatch"),
        (lambda: HyperRectangle((0.0, 0.0), (1.0,)), "corner dimension mismatch"),
    ]:
        with pytest.raises(UsageError) as info:
            build()
        assert str(info.value) == message


def test_ball_requires_positive_radius():
    with pytest.raises(UsageError):
        Ball((0.0,), 0.0)
    with pytest.raises(UsageError):
        Ball((0.0,), -1.0)


def test_rect_requires_strictly_increasing_bounds():
    with pytest.raises(UsageError):
        HyperRectangle((0.0, 0.0), (1.0, 0.0))
    r = HyperRectangle((0.0, 0.0), (2.0, 1.0))
    assert r.sides == (2.0, 1.0)


@pytest.mark.parametrize("lo, hi, message", [
    # A middle axis is the first bad one; the last is bad too.
    ((0.0, 0.0, 0.0), (1.0, 0.0, -1.0), "degenerate box: lo[1]=0.0 must be < hi[1]=0.0"),
    ((0.0, 0.0, 0.0), (1.0, 1.0, -1.5), "degenerate box: lo[2]=0.0 must be < hi[2]=-1.5"),
    ((2.0, 0.0), (1.0, 0.0), "degenerate box: lo[0]=2.0 must be < hi[0]=1.0"),
])
def test_degenerate_box_names_its_first_bad_axis(lo, hi, message):
    with pytest.raises(UsageError) as excinfo:
        HyperRectangle(lo, hi)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("b_first", [False, True])
def test_boxes_touching_on_one_axis_meet(dim, b_first):
    # a and b overlap strictly on every axis but one, where lo_b == hi_a;
    # each axis, first, middle or last, is the touching one in turn, and
    # either box may come first in the list.
    a = HyperRectangle((0.0,) * dim, (1.0,) * dim)
    for axis in range(dim):
        for lo_b, expected in ((1.0, [{1}, {0}]), (math.nextafter(1.0, 2.0), [set(), set()])):
            lo = [0.5] * dim
            hi = [1.5] * dim
            lo[axis], hi[axis] = lo_b, 2.0
            b = HyperRectangle(lo, hi)
            pair = [b, a] if b_first else [a, b]
            assert intersection_graph(pair) == expected, (axis, lo_b)
            assert pairwise_intersection_graph(pair) == expected, (axis, lo_b)
            # The join decides this pair in one argument order only.
            p, q = pair
            assert _boxes_meet(p.lo, p.hi, q.lo, q.hi) == (expected[0] == {1}), (axis, lo_b)


def test_tangent_balls_intersect():
    a = Ball((0.0, 0.0), 1.0)
    b = Ball((2.0, 0.0), 1.0)
    assert meet(a, b)
    c = Ball((2.0 + 1e-9, 0.0), 1.0)
    assert not meet(a, c)


def test_rects_sharing_a_face_intersect():
    a = HyperRectangle((0.0, 0.0), (1.0, 1.0))
    b = HyperRectangle((1.0, 0.0), (2.0, 1.0))
    assert meet(a, b)
    c = HyperRectangle((1.0 + 1e-9, 0.0), (2.0, 1.0))
    assert not meet(a, c)


def test_rects_sharing_only_a_corner_intersect():
    a = HyperRectangle((0.0, 0.0), (1.0, 1.0))
    b = HyperRectangle((1.0, 1.0), (2.0, 2.0))
    assert meet(a, b)


def test_mixed_kinds_rejected():
    ball = Ball((0.0, 0.0), 1.0)
    rect = HyperRectangle((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(UsageError):
        intersection_graph([ball, rect])
    with pytest.raises(UsageError):
        intersection_graph([rect, ball])


def test_ball_width_is_its_radius():
    assert Ball((0.0, 0.0, 0.0), 2.5).width == 2.5


def test_box_width_is_half_its_minimum_side():
    box = HyperRectangle((0.0, 0.0, 0.0), (1.0, 3.0, 2.0))
    assert box.width == 0.5


def test_from_objects_rejects_unknown_shape():
    ball = Ball((0.0, 0.0), 1.0)
    for objects in ([(0.0, 0.0)], [ball, (5.0, 5.0)]):
        with pytest.raises(UsageError, match="^unsupported shape type tuple$"):
            ArrivalSequence.from_objects(objects)


def test_intersection_graph_chain_of_balls():
    objs = [
        Ball((0.0, 0.0), 1.0),
        Ball((1.9, 0.0), 1.0),
        Ball((3.9, 0.0), 1.0),
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
    a = Ball((ax, ay), ra)
    b = Ball((bx, by), rb)
    assert meet(a, b) == meet(b, a) == _closed_shapes_meet(a, b)


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
    a = Ball((ax, ay), ra)
    b = Ball((bx, by), rb)
    a2 = Ball((ax + shift[0], ay + shift[1]), ra)
    b2 = Ball((bx + shift[0], by + shift[1]), rb)
    # Exact float translation can flip razor-thin tangency cases; keep clear of them.
    gap = math.dist(a.center, b.center) - (ra + rb)
    if abs(gap) > 1e-6:
        assert meet(a, b) == meet(a2, b2)


def _random_shapes(rng, balls, n, dim, offset):
    objs = []
    for _ in range(n):
        lo = tuple(offset + rng.uniform(-10, 10) for _ in range(dim))
        if balls:
            objs.append(Ball(lo, rng.uniform(0.2, 3.0)))
        else:
            hi = tuple(l + rng.uniform(0.1, 6.0) for l in lo)
            objs.append(HyperRectangle(lo, hi))
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


@pytest.mark.parametrize("objects", [
    [Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0), 1.0), Ball((9.0, 0.0, 0.0), 1.0)],
    [HyperRectangle((0.0, 0.0), (1.0, 1.0)), HyperRectangle((0.0, 0.0), (1.0, 1.0)),
     HyperRectangle((5.0, 5.0, 5.0), (6.0, 6.0, 6.0))],
])
def test_intersection_graph_refuses_objects_of_two_dims(objects):
    with pytest.raises(UsageError) as err:
        intersection_graph(objects)
    assert str(err.value) == "object 2 has dim 3, expected 2"


def test_intersection_graph_rejects_mixed_kinds_far_apart():
    ball = Ball((0.0, 0.0), 1.0)
    rect = HyperRectangle((500.0, 500.0), (501.0, 501.0))
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
    balls = [Ball((-1e6 + 2.0 * k, 3.0), 1.0) for k in range(n)]
    assert intersection_graph(balls) == path
    boxes = [
        HyperRectangle(
            (2.0 * k - 7.0, 2.0 * k), (2.0 * k - 5.0, 2.0 * k + 2.0)
        )
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
            objs.append(Ball(tuple(corner), radius))
            if draw(st.booleans()):
                # An exactly tangent partner along one axis.
                axis = draw(st.integers(0, dim - 1))
                other = draw(_dyadic(1, 40))
                corner[axis] += radius + other
                objs.append(Ball(tuple(corner), other))
        else:
            sides = [draw(_dyadic(1, 64)) for _ in range(dim)]
            hi = [c + s for c, s in zip(corner, sides)]
            objs.append(HyperRectangle(tuple(corner), tuple(hi)))
            if draw(st.booleans()):
                # A partner whose lower corner sits on this box's upper corner.
                far = [u + draw(_dyadic(1, 64)) for u in hi]
                partner = HyperRectangle(tuple(hi), tuple(far))
                objs.append(partner)
    return draw(st.permutations(objs))


@given(objs=shape_lists())
@settings(max_examples=150, deadline=None)
def test_intersection_graph_equals_pairwise_reference(objs):
    assert_matches_pairwise(objs)


def test_intersection_graph_in_high_dimension():
    # 3^24 neighbour cells could never be listed; the grid keys only the
    # first three axes, so it lists 27.  A long axis per ball, one of
    # those three, spreads the balls over cells 3 wide, with touching
    # pairs in the same cell and across cell borders.
    rng = random.Random(5)
    dim, n = 24, 25
    balls = []
    for _ in range(n):
        center = [rng.uniform(0.0, 0.3) for _ in range(dim)]
        center[rng.randrange(3)] = rng.uniform(0.0, 9.0)
        balls.append(Ball(tuple(center), rng.uniform(0.5, 1.5)))
    adj = assert_matches_pairwise(balls)
    edges = sum(map(len, adj)) // 2
    assert 0 < edges < n * (n - 1) // 2


@st.composite
def skewed_box_lists(draw):
    """Boxes in d = 1..6 on a 1/8 grid, offset by 0, about +-1e6 or
    +-1e15, for the sorted-cell box join:
    - sides of 1/8 to 1, and one side of 64, so that cells are far wider
      than a typical box and crowded;
    - lower corners on axis 0 drawn from at most four values, so that
      many are equal;
    - partners whose lo[0] is another box's hi[0], overlapping it on the
      other axes, so they touch on axis 0 alone; at offsets 0 and +-1e6 a
      cell border lies among the corners, and many such contacts cross
      it."""
    dim = draw(st.integers(1, 6))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6, 1e15, -1e15]))
    firsts = draw(st.lists(_dyadic(-80, 80), min_size=1, max_size=4))
    objs = []
    for _ in range(draw(st.integers(1, 30))):
        lo = [draw(st.sampled_from(firsts))] + [draw(_dyadic(-80, 80)) for _ in range(dim - 1)]
        lo = [offset + x for x in lo]
        hi = [x + draw(_dyadic(1, 8)) for x in lo]
        objs.append((lo, hi))
        if draw(st.booleans()):
            objs.append(([hi[0]] + lo[1:], [hi[0] + draw(_dyadic(1, 8))] + hi[1:]))
    big = objs[draw(st.integers(0, len(objs) - 1))]
    axis = draw(st.integers(0, dim - 1))
    big[1][axis] = big[0][axis] + 64.0
    boxes = [HyperRectangle(lo, hi) for lo, hi in objs]
    return draw(st.permutations(boxes))


@given(objs=skewed_box_lists())
@settings(max_examples=150, deadline=None)
def test_box_join_equals_pairwise_reference_on_skewed_sizes(objs):
    assert_matches_pairwise(objs)


def test_intersection_graph_in_dimension_30_lists_no_offsets():
    # 3^30 neighbour offsets can be neither listed nor stored, so the
    # join runs in a child with 256 MiB of address space and 15 s: a grid
    # that listed them fails fast instead of hanging the suite.  Boxes 0
    # and 1 touch at a corner; box 2 sits in an adjacent cell and meets
    # neither.
    code = textwrap.dedent("""
        from geomis import HyperRectangle, intersection_graph
        d = 30
        print(intersection_graph([
            HyperRectangle([0.0] * d, [1.0] * d),
            HyperRectangle([1.0] * d, [2.5] * d),
            HyperRectangle([0.5] + [2.6] * (d - 1), [0.75] + [3.0] * (d - 1)),
        ]))
    """)
    src = str(Path(geomis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    limit = 1 << 28
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=15,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[{1}, {0}, set()]\n"
