"""Property tests of the paper's guarantees on small drawn instances.

Every strategy accepts an independent set of the intersection graph as
the all-pairs scan builds it, and FirstFit's size times max(zeta, 1) is
at least the offline optimum, by the package's exact oracle and by the
reference oracle in conftest, which must agree.  The filter's covered
arrivals form one clique per lattice cell and it keeps the first of
each, and boxes of one HRClassify class have an independent kissing
number of at most 4^d.
"""

import random
from itertools import combinations, product
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from geomis import (
    ArrivalSequence,
    Classify,
    FirstFit,
    HRClassify,
    HyperRectangle,
    LatticeFilter,
    LatticeParams,
    exact_mis,
    independent_kissing_number,
    is_covered,
    parity_rounded_point,
    random_balls_gen,
    random_rects_gen,
    run_online,
    width_class_index,
)

from conftest import (
    gnp_stream,
    pairwise_intersection_graph,
    reference_exact_mis,
    reference_independent_kissing_number,
)

PROPERTY = settings(max_examples=80, deadline=None)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(2, 3)
counts = st.integers(0, 30)
spreads = st.floats(2.5, 16.0)


@st.composite
def gnp_streams(draw):
    n = draw(st.integers(0, 20))
    p = draw(st.sampled_from([0.1, 0.3, 0.5, 0.8]))
    return gnp_stream(n, p, random.Random(draw(seeds)))


@st.composite
def ball_streams(draw, m=1.0, spread=(2.0, 4.0), count=counts):
    """Balls with radii in [1, m] in a box sized so that some meet."""
    dim = draw(dims)
    side = draw(st.floats(*spread)) * m * dim
    return random_balls_gen(draw(count), dim, side, seed=draw(seeds), radius_range=(1.0, m))


@st.composite
def box_streams(draw, m):
    dim = draw(dims)
    side = draw(st.floats(1.0, 3.0)) * m * dim
    return random_rects_gen(draw(counts), dim, m, side, seed=draw(seeds))


def shape_graph(stream):
    return pairwise_intersection_graph([ev.payload for ev in stream.events])


def assert_independent(graph, result):
    accepted = set(result.accepted)
    assert all(not graph[v] & accepted for v in accepted)


def assert_firstfit_bound(graph, accepted):
    opt = exact_mis(graph)
    ikn = independent_kissing_number(graph)
    assert opt == reference_exact_mis(graph)
    assert ikn == reference_independent_kissing_number(graph)
    assert accepted * max(ikn.zeta, 1) >= opt.size


@given(stream=st.one_of(ball_streams(), ball_streams(4.0), box_streams(4.0)))
@PROPERTY
def test_firstfit_accepts_an_independent_set(stream):
    assert_independent(shape_graph(stream), run_online(FirstFit(), stream))


@given(stream=ball_streams(), seed=seeds)
@PROPERTY
def test_filter_accepts_an_independent_set_on_both_paths(stream, seed):
    params, graph = LatticeParams(stream.dim), shape_graph(stream)
    assert_independent(graph, run_online(LatticeFilter(params, seed=seed), stream))
    # The first run passed the stream, so the second reads its index.
    assert stream.cross_residues._dim == stream.dim
    assert_independent(graph, run_online(LatticeFilter(params, seed=seed + 1), stream))


@given(data=st.data(), m=spreads, seed=seeds)
@PROPERTY
def test_classify_accepts_an_independent_set(data, m, seed):
    stream = data.draw(ball_streams(m))
    assert_independent(shape_graph(stream), run_online(Classify(m, seed=seed), stream))


@given(data=st.data(), m=spreads, seed=seeds)
@PROPERTY
def test_hr_classify_accepts_an_independent_set(data, m, seed):
    stream = data.draw(box_streams(m))
    hr_classify = HRClassify(m, stream.dim, seed=seed)
    assert_independent(shape_graph(stream), run_online(hr_classify, stream))


@given(stream=gnp_streams())
@PROPERTY
def test_firstfit_times_kissing_number_bounds_opt_on_gnp(stream):
    result = run_online(FirstFit(), stream)
    graph = stream.adjacency()
    assert_independent(graph, result)
    assert_firstfit_bound(graph, result.size)


@given(stream=st.one_of(ball_streams(), ball_streams(4.0), box_streams(4.0)))
@PROPERTY
def test_firstfit_times_kissing_number_bounds_opt_on_shapes(stream):
    assert_firstfit_bound(shape_graph(stream), run_online(FirstFit(), stream).size)


# Crowded, so that a covered cell often holds two arrivals or more.
@given(stream=ball_streams(spread=(0.5, 1.5), count=st.integers(15, 30)), data=st.data())
@PROPERTY
def test_filter_cells_are_cliques_that_keep_their_first_covered_arrival(stream, data):
    # Covered arrivals under one shift meet exactly when they share the
    # cell their shifted centre rounds to, and both runs of the filter,
    # the second of which reads the stream's index, keep the first
    # covered arrival of each cell.
    params, graph = LatticeParams(stream.dim), shape_graph(stream)
    shift = [data.draw(st.floats(0.0, e, exclude_max=True)) for e in params.shift_extents()]
    cell = {}
    for ev in stream.events:
        shifted = list(map(add, ev.payload.center, shift))
        if is_covered(params, shifted):
            cell[ev.id] = parity_rounded_point(params, shifted)[1]
    for u, v in combinations(cell, 2):
        assert (cell[u] == cell[v]) == (v in graph[u])
    first = tuple(sorted({c: v for v, c in reversed(cell.items())}.values()))
    for _ in range(2):
        assert run_online(LatticeFilter(params, shift=shift), stream).accepted == first


CLASS_M = 16.0


@st.composite
def hub_streams(draw):
    """A hub box and every box of one grid that touches it, the grid's
    boxes of equal sides and pairwise 1e-3 apart on each axis: as many
    independent neighbours as boxes of those sides can give the hub.
    Per axis the grid's side is in [1.01, 1.2] and the hub's either
    below 2, in the grid's class, or in [3.2, 4), where up to 5 grid
    boxes touch the hub on that axis, so that classes twice as wide
    would break 4^d."""
    dim = draw(dims)
    sides = [draw(st.floats(1.01, 1.2)) for _ in range(dim)]
    hub = [draw(st.one_of(st.floats(1.01, 1.99), st.floats(3.2, 3.99))) for _ in range(dim)]
    starts = [
        [-t + k * (t + 1e-3) for k in range(int((h + t) // (t + 1e-3)) + 1)]
        for t, h in zip(sides, hub)
    ]
    boxes = [HyperRectangle((0.0,) * dim, hub)]
    boxes += [HyperRectangle(lo, list(map(add, lo, sides))) for lo in product(*starts)]
    return ArrivalSequence.from_objects(boxes, dim)


@given(stream=st.one_of(hub_streams(), box_streams(CLASS_M)))
@PROPERTY
def test_same_class_boxes_keep_the_kissing_number_within_4_to_the_d(stream):
    # Each class tuple's boxes, by width_class_index per side, have an
    # independent kissing number of at most 4^d, and HRClassify forced to
    # that tuple plays first-fit on exactly those boxes.
    graph = shape_graph(stream)
    classes = {}
    for ev in stream.events:
        classes.setdefault(tuple(map(width_class_index, ev.payload.sides)), []).append(ev.id)
    for key, members in classes.items():
        index = {v: i for i, v in enumerate(members)}
        group = [{index[u] for u in graph[v] if u in index} for v in members]
        assert independent_kissing_number(group, len(group)).zeta <= 4**stream.dim
        kept = []
        for v in members:
            if not graph[v].intersection(kept):
                kept.append(v)
        hr_classify = HRClassify(CLASS_M, stream.dim, forced_classes=key)
        assert run_online(hr_classify, stream).accepted == tuple(kept)
