"""Property tests of the paper's guarantees on small drawn instances.

Every strategy accepts an independent set of the intersection graph as
the all-pairs scan builds it, and FirstFit's size times max(zeta, 1) is
at least the offline optimum, by the package's exact oracle and by the
reference oracle in conftest, which must agree.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from geomis import (
    Classify,
    FirstFit,
    HRClassify,
    LatticeFilter,
    LatticeParams,
    exact_mis,
    independent_kissing_number,
    random_balls_gen,
    random_rects_gen,
    run_online,
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
def ball_streams(draw, m=1.0):
    """Balls with radii in [1, m] in a box sized so that some meet."""
    dim = draw(dims)
    side = draw(st.floats(2.0, 4.0)) * m * dim
    return random_balls_gen(draw(counts), dim, side, seed=draw(seeds), radius_range=(1.0, m))


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
    assert stream.cross_residues.candidates(stream.dim, (0.0,) * (stream.dim - 1)) is not None
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
