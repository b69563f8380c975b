import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geomis.oracle as oracle_module
from geomis import (
    ArrivalSequence,
    FirstFit,
    OracleRefusal,
    UsageError,
    empirical_ratio,
    exact_mis,
    independent_kissing_number,
    random_balls_gen,
    random_rects_gen,
    run_online,
    star_adversary,
    verify_ratio,
)

from conftest import (
    brute_mis,
    gnp_stream,
    reference_exact_mis,
    reference_independent_kissing_number,
)


def cycle(n):
    return [{(i - 1) % n, (i + 1) % n} for i in range(n)]


def clique(n):
    return [set(range(n)) - {i} for i in range(n)]


def star(leaves):
    adj = [set(range(1, leaves + 1))]
    adj.extend({0} for _ in range(leaves))
    return adj


def test_exact_mis_small_examples():
    assert exact_mis([]).size == 0
    assert exact_mis([]).witness == ()
    assert exact_mis([set()]).witness == (0,)
    k3 = exact_mis(clique(3))
    assert (k3.size, k3.witness) == (1, (0,))
    c5 = exact_mis(cycle(5))
    assert (c5.size, c5.witness) == (2, (0, 2))
    s4 = exact_mis(star(4))
    assert (s4.size, s4.witness) == (4, (1, 2, 3, 4))
    p4 = exact_mis([{1}, {0, 2}, {1, 3}, {2}])
    assert (p4.size, p4.witness) == (2, (0, 2))


def test_exact_mis_lexicographic_tiebreak():
    two_edges = [{1}, {0}, {3}, {2}]
    assert exact_mis(two_edges).witness == (0, 2)


def test_exact_mis_matches_exhaustive_enumeration():
    rng = random.Random(77)
    for trial in range(100):
        n = rng.randrange(1, 13)
        p = rng.choice([0.15, 0.35, 0.55, 0.8])
        adj = gnp_stream(n, p, rng).adjacency()
        got = exact_mis(adj)
        size, witness = brute_mis(adj)
        assert got.size == size
        assert got.witness == witness


def test_exact_mis_matches_enumeration_sizes_medium():
    rng = random.Random(88)
    for _ in range(12):
        n = rng.randrange(13, 16)
        adj = gnp_stream(n, 0.35, rng).adjacency()
        size, _ = brute_mis(adj)
        assert exact_mis(adj).size == size


def test_exact_mis_refuses_large_graphs():
    adj = [set() for _ in range(41)]
    with pytest.raises(OracleRefusal):
        exact_mis(adj)
    with pytest.raises(OracleRefusal):
        exact_mis([set() for _ in range(6)], node_limit=5)
    # At the limit it still answers.
    assert exact_mis([set() for _ in range(6)], node_limit=6).size == 6
    with pytest.raises(
        OracleRefusal, match="^neighborhood of vertex 0 has 6 vertices, above 5$"
    ):
        independent_kissing_number(star(6), node_limit=5)
    assert independent_kissing_number(star(6), node_limit=6).zeta == 6


def test_adjacency_validation():
    for oracle in (exact_mis, independent_kissing_number):
        with pytest.raises(UsageError):
            oracle([{1}, set()])  # asymmetric
        with pytest.raises(UsageError):
            oracle([{0}])  # self loop
        with pytest.raises(UsageError):
            oracle([{5}])  # out of range


@st.composite
def oracle_graphs(draw):
    """Graphs of 18 to 40 vertices, where the old bound short-circuit
    ran: G(n, p), unit or mixed balls, boxes, and disjoint 4-cycles with
    sparse random chords, on which the short-circuit also fires."""
    n = draw(st.integers(18, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["gnp", "four_cycles", "balls", "boxes"]))
    if kind == "gnp":
        p = draw(st.floats(0.05, 0.9))
        return gnp_stream(n, p, random.Random(seed)).adjacency()
    if kind == "four_cycles":
        adj = gnp_stream(n, draw(st.floats(0.0, 0.1)), random.Random(seed)).adjacency()
        for v in range(n - n % 4):
            u = v - v % 4 + (v + 1) % 4
            adj[v].add(u)
            adj[u].add(v)
        return adj
    dim = draw(st.integers(2, 3))
    box_side = draw(st.floats(6.0, 14.0)) if dim == 2 else draw(st.floats(5.0, 9.0))
    if kind == "balls":
        radius_range = draw(st.sampled_from([(1.0, 1.0), (0.5, 2.0)]))
        return random_balls_gen(n, dim, box_side, seed, radius_range).adjacency()
    return random_rects_gen(n, dim, 3.0, box_side, seed).adjacency()


@settings(max_examples=200, deadline=None)
@given(oracle_graphs())
def test_oracles_match_reference_with_bound_short_circuit(adj):
    assert exact_mis(adj) == reference_exact_mis(adj)
    assert independent_kissing_number(adj) == reference_independent_kissing_number(adj)


def test_independent_kissing_number_examples():
    empty = independent_kissing_number([])
    assert empty.zeta == 0 and empty.witness_center is None
    edgeless = independent_kissing_number([set(), set()])
    assert edgeless.zeta == 0
    k5 = independent_kissing_number(clique(5))
    assert k5.zeta == 1
    s4 = independent_kissing_number(star(4))
    assert (s4.zeta, s4.witness_center) == (4, 0)
    assert s4.witness_set == (1, 2, 3, 4)
    c5 = independent_kissing_number(cycle(5))
    assert c5.zeta == 2
    assert c5.witness_center == 0


def test_independent_kissing_witness_is_independent_within_neighborhood():
    rng = random.Random(31)
    for _ in range(30):
        adj = gnp_stream(rng.randrange(2, 18), 0.4, rng).adjacency()
        rep = independent_kissing_number(adj)
        if rep.zeta == 0:
            continue
        center = rep.witness_center
        assert set(rep.witness_set) <= adj[center]
        for a in rep.witness_set:
            for b in rep.witness_set:
                if a != b:
                    assert b not in adj[a]


def test_verify_ratio_star_outcome():
    outcome = star_adversary(5, FirstFit())
    report = verify_ratio(outcome.stream, outcome.result)
    assert report.opt_size == 5
    assert report.alg_size == 1
    assert report.ratio == 5.0
    assert report.zeta == 5
    assert report.bound_satisfied


def test_verify_ratio_empty_stream():
    stream = ArrivalSequence(events=(), dim=None)
    report = verify_ratio(stream, run_online(FirstFit(), stream))
    assert (report.opt_size, report.alg_size) == (0, 0)
    assert report.ratio == 1.0
    assert report.zeta == 0
    assert report.bound_satisfied


def test_verify_ratio_edgeless_stream():
    stream = ArrivalSequence.from_neighbor_lists([[], [], []])
    report = verify_ratio(stream, run_online(FirstFit(), stream))
    assert report.opt_size == 3 and report.alg_size == 3
    assert report.zeta == 0
    assert report.bound_satisfied


def test_verify_ratio_refusal_propagates():
    stream = ArrivalSequence.from_neighbor_lists([[] for _ in range(45)])
    with pytest.raises(
        OracleRefusal, match="^graph has 45 vertices, above the exact-search limit 40$"
    ):
        verify_ratio(stream, run_online(FirstFit(), stream))


def test_verify_ratio_answers_both_oracles_on_one_engine(monkeypatch):
    built = []

    class CountingEngine(oracle_module._MisEngine):
        def __init__(self, adj):
            built.append(len(adj))
            super().__init__(adj)

    monkeypatch.setattr(oracle_module, "_MisEngine", CountingEngine)
    rng = random.Random(2027)
    for _ in range(40):
        stream = gnp_stream(rng.randrange(1, 30), rng.choice([0.1, 0.3, 0.6]), rng)
        run = run_online(FirstFit(), stream)
        graph = stream.adjacency()
        mis = exact_mis(graph)
        zeta = independent_kissing_number(graph).zeta
        built.clear()
        report = verify_ratio(stream, run)
        assert built == [len(graph)]
        assert report.opt_size == mis.size
        assert report.alg_size == run.size
        assert report.ratio == empirical_ratio(mis.size, run.size)
        assert report.zeta == zeta
        assert report.bound_satisfied == (mis.size <= max(zeta, 1) * run.size)


def test_verify_ratio_randomized_streams_hold_bound():
    rng = random.Random(1001)
    for _ in range(25):
        stream = gnp_stream(rng.randrange(1, 18), rng.choice([0.2, 0.5]), rng)
        report = verify_ratio(stream, run_online(FirstFit(), stream))
        assert report.bound_satisfied
        assert report.opt_size <= max(report.zeta, 1) * report.alg_size
