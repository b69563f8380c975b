import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geomis.oracle as oracle_module
from geomis import (
    AdversaryConfig,
    ArrivalSequence,
    ExperimentConfig,
    FirstFit,
    MisResult,
    OracleRefusal,
    UsageError,
    empirical_ratio,
    exact_mis,
    generate_instance,
    independent_kissing_number,
    random_balls_gen,
    random_rects_gen,
    run_experiment,
    run_online,
    save_instance,
    star_adversary,
    verify_ratio,
)
from geomis.cli import cli_dispatch

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
        with pytest.raises(UsageError, match="^vertex 0 lists a non-integer neighbor in"):
            oracle([{1.0}, {0}])


@pytest.mark.parametrize("oracle", [exact_mis, independent_kissing_number])
@pytest.mark.parametrize(
    "graph, text",
    [
        ([{1}], "vertex 0 lists out-of-range neighbor 1"),
        ([set(), {0, 2}], "vertex 1 lists out-of-range neighbor 2"),
        ([{-1}], "vertex 0 lists out-of-range neighbor -1"),
        ([set(), {1}], "vertex 1 lists itself as a neighbor"),
        ([set(), {True}], "vertex 1 lists itself as a neighbor"),
        ([{1}, set()], "edge 0-1 is not symmetric"),
        ([set(), {2}, {0, 1}], "edge 2-0 is not symmetric"),
        # A repeated neighbor counts once, whatever the container.
        ([[1, 1], [], [0]], "edge 0-1 is not symmetric"),
        # Range and self loops are checked on every vertex before symmetry.
        ([{1}, set(), {5}], "vertex 2 lists out-of-range neighbor 5"),
        ([{1}, set(), {2}], "vertex 2 lists itself as a neighbor"),
        ([{1.0}, {0}], "vertex 0 lists a non-integer neighbor in {1.0}"),
        ([set(), {"a"}], "vertex 1 lists a non-integer neighbor in {'a'}"),
        ([{1}, None], "vertex 1 lists a non-integer neighbor in None"),
    ],
)
def test_adjacency_validation_names_the_first_offence(oracle, graph, text):
    with pytest.raises(UsageError) as caught:
        oracle(graph)
    assert str(caught.value) == text


def test_adjacency_validation_takes_true_repeats_and_iterators():
    # Three listings of 1 sum to the bits of 1 and 2 in the fast check,
    # where only the bit count tells them from a real edge 0-2.
    cases = [([{True}, {0}], (0,)), ([[1, 1], [0]], (0,)), ([[1, 1, 1], [0], []], (0, 2))]
    for graph, mis in cases:
        assert exact_mis(graph) == MisResult(len(mis), mis)
        ikn = independent_kissing_number(graph)
        assert (ikn.zeta, ikn.witness_center, ikn.witness_set) == (1, 0, (1,))
    # Neighbors listed by one-shot iterators are read once.
    assert exact_mis([iter([1, 2]), iter([0]), iter([0])]) == MisResult(2, (1, 2))


def test_node_limit_zero():
    assert exact_mis([], node_limit=0) == MisResult(0, ())
    with pytest.raises(
        OracleRefusal, match="^graph has 1 vertices, above the exact-search limit 0$"
    ):
        exact_mis([set()], node_limit=0)
    assert independent_kissing_number([set(), set()], node_limit=0).zeta == 0
    with pytest.raises(
        OracleRefusal, match="^neighborhood of vertex 0 has 1 vertices, above 0$"
    ):
        independent_kissing_number(star(1), node_limit=0)
    for oracle in (exact_mis, independent_kissing_number):
        with pytest.raises(UsageError, match="^node_limit must be >= 0, got -1$"):
            oracle([], node_limit=-1)


def disconnected_graph(sizes, p, rng):
    """Union of connected G(n, p) pieces of the given sizes, each made
    connected by a random spanning tree, with the vertex labels shuffled
    so that the components interleave in vertex order."""
    labels = list(range(sum(sizes)))
    rng.shuffle(labels)
    adj = [set() for _ in labels]
    start = 0
    for size in sizes:
        piece = labels[start:start + size]
        start += size
        for i in range(1, size):
            for j in [rng.randrange(i)] + [j for j in range(i) if rng.random() < p]:
                adj[piece[i]].add(piece[j])
                adj[piece[j]].add(piece[i])
    return adj


def relabelled(adj, rng):
    """adj with its vertex labels shuffled."""
    labels = list(range(len(adj)))
    rng.shuffle(labels)
    out = [set() for _ in adj]
    for v, nbrs in enumerate(adj):
        out[labels[v]] = {labels[u] for u in nbrs}
    return out


def twins_graph(n, p, rng):
    """G(n - n // 2, p) with each of its first n // 2 vertices doubled
    into true twins: two adjacent vertices with one closed neighborhood."""
    base = gnp_stream(n - n // 2, p, rng).adjacency()
    owner = list(range(len(base))) + list(range(n // 2))
    adj = [
        {u for u in range(n) if u != v and (owner[u] == owner[v] or owner[u] in base[owner[v]])}
        for v in range(n)
    ]
    return relabelled(adj, rng)


def clique_pendants_graph(n, p, rng):
    """A G(n // 3, p) core, then cliques of 1 to 7 vertices up to n
    vertices in all.  One hinge vertex of each clique is joined to 0 to
    2 earlier vertices, so the clique's other vertices are simplicial,
    of degree 0 to 6."""
    adj = [set(nbrs) for nbrs in gnp_stream(max(n // 3, 1), p, rng).adjacency()]
    while len(adj) < n:
        start = len(adj)
        members = range(start, min(start + rng.randint(1, 7), n))
        adj.extend(set(members) - {v} for v in members)
        for u in rng.sample(range(start), min(rng.randint(0, 2), start)):
            adj[start].add(u)
            adj[u].add(start)
    return relabelled(adj, rng)


def multipartite_graph(n, parts, keep, rng):
    """Complete multipartite graph on n vertices in up to `parts` parts,
    each edge between parts kept with probability keep."""
    part = [rng.randrange(parts) for _ in range(n)]
    adj = [set() for _ in range(n)]
    for v in range(n):
        for u in range(v):
            if part[u] != part[v] and rng.random() < keep:
                adj[v].add(u)
                adj[u].add(v)
    return adj


@st.composite
def oracle_graphs(draw):
    """Graphs of 18 to 40 vertices: G(n, p), unit or mixed balls, unit
    balls crowded into a small box, boxes, disjoint 4-cycles with sparse
    random chords, unions of 2 to 5 connected components whose vertices
    interleave, and graphs where the engine's reductions fire or nearly
    fire: true twins, cliques with simplicial vertices of degree 0 to 6,
    and complete multipartite graphs with a few edges dropped."""
    n = draw(st.integers(18, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from([
        "gnp", "four_cycles", "balls", "small_box_balls", "boxes", "disconnected",
        "twins", "clique_pendants", "multipartite",
    ]))
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
    if kind == "disconnected":
        rng = random.Random(seed)
        cuts = sorted(rng.sample(range(1, n), draw(st.integers(2, 5)) - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        return disconnected_graph(sizes, draw(st.floats(0.05, 0.6)), rng)
    if kind == "twins":
        return twins_graph(n, draw(st.floats(0.05, 0.6)), random.Random(seed))
    if kind == "clique_pendants":
        return clique_pendants_graph(n, draw(st.floats(0.05, 0.5)), random.Random(seed))
    if kind == "multipartite":
        parts = draw(st.integers(2, 8))
        keep = draw(st.sampled_from([1.0, 0.95, 0.8]))
        return multipartite_graph(n, parts, keep, random.Random(seed))
    dim = draw(st.integers(2, 3))
    if kind == "small_box_balls":
        box_side = draw(st.floats(2.0, 5.0)) if dim == 2 else draw(st.floats(2.0, 4.0))
        return random_balls_gen(n, dim, box_side, seed).adjacency()
    box_side = draw(st.floats(6.0, 14.0)) if dim == 2 else draw(st.floats(5.0, 9.0))
    if kind == "balls":
        radius_range = draw(st.sampled_from([(1.0, 1.0), (0.5, 2.0)]))
        return random_balls_gen(n, dim, box_side, seed, radius_range).adjacency()
    return random_rects_gen(n, dim, 3.0, box_side, seed).adjacency()


def components(adj):
    seen, found = set(), []
    for root in range(len(adj)):
        if root not in seen:
            seen.add(root)
            stack, comp = [root], {root}
            while stack:
                for u in adj[stack.pop()] - seen:
                    seen.add(u)
                    comp.add(u)
                    stack.append(u)
            found.append(comp)
    return found


def simplicial_degrees(adj):
    return {
        len(nbrs) for nbrs in adj
        if all(nbrs - {u} <= adj[u] for u in nbrs)
    }


def test_reduction_graphs_have_their_shape():
    rng = random.Random(5)
    adj = twins_graph(21, 0.3, rng)
    closed = [frozenset(nbrs | {v}) for v, nbrs in enumerate(adj)]
    assert sum(closed.count(c) >= 2 for c in closed) >= 20
    degrees = set()
    for _ in range(20):
        degrees |= simplicial_degrees(clique_pendants_graph(40, 0.2, rng))
    assert degrees >= set(range(7))
    adj = multipartite_graph(30, 4, 1.0, rng)
    # Non-adjacency is an equivalence: the parts.
    parts = {frozenset(set(range(30)) - nbrs) for nbrs in adj}
    assert sum(map(len, parts)) == 30 and len(parts) <= 4


def test_disconnected_graphs_interleave_their_components():
    adj = disconnected_graph([5, 7, 1, 9], 0.2, random.Random(3))
    comps = components(adj)
    assert sorted(map(len, comps)) == [1, 5, 7, 9]
    assert any(min(a) < min(b) < max(a) for a in comps for b in comps)


@settings(max_examples=200, deadline=None)
@given(oracle_graphs())
def test_oracles_match_reference_on_connected_and_disconnected_graphs(adj):
    assert exact_mis(adj) == reference_exact_mis(adj)
    assert independent_kissing_number(adj) == reference_independent_kissing_number(adj)


@settings(max_examples=50, deadline=None)
@given(oracle_graphs())
def test_verify_ratio_matches_reference(adj):
    stream = ArrivalSequence.from_neighbor_lists(
        [[u for u in nbrs if u < v] for v, nbrs in enumerate(adj)]
    )
    report = verify_ratio(stream, run_online(FirstFit(), stream))
    assert report.opt_size == reference_exact_mis(adj).size
    assert report.zeta == reference_independent_kissing_number(adj).zeta


@pytest.fixture
def witness_builds(monkeypatch):
    """Masks that _MisEngine.witness is asked for, in call order."""
    masks = []
    real = oracle_module._MisEngine.witness

    def counting(self, mask):
        masks.append(mask)
        return real(self, mask)

    monkeypatch.setattr(oracle_module._MisEngine, "witness", counting)
    return masks


def test_exact_mis_builds_its_witness_once_when_read(witness_builds):
    adj = disconnected_graph([6, 4, 8], 0.3, random.Random(11))
    result = exact_mis(adj)
    assert result.size == reference_exact_mis(adj).size
    assert witness_builds == []
    first = result.witness
    assert result.witness == first == reference_exact_mis(adj).witness
    assert witness_builds == [(1 << len(adj)) - 1]
    assert result._engine is None


README_BALLS = {"kind": "random_balls", "n": 80, "dim": 3, "box_side": 8.0, "seed": 5}


def test_scoring_builds_no_witness(tmp_path, monkeypatch, capsys, witness_builds):
    monkeypatch.setenv("GEOMIS_THREADS", "1")
    config = ExperimentConfig(
        algorithm="filter", trials=50, base_seed=42,
        generator=AdversaryConfig(**README_BALLS), node_limit=100,
    )
    records, _ = run_experiment(config)
    assert {r.opt_size for r in records} == {34}
    instance = tmp_path / "balls.gis"
    save_instance(generate_instance(AdversaryConfig(**README_BALLS)), instance)
    argv = ["oracle", "--what", "mis", "--in", str(instance), "--node-limit", "100"]
    assert cli_dispatch(argv) == 0
    assert capsys.readouterr().out == "34\n"
    assert witness_builds == []


def test_readme_balls_solve_in_few_branches(monkeypatch):
    branched = []
    real = oracle_module._MisEngine._branch

    def counting(self, m):
        branched.append(m)
        return real(self, m)

    monkeypatch.setattr(oracle_module._MisEngine, "_branch", counting)
    graph = generate_instance(AdversaryConfig(**README_BALLS)).adjacency()
    result = exact_mis(graph, node_limit=100)
    # Peeling simplicial vertices leaves little to branch on (the
    # degree-0/1 peel alone branched 68 times here).
    assert result.size == 34 and len(branched) <= 10
    assert result == reference_exact_mis(graph, node_limit=100)


def test_kissing_number_builds_one_witness_and_ratio_none(witness_builds):
    # Disjoint stars with 1, 2 and 3 leaves, each center listed before
    # its leaves, so zeta improves three times: at vertices 0, 2 and 5.
    adj = [set() for _ in range(9)]
    for center, leaves in ((0, [1]), (2, [3, 4]), (5, [6, 7, 8])):
        for leaf in leaves:
            adj[center].add(leaf)
            adj[leaf].add(center)
    stream = ArrivalSequence.from_neighbor_lists(
        [[u for u in adj[v] if u < v] for v in range(len(adj))]
    )
    report = verify_ratio(stream, run_online(FirstFit(), stream))
    assert report.zeta == 3
    assert witness_builds == []
    ikn = independent_kissing_number(adj)
    assert ikn == reference_independent_kissing_number(adj)
    assert (ikn.zeta, ikn.witness_center, ikn.witness_set) == (3, 5, (6, 7, 8))
    assert witness_builds == [0b111000000]


def test_mis_result_built_from_a_witness_keeps_equality_and_repr():
    built = MisResult(size=2, witness=(0, 2))
    assert built == MisResult(2, (0, 2)) == exact_mis(cycle(5))
    assert built != MisResult(size=2, witness=(1, 3))
    assert hash(built) == hash(exact_mis(cycle(5)))
    assert repr(built) == "MisResult(size=2, witness=(0, 2))"
    assert repr(exact_mis(cycle(5))) == repr(built)


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
