import math
import random

import pytest

from geomis import (
    AdversaryConfig,
    FirstFit,
    UsageError,
    empirical_ratio,
    exact_mis,
    generate_instance,
    independent_kissing_number,
    level_graph_gen,
    random_balls_gen,
    random_rects_gen,
    run_online,
    star_adversary,
)
from geomis.adversaries import LEVELS_ZETA_LIMIT
from geomis.oracle import OracleRefusal

from conftest import (
    RejectAll,
    pairwise_intersection_graph,
    reference_random_balls,
    reference_random_rects,
)


def test_star_against_greedy():
    for zeta in range(1, 7):
        outcome = star_adversary(zeta, FirstFit())
        assert len(outcome.stream) == zeta + 1
        assert outcome.result.accepted == (0,)
        assert outcome.opt_size == zeta
        assert empirical_ratio(outcome.opt_size, outcome.result.size) == float(zeta)
        rep = independent_kissing_number(outcome.stream.adjacency())
        assert rep.zeta <= zeta


def test_star_against_rejector():
    outcome = star_adversary(4, RejectAll())
    assert len(outcome.stream) == 1
    assert outcome.result.accepted == ()
    assert outcome.opt_size == 1
    assert empirical_ratio(outcome.opt_size, outcome.result.size) == math.inf


def test_star_rejects_bad_zeta():
    with pytest.raises(UsageError):
        star_adversary(0, FirstFit())


def test_level_graph_unit_case():
    stream = level_graph_gen(1, seed=0)
    assert len(stream) == 2
    assert all(not ev.neighbors for ev in stream.events)
    assert exact_mis(stream.adjacency()).size == 2


def test_level_graph_structure():
    for zeta in (2, 3, 5):
        for seed in range(10):
            stream = level_graph_gen(zeta, seed=seed)
            assert len(stream) == 2 * zeta
            adj = stream.adjacency()
            for level in range(1, zeta + 1):
                left, right = 2 * (level - 1), 2 * (level - 1) + 1
                ev_l, ev_r = stream.events[left], stream.events[right]
                # siblings share their backward neighborhood and are not adjacent
                assert ev_l.neighbors == ev_r.neighbors
                assert right not in adj[left]
                # exactly one ancestor per earlier level
                levels_hit = sorted(v // 2 for v in ev_l.neighbors)
                assert levels_hit == list(range(level - 1))
            assert exact_mis(adj).size >= zeta + 1
            assert independent_kissing_number(adj).zeta <= zeta
            assert run_online(FirstFit(), stream).accepted == (0, 1)


def test_level_graph_seeded_determinism():
    a = level_graph_gen(6, seed=42)
    b = level_graph_gen(6, seed=42)
    assert a == b
    variants = {level_graph_gen(6, seed=s) for s in range(20)}
    assert len(variants) > 1


def test_level_graph_rejects_bad_zeta():
    with pytest.raises(UsageError):
        level_graph_gen(0)


def test_random_balls_properties():
    stream = random_balls_gen(25, dim=3, box_side=10.0, seed=7)
    assert len(stream) == 25
    assert stream.dim == 3
    for ev in stream.events:
        ball = ev.payload.shape
        assert ball.radius == 1.0
        assert all(0.0 <= x <= 10.0 for x in ball.center.coords)
    # no near-tangent pair
    for i, ei in enumerate(stream.events):
        for ej in stream.events[:i]:
            d = math.dist(tuple(ei.payload.shape.center), tuple(ej.payload.shape.center))
            gap = d - (ei.payload.shape.radius + ej.payload.shape.radius)
            assert abs(gap) > 1e-6
    assert random_balls_gen(25, dim=3, box_side=10.0, seed=7) == stream
    assert random_balls_gen(25, dim=3, box_side=10.0, seed=8) != stream


def test_random_balls_radius_range():
    stream = random_balls_gen(15, dim=2, box_side=30.0, seed=3, radius_range=(1.0, 8.0))
    radii = [ev.payload.shape.radius for ev in stream.events]
    assert all(1.0 <= r <= 8.0 for r in radii)
    assert max(radii) > min(radii)
    with pytest.raises(UsageError):
        random_balls_gen(5, dim=2, box_side=10.0, seed=0, radius_range=(0.0, 1.0))
    with pytest.raises(UsageError):
        random_balls_gen(5, dim=2, box_side=10.0, seed=0, radius_range=(3.0, 2.0))


def test_random_rects_properties():
    stream = random_rects_gen(20, dim=2, m=5.0, box_side=25.0, seed=11)
    assert len(stream) == 20
    for ev in stream.events:
        for s in ev.payload.shape.sides:
            assert 1.0 <= s <= 5.0
    assert random_rects_gen(20, dim=2, m=5.0, box_side=25.0, seed=11) == stream


def test_generator_input_validation():
    with pytest.raises(UsageError):
        random_balls_gen(-1, dim=3, box_side=10.0)
    with pytest.raises(UsageError):
        random_balls_gen(5, dim=0, box_side=10.0)
    with pytest.raises(UsageError):
        random_rects_gen(5, dim=2, m=0.5, box_side=10.0)
    with pytest.raises(UsageError):
        random_rects_gen(5, dim=2, m=5.0, box_side=-1.0)


def test_generate_instance_dispatch():
    levels = generate_instance(AdversaryConfig(kind="levels", zeta=4, seed=9))
    assert levels == level_graph_gen(4, seed=9)
    balls = generate_instance(
        AdversaryConfig(kind="random_balls", n=10, dim=3, box_side=8.0, seed=2)
    )
    assert balls == random_balls_gen(10, dim=3, box_side=8.0, seed=2)
    rects = generate_instance(
        AdversaryConfig(kind="random_rects", n=8, dim=2, m=5.0, box_side=20.0, seed=2)
    )
    assert rects == random_rects_gen(8, dim=2, m=5.0, box_side=20.0, seed=2)
    with pytest.raises(UsageError):
        AdversaryConfig(kind="mystery")
    with pytest.raises(UsageError):
        generate_instance(AdversaryConfig(kind="star", zeta=3))


def _objects(stream):
    return [ev.payload for ev in stream.events]


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_generators_match_reference(seed):
    for dim, box_side, radii in ((1, 40.0, (1.0, 1.0)), (2, 12.0, (0.5, 3.0)), (3, 6.0, (1.0, 1.0))):
        stream = random_balls_gen(40, dim, box_side, seed=seed, radius_range=radii)
        assert _objects(stream) == reference_random_balls(40, dim, box_side, seed, radii)
    for dim, m, box_side in ((1, 4.0, 30.0), (2, 8.0, 20.0), (3, 3.0, 8.0)):
        stream = random_rects_gen(40, dim, m, box_side, seed=seed)
        assert _objects(stream) == reference_random_rects(40, dim, m, box_side, seed)


def test_generators_match_reference_when_redraws_happen(monkeypatch):
    monkeypatch.setattr("geomis.adversaries.DEGENERACY_MARGIN", 0.05)
    for seed in (3, 4):
        balls = reference_random_balls(60, 2, 10.0, seed, (0.5, 2.0), margin=0.05)
        # The wider margin must have forced redraws, or this case shows nothing.
        assert balls != reference_random_balls(60, 2, 10.0, seed, (0.5, 2.0))
        stream = random_balls_gen(60, 2, 10.0, seed=seed, radius_range=(0.5, 2.0))
        assert _objects(stream) == balls
        rects = reference_random_rects(60, 2, 5.0, 20.0, seed, margin=0.05)
        assert rects != reference_random_rects(60, 2, 5.0, 20.0, seed)
        assert _objects(random_rects_gen(60, 2, 5.0, 20.0, seed=seed)) == rects


def test_generators_refuse_a_crowded_box(monkeypatch):
    # With a margin wider than the box, every second draw is rejected.
    monkeypatch.setattr("geomis.adversaries.DEGENERACY_MARGIN", 50.0)
    with pytest.raises(UsageError, match="too crowded"):
        random_balls_gen(2, 2, 10.0, seed=0)
    with pytest.raises(UsageError, match="too crowded"):
        random_rects_gen(2, 2, 5.0, 10.0, seed=0)
    with pytest.raises(UsageError):
        reference_random_balls(2, 2, 10.0, 0, margin=50.0)
    with pytest.raises(UsageError):
        reference_random_rects(2, 2, 5.0, 10.0, 0, margin=50.0)


def test_random_balls_in_high_dimension_match_reference():
    dim, n = 24, 25
    stream = random_balls_gen(n, dim, 1.0, seed=3)
    objects = _objects(stream)
    assert objects == reference_random_balls(n, dim, 1.0, 3)
    adj = pairwise_intersection_graph(objects)
    assert [set(ev.neighbors) for ev in stream.events] == [
        {j for j in adj[i] if j < i} for i in range(n)
    ]
    assert 0 < sum(map(len, adj)) // 2 < n * (n - 1) // 2


def test_levels_config_refuses_zeta_above_the_limit():
    assert LEVELS_ZETA_LIMIT == 1000
    assert AdversaryConfig(kind="levels", zeta=LEVELS_ZETA_LIMIT).zeta == 1000
    with pytest.raises(OracleRefusal, match="levels zeta 1001 exceeds the limit 1000"):
        AdversaryConfig(kind="levels", zeta=LEVELS_ZETA_LIMIT + 1)
    # The star adversary's instance grows linearly, so the limit is not its.
    assert AdversaryConfig(kind="star", zeta=LEVELS_ZETA_LIMIT + 1).zeta == 1001
