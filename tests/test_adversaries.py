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
import geomis.adversaries
from geomis.adversaries import (
    COORDINATE_LIMIT,
    DIM_LIMIT,
    LEVELS_ZETA_LIMIT,
    STAR_ZETA_LIMIT,
    _require_region,
)
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
        ball = ev.payload
        assert ball.radius == 1.0
        assert all(0.0 <= x <= 10.0 for x in ball.center)
    # no near-tangent pair
    for i, ei in enumerate(stream.events):
        for ej in stream.events[:i]:
            d = math.dist(tuple(ei.payload.center), tuple(ej.payload.center))
            gap = d - (ei.payload.radius + ej.payload.radius)
            assert abs(gap) > 1e-6
    assert random_balls_gen(25, dim=3, box_side=10.0, seed=7) == stream
    assert random_balls_gen(25, dim=3, box_side=10.0, seed=8) != stream


def test_random_balls_radius_range():
    stream = random_balls_gen(15, dim=2, box_side=30.0, seed=3, radius_range=(1.0, 8.0))
    radii = [ev.payload.radius for ev in stream.events]
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
        for s in ev.payload.sides:
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


def test_random_rects_at_m_one_draw_unit_sides():
    # Every drawn side is exactly 1.0, so hi is lo + 1.0 to the bit, and
    # a box whose hi - lo rounds away from 1 is redrawn.
    stream = random_rects_gen(40, dim=3, m=1.0, box_side=20.0, seed=3)
    assert len(stream) == 40
    for ev in stream.events:
        box = ev.payload
        assert box.hi == tuple(l + 1.0 for l in box.lo)
        assert all(abs(s - 1.0) < 1e-14 for s in box.sides)


def test_region_refuses_box_side_zero():
    with pytest.raises(UsageError) as excinfo:
        _require_region(5, 2, 0)
    assert str(excinfo.value) == "box_side must be positive, got 0.0"
    for make in (
        lambda: random_rects_gen(5, dim=2, m=5.0, box_side=0.0),
        lambda: random_balls_gen(5, dim=2, box_side=0.0),
    ):
        with pytest.raises(UsageError, match=r"^box_side must be positive, got 0\.0$"):
            make()
    assert _require_region(0, 1, 5e-324) == 5e-324


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


def _assert_edges_match_pairwise(stream):
    adj = pairwise_intersection_graph(_objects(stream))
    assert [set(ev.neighbors) for ev in stream.events] == [
        {j for j in adj[i] if j < i} for i in range(len(adj))
    ]
    return adj


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_generators_match_reference(seed):
    # The d = 6 balls and d = 5 boxes put about five to a cell of the grid,
    # which keys only the first three axes.
    for dim, box_side, radii in (
        (1, 40.0, (1.0, 1.0)), (2, 12.0, (0.5, 3.0)), (3, 6.0, (1.0, 1.0)), (6, 4.0, (1.0, 1.0))
    ):
        stream = random_balls_gen(40, dim, box_side, seed=seed, radius_range=radii)
        assert _objects(stream) == reference_random_balls(40, dim, box_side, seed, radii)
        _assert_edges_match_pairwise(stream)
    for dim, m, box_side in ((1, 4.0, 30.0), (2, 8.0, 20.0), (3, 3.0, 8.0), (5, 3.0, 6.0)):
        stream = random_rects_gen(40, dim, m, box_side, seed=seed)
        assert _objects(stream) == reference_random_rects(40, dim, m, box_side, seed)
        _assert_edges_match_pairwise(stream)


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


def test_generators_name_the_rule_that_ran_out_their_redraws(monkeypatch):
    # At M = 1 in 60 dimensions nearly every draw has a stored side that
    # rounds away from 1, so the side rule, not crowding, refuses it.
    with pytest.raises(UsageError) as err:
        random_rects_gen(30, 60, 1.0, 10.0, seed=0)
    assert str(err.value) == (
        "could not place an object clear of tangency with sides in [1, 1.0];"
        " the box is too crowded or the sides round out of that range"
    )
    monkeypatch.setattr("geomis.adversaries.DEGENERACY_MARGIN", 50.0)
    with pytest.raises(UsageError) as err:
        random_balls_gen(2, 2, 10.0, seed=0)
    assert str(err.value) == "could not place an object clear of tangency; the box is too crowded"


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
    adj = _assert_edges_match_pairwise(stream)
    assert 0 < sum(map(len, adj)) // 2 < n * (n - 1) // 2


def test_levels_config_refuses_zeta_above_the_limit():
    assert LEVELS_ZETA_LIMIT == 1000
    assert AdversaryConfig(kind="levels", zeta=LEVELS_ZETA_LIMIT).zeta == 1000
    with pytest.raises(OracleRefusal, match="levels zeta 1001 exceeds the limit 1000"):
        AdversaryConfig(kind="levels", zeta=LEVELS_ZETA_LIMIT + 1)
    # The star adversary's instance grows linearly, so the limit is not its.
    assert AdversaryConfig(kind="star", zeta=LEVELS_ZETA_LIMIT + 1).zeta == 1001


class _WorkStarted(Exception):
    pass


def _start_work(*args, **kwargs):
    raise _WorkStarted


class _DecideRaises:
    def decide(self, event):
        raise _WorkStarted


def test_size_limits_admit_the_sizes_in_use():
    # dim 30 and n 2000 run in the tests, the README and the benchmark;
    # 10^5 balls in 3-D are planned.
    assert DIM_LIMIT >= 30 and COORDINATE_LIMIT >= max(2000 * 30, 10**5 * 3)
    for kind in ("random_balls", "random_rects"):
        AdversaryConfig(kind=kind, n=COORDINATE_LIMIT // DIM_LIMIT, dim=DIM_LIMIT)
        AdversaryConfig(kind=kind, n=10**5, dim=3)
    assert AdversaryConfig(kind="star", zeta=STAR_ZETA_LIMIT).zeta == STAR_ZETA_LIMIT


@pytest.mark.parametrize("kind", ["random_balls", "random_rects"])
@pytest.mark.parametrize(
    "n, dim, message",
    [
        (0, DIM_LIMIT + 1, "dim 1001 exceeds the limit 1000"),
        (3, 10**21, "dim 1000000000000000000000 exceeds the limit 1000"),
        (COORDINATE_LIMIT // DIM_LIMIT + 1, DIM_LIMIT,
         "instance coordinates: 1001 x 1000 exceeds the limit 1000000"),
        (10**30, 3,
         "instance coordinates: 1000000000000000000000000000000 x 3 exceeds the limit 1000000"),
    ],
)
def test_oversized_random_instances_refused_before_any_draw(monkeypatch, kind, n, dim, message):
    for name in ("_place", "_BallIndex", "_BoxEndpoints"):
        monkeypatch.setattr(geomis.adversaries, name, _start_work)
    with pytest.raises(OracleRefusal, match=f"^{message}$"):
        AdversaryConfig(kind=kind, n=n, dim=dim, m=4.0, box_side=10.0)
    with pytest.raises(OracleRefusal, match=f"^{message}$"):
        if kind == "random_balls":
            random_balls_gen(n, dim, 10.0)
        else:
            random_rects_gen(n, dim, 4.0, 10.0)


def test_oversized_star_refused_before_any_decision():
    for zeta in (STAR_ZETA_LIMIT + 1, 10**30):
        message = f"^star zeta {zeta} exceeds the limit {STAR_ZETA_LIMIT}$"
        with pytest.raises(OracleRefusal, match=message):
            AdversaryConfig(kind="star", zeta=zeta)
        with pytest.raises(OracleRefusal, match=message):
            star_adversary(zeta, _DecideRaises())
    with pytest.raises(_WorkStarted):
        star_adversary(STAR_ZETA_LIMIT, _DecideRaises())


def test_oversized_levels_generator_refused():
    with pytest.raises(OracleRefusal, match="^levels zeta 1001 exceeds the limit 1000$"):
        level_graph_gen(LEVELS_ZETA_LIMIT + 1)
