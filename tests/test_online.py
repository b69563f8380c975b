import math
import random

import pytest

from geomis import (
    ArrivalEvent,
    ArrivalSequence,
    Ball,
    FirstFit,
    UsageError,
    empirical_ratio,
    finalize_run,
    run_online,
)

from conftest import AcceptAll, RejectAll, gnp_stream


def test_event_ids_must_be_sequential():
    bad = [ArrivalEvent(id=1, neighbors=frozenset())]
    with pytest.raises(UsageError):
        ArrivalSequence(events=tuple(bad), dim=None)


def test_neighbors_must_point_backward():
    with pytest.raises(UsageError):
        ArrivalSequence.from_neighbor_lists([[1], []])
    with pytest.raises(UsageError):
        ArrivalSequence.from_neighbor_lists([[0]])


def test_payloads_all_or_none():
    ball = Ball((0.0, 0.0), 1.0)
    events = (
        ArrivalEvent(id=0, neighbors=frozenset(), payload=ball),
        ArrivalEvent(id=1, neighbors=frozenset()),
    )
    with pytest.raises(UsageError):
        ArrivalSequence(events=events, dim=2)


def test_payload_dims_must_agree_with_the_first():
    events = (
        ArrivalEvent(id=0, neighbors=frozenset(), payload=Ball((0.0, 0.0), 1.0)),
        ArrivalEvent(id=1, neighbors=frozenset(), payload=Ball((5.0, 0.0, 0.0), 1.0)),
    )
    with pytest.raises(UsageError, match="^event 1 payload dim 3 != sequence dim 2$"):
        ArrivalSequence(events=events)
    assert ArrivalSequence(events=events[:1]).dim == 2


def test_from_objects_derives_adjacency():
    objs = [
        Ball((0.0, 0.0), 1.0),
        Ball((1.5, 0.0), 1.0),
        Ball((9.0, 0.0), 1.0),
    ]
    stream = ArrivalSequence.from_objects(objs)
    assert stream.dim == 2
    assert [ev.payload for ev in stream.events] == objs
    assert [set(ev.neighbors) for ev in stream.events] == [set(), {0}, set()]
    assert stream.adjacency() == [{1}, {0}, set()]


def test_first_fit_on_triangle(k3_stream):
    result = run_online(FirstFit(), k3_stream)
    assert result.accepted == (0,)
    assert result.decisions == (True, False, False)
    assert result.valid_independent
    assert result.size == 1


def test_first_fit_maximal_independent_dominating():
    rng = random.Random(2024)
    for _ in range(40):
        stream = gnp_stream(rng.randrange(1, 26), rng.choice([0.1, 0.3, 0.6]), rng)
        adj = stream.adjacency()
        result = run_online(FirstFit(), stream)
        acc = set(result.accepted)
        for v in acc:
            assert not (adj[v] & acc)
        for v in range(len(stream)):
            if v not in acc:
                assert adj[v] & acc, "rejected vertex must have an accepted neighbor"


def test_first_fit_deterministic_and_prefix_consistent():
    rng = random.Random(9)
    stream = gnp_stream(20, 0.3, rng)
    full = run_online(FirstFit(), stream)
    again = run_online(FirstFit(), stream)
    assert full == again
    for k in range(len(stream) + 1):
        part = run_online(FirstFit(), ArrivalSequence(events=stream.events[:k]))
        assert part.decisions == full.decisions[:k]


def test_accept_all_flags_dependence(k3_stream):
    result = run_online(AcceptAll(), k3_stream)
    assert result.accepted == (0, 1, 2)
    assert not result.valid_independent


def test_reject_all(k3_stream):
    result = run_online(RejectAll(), k3_stream)
    assert result.accepted == ()
    assert result.valid_independent


def test_empty_stream():
    stream = ArrivalSequence(events=(), dim=None)
    result = run_online(FirstFit(), stream)
    assert result.accepted == ()
    assert result.valid_independent
    assert empirical_ratio(0, result.size) == 1.0


def test_finalize_run_audits_independence(k3_stream):
    ok = finalize_run(k3_stream.events, (True, False, False))
    assert ok.valid_independent
    bad = finalize_run(k3_stream.events, (True, True, False))
    assert not bad.valid_independent
    assert bad.accepted == (0, 1)
    with pytest.raises(UsageError) as excinfo:
        finalize_run(k3_stream.events, (True, False))
    assert str(excinfo.value) == "one decision per event is required"


def test_decisions_are_stored_as_bools():
    class Truthy:
        answers = iter([1, 0, None, 1])

        def decide(self, event):
            return next(self.answers)

    stream = ArrivalSequence.from_neighbor_lists([[], [], [], [2]])
    result = run_online(Truthy(), stream)
    assert result.decisions == (True, False, False, True)
    assert all(type(d) is bool for d in result.decisions)
    assert result.accepted == (0, 3)
    assert result.valid_independent


def test_empirical_ratio_conventions(k3_stream):
    one = run_online(FirstFit(), k3_stream)
    assert empirical_ratio(5, one.size) == 5.0
    assert empirical_ratio(1, one.size) == 1.0
    empty = run_online(RejectAll(), k3_stream)
    assert empirical_ratio(3, empty.size) == math.inf
    assert empirical_ratio(0, empty.size) == 1.0
    with pytest.raises(UsageError):
        empirical_ratio(-1, one.size)
