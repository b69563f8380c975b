"""Acceptance gate: twelve end-to-end checks of the library's headline
quantitative claims, each printing one PASS/FAIL line.

Every check is seeded and deterministic; statistical checks were
verified once against their stated tolerance and the seeds frozen.
"""

import functools
import json
import math
import random

import numpy as np

from geomis import (
    ArrivalSequence,
    Ball,
    Classify,
    FirstFit,
    HRClassify,
    HyperRectangle,
    LatticeParams,
    class_count,
    closest_lattice_point,
    coverage_cells,
    empirical_ratio,
    exact_mis,
    filter_acceptance_probability,
    independent_kissing_number,
    intersection_graph,
    is_covered,
    level_graph_gen,
    mc_volume_fraction,
    min_pairwise_distance,
    random_balls_gen,
    random_rects_gen,
    run_online,
    star_adversary,
    verify_ratio,
)
from geomis.algorithms import LatticeFilter
from geomis.cli import cli_dispatch

from conftest import (
    _closed_shapes_meet,
    brute_min_distances,
    gnp_stream,
    record_criterion,
    window_lattice_points,
)

P3 = LatticeParams(dim=3, delta=0.01)


def criterion(num: int, detail: str):
    """Emit exactly one PASS/FAIL line per criterion in the run summary."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_criterion(f"criterion {num:02d} FAIL: {detail}")
                raise
            record_criterion(f"criterion {num:02d} PASS: {detail}")

        return inner

    return wrap


def induced(adjacency, vertices):
    order = sorted(vertices)
    index = {v: i for i, v in enumerate(order)}
    return [
        {index[u] for u in adjacency[v] if u in index} for v in order
    ]


@criterion(1, "adaptive star forces ratio exactly zeta for zeta in 1..12")
def test_criterion_01_star_tightness():
    for zeta in range(1, 13):
        outcome = star_adversary(zeta, FirstFit())
        assert outcome.result.size == 1
        assert outcome.opt_size == zeta
        assert empirical_ratio(outcome.opt_size, outcome.result.size) == float(zeta)


@criterion(2, "greedy within kissing-number bound and dominating on 200 random graphs")
def test_criterion_02_first_fit_upper_bound():
    rng = random.Random(20250201)
    probs = [0.1, 0.3, 0.5]
    for trial in range(200):
        n = rng.randrange(1, 21)
        stream = gnp_stream(n, probs[trial % 3], rng)
        adj = stream.adjacency()
        result = run_online(FirstFit(), stream)
        report = verify_ratio(stream, result)
        assert report.bound_satisfied
        assert report.opt_size <= max(report.zeta, 1) * report.alg_size
        accepted = set(result.accepted)
        for v in range(n):
            assert v in accepted or (adj[v] & accepted)


@criterion(3, "level construction: MIS >= zeta+1, kissing <= zeta, greedy stuck at 2")
def test_criterion_03_level_graph_family():
    for zeta in range(2, 9):
        for seed in range(100):
            stream = level_graph_gen(zeta, seed=seed)
            adj = stream.adjacency()
            opt = exact_mis(adj).size
            assert opt >= zeta + 1
            assert independent_kissing_number(adj).zeta <= zeta
            result = run_online(FirstFit(), stream)
            assert result.accepted == (0, 1)
            assert empirical_ratio(opt, result.size) >= (zeta + 1) / 2.0


@criterion(4, "lattice minimum spacing is 4.0025024 (strictly above 4)")
def test_criterion_04_lattice_spacing():
    value = min_pairwise_distance(P3, window=3)
    assert value > 4.0
    assert value < 4.0026
    assert abs(value - 4.002502342285386) <= 1e-6
    assert abs(value - math.sqrt((2.0 + 0.005) ** 2 + 12.0)) <= 1e-12


@criterion(5, "rounded nearest-lattice-point matches brute force on 10^4 queries")
def test_criterion_05_closest_point_oracle():
    rng = np.random.default_rng(20250505)
    extents = np.array([P3.axis1_period, P3.cross_period, P3.cross_period])
    queries = rng.uniform(0.0, 1.0, size=(10000, 3)) * extents
    reference_points = window_lattice_points(3, 0.01, window=3)
    reference = brute_min_distances(reference_points, queries)
    for row, ref in zip(queries, reference):
        q = tuple(row)
        point, _ = closest_lattice_point(P3, q)
        got = math.dist(point, q)
        assert abs(got - ref) <= 1e-9
        assert is_covered(P3, q) == (ref <= 1.0)


@criterion(6, "covered volume inside every aligned box equals one unit ball (3 sigma)")
def test_criterion_06_volume_identity():
    rng = random.Random(20250606)
    ball_volume = 4.0 * math.pi / 3.0
    period_volume = math.prod(P3.shift_extents())
    estimates = []
    for i in range(20):
        origin = tuple(rng.uniform(-25.0, 25.0) for _ in range(3))
        fraction, stderr = mc_volume_fraction(P3, origin, samples=10**6, seed=9000 + i)
        estimate = fraction * period_volume
        sigma = stderr * period_volume
        assert abs(estimate - ball_volume) <= 3.0 * sigma, (i, estimate, sigma)
        estimates.append((estimate, sigma))
    for (est_a, sig_a), (est_b, sig_b) in zip(estimates, estimates[1:]):
        assert abs(est_a - est_b) <= 3.0 * math.hypot(sig_a, sig_b)


@criterion(7, "filter acceptance frequency matches 0.087049 within 3 sigma on 10^5 balls")
def test_criterion_07_filter_acceptance_frequency():
    n = 100000
    rng = np.random.default_rng(20250707)
    centers = rng.uniform(0.0, 40.0, size=(n, 3))
    extents = np.array(P3.shift_extents())
    shifts = rng.uniform(0.0, 1.0, size=(n, 3)) * extents
    covered, _ = coverage_cells(P3, centers + shifts)
    rate = float(covered.mean())
    p = filter_acceptance_probability(P3)
    assert abs(p - 0.087049) < 1e-6
    sigma = math.sqrt(p * (1.0 - p) / n)
    assert abs(rate - p) <= 3.0 * sigma, (rate, p, sigma)
    # spot-check the vectorized statistic against live algorithm decisions
    for i in range(0, 300):
        alg = LatticeFilter(P3, shift=tuple(shifts[i]))
        stream = ArrivalSequence.from_objects(
            [Ball(tuple(centers[i]), 1.0)]
        )
        assert run_online(alg, stream).size == int(covered[i])


@criterion(8, "surviving balls cluster exactly one clique per lattice cell (100 trials)")
def test_criterion_08_filter_clique_law():
    rng = np.random.default_rng(20250808)
    extents = np.array(P3.shift_extents())
    for _ in range(100):
        centers = rng.uniform(0.0, 8.0, size=(200, 3))
        shift = rng.uniform(0.0, 1.0, size=3) * extents
        covered, cells = coverage_cells(P3, centers + shift)
        balls = [Ball(tuple(c), 1.0) for c in centers]
        clusters: dict[tuple, list[int]] = {}
        for i in np.flatnonzero(covered):
            clusters.setdefault(tuple(cells[i]), []).append(int(i))
        covered_ids = sorted(int(i) for i in np.flatnonzero(covered))
        for cell, members in clusters.items():
            for a in members:
                for b in members:
                    if a < b:
                        assert _closed_shapes_meet(balls[a], balls[b])
        for a in covered_ids:
            for b in covered_ids:
                if a < b and tuple(cells[a]) != tuple(cells[b]):
                    assert not _closed_shapes_meet(balls[a], balls[b])
        # the online filter keeps exactly the first ball of each cluster
        stream = ArrivalSequence.from_objects(balls)
        result = run_online(LatticeFilter(P3, shift=tuple(shift)), stream)
        assert sorted(result.accepted) == sorted(min(m) for m in clusters.values())


@criterion(9, "filter mean accepted stays above p*OPT - 3 sigma on 20 instances x 500 shifts")
def test_criterion_09_filter_expectation_bound():
    p = filter_acceptance_probability(P3)
    rng = np.random.default_rng(20250909)
    extents = np.array(P3.shift_extents())
    for inst in range(20):
        n = 20 + int(rng.integers(0, 11))
        stream = random_balls_gen(n, dim=3, box_side=7.0, seed=3000 + inst)
        opt = exact_mis(stream.adjacency()).size
        shifts = rng.uniform(0.0, 1.0, size=(500, 3)) * extents
        counts = np.array(
            [run_online(LatticeFilter(P3, shift=tuple(s)), stream).size for s in shifts]
        )
        assert int(counts.max()) <= opt  # accepted sets are independent sets
        mean = float(counts.mean())
        stderr = float(counts.std(ddof=1)) / math.sqrt(len(counts))
        assert mean >= p * opt - 3.0 * stderr, (inst, mean, p * opt, stderr)


@criterion(10, "class-sampled greedy meets its expectation bound on 20 ball instances")
def test_criterion_10_classify_bound():
    m = 8.0
    classes = class_count(m)
    assert classes == 4
    case = 0
    for dim, box_side in ((2, 40.0), (3, 18.0)):
        for i in range(10):
            case += 1
            n = 16 + (case % 9)
            stream = random_balls_gen(
                n, dim=dim, box_side=box_side, seed=1700 + case,
                radius_range=(1.0, 8.0),
            )
            adj = stream.adjacency()
            opt = exact_mis(adj).size
            sizes = []
            zeta_max = 1
            for j in range(classes):
                result = run_online(Classify(m, forced_class=j), stream)
                sizes.append(result.size)
                members = [
                    ev.id
                    for ev in stream.events
                    if 2.0**j <= ev.payload.width < 2.0 ** (j + 1)
                ]
                if members:
                    sub = induced(adj, members)
                    zeta_max = max(zeta_max, independent_kissing_number(sub).zeta)
            mean = sum(sizes) / classes
            assert mean >= opt / (zeta_max * classes) - 1e-9, (
                case, mean, opt, zeta_max,
            )


@criterion(11, "same-class boxes never exceed kissing number 16; class mean beats OPT/144")
def test_criterion_11_hyper_rectangle_classes():
    m = 5.0
    classes = class_count(m)
    assert classes == 3
    rng = random.Random(20251111)
    # part one: randomized search for a class-restricted instance whose
    # kissing number would break the 4^d bound (none may exist)
    configs = 10000
    checked_neighborhoods = 0
    for cfg in range(configs):
        ci, cj = cfg % classes, (cfg // classes) % classes
        lo_w = (2.0**ci, 2.0**cj)
        hi_w = (min(2.0 ** (ci + 1), m), min(2.0 ** (cj + 1), m))
        center_sides = tuple(rng.uniform(lo_w[k], hi_w[k]) for k in range(2))
        center = HyperRectangle(
            (50.0, 50.0),
            (50.0 + center_sides[0], 50.0 + center_sides[1]),
        )
        objs = [center]
        for _ in range(19):
            sides = tuple(rng.uniform(lo_w[k], hi_w[k]) for k in range(2))
            lo = tuple(
                rng.uniform(50.0 - sides[k], 50.0 + center_sides[k])
                for k in range(2)
            )
            rect = HyperRectangle(
                lo, (lo[0] + sides[0], lo[1] + sides[1])
            )
            objs.append(rect)
        adj = intersection_graph(objs)
        for v, nbrs in enumerate(adj):
            if len(nbrs) >= 17:
                checked_neighborhoods += 1
                assert exact_mis(induced(adj, nbrs)).size <= 16
        if cfg % 25 == 0:
            assert independent_kissing_number(adj).zeta <= 16
    assert checked_neighborhoods >= configs  # search really exercised big neighborhoods

    # part two: exact class enumeration meets the expectation bound
    for inst in range(20):
        stream = random_rects_gen(
            16 + (inst % 9), dim=2, m=m, box_side=30.0, seed=4800 + inst
        )
        opt = exact_mis(stream.adjacency()).size
        sizes = []
        for j1 in range(classes):
            for j2 in range(classes):
                result = run_online(
                    HRClassify(m, dim=2, forced_classes=(j1, j2)), stream
                )
                sizes.append(result.size)
        mean = sum(sizes) / len(sizes)
        assert len(sizes) == 9
        assert mean >= opt / 144.0 - 1e-9, (inst, mean, opt)


@criterion(12, "repeated experiment invocations emit byte-identical CSV")
def test_criterion_12_reproducibility(tmp_path, monkeypatch):
    config = {
        "algorithm": "filter",
        "trials": 8,
        "base_seed": 20251212,
        "generator": {
            "kind": "random_balls",
            "n": 14,
            "dim": 3,
            "box_side": 6.5,
            "seed": 3,
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
        monkeypatch.setenv("GEOMIS_THREADS", threads)
        out = tmp_path / name
        rc = cli_dispatch(
            ["experiment", "--config", str(config_path), "--out", str(out)]
        )
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert b"trial,seed,alg,n,alg_size,opt_size,ratio,time_ms" in outputs[0]
