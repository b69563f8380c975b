"""Command-line workbench.

Subcommands: gen (write instances), run (one online run), oracle
(exact offline answers), lattice (self-checks of the lattice layer),
experiment (seeded trial batches with CSV reports).

Exit status: 0 on success; 1 on a usage error (bad flags, malformed
files, unsupported combinations: geometry.UsageError or an OSError),
with one "error:" line on stderr; 2 on a refusal (work past a fixed
limit, refused before it starts: geometry.OracleRefusal), with one
"refused:" line, or on a failed check (run's valid_independent,
oracle --what ratio's bound_satisfied, a lattice self-check), whose
report goes to stdout with nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
from dataclasses import replace
from itertools import product
from typing import Optional, Sequence

from .adversaries import GENERATOR_KINDS, AdversaryConfig, generate_instance, star_adversary
from .algorithms import ALGORITHMS, filter_acceptance_probability, make_algorithm
from .geometry import OracleRefusal, UsageError, refuse_above, require_at_least
from .harness import ExperimentConfig, render_csv, run_experiment
from .instances import load_instance, read_utf8, save_instance, save_transcript
from .lattice import (
    DEFAULT_DELTA,
    LatticeParams,
    _coords,
    closest_lattice_point,
    is_covered,
    min_pairwise_distance,
    mc_volume_fraction,
    parity_rounded_point,
    unit_ball_volume,
)
from .online import ArrivalSequence, FirstFit, RunResult, run_online
from .oracle import DEFAULT_NODE_LIMIT, exact_mis, independent_kissing_number, verify_ratio


# The most work the closest and volume self-checks may take on, refused
# before anything is allocated.  The README and CI commands need at most
# 10000 x 7^3 window points and 200000 x 3 coordinates.
CLOSEST_POINT_LIMIT = 10**7
VOLUME_COORDINATE_LIMIT = 4 * 10**6


class _CliUsage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliUsage(message)


@functools.cache
def _build_parser() -> _Parser:
    """The CLI's parser, built once per process: parsing leaves it
    unchanged, and building it costs about 1 ms."""
    parser = _Parser(
        prog="geomis",
        description="Online maximum-independent-set workbench for geometric intersection graphs.",
        epilog="exit status: 0 success, 1 usage error, 2 failed validation/check",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    gen.add_argument("--zeta", type=int, default=3)
    gen.add_argument("--n", type=int, default=20)
    gen.add_argument("--dim", type=int, default=3)
    gen.add_argument("--M", dest="m", type=float, default=8.0)
    gen.add_argument("--box-side", type=float, default=10.0)
    gen.add_argument("--radius-range", type=float, nargs=2, default=[1.0, 1.0],
                     metavar=("LO", "HI"))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    run = sub.add_parser("run", help="run one online algorithm over an instance file")
    run.add_argument("--alg", required=True, choices=ALGORITHMS)
    run.add_argument("--in", dest="infile", required=True)
    _add_algorithm_flags(run)
    run.set_defaults(func=_cmd_run)

    oracle = sub.add_parser("oracle", help="exact offline answers for an instance file")
    oracle.add_argument("--what", required=True, choices=["mis", "ikn", "ratio"])
    oracle.add_argument("--in", dest="infile", required=True)
    oracle.add_argument("--alg", default="firstfit", choices=ALGORITHMS)
    _add_algorithm_flags(oracle)
    oracle.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    oracle.set_defaults(func=_cmd_oracle)

    lattice = sub.add_parser("lattice", help="self-checks of the lattice layer")
    lattice.add_argument("--check", required=True,
                         choices=["mindist", "closest", "volume"])
    lattice.add_argument("--dim", type=int, default=3)
    lattice.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    lattice.add_argument("--window", type=int, default=3, help="mindist: coefficients in"
                         " [-w, w]^dim; closest: within w of each query's rounded point")
    lattice.add_argument("--samples", type=int, default=10000)
    lattice.add_argument("--seed", type=int, default=0)
    lattice.set_defaults(func=_cmd_lattice)

    exp = sub.add_parser(
        "experiment",
        help="run a seeded trial batch from a JSON config (GEOMIS_THREADS caps workers)",
    )
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", default=None, help="override the config's CSV path")
    exp.add_argument("--trials", type=int, default=None, help="override the trial count")
    exp.add_argument("--timing", action="store_true",
                     help="write measured wall time into the CSV (breaks reproducibility)")
    exp.set_defaults(func=_cmd_experiment)

    return parser


def _add_algorithm_flags(parser: argparse.ArgumentParser) -> None:
    """The flags _run_algorithm builds the --alg strategy from."""
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    parser.add_argument("--M", dest="m", type=float, default=8.0)


def _run_algorithm(args: argparse.Namespace, stream: ArrivalSequence) -> RunResult:
    algorithm = make_algorithm(args.alg, stream.dim, seed=args.seed, delta=args.delta, m=args.m)
    return run_online(algorithm, stream)


def _cmd_gen(args: argparse.Namespace) -> int:
    config = AdversaryConfig(
        kind=args.kind, zeta=args.zeta, n=args.n, dim=args.dim, m=args.m,
        box_side=args.box_side, seed=args.seed, radius_range=args.radius_range,
    )
    if config.kind == "star":
        outcome = star_adversary(config.zeta, FirstFit())
        save_transcript(outcome.stream, outcome.result, args.out)
        print(
            f"star zeta={config.zeta} vs firstfit: accepted {outcome.result.size} "
            f"of {len(outcome.stream)}, opt {outcome.opt_size}"
        )
        print(f"wrote {args.out}")
        return 0
    stream = generate_instance(config)
    save_instance(stream, args.out)
    print(f"wrote {args.out} ({len(stream)} arrivals)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    stream = load_instance(args.infile)
    result = _run_algorithm(args, stream)
    ids = " ".join(str(i) for i in result.accepted)
    print(f"algorithm {args.alg}")
    print(f"arrivals {len(stream)}")
    print(f"accepted {result.size}" + (f": {ids}" if ids else ""))
    print(f"valid_independent {str(result.valid_independent).lower()}")
    # Every run_online result is irrevocable: one decision per arrival, in order.
    print("valid_irrevocable true")
    return 0 if result.valid_independent else 2


def _cmd_oracle(args: argparse.Namespace) -> int:
    stream = load_instance(args.infile)
    if args.what == "mis":
        print(exact_mis(stream.adjacency(), args.node_limit).size)
        return 0
    if args.what == "ikn":
        print(independent_kissing_number(stream.adjacency(), args.node_limit).zeta)
        return 0
    report = verify_ratio(stream, _run_algorithm(args, stream), args.node_limit)
    print(f"opt {report.opt_size}")
    print(f"alg {report.alg_size}")
    print(f"ratio {report.ratio}")
    print(f"zeta {report.zeta}")
    print(f"bound_satisfied {str(report.bound_satisfied).lower()}")
    return 0 if report.bound_satisfied else 2


def _window_reference(params: LatticeParams, c: tuple[float, ...], window: int) -> float:
    """Exhaustive nearest-lattice-point distance over the coefficients
    within window of c's parity-rounded ones on every axis.  The
    coefficients come from range, so each point is built by _coords,
    the formula lattice_point ends in, without its integer check."""
    _, rounded = parity_rounded_point(params, c)
    best = math.inf
    for a1, *rest in product(*[range(a - window, a + window + 1) for a in rounded]):
        best = min(best, math.dist(_coords(params, a1, rest), c))
    return best


def _cmd_lattice(args: argparse.Namespace) -> int:
    params = LatticeParams(dim=args.dim, delta=args.delta)
    if args.check == "mindist":
        value = min_pairwise_distance(params, window=args.window)
        print(f"min_pairwise_distance {value!r}")
        print(f"required > 4: {'pass' if value > 4.0 else 'FAIL'}")
        return 0 if value > 4.0 else 2
    if args.check == "closest":
        require_at_least("samples", args.samples, 1)
        require_at_least("window", args.window, 1)
        refuse_above(
            CLOSEST_POINT_LIMIT, "closest window points scanned",
            args.samples, 2 * args.window + 1, params.dim,
        )
        rng = random.Random(args.seed)
        extents = (params.axis1_period,) + (params.cross_period,) * (params.dim - 1)
        worst = 0.0
        cover_mismatches = 0
        for _ in range(args.samples):
            c = tuple(rng.uniform(0.0, e) for e in extents)
            p, _ = closest_lattice_point(params, c)
            ref = _window_reference(params, c, args.window)
            worst = max(worst, abs(math.dist(p, c) - ref))
            if is_covered(params, c) != (ref <= 1.0):
                cover_mismatches += 1
        ok = worst <= 1e-9 and cover_mismatches == 0
        print(f"queries {args.samples}")
        print(f"max_distance_deviation {worst!r}")
        print(f"coverage_mismatches {cover_mismatches}")
        print("pass" if ok else "FAIL")
        return 0 if ok else 2
    require_at_least("samples", args.samples, 1)
    refuse_above(VOLUME_COORDINATE_LIMIT, "volume sample coordinates", args.samples, params.dim)
    rng = random.Random(args.seed)
    origin = tuple(rng.uniform(-10.0, 10.0) for _ in range(params.dim))
    period_volume = math.prod(params.shift_extents())
    fraction, stderr = mc_volume_fraction(params, origin, args.samples, seed=args.seed)
    expected = filter_acceptance_probability(params)
    # Three binomial standard errors of the expected fraction: the
    # sample's own error is 0 when every sample lands on one side.
    ok = abs(fraction - expected) <= 3.0 * math.sqrt(expected * (1.0 - expected) / args.samples)
    print(f"box_origin {origin}")
    print(f"covered_fraction {fraction!r} (stderr {stderr:.3e})")
    print(f"expected_fraction {expected!r}")
    print(f"volume_estimate {fraction * period_volume!r}")
    print(f"expected_volume {unit_ball_volume(params.dim)!r}")
    print("pass" if ok else "FAIL")
    return 0 if ok else 2


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json(read_utf8(args.config))
    overrides = {"out": args.out, "trials": args.trials, "timing": args.timing or None}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if overrides:
        config = replace(config, **overrides)
    records, summary = run_experiment(config)
    csv_to_stdout = config.out is None
    report = sys.stderr if csv_to_stdout else sys.stdout
    if csv_to_stdout:
        sys.stdout.write(render_csv(records, timing=config.timing))
    else:
        print(f"wrote {config.out}", file=report)
    print(f"trials {summary.trials}", file=report)
    print(f"mean_alg_size {summary.mean_alg_size!r}", file=report)
    print(f"stderr_alg_size {summary.stderr_alg_size!r}", file=report)
    print(f"ci3 [{summary.ci3_low!r}, {summary.ci3_high!r}]", file=report)
    print(f"mean_ratio {summary.mean_ratio}", file=report)
    print(f"oracle_refusals {summary.oracle_refusals}", file=report)
    return 0


def cli_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliUsage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OracleRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
