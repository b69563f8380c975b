"""geomis: online maximum-independent-set algorithms on geometric
intersection graphs, with exact offline oracles and a seeded
experiment harness.  The names imported below are the public API."""

from .geometry import Ball, HyperRectangle, UsageError, intersection_graph
from .lattice import (
    CoeffVector,
    LatticeParams,
    closest_lattice_point,
    coverage_cells,
    is_covered,
    lattice_point,
    mc_volume_fraction,
    min_pairwise_distance,
    parity_rounded_point,
    unit_ball_volume,
)
from .online import (
    ArrivalEvent,
    ArrivalSequence,
    FirstFit,
    RunResult,
    empirical_ratio,
    finalize_run,
    run_online,
)
from .algorithms import (
    Classify,
    HRClassify,
    LatticeFilter,
    class_count,
    filter_acceptance_probability,
    width_class_index,
)
from .adversaries import (
    AdversaryConfig,
    StarOutcome,
    generate_instance,
    level_graph_gen,
    random_balls_gen,
    random_rects_gen,
    star_adversary,
)
from .oracle import (
    DEFAULT_NODE_LIMIT,
    IknResult,
    MisResult,
    OracleRefusal,
    RatioReport,
    exact_mis,
    independent_kissing_number,
    verify_ratio,
)
from .instances import InstanceFormatError, load_instance, save_instance, save_transcript
from .harness import (
    ExperimentConfig,
    ExperimentSummary,
    TrialRecord,
    derive_seed,
    render_csv,
    run_experiment,
    summarize,
    write_csv,
)
from .cli import cli_dispatch

__version__ = "0.1.0"

