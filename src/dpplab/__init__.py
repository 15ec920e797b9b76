"""Averaging-operator games on grids: solvers, couplings, margin
certification, Monte Carlo play, and smoothness reports."""

from .core import (
    Ball,
    Box,
    GridDomain,
    Mask,
    ValueField,
    ball_neighbors,
    ball_second_moment,
    ball_volume,
    build_grid_domain,
    constant_field,
    disk_second_moment,
    field_from_function,
    orthonormal_complement,
    stencil_offsets,
)
from .operators import (
    GameSpec,
    alpha_beta_from_p,
    apply_at,
    apply_operator,
    ball_lattice,
    default_direction_count,
    directional_alpha_beta_from_p,
    disk_rule,
    move_radii,
    sphere_directions,
)
from .solver import SolveDiagnostics, boundary_field, residual, solve_dpp
from .comparison import (
    ComparisonParams,
    CoupledPoint,
    DESK_SCHEDULE,
    annulus_index,
    default_params,
    error2_bound,
    eval_f,
    eval_f1,
    eval_f2,
    f1_difference,
    f1_oscillation_bound,
    pair_function,
    taylor_f1,
)
from .couplings import (
    CouplingMap,
    RotationMap,
    clamp_projection,
    mirror_map,
    rotation_angle,
    rotation_map,
)
from .certifier import (
    BallMC,
    CertificateReport,
    GridSearch,
    NestedSearch,
    PairSearch,
    certify_region,
    intersection_volume,
    margin_I,
    margin_II,
    margin_III,
    margin_T,
    overlap_fraction_mc,
    regime_tag,
    small_ball_escapes,
    volume_fact_holds,
)
from .simulate import (
    EpisodeBatch,
    EpisodeOutcome,
    GreedyOnField,
    MirrorOf,
    PullAway,
    PullToward,
    Stationary,
    Strategy,
    coupled_drift,
    coupled_step,
    estimate_value,
    play_episodes,
    run_episode,
    sample_coupled_noise,
)
from .regularity import (
    HolderReport,
    estimate_exponent,
    fit_c_prime,
    holder_report,
)
from .rng import stream_key, substream, uniform_ball, uniform_disk

__version__ = "0.1.0"

__all__ = [
    "Ball", "Box", "GridDomain", "Mask", "ValueField", "ball_neighbors",
    "ball_second_moment", "ball_volume", "build_grid_domain",
    "constant_field", "disk_second_moment", "field_from_function",
    "orthonormal_complement", "stencil_offsets",
    "GameSpec", "alpha_beta_from_p", "apply_at", "apply_operator",
    "ball_lattice", "default_direction_count",
    "directional_alpha_beta_from_p", "disk_rule", "move_radii",
    "sphere_directions",
    "SolveDiagnostics", "boundary_field", "residual", "solve_dpp",
    "ComparisonParams", "CoupledPoint", "DESK_SCHEDULE", "annulus_index",
    "default_params", "error2_bound", "eval_f", "eval_f1", "eval_f2",
    "f1_difference", "f1_oscillation_bound", "pair_function", "taylor_f1",
    "CouplingMap", "RotationMap", "clamp_projection", "mirror_map",
    "rotation_angle", "rotation_map",
    "BallMC", "CertificateReport", "GridSearch", "NestedSearch",
    "PairSearch", "certify_region", "intersection_volume", "margin_I",
    "margin_II", "margin_III", "margin_T", "overlap_fraction_mc",
    "regime_tag", "small_ball_escapes", "volume_fact_holds",
    "EpisodeBatch", "EpisodeOutcome", "GreedyOnField", "MirrorOf", "PullAway",
    "PullToward", "Stationary", "Strategy", "coupled_drift", "coupled_step",
    "estimate_value", "play_episodes", "run_episode", "sample_coupled_noise",
    "HolderReport", "estimate_exponent", "fit_c_prime", "holder_report",
    "stream_key", "substream", "uniform_ball", "uniform_disk",
    "__version__",
]
