"""Grid-energy / packet-drop scheduling for hybrid-powered base stations.

A grid-powered and an energy-harvesting base station share the job of
delivering one packet per block to a user.  The package covers the
offline assignment problem (full side information), a quantized
finite-horizon decision-table solver, causal heuristics, and the Monte
Carlo machinery to compare them, plus a CLI that drives it all from
key=value configs.
"""

from .errors import (
    ConfigError,
    HesnetError,
    InvalidActionError,
    InvalidParameterError,
    InvalidStateError,
    ModelMismatchError,
    ReplayParseError,
    ResourceLimitError,
    StalePolicyError,
    StructureViolationError,
)
from .model import (
    FrameBatch,
    SystemParams,
    channel_gain,
    cost_parameter,
    inversion_power,
    kappa,
    link_terms,
    make_rng,
    rate,
    required_snr,
    sample_trajectories,
    sample_trajectory,
)
from .offline import greedy_plan, optimal_plan, ratio_metric
from .mdp import (
    CostToGo,
    MdpModel,
    PolicyTable,
    QuantizationGrid,
    backward_induction,
    battery_level_index,
    build_grid,
    build_mdp_model,
    channel_state_index,
    equiprobable_channel_states,
    load_policy_artifact,
    monotone_backward_induction,
    quantize_energy,
    save_policy_artifact,
)
from .policies import (
    GreedyTransmit,
    MdpTablePolicy,
    ThresholdHeuristic,
    ThresholdParams,
    calibrate_zeta,
    exponential_integral_E1,
    look_ahead_build,
    look_ahead_table,
    threshold_lambdas,
)
from .sim import (
    GridOnlyPolicy,
    apply_axis,
    frame_totals,
    metrics_row,
    outcomes,
    solve_plan,
    sweep,
    write_manifest,
    write_rows_csv,
)

__version__ = "0.1.0"
