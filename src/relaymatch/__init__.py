"""Learned pairing of cellular uplinks with D2D relay pairs.

D2D transmitters relay cellular users' uplink traffic in exchange for a
bargained share of frame time on the users' channels. The package simulates
the pairing dynamics when users must learn the relays' value from
per-cooperation rate samples, together with complete-information references
(deferred acceptance, exhaustive stable-matching and equilibrium
enumeration) used to verify the learning behavior.
"""

__version__ = "0.1.0"

from .bargaining import BargainOutcome, cu_utility, d2d_utility, is_acceptable, nbs_alpha, nbs_alpha_oracle
from .channel import (
    RateTable,
    Topology,
    expected_log_rate,
    generate_topology,
    true_rates,
)
from .config_io import write_manifest
from .errors import CapacityError, ConfigurationError
from .game import (
    Proposal,
    TieBreakRule,
    better_reply_path,
    enumerate_pne,
    game_utility,
    induced_matching,
)
from .harness import (
    PeriodMetrics,
    ResultSet,
    SimEnvironment,
    emit_csv,
    make_agents,
    run_experiment,
    run_period,
    run_replication,
)
from .learners import (
    EbriQAgent,
    EpsilonGreedyAgent,
    FixedProposalAgent,
    NonCoopAgent,
    PeriodObservation,
    RandomAgent,
    epsilon_schedule,
)
from .matching import (
    Matching,
    PreferenceProfile,
    build_preferences,
    enumerate_stable_matchings,
    find_blocking_pairs,
    gale_shapley,
    is_stable,
)
from .params import POLICIES, ExperimentConfig, LearningParams, SystemParams, TopologyParams
