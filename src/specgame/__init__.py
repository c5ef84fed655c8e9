"""Spectrum-sharing attack simulator.

Couples a Poisson-field interference model of a cognitive radio network with
an evolutionary access game over secondary-user strategies and a malicious
controller that baits compliant users into concurrent transmission. Provides
deterministic mean-field iteration, slotted Monte Carlo simulation, and
scenario presets with CSV metrics output.
"""

__version__ = "0.1.0"

from .attack import (
    AttackController,
    AttackPhase,
    DensityEstimates,
    InducingTemplate,
    decide_launch,
    observe,
)
from .channel import (
    ChannelParams,
    InterfererField,
    empirical_success_prob,
    field_constant,
    max_allowable_su_density,
    median_sinr,
    path_gain,
    success_prob,
)
from .engine import (
    ConfigError,
    MetricsRecord,
    RunResult,
    ScenarioConfig,
    SimulationError,
    run,
    run_meanfield,
    run_montecarlo,
    sweep_region,
)
from .game import (
    DynamicsParams,
    GameEnv,
    MuDrive,
    PayoffParams,
    StrategySet,
    classify_operating_point,
    find_rest_points,
    perception_prob,
    replicator_step,
    run_dynamics,
)
from .geometry import (
    NodeSet,
    Region,
    World,
    attach_receivers,
    sample_ppp,
    sample_world,
    toroidal_distance,
)
